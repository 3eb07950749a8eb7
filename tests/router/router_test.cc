// Router chaos — end-to-end over real Unix sockets with real engines: a
// router in front of in-process serve backends must forward transparently,
// pass backend overload advisories through untouched, survive a backend
// killed mid-storm with zero lost requests, and give a drained or dead
// backend's key range back after revival.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "router/hash_ring.h"
#include "router/router.h"
#include "runtime/fault_injector.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/serve_loop.h"
#include "util/string_utils.h"

namespace rebert::router {
namespace {

using serve::EngineOptions;
using serve::InferenceEngine;
using serve::ServeLoop;

EngineOptions small_options() {
  EngineOptions options;
  options.num_threads = 2;
  options.suite_scale = 0.25;
  options.experiment.pipeline.tokenizer.backtrace_depth = 4;
  options.experiment.pipeline.tokenizer.tree_code_dim = 8;
  options.experiment.pipeline.tokenizer.max_seq_len = 128;
  options.experiment.model_hidden = 32;
  options.experiment.model_layers = 1;
  options.experiment.model_heads = 2;
  return options;
}

RouterOptions fast_router_options() {
  RouterOptions options;
  // Fail fast on dead sockets so reroutes happen in milliseconds, not the
  // patient cold-start connect budget.
  options.client.connect_attempts = 3;
  options.client.connect_poll_ms = 5;
  options.retry_after_ms = 9;
  return options;
}

// An in-process backend: real engine, real serve loop, real socket.
struct TestBackend {
  InferenceEngine engine;
  ServeLoop loop;
  std::string path;
  std::thread server;

  TestBackend(std::string socket_path, EngineOptions options)
      : engine(options),
        loop(engine),
        path(std::move(socket_path)),
        server([this] { loop.run_unix_socket(path); }) {}

  void kill() {
    loop.stop();
    if (server.joinable()) server.join();
  }

  ~TestBackend() {
    kill();
    std::remove(path.c_str());
  }
};

bool wait_ready(const std::string& socket_path) {
  serve::Client client(socket_path);  // default 2 s connect budget
  if (!client.connect()) return false;
  try {
    return util::starts_with(client.request("health"), "ok");
  } catch (const std::exception&) {
    return false;
  }
}

// Drive one line to an `ok` answer, retrying shed/no-backend advisories.
// Returns false when a non-retryable error came back.
bool request_until_ok(Router& router, const std::string& line,
                      int max_attempts = 200) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    bool quit = false;
    const std::string response = router.handle_line(line, &quit);
    if (util::starts_with(response, "ok ")) return true;
    if (util::starts_with(response, "err overloaded") ||
        util::starts_with(response, "err no_backend")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    ADD_FAILURE() << "non-retryable response: " << response;
    return false;
  }
  ADD_FAILURE() << "never answered ok: " << line;
  return false;
}

TEST(RouterTest, BackendForMatchesStandaloneRing) {
  // add_backend never dials, so unreachable sockets are fine here: the
  // placement function must be the plain HashRing of the backend names.
  Router router(fast_router_options());
  router.add_backend("backend0", "/tmp/router_test_nowhere0.sock");
  router.add_backend("backend1", "/tmp/router_test_nowhere1.sock");
  HashRing ring;
  ring.add("backend0");
  ring.add("backend1");
  for (const char* bench : {"b03", "b04", "b05", "b07", "b08", "b11"})
    EXPECT_EQ(router.backend_for(bench), ring.node_for(bench)) << bench;
  EXPECT_THROW(router.add_backend("backend0", "/tmp/dup.sock"),
               std::exception);
}

TEST(RouterTest, EmptyRingRefusesWithAdvisory) {
  Router router(fast_router_options());
  bool quit = false;
  const std::string response = router.handle_line("score b03 q0 q1", &quit);
  EXPECT_EQ(response, serve::format_no_backend(9));
  EXPECT_EQ(serve::parse_retry_after_ms(response), 9);
  EXPECT_EQ(router.stats().no_backend_errors, 1u);

  const std::string health = router.handle_line("health", &quit);
  EXPECT_NE(health.find("status=down"), std::string::npos) << health;
}

TEST(RouterTest, ForwardsRequestsAndAnswersAdminLocally) {
  TestBackend backend(::testing::TempDir() + "/router_fwd.sock",
                      small_options());
  ASSERT_TRUE(wait_ready(backend.path));
  Router router(fast_router_options());
  router.add_backend("backend0", backend.path);

  const std::vector<std::string> bits = backend.engine.bit_names("b03");
  ASSERT_GE(bits.size(), 2u);
  bool quit = false;
  const std::string score = router.handle_line(
      "score b03 " + bits[0] + " " + bits[1], &quit);
  EXPECT_TRUE(util::starts_with(score, "ok ")) << score;

  // deadline_ms= survives the relay verbatim — the backend parses it.
  const std::string timed = router.handle_line(
      "score b03 " + bits[0] + " " + bits[1] + " deadline_ms=0", &quit);
  EXPECT_TRUE(util::starts_with(timed, "ok ")) << timed;
  const std::string malformed = router.handle_line(
      "score b03 " + bits[0] + " " + bits[1] + " deadline_ms=-1", &quit);
  EXPECT_TRUE(util::starts_with(malformed, "err ")) << malformed;

  // Admin verbs are answered by the router itself.
  const std::string stats = router.handle_line("stats", &quit);
  EXPECT_TRUE(util::starts_with(stats, "ok role=router")) << stats;
  const std::string backends = router.handle_line("backends", &quit);
  EXPECT_NE(backends.find("name=backend0"), std::string::npos) << backends;
  const std::string health = router.handle_line("health", &quit);
  EXPECT_NE(health.find("status=ready"), std::string::npos) << health;
  const std::string help = router.handle_line("help", &quit);
  EXPECT_NE(help.find("drain <name>"), std::string::npos) << help;
  EXPECT_TRUE(util::starts_with(router.handle_line("bogus verb", &quit),
                                "err "));
  EXPECT_FALSE(quit);
  EXPECT_TRUE(util::starts_with(router.handle_line("quit", &quit), "ok "));
  EXPECT_TRUE(quit);
  EXPECT_GE(router.stats().forwarded, 2u);
}

TEST(RouterTest, BackendOverloadAdvisoryPassesThrough) {
  EngineOptions options = small_options();
  options.max_inflight = 1;
  options.retry_after_ms = 7;  // distinct from the router's 9
  TestBackend backend(::testing::TempDir() + "/router_ovl.sock", options);
  ASSERT_TRUE(wait_ready(backend.path));
  Router router(fast_router_options());
  router.add_backend("backend0", backend.path);

  const std::vector<std::string> bits = backend.engine.bit_names("b03");
  ASSERT_GE(bits.size(), 3u);
  bool quit = false;
  // bit_names() above already loaded the bench context, so the slow score
  // is all model time. Deliberately NO warm-up score: tiny benches collapse
  // distinct bit pairs onto one prediction-cache key, and a cached answer
  // would release the admission slot before the fault latency is felt.
  runtime::FaultInjector::global().arm("model.forward", 1.0, 3, 120);
  std::thread slow([&] {
    bool ignored = false;
    (void)router.handle_line("score b03 " + bits[0] + " " + bits[2],
                             &ignored);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // The single admission slot is held by the slow request; this one must
  // come back shed, carrying the BACKEND's advisory delay untouched.
  const std::string shed =
      router.handle_line("score b03 " + bits[1] + " " + bits[2], &quit);
  slow.join();
  runtime::FaultInjector::global().disarm_all();
  EXPECT_TRUE(util::starts_with(shed, "err overloaded")) << shed;
  EXPECT_EQ(serve::parse_retry_after_ms(shed), 7) << shed;
}

TEST(RouterTest, DegradedRecoverTagPassesThroughUnchanged) {
  TestBackend backend(::testing::TempDir() + "/router_degraded.sock",
                      small_options());
  ASSERT_TRUE(wait_ready(backend.path));
  Router router(fast_router_options());
  router.add_backend("backend0", backend.path);
  (void)backend.engine.warm("b03");

  // Every forward fails -> the backend answers from the structural
  // fallback and tags the line; the router must relay the tag as sent.
  runtime::FaultInjector::global().arm("model.forward", 1.0, 7);
  bool quit = false;
  const std::string recovered = router.handle_line("recover b03", &quit);
  runtime::FaultInjector::global().disarm_all();

  EXPECT_TRUE(util::starts_with(recovered, "ok words=")) << recovered;
  const std::string tag = " degraded=structural";
  ASSERT_GE(recovered.size(), tag.size());
  EXPECT_EQ(recovered.substr(recovered.size() - tag.size()), tag)
      << recovered;
  EXPECT_GE(backend.engine.stats().degraded_recoveries, 1u);
}

TEST(RouterTest, DrainMovesKeysAndUndrainRestoresThem) {
  TestBackend backend0(::testing::TempDir() + "/router_drain0.sock",
                       small_options());
  TestBackend backend1(::testing::TempDir() + "/router_drain1.sock",
                       small_options());
  ASSERT_TRUE(wait_ready(backend0.path));
  ASSERT_TRUE(wait_ready(backend1.path));
  Router router(fast_router_options());
  router.add_backend("backend0", backend0.path);
  router.add_backend("backend1", backend1.path);

  const std::vector<std::string> benches = {"b03", "b04", "b05", "b07",
                                            "b08", "b11", "b12", "b13"};
  std::map<std::string, std::string> before;
  for (const std::string& bench : benches)
    before[bench] = router.backend_for(bench);

  bool quit = false;
  EXPECT_TRUE(util::starts_with(
      router.handle_line("drain backend1", &quit), "ok "));
  for (const std::string& bench : benches)
    EXPECT_EQ(router.backend_for(bench), "backend0") << bench;
  // Traffic keeps flowing during the drain.
  const std::vector<std::string> bits = backend0.engine.bit_names("b03");
  ASSERT_GE(bits.size(), 2u);
  EXPECT_TRUE(request_until_ok(
      router, "score b03 " + bits[0] + " " + bits[1]));

  EXPECT_TRUE(util::starts_with(
      router.handle_line("undrain backend1", &quit), "ok "));
  for (const std::string& bench : benches)
    EXPECT_EQ(router.backend_for(bench), before[bench]) << bench;

  EXPECT_TRUE(util::starts_with(
      router.handle_line("drain nosuch", &quit), "err "));
  EXPECT_TRUE(util::starts_with(
      router.handle_line("undrain nosuch", &quit), "err "));
}

TEST(RouterTest, KillBackendMidStormLosesNoRequests) {
  TestBackend backend0(::testing::TempDir() + "/router_storm0.sock",
                       small_options());
  TestBackend backend1(::testing::TempDir() + "/router_storm1.sock",
                       small_options());
  ASSERT_TRUE(wait_ready(backend0.path));
  ASSERT_TRUE(wait_ready(backend1.path));
  Router router(fast_router_options());
  router.add_backend("backend0", backend0.path);
  router.add_backend("backend1", backend1.path);

  const std::vector<std::string> benches = {"b03", "b04", "b05", "b07",
                                            "b08", "b11", "b12", "b13"};
  std::map<std::string, std::string> owner_before;
  std::map<std::string, std::vector<std::string>> bench_bits;
  bool backend1_owned_any = false;
  for (const std::string& bench : benches) {
    owner_before[bench] = router.backend_for(bench);
    backend1_owned_any |= owner_before[bench] == "backend1";
    // The generated suite is deterministic, so backend0's names are valid
    // on backend1 too.
    bench_bits[bench] = backend0.engine.bit_names(bench);
    ASSERT_GE(bench_bits[bench].size(), 2u) << bench;
  }

  // Pace the storm a little so the kill reliably lands mid-flight.
  runtime::FaultInjector::global().arm("model.forward", 1.0, 5, 1);
  const int kThreads = 4;
  const int kPerThread = 30;
  std::atomic<int> answered{0};
  std::vector<std::thread> storm;
  for (int t = 0; t < kThreads; ++t) {
    storm.emplace_back([&, t] {
      for (int r = 0; r < kPerThread; ++r) {
        const std::string& bench =
            benches[static_cast<std::size_t>(t + r) % benches.size()];
        const std::vector<std::string>& bits = bench_bits.at(bench);
        const std::string line =
            "score " + bench + " " + bits[0] + " " +
            bits[1 + static_cast<std::size_t>(t + r) % (bits.size() - 1)];
        if (request_until_ok(router, line)) answered.fetch_add(1);
      }
    });
  }
  // Kill backend1 once the storm is demonstrably in progress (bounded
  // wait: if the storm somehow finishes first, the kill still happens and
  // the reroute assertions below stay conditional on ownership).
  for (int waited = 0;
       answered.load() < kThreads * kPerThread / 4 && waited < 30000;
       ++waited)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  backend1.kill();
  for (std::thread& thread : storm) thread.join();
  runtime::FaultInjector::global().disarm_all();

  EXPECT_EQ(answered.load(), kThreads * kPerThread) << "lost requests";
  // Only the dead backend's key range moved; the survivor kept its own.
  for (const std::string& bench : benches) {
    EXPECT_EQ(router.backend_for(bench), "backend0") << bench;
    if (owner_before[bench] == "backend0") {
      EXPECT_EQ(router.backend_for(bench), owner_before[bench]) << bench;
    }
  }
  if (backend1_owned_any) {
    EXPECT_GE(router.stats().reroutes, 1u);
    EXPECT_GE(router.stats().backends_failed, 1u);
  }
}

TEST(RouterTest, ProbeEvictsDeadAndRevivesRestartedBackend) {
  TestBackend backend0(::testing::TempDir() + "/router_probe0.sock",
                       small_options());
  ASSERT_TRUE(wait_ready(backend0.path));
  const std::string path1 = ::testing::TempDir() + "/router_probe1.sock";
  InferenceEngine engine1(small_options());
  auto loop1 = std::make_unique<ServeLoop>(engine1);
  std::thread server1([&] { loop1->run_unix_socket(path1); });
  ASSERT_TRUE(wait_ready(path1));

  Router router(fast_router_options());
  router.add_backend("backend0", backend0.path);
  router.add_backend("backend1", path1);
  std::map<std::string, std::string> before;
  const std::vector<std::string> benches = {"b03", "b04", "b05", "b07",
                                            "b08", "b11", "b12", "b13"};
  for (const std::string& bench : benches)
    before[bench] = router.backend_for(bench);

  router.probe_once();
  EXPECT_EQ(router.stats().backends_failed, 0u);

  loop1->stop();
  server1.join();
  router.probe_once();
  EXPECT_GE(router.stats().backends_failed, 1u);
  for (const std::string& bench : benches)
    EXPECT_EQ(router.backend_for(bench), "backend0") << bench;
  bool quit = false;
  const std::string health = router.handle_line("health", &quit);
  EXPECT_NE(health.find("status=degraded"), std::string::npos) << health;

  // Restart on the same socket: the prober must hand back exactly the old
  // key range (placement is deterministic in the name).
  loop1 = std::make_unique<ServeLoop>(engine1);
  server1 = std::thread([&] { loop1->run_unix_socket(path1); });
  ASSERT_TRUE(wait_ready(path1));
  router.probe_once();
  EXPECT_GE(router.stats().backends_revived, 1u);
  for (const std::string& bench : benches)
    EXPECT_EQ(router.backend_for(bench), before[bench]) << bench;

  loop1->stop();
  server1.join();
  std::remove(path1.c_str());
}

}  // namespace
}  // namespace rebert::router
