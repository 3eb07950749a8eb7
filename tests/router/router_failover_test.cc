// Replicated placement and failover — the R=2 contract end-to-end over
// real sockets: answered scores are mirrored to the secondary owner so
// its caches stay warm; a dead primary fails over to that warm secondary
// in ONE dispatch (zero cold misses on the survivor); mirroring never
// blocks or breaks the answer path even when the secondary is dead.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "router/router.h"
#include "serve/client.h"
#include "serve/engine.h"
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

// A two-backend fixture plus the bench/bit bookkeeping every scenario
// needs: which backend is the primary for a chosen bench, which is the
// secondary, and valid bit names for score lines.
struct Pair {
  TestBackend a;
  TestBackend b;
  std::string bench;
  std::vector<std::string> bits;

  explicit Pair(const std::string& tag, EngineOptions options,
                Router& router)
      : a(::testing::TempDir() + "/failover_" + tag + "0.sock", options),
        b(::testing::TempDir() + "/failover_" + tag + "1.sock", options) {
    EXPECT_TRUE(wait_ready(a.path));
    EXPECT_TRUE(wait_ready(b.path));
    router.add_backend("backend0", a.path);
    router.add_backend("backend1", b.path);
    // Any bench works — both backends serve the same deterministic suite —
    // but the scenarios read nicer with a fixed one.
    bench = "b03";
    bits = a.engine.bit_names(bench);
    EXPECT_GE(bits.size(), 2u);
  }

  TestBackend& primary(const Router& router) {
    return router.backend_for(bench) == "backend0" ? a : b;
  }
  TestBackend& secondary(const Router& router) {
    return router.backend_for(bench) == "backend0" ? b : a;
  }
};

TEST(RouterFailoverTest, OwnersVerbListsReplicasInFailoverOrder) {
  Router router(fast_router_options());
  Pair pair("owners", small_options(), router);
  const std::vector<std::string> owners = router.owners_for(pair.bench);
  ASSERT_EQ(owners.size(), 2u);
  EXPECT_EQ(owners[0], router.backend_for(pair.bench));
  EXPECT_NE(owners[0], owners[1]);

  bool quit = false;
  const std::string line =
      router.handle_line("owners " + pair.bench, &quit);
  EXPECT_TRUE(util::starts_with(line, "ok bench=" + pair.bench)) << line;
  EXPECT_NE(line.find("owners=" + owners[0] + "," + owners[1]),
            std::string::npos)
      << line;
  // Empty ring answers, not errors.
  Router empty(fast_router_options());
  EXPECT_TRUE(util::starts_with(empty.handle_line("owners b03", &quit),
                                "ok bench=b03"));
}

TEST(RouterFailoverTest, MirrorKeepsSecondaryWarm) {
  Router router(fast_router_options());
  Pair pair("warm", small_options(), router);
  bool quit = false;
  const std::string score = router.handle_line(
      "score " + pair.bench + " " + pair.bits[0] + " " + pair.bits[1],
      &quit);
  ASSERT_TRUE(util::starts_with(score, "ok ")) << score;
  ASSERT_TRUE(router.wait_mirror_idle(10000));

  EXPECT_GE(router.stats().mirrored, 1u);
  // The replay landed in the secondary's engine: its prediction cache now
  // holds the scored pair without the secondary ever being the owner.
  EXPECT_GE(pair.secondary(router).engine.stats().cache_entries, 1u);
}

TEST(RouterFailoverTest, DeadPrimaryFailsOverWarmInOneDispatch) {
  Router router(fast_router_options());
  Pair pair("over", small_options(), router);
  const std::string line =
      "score " + pair.bench + " " + pair.bits[0] + " " + pair.bits[1];
  bool quit = false;
  const std::string primed = router.handle_line(line, &quit);
  ASSERT_TRUE(util::starts_with(primed, "ok ")) << primed;
  ASSERT_TRUE(router.wait_mirror_idle(10000));
  ASSERT_GE(router.stats().mirrored, 1u);

  TestBackend& survivor = pair.secondary(router);
  const std::uint64_t misses_before = survivor.engine.stats().cache_misses;
  pair.primary(router).kill();

  // ONE dispatch, not a retry loop: the router must absorb the failure
  // internally and answer from the warm secondary.
  const std::string answer = router.handle_line(line, &quit);
  EXPECT_TRUE(util::starts_with(answer, "ok ")) << answer;
  EXPECT_GE(router.stats().replica_hits, 1u);
  EXPECT_GE(router.stats().reroutes, 1u);
  // Zero cold misses: the survivor answered out of its mirror-warmed
  // cache, it did not recompute.
  EXPECT_EQ(survivor.engine.stats().cache_misses, misses_before);
}

TEST(RouterFailoverTest, DeadSecondaryNeverBlocksTheAnswer) {
  Router router(fast_router_options());
  Pair pair("drop", small_options(), router);
  // Kill the secondary WITHOUT telling the router: the enqueue still
  // targets it, the async replay fails, and the answer path never notices.
  pair.secondary(router).kill();

  bool quit = false;
  const auto start = std::chrono::steady_clock::now();
  const std::string score = router.handle_line(
      "score " + pair.bench + " " + pair.bits[0] + " " + pair.bits[1],
      &quit);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(util::starts_with(score, "ok ")) << score;
  ASSERT_TRUE(router.wait_mirror_idle(10000));
  EXPECT_GE(router.stats().mirror_dropped, 1u);
  EXPECT_EQ(router.stats().mirrored, 0u);
  // Generous bound: the answer must not have waited out the replay's
  // connect budget on the dead socket.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
}

TEST(RouterFailoverTest, StatsExposeReplicationCounters) {
  Router router(fast_router_options());
  bool quit = false;
  const std::string stats = router.handle_line("stats", &quit);
  for (const char* field :
       {"replicas=2", "replica_hits=0", "mirrored=0", "mirror_dropped=0"})
    EXPECT_NE(stats.find(field), std::string::npos) << stats << field;
  const std::string health = router.handle_line("health", &quit);
  for (const char* field :
       {"replica_hits=0", "mirror_dropped=0"})
    EXPECT_NE(health.find(field), std::string::npos) << health << field;
}

}  // namespace
}  // namespace rebert::router
