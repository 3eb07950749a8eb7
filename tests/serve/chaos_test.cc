// Chaos suite: the serving daemon under injected faults, deadlines, and
// admission pressure. Every test arms the process-global FaultInjector and
// asserts the same invariant from a different angle — the daemon never
// crashes, every response is one well-formed `ok`/`err` line, and recover
// keeps answering (tagged degraded=structural) even with the model path
// fully broken.
//
// Labelled `chaos` in ctest; the acceptance gate runs it under both
// ThreadSanitizer and AddressSanitizer (tools/static_analysis.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "runtime/fault_injector.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/serve_loop.h"
#include "util/check.h"
#include "util/string_utils.h"

namespace rebert::serve {
namespace {

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

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool well_formed(const std::string& response) {
  return response == "ok" || util::starts_with(response, "ok ") ||
         util::starts_with(response, "err ");
}

int connect_raw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      return fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::close(fd);
  return -1;
}

std::string read_line_fd(int fd) {
  std::string line;
  char c;
  while (true) {
    ssize_t got;
    do {
      got = ::read(fd, &c, 1);
    } while (got < 0 && errno == EINTR);
    if (got <= 0 || c == '\n') return line;
    line += c;
  }
}

/// Every chaos test must leave the process-global injector clean — the
/// sites are wired into production code shared by every other test in
/// this binary.
class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override {
    runtime::FaultInjector::global().disarm_all();
  }
};

TEST_F(ChaosTest, AllSitesArmedDaemonSurvivesEveryRequest) {
  runtime::FaultInjector& faults = runtime::FaultInjector::global();
  for (const std::string& site : runtime::fault_sites())
    faults.arm(site, 1.0, 7);

  const std::string snapshot =
      ::testing::TempDir() + "/chaos_all_sites.rbpc";
  std::remove(snapshot.c_str());
  InferenceEngine engine(small_options());
  ServeLoop loop(engine);
  loop.enable_snapshots(snapshot, /*every_n=*/1);  // exercises snapshot.save
  const std::vector<std::string> bits = engine.bit_names("b03");
  ASSERT_GE(bits.size(), 2u);

  std::ostringstream script;
  script << "score b03 " << bits[0] << " " << bits[1] << "\n"
         << "score b03 " << bits[1] << " " << bits[0] << "\n"
         << "recover b03\n"
         << "health\nstats\nquit\n";
  std::istringstream in(script.str());
  std::ostringstream out;
  const std::size_t answered = loop.run(in, out);
  EXPECT_EQ(answered, 6u);

  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 6u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(well_formed(line)) << line;
    EXPECT_EQ(line.find('\r'), std::string::npos);
  }
  // With model.forward hard-failing, score answers an error...
  EXPECT_TRUE(util::starts_with(lines[0], "err ")) << lines[0];
  // ...but recover still succeeds via the structural fallback.
  EXPECT_TRUE(util::starts_with(lines[2], "ok words=")) << lines[2];
  EXPECT_NE(lines[2].find("degraded=structural"), std::string::npos)
      << lines[2];
  EXPECT_EQ(lines[2].find("words=0 "), std::string::npos) << lines[2];
  EXPECT_NE(lines[3].find("status=degraded"), std::string::npos) << lines[3];

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.degraded_recoveries, 1u);
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_FALSE(stats.model_healthy);
  // snapshot.save at p=1.0: every save failed, but failed saves only warn.
  EXPECT_FALSE(std::ifstream(snapshot).good());
}

TEST_F(ChaosTest, RecoverDegradesToStructuralAndHealthRecovers) {
  runtime::FaultInjector& faults = runtime::FaultInjector::global();
  faults.arm("model.forward", 1.0, 7);

  InferenceEngine engine(small_options());
  ServeLoop loop(engine);
  bool quit = false;
  EXPECT_NE(loop.handle_line("health", &quit).find("status=ready"),
            std::string::npos);

  const std::string degraded = loop.handle_line("recover b03", &quit);
  EXPECT_TRUE(util::starts_with(degraded, "ok words=")) << degraded;
  EXPECT_NE(degraded.find("degraded=structural"), std::string::npos)
      << degraded;
  EXPECT_NE(loop.handle_line("health", &quit).find("status=degraded"),
            std::string::npos);
  EXPECT_EQ(engine.stats().degraded_recoveries, 1u);

  // Heal the model: the next recover uses the real path, drops the tag,
  // and flips health back to ready.
  faults.disarm_all();
  const std::string healthy = loop.handle_line("recover b03", &quit);
  EXPECT_TRUE(util::starts_with(healthy, "ok words=")) << healthy;
  EXPECT_EQ(healthy.find("degraded"), std::string::npos) << healthy;
  EXPECT_NE(loop.handle_line("health", &quit).find("status=ready"),
            std::string::npos);
  EXPECT_EQ(engine.stats().degraded_recoveries, 1u);
}

TEST_F(ChaosTest, DeadlineExceededOnSlowModel) {
  // Latency mode: every forward sleeps 5 ms, so a 1 ms deadline has
  // always fired by the time the engine polls the token — deterministic
  // without depending on host speed.
  runtime::FaultInjector& faults = runtime::FaultInjector::global();
  faults.arm("model.forward", 1.0, 7, /*delay_ms=*/5);

  InferenceEngine engine(small_options());
  const std::vector<std::string> bits = engine.bit_names("b03");
  ServeLoop loop(engine);
  bool quit = false;
  EXPECT_EQ(loop.handle_line("recover b03 deadline_ms=1", &quit),
            "err deadline_exceeded");
  EXPECT_GE(engine.stats().deadline_exceeded, 1u);

  // The cancelled recover may have cached some pairs already; a fresh
  // engine guarantees the scored pair is a miss, so the 5 ms forward
  // always outlives the 1 ms deadline.
  InferenceEngine cold(small_options());
  ServeLoop cold_loop(cold);
  EXPECT_EQ(cold_loop.handle_line("score b03 " + bits[0] + " " + bits[1] +
                                      " deadline_ms=1",
                                  &quit),
            "err deadline_exceeded");
  EXPECT_GE(cold.stats().deadline_exceeded, 1u);

  // Without the injected latency the same requests complete fine even
  // under a modest deadline-free budget.
  faults.disarm_all();
  EXPECT_TRUE(util::starts_with(loop.handle_line("recover b03", &quit),
                                "ok words="));
}

TEST_F(ChaosTest, DefaultDeadlineAppliesWhenRequestHasNone) {
  runtime::FaultInjector& faults = runtime::FaultInjector::global();
  faults.arm("model.forward", 1.0, 7, /*delay_ms=*/5);
  InferenceEngine engine(small_options());
  ServeLoop loop(engine);
  loop.set_default_deadline_ms(1);
  bool quit = false;
  EXPECT_EQ(loop.handle_line("recover b03", &quit), "err deadline_exceeded");
}

TEST_F(ChaosTest, AdmissionShedsWithAdvisoryRetryAfter) {
  EngineOptions options = small_options();
  options.max_inflight = 1;
  options.retry_after_ms = 7;
  InferenceEngine engine(options);
  const std::vector<std::string> bits = engine.bit_names("b03");
  ServeLoop loop(engine);
  bool quit = false;

  {
    // Hold the whole budget, so the next request is deterministically shed.
    InferenceEngine::Admission held = engine.try_admit();
    ASSERT_TRUE(static_cast<bool>(held));
    const std::string shed = loop.handle_line(
        "score b03 " + bits[0] + " " + bits[1], &quit);
    EXPECT_EQ(shed, "err overloaded retry_after_ms=7");
    EXPECT_EQ(parse_retry_after_ms(shed), 7);
    // health and stats stay answerable while the budget is exhausted —
    // exactly when an operator needs them.
    EXPECT_NE(loop.handle_line("health", &quit).find("status=overloaded"),
              std::string::npos);
    EXPECT_TRUE(util::starts_with(loop.handle_line("stats", &quit), "ok "));
  }
  EXPECT_EQ(engine.stats().shed_requests, 1u);
  EXPECT_EQ(engine.stats().inflight, 0);

  // Slot released: the identical request is admitted and answered.
  EXPECT_TRUE(util::starts_with(
      loop.handle_line("score b03 " + bits[0] + " " + bits[1], &quit),
      "ok "));
}

TEST_F(ChaosTest, ResponseLinesMatchTheTextProtocol) {
  // The exact bytes of every response shape the dispatcher produces,
  // pinned against protocol.h's formatters so they cannot drift.
  EngineOptions options = small_options();
  options.max_inflight = 1;
  options.retry_after_ms = 7;
  InferenceEngine engine(options);
  const std::vector<std::string> bits = engine.bit_names("b03");
  ASSERT_GE(bits.size(), 2u);
  ServeLoop loop(engine);
  bool quit = false;
  const std::string score_line = "score b03 " + bits[0] + " " + bits[1];

  // Scores render with exactly six decimals.
  const std::string score = loop.handle_line(score_line, &quit);
  EXPECT_EQ(score, format_ok(util::format_double(
                       engine.score("b03", bits[0], bits[1]), 6)));
  ASSERT_NE(score.find('.'), std::string::npos) << score;
  EXPECT_EQ(score.size() - score.find('.') - 1, 6u) << score;

  EXPECT_EQ(loop.handle_line("help", &quit), format_ok(help_text()));
  EXPECT_EQ(loop.handle_line("bogus", &quit),
            format_error("unknown request 'bogus' (try: help)"));

  {
    InferenceEngine::Admission held = engine.try_admit();
    ASSERT_TRUE(static_cast<bool>(held));
    const std::string shed = loop.handle_line(score_line, &quit);
    EXPECT_EQ(shed, format_overloaded(7));
    EXPECT_EQ(shed, "err overloaded retry_after_ms=7");
    EXPECT_EQ(parse_retry_after_ms(shed), 7);
  }

  // A degraded recover keeps its payload and appends the tag last.
  runtime::FaultInjector& faults = runtime::FaultInjector::global();
  faults.arm("model.forward", 1.0, 7);
  const std::string degraded = loop.handle_line("recover b03", &quit);
  faults.disarm_all();
  EXPECT_TRUE(util::starts_with(degraded, "ok words=")) << degraded;
  EXPECT_NE(degraded.find(" seconds="), std::string::npos) << degraded;
  const std::string tag = " degraded=structural";
  ASSERT_GT(degraded.size(), tag.size());
  EXPECT_EQ(degraded.substr(degraded.size() - tag.size()), tag) << degraded;

  // A fresh engine makes the scored pair a cache miss, so the 5 ms
  // forward always outlives the 1 ms deadline.
  faults.arm("model.forward", 1.0, 7, /*delay_ms=*/5);
  InferenceEngine cold(small_options());
  ServeLoop cold_loop(cold);
  EXPECT_EQ(cold_loop.handle_line(score_line + " deadline_ms=1", &quit),
            "err deadline_exceeded");
  EXPECT_FALSE(quit);
  EXPECT_EQ(loop.handle_line("quit", &quit), "ok bye");
  EXPECT_TRUE(quit);
}

TEST_F(ChaosTest, GarbageLinesGetShortErrorsAndServiceContinues) {
  InferenceEngine engine(small_options());
  ServeLoop loop(engine);
  bool quit = false;

  std::vector<std::string> garbage;
  garbage.push_back(std::string(3 << 20, 'A'));  // one multi-MB token
  garbage.push_back("score b03 q0 q1 " + std::string(1 << 20, 'x'));
  std::string nul_line = "verb with embedded NULs";
  nul_line[4] = '\0';
  nul_line[9] = '\0';
  garbage.push_back(nul_line);
  std::string many_args = "frobnicate";
  for (int i = 0; i < 100; ++i) many_args += " arg" + std::to_string(i);
  garbage.push_back(many_args);

  for (const std::string& line : garbage) {
    const std::string response = loop.handle_line(line, &quit);
    EXPECT_TRUE(util::starts_with(response, "err ")) << response.substr(0, 80);
    EXPECT_LT(response.size(), 256u) << "response must stay short";
    for (char c : response) {
      EXPECT_GE(c, 0x20) << "control byte echoed back";
      EXPECT_LT(c, 0x7f) << "non-ASCII byte echoed back";
    }
    EXPECT_FALSE(quit);
  }
  // The daemon is unfazed.
  EXPECT_TRUE(
      util::starts_with(loop.handle_line("stats", &quit), "ok threads="));
}

TEST_F(ChaosTest, ConnectionCapShedsAtTheDoor) {
  InferenceEngine engine(small_options());
  ServeLoop loop(engine);
  loop.set_max_connections(1);
  const std::string socket_path =
      ::testing::TempDir() + "/rebert_chaos_cap.sock";
  std::thread server([&] { loop.run_unix_socket(socket_path); });

  Client first(socket_path);
  ASSERT_TRUE(first.connect());
  EXPECT_TRUE(util::starts_with(first.request("stats"), "ok "));

  // The second connection is over the cap: the reactor parks it until its
  // first byte arrives, then answers one advisory shed line and closes —
  // no dispatch, no thread. The request itself is never served.
  const int second = connect_raw(socket_path);
  ASSERT_GE(second, 0);
  const std::string probe = "stats\n";
  (void)::send(second, probe.data(), probe.size(), MSG_NOSIGNAL);
  const std::string refusal = read_line_fd(second);
  EXPECT_TRUE(util::starts_with(refusal, "err overloaded")) << refusal;
  EXPECT_GE(parse_retry_after_ms(refusal), 0) << refusal;
  EXPECT_EQ(read_line_fd(second), "");  // server closed after the refusal
  ::close(second);
  EXPECT_GE(engine.stats().shed_requests, 1u);

  // The capped connection keeps working, and once it leaves the slot is
  // freed — a later client is served (the close is noticed by the reactor
  // asynchronously, so poll briefly).
  EXPECT_TRUE(util::starts_with(first.request("health"), "ok status="));
  first.close();
  bool served = false;
  for (int attempt = 0; attempt < 100 && !served; ++attempt) {
    Client next(socket_path);
    ASSERT_TRUE(next.connect());
    try {
      served = util::starts_with(next.request("stats"), "ok ");
    } catch (const util::CheckError&) {
      // Refused-and-closed while the slot was still held.
    }
    if (!served)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(served);

  loop.stop();
  server.join();
  std::remove(socket_path.c_str());
}

TEST_F(ChaosTest, ConnectionStormIsAbsorbedByTheBacklog) {
  // The old hardcoded listen(, 16) backlog turned connection storms into
  // kernel-level ECONNREFUSED before admission control could answer. With
  // SOMAXCONN (and the reactor accepting in a tight non-blocking loop), a
  // burst of simultaneous connects all get a well-formed answer.
  InferenceEngine engine(small_options());
  ServeLoop loop(engine);
  const std::string socket_path =
      ::testing::TempDir() + "/rebert_chaos_storm_backlog.sock";
  std::thread server([&] { loop.run_unix_socket(socket_path); });
  {
    // Wait for the listener before unleashing the storm.
    Client probe(socket_path);
    ASSERT_TRUE(probe.connect());
  }

  constexpr int kStorm = 96;
  std::atomic<int> refused{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> stormers;
  for (int i = 0; i < kStorm; ++i) {
    stormers.emplace_back([&] {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) return;
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, socket_path.c_str(),
                   sizeof(addr.sun_path) - 1);
      int result;
      do {
        result = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr));
      } while (result != 0 && errno == EINTR);
      if (result != 0) {
        refused.fetch_add(1);
        ::close(fd);
        return;
      }
      const std::string request = "health\n";
      (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
      const std::string response = read_line_fd(fd);
      if (well_formed(response)) answered.fetch_add(1);
      ::close(fd);
    });
  }
  for (std::thread& stormer : stormers) stormer.join();
  EXPECT_EQ(refused.load(), 0);
  EXPECT_EQ(answered.load(), kStorm);

  loop.stop();
  server.join();
  std::remove(socket_path.c_str());
}

TEST_F(ChaosTest, StopDuringInflightDispatchDrainsWithoutWedging) {
  // stop() while a model forward is mid-flight on the dispatch pool: the
  // reactor must close the door, wait for the in-flight dispatch to
  // complete (never yank the engine out from under it), and return — not
  // wedge on the response, not crash on a completion for a dead server.
  runtime::FaultInjector& faults = runtime::FaultInjector::global();
  faults.arm("model.forward", 1.0, 7, /*delay_ms=*/30);

  InferenceEngine engine(small_options());
  ServeLoop loop(engine);
  const std::string socket_path =
      ::testing::TempDir() + "/rebert_chaos_stopflight.sock";
  std::thread server([&] { loop.run_unix_socket(socket_path); });

  const int fd = connect_raw(socket_path);
  ASSERT_GE(fd, 0);
  const std::string request = "recover b03\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  // Give the reactor time to parse and dispatch before pulling the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  loop.stop();
  server.join();  // the ctest timeout is the wedge detector
  ::close(fd);
  std::remove(socket_path.c_str());
}

TEST_F(ChaosTest, StopWithPipelinedBacklogNeverDispatchesPastDrain) {
  // A client pipelines a burst of slow requests, then stop() lands while
  // the first is mid-flight on the pool. The regression this guards: the
  // shutdown drain's final apply_completions() pumped the connection,
  // which parsed the *next* buffered request and dispatched it after the
  // drain had already decided nothing was in flight — run() then
  // destroyed the reactor under a live worker (a use-after-free the ASan
  // job catches). With dispatch gated on stopping() and the drain
  // terminating only on quiesced (no in-flight AND no queued
  // completions), the backlog dies with the connection instead.
  runtime::FaultInjector& faults = runtime::FaultInjector::global();
  faults.arm("model.forward", 1.0, 7, /*delay_ms=*/20);

  InferenceEngine engine(small_options());
  ServeLoop loop(engine);
  const std::string socket_path =
      ::testing::TempDir() + "/rebert_chaos_pipedrain.sock";
  std::thread server([&] { loop.run_unix_socket(socket_path); });

  const int fd = connect_raw(socket_path);
  ASSERT_GE(fd, 0);
  std::string burst;
  for (int i = 0; i < 8; ++i) burst += "recover b03\n";
  (void)::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL);
  // Let the reactor parse and dispatch the first request, then pull the
  // plug so its completion lands inside the drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  loop.stop();
  server.join();  // ctest timeout + sanitizers are the regression detector
  ::close(fd);
  std::remove(socket_path.c_str());
}

TEST_F(ChaosTest, MidRequestDisconnectDuringDispatchKeepsServing) {
  // A client that sends a slow request and vanishes: the dispatch
  // completes against a dead connection, the response is dropped (not
  // misdelivered), and the daemon keeps serving everyone else.
  runtime::FaultInjector& faults = runtime::FaultInjector::global();
  faults.arm("model.forward", 1.0, 7, /*delay_ms=*/20);

  InferenceEngine engine(small_options());
  ServeLoop loop(engine);
  const std::string socket_path =
      ::testing::TempDir() + "/rebert_chaos_vanish.sock";
  std::thread server([&] { loop.run_unix_socket(socket_path); });

  const int fd = connect_raw(socket_path);
  ASSERT_GE(fd, 0);
  const std::string request = "recover b03\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ::close(fd);  // gone before the forward finishes

  faults.disarm_all();
  Client survivor(socket_path);
  ASSERT_TRUE(survivor.connect());
  EXPECT_TRUE(util::starts_with(survivor.request("stats"), "ok threads="));
  survivor.close();

  loop.stop();
  server.join();
  std::remove(socket_path.c_str());
}

TEST_F(ChaosTest, ConcurrentSocketChaosStaysWellFormed) {
  // The TSan target: probabilistic faults on every site while concurrent
  // clients hammer a live socket daemon. Connections may drop (that is
  // the injected behaviour) — but every byte that does come back parses
  // as a well-formed response line, and the daemon outlives the storm.
  runtime::FaultInjector& faults = runtime::FaultInjector::global();
  faults.arm("socket.read", 0.05, 11);
  faults.arm("socket.send", 0.05, 13);
  faults.arm("model.forward", 0.20, 17);
  faults.arm("pool.submit", 0.10, 19);

  EngineOptions options = small_options();
  options.max_inflight = 2;
  options.retry_after_ms = 1;
  InferenceEngine engine(options);
  const std::vector<std::string> bits = engine.bit_names("b03");
  ServeLoop loop(engine);
  const std::string socket_path =
      ::testing::TempDir() + "/rebert_chaos_storm.sock";
  std::thread server([&] { loop.run_unix_socket(socket_path); });

  constexpr int kClients = 4;
  constexpr int kRequests = 30;
  std::atomic<int> malformed{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(socket_path);
      for (int r = 0; r < kRequests; ++r) {
        if (!client.connected() && !client.connect()) return;
        const std::string& a = bits[static_cast<std::size_t>(
            (c + r) % static_cast<int>(bits.size()))];
        const std::string& b = bits[static_cast<std::size_t>(
            (c * 7 + r * 3) % static_cast<int>(bits.size()))];
        try {
          const std::string response =
              client.request("score b03 " + a + " " + b);
          answered.fetch_add(1);
          if (!well_formed(response)) malformed.fetch_add(1);
        } catch (const util::CheckError&) {
          // Injected socket fault dropped this connection; reconnect.
          client.close();
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(malformed.load(), 0);
  EXPECT_GT(answered.load(), 0);

  // Calm the faults: the daemon serves normally afterwards.
  faults.disarm_all();
  Client survivor(socket_path);
  ASSERT_TRUE(survivor.connect());
  EXPECT_TRUE(util::starts_with(survivor.request("stats"), "ok threads="));
  EXPECT_TRUE(util::starts_with(
      survivor.request("score b03 " + bits[0] + " " + bits[1]), "ok "));
  survivor.close();

  loop.stop();
  server.join();
  std::remove(socket_path.c_str());
}

TEST_F(ChaosTest, CacheLoadFaultsDegradeToColdStartNotCrash) {
  // Build a genuinely good snapshot first, so the degradation below is
  // provably the injected fault's doing, not a broken file.
  const std::string snapshot =
      ::testing::TempDir() + "/chaos_cache_fault.rbpc";
  std::remove(snapshot.c_str());
  std::vector<std::string> bits;
  {
    InferenceEngine writer(small_options());
    bits = writer.bit_names("b03");
    ASSERT_GE(bits.size(), 2u);
    (void)writer.score("b03", bits[0], bits[1]);
    writer.save_cache(snapshot);
  }

  runtime::FaultInjector& faults = runtime::FaultInjector::global();
  for (const char* site : {"cache.load", "cache.parse"}) {
    faults.disarm_all();
    faults.arm(site, 1.0, 7);
    InferenceEngine engine(small_options());
    // The injected I/O / parse failure warms nothing and never throws —
    // the daemon starts cold instead of dying on a corrupt snapshot.
    EXPECT_EQ(engine.load_cache(snapshot), 0u) << site;
    EXPECT_EQ(engine.stats().warm_entries, 0u) << site;
    EXPECT_GT(engine.stats().faults_injected, 0u) << site;
    // Cold start means service, not failure: scoring still answers.
    const double score = engine.score("b03", bits[0], bits[1]);
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }

  // Control: with the faults gone the same file warm-starts fine.
  faults.disarm_all();
  InferenceEngine engine(small_options());
  EXPECT_GT(engine.load_cache(snapshot), 0u);
  std::remove(snapshot.c_str());
}

TEST_F(ChaosTest, TokenizerEncodeFaultFailsScoreButRecoverDegrades) {
  runtime::FaultInjector& faults = runtime::FaultInjector::global();
  faults.arm("tokenizer.encode", 1.0, 7);

  // Bench loading tokenizes the bit universe via a different path
  // (tokenize_bits), so construction and bit_names survive the armed
  // encode site — only the per-request encode_pair trips.
  InferenceEngine engine(small_options());
  const std::vector<std::string> bits = engine.bit_names("b03");
  ASSERT_GE(bits.size(), 2u);
  ServeLoop loop(engine);
  bool quit = false;
  const std::string score =
      loop.handle_line("score b03 " + bits[0] + " " + bits[1], &quit);
  EXPECT_TRUE(util::starts_with(score, "err ")) << score;
  // The failed encode is a model-path failure, as it is for recover.
  EXPECT_NE(loop.handle_line("health", &quit).find("status=degraded"),
            std::string::npos);
  const std::string recover = loop.handle_line("recover b03", &quit);
  EXPECT_TRUE(util::starts_with(recover, "ok words=")) << recover;
  EXPECT_NE(recover.find("degraded=structural"), std::string::npos)
      << recover;

  faults.disarm_all();
  EXPECT_TRUE(util::starts_with(
      loop.handle_line("score b03 " + bits[0] + " " + bits[1], &quit),
      "ok "));
  EXPECT_NE(loop.handle_line("health", &quit).find("status=ready"),
            std::string::npos);
}

TEST_F(ChaosTest, UnloadableCheckpointServesDegraded) {
  // A checkpoint that fails to load must not stop the daemon: it starts
  // degraded for good, recover answers through the structural baseline
  // and score answers err.
  const std::string garbage = ::testing::TempDir() + "/chaos_garbage.ckpt";
  {
    std::ofstream out(garbage, std::ios::binary | std::ios::trunc);
    out << "zzz not weights zzz";
  }
  EngineOptions options = small_options();
  options.model_path = garbage;
  InferenceEngine engine(options);
  EXPECT_FALSE(engine.model_healthy());
  const std::vector<std::string> bits = engine.bit_names("b03");
  ASSERT_GE(bits.size(), 2u);
  ServeLoop loop(engine);
  bool quit = false;

  EXPECT_NE(loop.handle_line("health", &quit).find("status=degraded"),
            std::string::npos);
  const std::string score =
      loop.handle_line("score b03 " + bits[0] + " " + bits[1], &quit);
  // The check's message reaches the client; its source location does not.
  EXPECT_EQ(score, "err model is unhealthy (checkpoint failed to load)");
  const std::string recover = loop.handle_line("recover b03", &quit);
  EXPECT_TRUE(util::starts_with(recover, "ok words=")) << recover;
  EXPECT_NE(recover.find("degraded=structural"), std::string::npos)
      << recover;

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.degraded_recoveries, 1u);
  EXPECT_FALSE(stats.model_healthy);  // a structural answer does not heal
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);
  EXPECT_NE(loop.handle_line("health", &quit).find("status=degraded"),
            std::string::npos);
  std::remove(garbage.c_str());
}

}  // namespace
}  // namespace rebert::serve
