// Reactor lifecycle suite: the epoll server core's C10K properties.
// Connection count must never buy a thread — a thousand idle sockets are
// a thousand descriptors in one epoll set — and the write path must
// survive partial sends to a slow reader without blocking the reactor.
//
// Labelled `concurrency` in ctest, so the suite runs under
// ThreadSanitizer via tools/static_analysis.sh.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "runtime/threads.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/serve_loop.h"
#include "serve/socket_server.h"
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

/// Thread count once it settles at `expected` (short-lived threads exit
/// asynchronously after join); returns the last observed value.
int settled_thread_count(int expected) {
  int now = runtime::current_thread_count();
  for (int attempt = 0; attempt < 200 && now != expected; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    now = runtime::current_thread_count();
  }
  return now;
}

class ReactorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = ::testing::TempDir() + "/rebert_reactor_" +
                   std::to_string(::getpid()) + ".sock";
    engine_ = std::make_unique<InferenceEngine>(small_options());
    loop_ = std::make_unique<ServeLoop>(*engine_);
  }

  void start() {
    server_ = std::thread([this] { loop_->run_unix_socket(socket_path_); });
    // The dispatch pool spawns inside run(); wait until the server
    // answers so the thread baseline below is the steady state.
    Client probe(socket_path_);
    ASSERT_TRUE(probe.connect());
    ASSERT_TRUE(util::starts_with(probe.request("stats"), "ok threads="));
  }

  void TearDown() override {
    if (server_.joinable()) {
      loop_->stop();
      server_.join();
    }
    std::remove(socket_path_.c_str());
  }

  std::string socket_path_;
  std::unique_ptr<InferenceEngine> engine_;
  std::unique_ptr<ServeLoop> loop_;
  std::thread server_;
};

TEST_F(ReactorTest, ThousandIdleConnectionsCostZeroThreads) {
  loop_->set_dispatch_threads(4);
  start();
  const int baseline = runtime::current_thread_count();
  ASSERT_GT(baseline, 0) << "procfs unavailable";

  // A thousand connected-but-silent clients: the old design spawned a
  // thread per connection; the reactor holds them all in one epoll set.
  constexpr int kIdle = 1000;
  std::vector<int> idle;
  idle.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    const int fd = connect_raw(socket_path_);
    ASSERT_GE(fd, 0) << "idle connection " << i;
    idle.push_back(fd);
  }
  EXPECT_EQ(runtime::current_thread_count(), baseline)
      << kIdle << " idle connections must not spawn threads";

  // Active traffic is still answered promptly with the idle herd parked.
  Client active(socket_path_);
  ASSERT_TRUE(active.connect());
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(util::starts_with(active.request("health"), "ok status="));
  EXPECT_EQ(runtime::current_thread_count(), baseline);
  active.close();
  for (const int fd : idle) ::close(fd);
}

TEST_F(ReactorTest, ThreadCountReturnsToBaselineAfterBurst) {
  loop_->set_dispatch_threads(4);
  start();
  const int baseline = runtime::current_thread_count();
  ASSERT_GT(baseline, 0) << "procfs unavailable";

  // A burst of short-lived connections — the regression this guards: the
  // old server reaped finished handler threads only when a *new*
  // connection arrived, so a burst then idle held dead threads (and their
  // stacks) indefinitely.
  for (int burst = 0; burst < 64; ++burst) {
    Client client(socket_path_);
    ASSERT_TRUE(client.connect());
    EXPECT_TRUE(util::starts_with(client.request("health"), "ok status="));
    client.close();
  }
  EXPECT_EQ(settled_thread_count(baseline), baseline)
      << "server must hold no per-connection threads after the burst";
}

TEST_F(ReactorTest, PartialWriteBackpressureToSlowReader) {
  start();
  // Pipeline far more response bytes than a unix socket buffers, without
  // reading any of them: the reactor must queue the overflow per
  // connection and keep serving everyone else, then deliver every byte
  // once the slow reader catches up.
  const int slow = connect_raw(socket_path_);
  ASSERT_GE(slow, 0);
  constexpr int kPipelined = 4000;  // ~4000 * ~200B of help text ≈ 800 KiB
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) burst += "help\n";
  std::thread writer([&] {
    std::size_t sent = 0;
    while (sent < burst.size()) {
      const ssize_t n = ::send(slow, burst.data() + sent,
                               burst.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return;
      }
      sent += static_cast<std::size_t>(n);
    }
  });

  // While the slow reader's responses are backed up, other connections
  // are served normally — the reactor never blocks on one full socket.
  Client bystander(socket_path_);
  ASSERT_TRUE(bystander.connect());
  EXPECT_TRUE(util::starts_with(bystander.request("stats"), "ok threads="));
  bystander.close();

  // Now drain slowly and count complete responses: every request gets
  // exactly one well-formed line, none lost or interleaved mid-line.
  int responses = 0;
  std::string buffer;
  char chunk[4096];
  while (responses < kPipelined) {
    ssize_t got;
    do {
      got = ::read(slow, chunk, sizeof(chunk));
    } while (got < 0 && errno == EINTR);
    ASSERT_GT(got, 0) << "connection died after " << responses
                      << " responses";
    buffer.append(chunk, static_cast<std::size_t>(got));
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      ASSERT_TRUE(util::starts_with(line, "ok commands:")) << line;
      ++responses;
    }
  }
  EXPECT_EQ(responses, kPipelined);
  writer.join();
  ::close(slow);
}

TEST_F(ReactorTest, FdExhaustionPausesAcceptsAndRecovers) {
  start();
  // Drive the process out of file descriptors while connections are
  // pending, so the server's accept4 fails with EMFILE. The reactor must
  // park the listener (a level-triggered listener it cannot accept from
  // would spin the loop) and — the half this test can actually assert —
  // re-arm it once descriptors free up, instead of losing it for good.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit tight = saved;
  if (tight.rlim_cur > 160) tight.rlim_cur = 160;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path_.c_str(),
               sizeof(addr.sun_path) - 1);
  std::vector<int> hogs;
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) break;  // the process is out of descriptors
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      break;
    }
    hogs.push_back(fd);
  }
  // Both sides share this process's limit, so by now the server has
  // connections it cannot accept. Let it hit EMFILE and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  for (const int fd : hogs) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  // Descriptors are back: the parked listener must resume (close_conn or
  // the retry tick re-arms it) and fresh clients must be served.
  Client after(socket_path_);
  ASSERT_TRUE(after.connect());
  EXPECT_TRUE(util::starts_with(after.request("health"), "ok status="));
  after.close();
}

TEST(SocketServerTest, ThrowingHandlerStillAnswersAndShutdownDrains) {
  // handle_line is contracted not to throw — but when it does anyway, the
  // worker must turn the exception into a well-formed `err` response and
  // still decrement the in-flight count. The old behaviour left the
  // exception in the pool's discarded future: the connection stayed busy
  // forever and stop()'s drain spun waiting for an in-flight count that
  // never reached zero.
  SocketServer::Callbacks callbacks;
  callbacks.handle_line = [](const std::string& line,
                             bool* /*close*/) -> std::string {
    if (line == "boom") throw std::runtime_error("handler exploded");
    return "ok echo " + line;
  };
  SocketServer server(std::move(callbacks));
  const std::string path = ::testing::TempDir() + "/rebert_reactor_throw_" +
                           std::to_string(::getpid()) + ".sock";
  std::thread thread([&] { server.run(path); });

  Client client(path);
  ASSERT_TRUE(client.connect());
  EXPECT_EQ(client.request("boom"), "err handler exploded");
  // The connection is answered, not wedged: the next request round-trips.
  EXPECT_EQ(client.request("ping"), "ok echo ping");
  client.close();

  server.stop();
  thread.join();  // the ctest timeout is the wedge detector
  std::remove(path.c_str());
}

TEST_F(ReactorTest, MidRequestDisconnectLeavesDaemonServing) {
  start();
  // Half a request then gone — no newline ever arrives, so nothing may
  // dispatch and nothing may leak.
  const int fd = connect_raw(socket_path_);
  ASSERT_GE(fd, 0);
  const std::string partial = "score b03 q0_0";
  (void)::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL);
  ::close(fd);

  Client survivor(socket_path_);
  ASSERT_TRUE(survivor.connect());
  EXPECT_TRUE(util::starts_with(survivor.request("stats"), "ok threads="));
  survivor.close();
}

TEST_F(ReactorTest, StopWithConnectionsInEveryStateReturnsPromptly) {
  start();
  // An idle parked connection, a half-written request, and a client that
  // disconnected already: stop() must close them all without wedging.
  const int idle = connect_raw(socket_path_);
  ASSERT_GE(idle, 0);
  const int half = connect_raw(socket_path_);
  ASSERT_GE(half, 0);
  const std::string partial = "stats";
  (void)::send(half, partial.data(), partial.size(), MSG_NOSIGNAL);
  const int gone = connect_raw(socket_path_);
  ASSERT_GE(gone, 0);
  ::close(gone);

  loop_->stop();
  server_.join();  // the ctest timeout is the wedge detector

  // Both survivors see the connection end — not a hang. EOF or
  // ECONNRESET are both acceptable: unread request bytes dying in the
  // server's buffer turn the close into a reset, and a connection still
  // sitting in the listener's backlog when stop() closes it is reset by
  // the kernel.
  char c;
  EXPECT_LE(::read(idle, &c, 1), 0);
  EXPECT_LE(::read(half, &c, 1), 0);
  ::close(idle);
  ::close(half);
}

}  // namespace
}  // namespace rebert::serve
