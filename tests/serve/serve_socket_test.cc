// Unix-socket transport robustness: a client that disconnects mid-response
// (the SIGPIPE/EPIPE path) or mid-request costs the daemon that one
// connection, never the process, and later clients are served normally.
// Line lengths are bounded in both directions: the server refuses an
// oversized request line, and serve::Client refuses a response line that
// never ends.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

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

int connect_to(const std::string& path) {
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

void send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer may already be gone; that is the point
    sent += static_cast<std::size_t>(n);
  }
}

std::string read_line(int fd) {
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

TEST(ServeSocketTest, RefusesToUnlinkNonSocketPath) {
  // A path collision with a regular file must fail loudly and leave the
  // file untouched — never silently unlink someone's config or checkpoint.
  const std::string path = ::testing::TempDir() + "/rebert_not_a_socket";
  const std::string payload = "precious bytes, do not delete\n";
  {
    std::ofstream out(path, std::ios::binary);
    out << payload;
  }
  InferenceEngine engine(small_options());
  ServeLoop loop(engine);
  try {
    loop.run_unix_socket(path);
    FAIL() << "run_unix_socket accepted a non-socket path";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("not a socket"),
              std::string::npos);
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "file was unlinked";
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, payload);
  std::remove(path.c_str());
}

TEST(ServeSocketTest, DisconnectMidResponseDoesNotKillDaemon) {
  const std::string socket_path =
      ::testing::TempDir() + "/rebert_disconnect.sock";
  InferenceEngine engine(small_options());
  ServeLoop loop(engine);
  std::thread server([&] { loop.run_unix_socket(socket_path); });

  // Rude client: pipeline many requests, then vanish without reading a
  // byte. The responses overrun the dead socket's buffer, so the server's
  // send() hits EPIPE — which must drop this connection, not the process.
  {
    const int rude = connect_to(socket_path);
    ASSERT_GE(rude, 0);
    std::string burst;
    for (int i = 0; i < 400; ++i) burst += "stats\n";
    send_all(rude, burst);
    ::close(rude);
  }

  // A polite client arriving afterwards is served normally — the proof
  // that the daemon survived the EPIPE above.
  for (int round = 0; round < 3; ++round) {
    const int polite = connect_to(socket_path);
    ASSERT_GE(polite, 0);
    send_all(polite, "stats\n");
    const std::string response = read_line(polite);
    EXPECT_TRUE(util::starts_with(response, "ok threads=")) << response;
    ::close(polite);
  }

  loop.stop();
  server.join();
  std::remove(socket_path.c_str());
}

TEST(ServeSocketTest, HalfLineThenDisconnectIsDropped) {
  const std::string socket_path =
      ::testing::TempDir() + "/rebert_halfline.sock";
  InferenceEngine engine(small_options());
  ServeLoop loop(engine);
  std::thread server([&] { loop.run_unix_socket(socket_path); });

  {
    const int rude = connect_to(socket_path);
    ASSERT_GE(rude, 0);
    send_all(rude, "score b03 q0");  // no newline, then gone
    ::close(rude);
  }

  const int polite = connect_to(socket_path);
  ASSERT_GE(polite, 0);
  send_all(polite, "help\n");
  EXPECT_TRUE(util::starts_with(read_line(polite), "ok commands:"));
  ::close(polite);

  loop.stop();
  server.join();
  std::remove(socket_path.c_str());
}

TEST(ServeSocketTest, QuitClosesOnlyThatConnection) {
  const std::string socket_path = ::testing::TempDir() + "/rebert_quit.sock";
  InferenceEngine engine(small_options());
  ServeLoop loop(engine);
  std::thread server([&] { loop.run_unix_socket(socket_path); });

  const int first = connect_to(socket_path);
  ASSERT_GE(first, 0);
  send_all(first, "quit\n");
  EXPECT_EQ(read_line(first), "ok bye");
  EXPECT_EQ(read_line(first), "");  // server closed the connection
  ::close(first);

  const int second = connect_to(socket_path);
  ASSERT_GE(second, 0);
  send_all(second, "stats\n");
  EXPECT_TRUE(util::starts_with(read_line(second), "ok threads="));
  ::close(second);

  loop.stop();
  server.join();
  std::remove(socket_path.c_str());
}

TEST(ServeSocketTest, OversizedTextLineRefusedAndClosed) {
  const std::string socket_path =
      ::testing::TempDir() + "/rebert_oversized_line.sock";
  InferenceEngine engine(small_options());
  ServeLoop loop(engine);
  std::thread server([&] { loop.run_unix_socket(socket_path); });

  const int fd = connect_to(socket_path);
  ASSERT_GE(fd, 0);
  const std::string huge(kMaxRequestLineBytes + 64, 'a');
  send_all(fd, huge + "\n");
  EXPECT_EQ(read_line(fd), format_line_too_long());
  EXPECT_EQ(read_line(fd), "");  // server closed the connection
  ::close(fd);

  loop.stop();
  server.join();
  std::remove(socket_path.c_str());
}

TEST(ServeSocketTest, ClientRefusesResponseLineThatNeverEnds) {
  // A peer that streams bytes without ever sending a newline must not
  // grow the client's buffer without bound: request() throws once the
  // pending line passes kMaxResponseLineBytes, long before the peer is
  // done (it would send 16x the cap, then close).
  const std::string socket_path =
      ::testing::TempDir() + "/rebert_endless_line.sock";
  std::remove(socket_path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  std::thread endless([&] {
    int fd;
    do {
      fd = ::accept(listener, nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return;
    char sink[64];
    (void)::read(fd, sink, sizeof(sink));  // the request line
    const std::string chunk(4096, 'x');
    for (std::size_t sent = 0; sent < 16 * kMaxResponseLineBytes;
         sent += chunk.size()) {
      if (::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL) <= 0) break;
    }
    ::close(fd);
  });

  Client client(socket_path);
  ASSERT_TRUE(client.connect());
  try {
    (void)client.request("stats");
    FAIL() << "request() returned from a response line that never ends";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(client.connected());

  endless.join();
  ::close(listener);
  std::remove(socket_path.c_str());
}

}  // namespace
}  // namespace rebert::serve
