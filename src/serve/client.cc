#include "serve/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>

#include "serve/protocol.h"
#include "util/backoff.h"
#include "util/check.h"
#include "util/fnv1a.h"
#include "util/retry_eintr.h"
#include "util/string_utils.h"

namespace rebert::serve {

namespace {

/// Distinguishes simultaneous clients of one socket path when no explicit
/// backoff_seed is given — two clients dialing the same daemon must not
/// share a jitter schedule or the jitter buys nothing.
std::uint64_t next_client_ordinal() {
  static std::atomic<std::uint64_t> ordinal{0};
  return ordinal.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Client::Client(std::string socket_path, ClientOptions options)
    : path_(std::move(socket_path)), options_(options) {
  jitter_seed_ =
      options_.backoff_seed != 0
          ? options_.backoff_seed
          : util::fnv1a(path_) ^
                util::splitmix64(next_client_ordinal());
}

Client::~Client() { close(); }

bool Client::connect() {
  if (fd_ >= 0) return true;
  REBERT_CHECK_MSG(path_.size() < sizeof(sockaddr_un{}.sun_path),
                   "unix socket path too long: " + path_);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
  for (int attempt = 0; attempt < options_.connect_attempts; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    REBERT_CHECK_MSG(fd >= 0, "socket() failed");
    const int result = util::retry_eintr([&] {
      return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr));
    });
    if (result == 0) {
      fd_ = fd;
      return true;
    }
    ::close(fd);
    // ENOENT / ECONNREFUSED: the daemon has not bound yet — poll.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.connect_poll_ms));
  }
  return false;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

std::string Client::read_line() {
  std::size_t newline;
  while ((newline = buffer_.find('\n')) == std::string::npos) {
    if (buffer_.size() > kMaxResponseLineBytes) {
      close();
      REBERT_CHECK_MSG(false, "serve client: response line from " + path_ +
                                  " exceeds " +
                                  std::to_string(kMaxResponseLineBytes) +
                                  " bytes");
    }
    char chunk[4096];
    const ssize_t got = util::retry_eintr([&] {
      return ::read(fd_, chunk, sizeof(chunk));
    });
    REBERT_CHECK_MSG(got > 0, "serve client: connection to " + path_ +
                                  " closed mid-response");
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
  std::string line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  return line;
}

void Client::send_all(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = util::retry_eintr([&] {
      return ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                    MSG_NOSIGNAL);
    });
    REBERT_CHECK_MSG(n > 0, "serve client: send to " + path_ + " failed: " +
                                util::errno_string(errno));
    sent += static_cast<std::size_t>(n);
  }
}

std::string Client::request(const std::string& line) {
  REBERT_CHECK_MSG(fd_ >= 0, "serve client: not connected to " + path_);
  send_all(line + "\n");
  return read_line();
}

std::string Client::request_with_retry(const std::string& line) {
  std::string response;
  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    response = request(line);
    const int retry_after_ms = parse_retry_after_ms(response);
    if (retry_after_ms < 0) return response;  // not an overload shed
    if (attempt == options_.max_attempts) break;  // budget spent
    ++retries_;
    const int doubled =
        options_.base_backoff_ms << std::min(attempt - 1, 20);
    const int backoff = std::min(options_.max_backoff_ms,
                                 std::max(retry_after_ms, doubled));
    // Seeded jitter spreads a fleet's identical advisories apart; with
    // jitter_pct = 0 (default) this is exactly the historic schedule.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(util::apply_backoff_jitter(
            backoff, jitter_seed_, jitter_sequence_++,
            options_.backoff_jitter_pct)));
  }
  return response;
}

}  // namespace rebert::serve
