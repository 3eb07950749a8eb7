// Client — the calling side of the serving protocol over a Unix socket.
//
// One Client wraps one connection: request() does a single round-trip;
// request_with_retry() additionally honours the server's admission control,
// backing off and retrying when the answer is `err overloaded
// retry_after_ms=<n>`. The backoff is capped exponential and fully
// deterministic — wait times are a function of the attempt number, the
// server's advisory delay, and (when enabled) a seeded jitter, never of
// wall-clock randomness — so a retrying workload replays identically
// (what the chaos tests and the overload bench rely on) while a fleet of
// differently-seeded clients still spreads its retries instead of
// thundering-herding a respawned backend (util/backoff.h).
//
// The peer is untrusted: a response line longer than
// kMaxResponseLineBytes (protocol.h) throws instead of buffering without
// bound, so a backend or socket that never sends a newline cannot grow
// the caller's memory.
#pragma once

#include <cstdint>
#include <string>

namespace rebert::serve {

struct ClientOptions {
  /// connect() polls until the server's socket accepts, at
  /// `connect_poll_ms` intervals, for at most `connect_attempts` tries —
  /// so a client may be launched before its daemon finishes binding.
  int connect_attempts = 200;
  int connect_poll_ms = 10;
  /// request_with_retry(): total send attempts per request (the first try
  /// plus up to max_attempts - 1 retries after overload responses).
  int max_attempts = 8;
  /// Backoff before retry k (1-based) is
  ///   min(max_backoff_ms, max(retry_after_ms, base_backoff_ms << (k-1)))
  /// where retry_after_ms is the server's advisory value from the shed
  /// response (0 when absent).
  int base_backoff_ms = 1;
  int max_backoff_ms = 64;
  /// Deterministic seeded jitter stretching every computed retry backoff
  /// by up to this percentage. 0 (the default) keeps the historic
  /// bit-identical schedule; > 0 de-synchronizes a fleet of clients whose
  /// identical advisories would otherwise re-arrive as one thundering
  /// herd at a respawned backend. Jitter only ever adds delay, so the
  /// server's advisory is still honoured and caps still cap.
  int backoff_jitter_pct = 0;
  /// Seed identifying this waiter for jitter purposes. 0 auto-derives a
  /// per-client seed (socket-path hash mixed with a process-wide client
  /// counter) so simultaneous clients of one daemon spread out; set it
  /// explicitly for replayable chaos tests.
  std::uint64_t backoff_seed = 0;
};

class Client {
 public:
  explicit Client(std::string socket_path, ClientOptions options = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Establish the connection (idempotent). Returns false when the server
  /// never came up within the polling budget.
  bool connect();

  void close();
  bool connected() const { return fd_ >= 0; }

  /// One round-trip: send `line` (newline appended) and return the
  /// response line without its newline. Throws util::CheckError when the
  /// connection is gone (send failure or EOF mid-response) or the
  /// response line outgrows kMaxResponseLineBytes (the connection is
  /// closed first: the stream has no resync point).
  std::string request(const std::string& line);

  /// Round-trip that retries shed requests per ClientOptions. Returns the
  /// first non-overloaded response, or the final overloaded response when
  /// every attempt was shed (the caller can tell via
  /// parse_retry_after_ms >= 0).
  std::string request_with_retry(const std::string& line);

  /// Overload retries performed across the client's lifetime.
  std::uint64_t retries() const { return retries_; }

 private:
  std::string read_line();
  void send_all(const std::string& bytes);

  std::string path_;
  ClientOptions options_;
  std::uint64_t jitter_seed_ = 0;      // resolved from options at ctor
  std::uint64_t jitter_sequence_ = 0;  // numbers every jittered wait
  int fd_ = -1;
  std::string buffer_;  // bytes beyond the last returned line
  std::uint64_t retries_ = 0;
};

}  // namespace rebert::serve
