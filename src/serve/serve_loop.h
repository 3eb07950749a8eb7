// ServeLoop — transports for the serving protocol (protocol.h).
//
// Two transports share one dispatcher over the one request model, a text
// line:
//   * run(in, out)        — stdio / any iostream pair; one request per
//                           line until EOF or `quit`. What `rebert_cli
//                           serve` uses by default, and what the tests
//                           drive with stringstreams.
//   * run_unix_socket(p)  — AF_UNIX stream server at path p (transport
//                           provided by SocketServer; ServeLoop plugs the
//                           engine dispatcher into its callbacks). `quit`
//                           closes that connection only; stop() (or
//                           destruction) shuts the listener down and joins
//                           the handlers.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/socket_server.h"
#include "util/mutex.h"

namespace rebert::serve {

class ServeLoop {
 public:
  explicit ServeLoop(InferenceEngine& engine);

  /// The one dispatcher behind every transport: admission, deadlines,
  /// engine calls, degraded tagging. Returns the response line (without
  /// trailing newline); sets *quit on a quit request. Never throws —
  /// engine failures come back as `err` lines, so a malformed request can
  /// never take the daemon down.
  std::string dispatch(const Request& request, bool* quit);

  /// dispatch() over parse_request(line).
  std::string handle_line(const std::string& line, bool* quit);

  /// Serve `in` line by line until EOF or quit, writing one response line
  /// per request to `out`. Blank and comment lines are skipped silently.
  /// Returns the number of requests answered.
  std::size_t run(std::istream& in, std::ostream& out);

  /// Listen on an AF_UNIX stream socket (the path is unlinked first and
  /// on shutdown). Blocks until stop() is called from another thread.
  /// Throws util::CheckError when the socket cannot be created or bound.
  void run_unix_socket(const std::string& path);

  /// Ask run_unix_socket to shut down: stops accepting, closes the
  /// listener, joins connection handlers. Safe from any thread.
  void stop() { socket_server_.stop(); }

  /// Persist the engine's prediction cache to `path` after every
  /// `every_n` answered requests, and once more when a serving loop exits
  /// cleanly (EOF, quit, stop()). A save is skipped when the cache gained
  /// no entry since the last one, so idle lines (health probes, stats)
  /// never rewrite the file. Snapshots are atomic (temp + fsync +
  /// rename), so a crash mid-snapshot leaves the previous one intact.
  /// Call before serving; `every_n < 1` snapshots only on shutdown.
  void enable_snapshots(std::string path, int every_n);

  /// Snapshot now (no-op unless enable_snapshots was called). `force`
  /// ignores the request cadence — used on clean shutdown. Concurrent
  /// callers coalesce: a cadence-triggered save that finds another save in
  /// flight skips instead of queueing. Save failures are logged, never
  /// thrown — losing a snapshot must not take down serving.
  void snapshot_cache(bool force) EXCLUDES(snapshot_mu_);

  /// Default deadline applied to score/recover requests that carry no
  /// deadline_ms field of their own; 0 (the default) imposes none. An
  /// expired deadline answers `err deadline_exceeded`.
  void set_default_deadline_ms(int ms) { default_deadline_ms_ = ms; }

  /// Cap on concurrently served socket connections; 0 = unlimited. A
  /// connection arriving over the cap is answered `err overloaded
  /// retry_after_ms=<n>` at its first byte and closed; it never
  /// dispatches.
  void set_max_connections(int n) { socket_server_.set_max_connections(n); }

  /// Threads in the socket transport's dispatch pool (the reactor never
  /// runs model work itself); <= 0 keeps the SocketServer default.
  void set_dispatch_threads(int n) { socket_server_.set_dispatch_threads(n); }

 private:
  void count_request_for_snapshot();

  InferenceEngine& engine_;
  SocketServer socket_server_;
  int default_deadline_ms_ = 0;

  std::string snapshot_path_;
  int snapshot_every_ = 0;
  std::atomic<std::uint64_t> answered_since_snapshot_{0};
  util::Mutex snapshot_mu_{"serve.snapshot"};  // serializes actual saves
  // The engine's cache_inserts() read before the last save that landed.
  std::uint64_t inserts_at_last_save_ GUARDED_BY(snapshot_mu_) = 0;
};

}  // namespace rebert::serve
