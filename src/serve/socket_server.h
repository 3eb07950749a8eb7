// SocketServer — the reusable AF_UNIX listener behind the newline
// protocol, built on a non-blocking epoll reactor.
//
// One reactor thread (the caller of run()) owns the listener and every
// connection descriptor: sockets are O_NONBLOCK, registered level-
// triggered in a single epoll set, each with its own read buffer and a
// bounded write queue for partial sends. Request work never runs on the
// reactor — a parsed request line is dispatched to an internal
// runtime::ThreadPool, and the finished response is handed back through a
// completion queue plus an eventfd wakeup, so ten thousand idle
// connections cost ten thousand descriptors and zero threads. What each
// request *means* is the owner's business, injected via Callbacks —
// ServeLoop plugs in the inference engine dispatcher, the Router plugs in
// its forwarding loop, and both get identical transport semantics (and
// identical chaos coverage) for free.
//
// Every connection speaks newline-delimited text. Line length is bounded
// (protocol.h kMaxRequestLineBytes): an oversized line gets a protocol
// error and the connection is closed instead of buffering without limit.
//
// Overload shed happens at the door, but not at accept: a connection over
// max_connections is accepted and parked until its first byte arrives,
// then answered with overload_line() and closed. Refusing at accept would
// make a client's first send fail (EPIPE) before it could read the
// retryable advisory; parking lets serve::Client::request() see the
// `err overloaded retry_after_ms=<n>` line like any other response.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace rebert::runtime {
class ThreadPool;
}  // namespace rebert::runtime

namespace rebert::serve {

class SocketServer {
 public:
  struct Callbacks {
    /// Required. Dispatch one request line; return the response line (no
    /// trailing newline). Set *close_connection to end this connection
    /// after the response is sent. Must not throw — convert failures to
    /// `err ...` lines. Runs on a dispatch pool thread, concurrently with
    /// other connections' requests (never with another request from the
    /// same connection — per-connection dispatch is serialized).
    std::function<std::string(const std::string& line,
                              bool* close_connection)> handle_line;
    /// Optional. True for lines to skip without a response (blank /
    /// comment lines). Default: skip nothing. Runs on the reactor thread.
    std::function<bool(const std::string& line)> is_blank;
    /// Optional. The one-line refusal sent (then the connection closed)
    /// when a connection over max_connections sends its first byte. Also
    /// the place to count the shed. Default: "err overloaded".
    std::function<std::string()> overload_line;
    /// Optional. Invoked after each response is fully flushed to the
    /// socket — cadence hooks (cache snapshots) go here. Runs on the
    /// dispatch pool (never the reactor thread, which must stay free to
    /// accept and pump every other connection), so it may fire
    /// concurrently with itself and with request dispatches — serialize
    /// internally if the hook needs it.
    std::function<void()> on_answered;
    /// Optional. Invoked once when run() finishes shutting down, after
    /// every in-flight dispatch has drained.
    std::function<void()> on_shutdown;
  };

  explicit SocketServer(Callbacks callbacks);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Cap on concurrently served connections; 0 = unlimited. A connection
  /// over the cap is parked until its first byte arrives, then refused
  /// with overload_line() and closed — it never dispatches work and never
  /// counts against the cap itself.
  void set_max_connections(int n) { max_connections_ = n; }

  /// Threads in the internal dispatch pool that runs handle_line; <= 0
  /// (the default) picks kDefaultDispatchThreads.
  /// Takes effect on the next run().
  void set_dispatch_threads(int n) { dispatch_threads_ = n; }

  static constexpr int kDefaultDispatchThreads = 16;

  /// Listen on an AF_UNIX stream socket at `path` (unlinked first — but
  /// only if it already is a socket — and on shutdown). Runs the reactor
  /// loop on the calling thread; blocks until stop(). Throws
  /// util::CheckError when the socket cannot be bound.
  void run(const std::string& path);

  /// End run(): the reactor wakes via the eventfd, stops accepting,
  /// drains in-flight dispatches (responses are flushed best-effort —
  /// a peer that never reads cannot wedge shutdown), closes every
  /// connection it owns, and returns. Safe from any thread, idempotent,
  /// and honoured by a run() that has not started yet.
  void stop();

 private:
  struct Reactor;  // the per-run() epoll state machine (socket_server.cc)

  // One finished dispatch, handed from a pool worker back to the reactor.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::string bytes;
    bool close = false;     // dispatcher set *close_connection
    bool answered = false;  // counts for on_answered once flushed
  };

  /// Queue a finished dispatch's response and wake the reactor. Runs on
  /// dispatch-pool workers. Everything it touches (completion_mu_ and its
  /// guarded state, wake_fd_) lives on the server — NOT the per-run()
  /// Reactor — so a worker preempted here while run() tears the reactor
  /// down still operates on live memory.
  void complete(Completion completion);

  Callbacks callbacks_;
  int max_connections_ = 0;
  int dispatch_threads_ = 0;  // <= 0: kDefaultDispatchThreads
  std::atomic<bool> stopping_{false};
  // eventfd owned for the server's whole life (created in the
  // constructor), so stop() and worker completions always have a live
  // descriptor to poke regardless of run()'s progress.
  int wake_fd_ = -1;
  // Dispatch pool for handle_line; created lazily by
  // run() so a ServeLoop used only over stdio never spawns it.
  std::unique_ptr<runtime::ThreadPool> pool_;
  // The worker -> reactor handoff. Owned by the server, not the Reactor,
  // because pool workers outlive any one run(): a completion landing in
  // the sliver between the shutdown drain's last look and run()'s return
  // must push into memory that is still alive. The reactor swaps the
  // vector out under the lock and applies it lock-free; `inflight_`
  // counts submitted-but-uncompleted dispatches so the drain knows when
  // nothing can arrive anymore.
  util::Mutex completion_mu_{"socket.completions"};
  std::vector<Completion> completions_ GUARDED_BY(completion_mu_);
  std::size_t inflight_ GUARDED_BY(completion_mu_) = 0;
  // Connection ids, monotonic across run()s (touched by the reactor
  // thread only): a completion stranded from a previous run can never
  // alias a connection of the next one.
  std::uint64_t next_conn_id_ = 1;
};

}  // namespace rebert::serve
