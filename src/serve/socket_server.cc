#include "serve/socket_server.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "runtime/fault_injector.h"
#include "runtime/thread_pool.h"
#include "serve/protocol.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/string_utils.h"

namespace rebert::serve {

namespace {

// Hard ceiling on one connection's pending output. Per-connection dispatch
// is serialized (one in-flight request, one queued response), so the queue
// holds at most one response plus protocol chatter; the cap only guards
// against a future caller returning something pathological.
constexpr std::size_t kMaxWriteQueueBytes = 4u << 20;

constexpr int kMaxEpollEvents = 256;

}  // namespace

// The per-run() epoll state machine. Everything here — the listener, the
// epoll set, every Conn — is owned and touched by the reactor thread
// only; the single cross-thread surface is the completion queue under
// `mu`, fed by dispatch-pool workers and drained on eventfd wakeups.
struct SocketServer::Reactor {
  struct Conn {
    int fd = -1;
    // Identity for completions: a dispatch in flight names its connection
    // by id, never fd, so a response finished after the connection died
    // (and the fd number was reused) is dropped instead of misdelivered.
    std::uint64_t id = 0;
    bool shed = false;              // over the cap: refuse at first byte
    bool busy = false;              // a dispatch is in flight
    bool close_after_flush = false; // end the connection once out drains
    bool answered_pending = false;  // fire on_answered when out drains
    std::uint32_t interest = 0;     // events currently registered in epoll
    std::string in;                 // bytes read, not yet parsed
    std::string out;                // bounded write queue (partial sends)
    std::size_t out_off = 0;
  };

  using Completion = SocketServer::Completion;

  explicit Reactor(SocketServer& server) : server_(server) {}

  SocketServer& server_;
  runtime::FaultInjector& faults_ = runtime::FaultInjector::global();
  int epoll_fd = -1;
  int listener = -1;
  // Descriptor exhaustion (EMFILE/ENFILE) parks the listener outside the
  // epoll set — level-triggered readiness on a listener we cannot accept
  // from would otherwise spin the loop at 100% CPU. Re-armed when a
  // descriptor frees up or on the retry tick.
  bool listener_paused = false;

  std::unordered_map<int, Conn> conns;                  // keyed by fd
  std::unordered_map<std::uint64_t, int> fd_by_id;      // id -> live fd
  int live = 0;  // connections counted against max_connections (not shed)

  bool stopping() const {
    return server_.stopping_.load(std::memory_order_acquire);
  }

  void drain_wake_fd() {
    std::uint64_t counter = 0;
    (void)!::read(server_.wake_fd_, &counter, sizeof(counter));
  }

  // ---- epoll bookkeeping ----------------------------------------------

  /// Register `fd` for `events`; false on failure (max_user_watches,
  /// ENOMEM — reachable pressure at C10K scale, so per-connection call
  /// sites shed the one connection instead of dying).
  bool try_watch(int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  /// Fatal registration for run()'s own plumbing (wake eventfd, listener
  /// at startup) — without those there is no server to degrade to.
  void watch(int fd, std::uint32_t events) {
    REBERT_CHECK_MSG(try_watch(fd, events),
                     "epoll_ctl(ADD) failed: " + util::errno_string(errno));
  }

  void pause_listener() {
    if (listener_paused) return;
    (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listener, nullptr);
    listener_paused = true;
    LOG_WARN << "serve: out of descriptors; pausing accepts until one "
                "frees up";
  }

  void resume_listener() {
    if (!listener_paused) return;
    // Still starved (epoll_ctl needs resources too): stay parked; the
    // loop's retry tick calls back here.
    if (!try_watch(listener, EPOLLIN)) return;
    listener_paused = false;
  }

  /// Level-triggered interest for `conn`'s current state. Reads pause
  /// while a dispatch is in flight or output is pending — the kernel
  /// buffer is the backpressure, exactly like the blocked per-connection
  /// thread used to be.
  void update_interest(Conn& conn) {
    std::uint32_t desired = 0;
    if (!conn.out.empty()) desired |= EPOLLOUT;
    if (!conn.busy && conn.out.empty() && !conn.close_after_flush)
      desired |= EPOLLIN;
    if (desired == conn.interest) return;
    epoll_event ev{};
    ev.events = desired;
    ev.data.fd = conn.fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) == 0)
      conn.interest = desired;
  }

  // ---- connection lifecycle -------------------------------------------

  void accept_ready() {
    while (!listener_paused) {
      const int fd = ::accept4(listener, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EMFILE || errno == ENFILE || errno == ENOMEM)
          pause_listener();
        break;  // EAGAIN: drained; anything else: try again next tick
      }
      Conn conn;
      conn.fd = fd;
      conn.id = server_.next_conn_id_++;
      // Over the cap: accept anyway, but park the connection until its
      // first byte, so the refusal lands as a readable response instead
      // of a failed send. A shed connection never dispatches and never
      // counts against the cap.
      conn.shed = server_.max_connections_ > 0 &&
                  live >= server_.max_connections_;
      if (!conn.shed) ++live;
      conn.interest = EPOLLIN;
      fd_by_id[conn.id] = fd;
      conns.emplace(fd, std::move(conn));
      if (!try_watch(fd, EPOLLIN)) {
        // epoll registration failed under resource pressure: shed this
        // one connection — the peer sees a close — and keep serving.
        LOG_WARN << "serve: epoll_ctl(ADD) failed for a new connection ("
                 << util::errno_string(errno) << "); dropping it";
        close_conn(conns.at(fd));
      }
    }
  }

  void close_conn(Conn& conn) {
    (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    if (!conn.shed) --live;
    fd_by_id.erase(conn.id);
    conns.erase(conn.fd);  // invalidates `conn` — must be last
    // A descriptor just freed up; if accepts were parked on EMFILE this
    // is the moment to re-arm (no-op otherwise, or during shutdown —
    // the drain already took the listener out of the set for good).
    if (!stopping()) resume_listener();
  }

  // ---- output ----------------------------------------------------------

  /// Queue response bytes. Returns false (caller must close_conn) when
  /// the write queue would exceed its bound.
  bool enqueue(Conn& conn, const std::string& bytes) {
    if (conn.out.size() - conn.out_off + bytes.size() > kMaxWriteQueueBytes)
      return false;
    conn.out.append(bytes);
    return true;
  }

  /// Push queued output to the kernel until done or EAGAIN. Returns false
  /// when the connection died under us (EPIPE, injected socket.send
  /// fault); the caller must close_conn.
  bool flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      // The socket.send chaos site fires per write attempt, exactly where
      // the per-connection thread's send loop used to arm it.
      if (faults_.maybe_errno("socket.send", EPIPE)) return false;
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_off,
                 conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;  // EPIPE / ECONNRESET / peer gone
    }
    conn.out.clear();
    conn.out_off = 0;
    return true;
  }

  // ---- parsing & dispatch ----------------------------------------------

  void begin_dispatch() {
    util::MutexLock lock(server_.completion_mu_);
    ++server_.inflight_;
  }

  /// Hand one text line to the dispatch pool. The connection stays busy —
  /// reads paused, no further parsing — until its completion comes back.
  /// The worker lambda captures the SocketServer, never this Reactor: it
  /// may still be running after run() has destroyed the reactor, and
  /// everything it touches must outlive that moment.
  void dispatch_line(Conn& conn, std::string line) {
    conn.busy = true;
    const std::uint64_t id = conn.id;
    SocketServer* server = &server_;
    begin_dispatch();
    try {
      server_.pool_->submit([server, id, line = std::move(line)] {
        Completion done{id, std::string(), /*close=*/false,
                        /*answered=*/true};
        try {
          bool close = false;
          done.bytes = server->callbacks_.handle_line(line, &close) + "\n";
          done.close = close;
        } catch (const std::exception& e) {
          // handle_line is contracted not to throw, but if it does the
          // request still gets an answer and — critically — inflight
          // still decrements, so the connection is never wedged busy and
          // stop()'s drain cannot spin forever.
          done.bytes = format_exception(e) + "\n";
        } catch (...) {
          done.bytes = format_error("dispatch failed") + "\n";
        }
        server->complete(std::move(done));
      });
    } catch (const std::exception& e) {
      // The pool.submit chaos site trips here: the request still gets a
      // well-formed error answer instead of a dropped connection.
      server_.complete({id, format_exception(e) + "\n",
                        /*close=*/false, /*answered=*/true});
    }
  }

  /// Refuse a parked over-cap connection now that it has spoken.
  void refuse_shed(Conn& conn) {
    const std::string refusal = server_.callbacks_.overload_line
                                    ? server_.callbacks_.overload_line()
                                    : std::string("err overloaded");
    conn.in.clear();
    conn.close_after_flush = true;
    (void)enqueue(conn, refusal + "\n");
  }

  /// Advance the connection's protocol state machine: parse what `in`
  /// holds, enqueue protocol chatter inline, dispatch at most one
  /// request. Returns true when it made progress that may unblock another
  /// pump iteration.
  bool process_input(Conn& conn) {
    if (conn.busy || conn.close_after_flush || !conn.out.empty())
      return false;
    // Once stop() is in, nothing new dispatches — ever. Without this, the
    // shutdown drain's final pump of a completed connection would parse
    // the next buffered pipelined request and submit it to the pool after
    // the drain already decided nothing was left, and run() would destroy
    // the reactor under a live worker.
    if (stopping()) return false;
    if (conn.in.empty()) return false;
    if (conn.shed) {
      refuse_shed(conn);
      return true;
    }
    return process_text(conn);
  }

  bool process_text(Conn& conn) {
    bool progressed = false;
    std::size_t newline;
    while (!conn.busy && conn.out.empty() &&
           (newline = conn.in.find('\n')) != std::string::npos) {
      std::string line = conn.in.substr(0, newline);
      conn.in.erase(0, newline + 1);
      progressed = true;
      if (line.size() > kMaxRequestLineBytes) {
        conn.close_after_flush = true;
        (void)enqueue(conn, format_line_too_long() + "\n");
        return true;
      }
      if (server_.callbacks_.is_blank && server_.callbacks_.is_blank(line))
        continue;
      dispatch_line(conn, std::move(line));
      return true;
    }
    if (!conn.busy && conn.in.size() > kMaxRequestLineBytes) {
      // A partial line already over the cap can never become a valid
      // request — refuse now instead of buffering until the client stops.
      conn.close_after_flush = true;
      (void)enqueue(conn, format_line_too_long() + "\n");
      return true;
    }
    return progressed;
  }

  /// Drive one connection as far as it can go right now: flush pending
  /// output, fire on_answered / close-after-flush once drained, parse and
  /// dispatch the next request, repeat until blocked. The one entry point
  /// every readiness event and completion funnels through.
  void pump(int fd) {
    for (;;) {
      auto it = conns.find(fd);
      if (it == conns.end()) return;
      Conn& conn = it->second;
      if (!flush(conn)) {
        close_conn(conn);
        return;
      }
      if (!conn.out.empty()) break;  // kernel buffer full: wait EPOLLOUT
      if (conn.answered_pending) {
        conn.answered_pending = false;
        fire_answered();
        continue;
      }
      if (conn.close_after_flush) {
        close_conn(conn);
        return;
      }
      if (conn.busy) break;
      if (!process_input(conn)) break;
    }
    auto it = conns.find(fd);
    if (it != conns.end()) update_interest(it->second);
  }

  /// Cadence hooks (ServeLoop wires cache snapshots — disk I/O) run on
  /// the dispatch pool: inline on the reactor thread, one snapshot write
  /// would stall accepts and every connection's reads and writes for its
  /// duration. Fire-and-forget — a submit failure (injected pool.submit
  /// fault) drops this one firing; the hook is a cadence signal and the
  /// next flushed response re-fires it.
  void fire_answered() {
    if (!server_.callbacks_.on_answered) return;
    SocketServer* server = &server_;
    try {
      server_.pool_->submit([server] {
        try {
          server->callbacks_.on_answered();
        } catch (...) {
          // A hook failure is the owner's business, never a worker death.
        }
      });
    } catch (...) {
    }
  }

  void conn_readable(Conn& conn) {
    // The socket.read chaos site simulates the hard-error path: this
    // connection drops, the daemon keeps serving.
    if (faults_.maybe_errno("socket.read", EIO)) {
      close_conn(conn);
      return;
    }
    char chunk[4096];
    const ssize_t got = ::read(conn.fd, chunk, sizeof(chunk));
    if (got > 0) {
      conn.in.append(chunk, static_cast<std::size_t>(got));
      pump(conn.fd);
      return;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR))
      return;  // level-triggered epoll redelivers
    close_conn(conn);  // EOF or hard error: drop the connection
  }

  void apply_completions() {
    std::vector<Completion> batch;
    {
      util::MutexLock lock(server_.completion_mu_);
      batch.swap(server_.completions_);
    }
    for (Completion& completion : batch) {
      const auto fd_it = fd_by_id.find(completion.conn_id);
      if (fd_it == fd_by_id.end()) continue;  // connection died meanwhile
      Conn& conn = conns.at(fd_it->second);
      conn.busy = false;
      conn.answered_pending = completion.answered;
      if (completion.close) conn.close_after_flush = true;
      if (!enqueue(conn, completion.bytes)) {
        close_conn(conn);
        continue;
      }
      pump(fd_it->second);
    }
  }

  /// True when no dispatch is in flight AND no completion is queued —
  /// both checked under one lock. A worker decrements inflight in the
  /// same critical section that queues its completion, so this
  /// conjunction (with dispatch gated off by stopping()) proves no
  /// worker will ever touch the queue again for this run.
  bool quiesced() {
    util::MutexLock lock(server_.completion_mu_);
    return server_.inflight_ == 0 && server_.completions_.empty();
  }

  // ---- the loop --------------------------------------------------------

  void loop() {
    epoll_event events[kMaxEpollEvents];
    while (!stopping()) {
      // Parked listener (descriptor exhaustion): poll on a timeout so the
      // re-arm below retries even if no close frees a descriptor first.
      const int n = ::epoll_wait(epoll_fd, events, kMaxEpollEvents,
                                 listener_paused ? 100 : -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      bool accept_pending = false;
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == server_.wake_fd_) {
          drain_wake_fd();
          continue;
        }
        if (fd == listener) {
          // Accepts run after every close in this batch has been
          // processed, so a descriptor number freed here can never be
          // confused with a stale event earlier in the same batch.
          accept_pending = true;
          continue;
        }
        const auto it = conns.find(fd);
        if (it == conns.end()) continue;  // closed earlier in this batch
        Conn& conn = it->second;
        const std::uint32_t got = events[i].events;
        if ((got & (EPOLLHUP | EPOLLERR)) != 0 && (got & EPOLLIN) == 0) {
          // Peer gone with nothing left to read. Also the only signal a
          // busy connection (interest 0) can receive — without this, a
          // level-triggered HUP would spin the reactor.
          close_conn(conn);
          continue;
        }
        if ((got & EPOLLIN) != 0 && (conn.interest & EPOLLIN) != 0) {
          conn_readable(conn);
          if (conns.find(fd) == conns.end()) continue;
        }
        if ((got & EPOLLOUT) != 0) pump(fd);
      }
      apply_completions();
      if (!stopping()) {
        resume_listener();  // no-op unless parked; retried every pass
        if (accept_pending) accept_ready();
      }
    }
    shutdown_drain();
  }

  /// stop()'s no-wedge ordering: close the door, let in-flight dispatches
  /// finish (their responses flushed best-effort — one non-blocking
  /// attempt, never a wait on a slow peer), then close every connection.
  void shutdown_drain() {
    if (!listener_paused)
      (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listener, nullptr);
    // Stop watching connections: during the drain only completions
    // matter, and a readable-but-ignored connection would busy-spin a
    // level-triggered loop.
    for (auto& [fd, conn] : conns)
      (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    // Drain until quiesced: inflight alone is not enough — a completion
    // can land between apply_completions() and the check, and applying
    // it pumps the connection (flush only; process_input refuses to
    // dispatch once stopping()). Only "nothing in flight and nothing
    // queued", observed under one lock after an apply, guarantees no
    // worker has unfinished business with this run.
    for (;;) {
      apply_completions();
      if (quiesced()) break;
      epoll_event events[8];
      const int n = ::epoll_wait(epoll_fd, events, 8, 50);
      for (int i = 0; i < n; ++i)
        if (events[i].data.fd == server_.wake_fd_) drain_wake_fd();
    }
    while (!conns.empty()) close_conn(conns.begin()->second);
  }
};

SocketServer::SocketServer(Callbacks callbacks)
    : callbacks_(std::move(callbacks)) {
  REBERT_CHECK_MSG(static_cast<bool>(callbacks_.handle_line),
                   "SocketServer needs a handle_line callback");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  REBERT_CHECK_MSG(wake_fd_ >= 0, "eventfd() failed");
}

SocketServer::~SocketServer() {
  // Pool first: a worker completing during teardown pokes wake_fd_, which
  // must still be a live descriptor (never a reused number).
  pool_.reset();
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void SocketServer::complete(Completion completion) {
  {
    util::MutexLock lock(completion_mu_);
    completions_.push_back(std::move(completion));
    REBERT_CHECK_MSG(inflight_ > 0, "completion without a dispatch");
    --inflight_;
  }
  // Poke the reactor's eventfd. A full counter (never in practice) or
  // EINTR is fine: the already-pending readable state guarantees a
  // wakeup. If no run() is active the write is drained by the next one,
  // whose first apply_completions() drops this completion by id.
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void SocketServer::run(const std::string& path) {
  REBERT_CHECK_MSG(path.size() < sizeof(sockaddr_un{}.sun_path),
                   "unix socket path too long: " + path);
  // Only ever unlink something that is actually a socket: a path collision
  // with a regular file (a config, a checkpoint) must fail loudly, not
  // silently destroy the file.
  struct stat existing;
  if (::lstat(path.c_str(), &existing) == 0) {
    REBERT_CHECK_MSG(S_ISSOCK(existing.st_mode),
                     "refusing to serve on " + path +
                         ": path exists and is not a socket");
    ::unlink(path.c_str());
  }
  const int listener =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  REBERT_CHECK_MSG(listener >= 0, "socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  // A SOMAXCONN backlog lets a connection storm queue in the kernel until
  // admission control answers it, instead of failing with ECONNREFUSED.
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, SOMAXCONN) != 0) {
    const std::string reason = util::errno_string(errno);
    ::close(listener);
    REBERT_CHECK_MSG(false, "cannot listen on " + path + ": " + reason);
  }
  // Belt and braces with the MSG_NOSIGNAL sends: nothing else in this
  // process wants SIGPIPE's default die-on-write either (a half-closed
  // stdio pipe would otherwise kill a daemon mid-reply).
  std::signal(SIGPIPE, SIG_IGN);

  if (!pool_) {
    const int threads =
        dispatch_threads_ > 0 ? dispatch_threads_ : kDefaultDispatchThreads;
    pool_ = std::make_unique<runtime::ThreadPool>(threads);
  }

  Reactor reactor(*this);
  reactor.listener = listener;
  reactor.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (reactor.epoll_fd < 0) {
    const std::string reason = util::errno_string(errno);
    ::close(listener);
    REBERT_CHECK_MSG(false, "epoll_create1 failed: " + reason);
  }
  reactor.watch(wake_fd_, EPOLLIN);
  reactor.watch(listener, EPOLLIN);
  LOG_INFO << "serve: listening on unix socket " << path
           << " (reactor, backlog " << SOMAXCONN << ")";

  reactor.loop();

  ::close(listener);
  ::close(reactor.epoll_fd);
  ::unlink(path.c_str());
  if (callbacks_.on_shutdown) callbacks_.on_shutdown();
}

void SocketServer::stop() {
  stopping_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

}  // namespace rebert::serve
