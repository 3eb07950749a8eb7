// Router — one endpoint in front of a ring of serve backends.
//
// Speaks the same newline protocol as a single `rebert_cli serve` daemon
// (protocol.h), so clients cannot tell a router from a backend: score and
// recover lines are consistent-hashed on their <bench> token onto a
// HashRing of backend worker processes (each a standard serve daemon
// reached through a serve::ClientPool) and forwarded verbatim; the
// backend's reply — including `err overloaded retry_after_ms=<n>` and
// `degraded=structural` tags — passes through untouched. Hashing on the
// bench name pins each bench's context (netlized, tokenized, cached
// scores) to one backend, which is what makes the fan-out scale: no
// backend pays for benches it never sees.
//
// Replicated placement (R = 2): every request goes to the key's PRIMARY
// owner, and each ok-answered score is additionally enqueued on a bounded
// mirror queue and replayed — asynchronously, best effort, never blocking
// the answer — against the SECONDARY owner, so the replica's prediction
// cache and bench contexts stay warm. When the primary is unreachable
// (probe-dead, stale pooled connection, fresh connect refused) the router
// marks it unhealthy and fails over to the next owner in ring order —
// which the mirror kept warm — instead of answering `no_backend`; when the
// primary merely answers `err overloaded`, the secondary is tried too
// (`replica_hits` counts answers served by a non-primary owner, `mirrored`
// / `mirror_dropped` audit the mirror queue). When no owner answers, the
// request is refused at once: with the freshest backend shed advisory
// (`err overloaded retry_after_ms=<n>`) when an owner shed, otherwise with
// `err no_backend`.
//
// Health: a backend whose connection dies mid-request is retried once on a
// fresh socket (pooled connections go stale when a backend restarts), then
// marked unhealthy and removed from the ring — the request transparently
// fails over to the next owner (counted in `reroutes`). A background
// prober sends `health` to every backend each probe interval, evicting
// newly dead backends and re-adding revived ones, so a restarted worker
// re-takes exactly its old key range (consistent hashing is deterministic
// in the node name).
//
// Admin verbs (answered locally, never forwarded):
//   backends            one line listing each backend's name, path, state
//   owners <bench>      the bench's owner list in failover order
//   drain <name>        remove from the ring (for maintenance); undrain
//   undrain <name>      to put it back
//   stats / health      router-level counters and ring state
//   help / quit         as a backend, plus the admin verbs
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "router/hash_ring.h"
#include "serve/client_pool.h"
#include "serve/socket_server.h"
#include "util/mutex.h"

namespace rebert::router {

struct RouterOptions {
  /// Advisory backoff on router-generated refusals (no backend available,
  /// connection cap). Backend-generated overloads pass through with the
  /// backend's own value.
  int retry_after_ms = 50;
  /// ClientOptions for every backend link (connect budget, request retry).
  serve::ClientOptions client;
  /// Dispatch-pool threads in the router's SocketServer. Forwarding
  /// blocks a pool thread on backend I/O, so this bounds concurrent
  /// forwards; <= 0 keeps the SocketServer default.
  int dispatch_threads = 0;
};

struct RouterStats {
  std::uint64_t forwarded = 0;         // requests relayed to a backend
  std::uint64_t reroutes = 0;          // retries on a different backend
  std::uint64_t replica_hits = 0;      // answered by a non-primary owner
  std::uint64_t mirrored = 0;          // mirror replays answered ok
  std::uint64_t mirror_dropped = 0;    // mirror enqueues/replays lost
  std::uint64_t no_backend_errors = 0; // ring empty / attempts exhausted
  std::uint64_t probes = 0;            // health probes sent
  std::uint64_t backends_failed = 0;   // transitions healthy -> unhealthy
  std::uint64_t backends_revived = 0;  // transitions unhealthy -> healthy
  int backends_total = 0;
  int backends_healthy = 0;            // healthy and not drained
};

class Router {
 public:
  explicit Router(RouterOptions options = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Register a backend worker reachable at `socket_path` and place it on
  /// the ring. Names must be unique; throws util::CheckError on a dup.
  void add_backend(const std::string& name, const std::string& socket_path)
      EXCLUDES(mu_);

  /// Remove / restore a backend's ring membership without forgetting it.
  /// Unknown names return false.
  bool drain(const std::string& name) EXCLUDES(mu_);
  bool undrain(const std::string& name) EXCLUDES(mu_);

  /// Dispatch one request line: admin verbs answered locally, score and
  /// recover forwarded to the bench's ring owner. Never throws. Sets
  /// *quit on a quit request.
  std::string handle_line(const std::string& line, bool* quit);

  /// The backend name currently owning `bench`, "" when the ring is empty.
  /// What the placement tests assert against.
  std::string backend_for(const std::string& bench) const EXCLUDES(mu_);

  /// The bench's owner list in failover order (owners_for(b)[0] ==
  /// backend_for(b)); at most two names, fewer when the ring is smaller.
  std::vector<std::string> owners_for(const std::string& bench) const
      EXCLUDES(mu_);

  /// Extra per-backend text appended to `backends` output lines (the route
  /// CLI wires the supervisor in here so `backends` shows pid= and
  /// restarts=). Called with the backend name; return "" for nothing.
  void set_backend_info(std::function<std::string(const std::string&)> info)
      EXCLUDES(mu_);

  /// Start / stop the background health prober. stop_probes() is
  /// idempotent and also runs on destruction.
  void start_probes();
  void stop_probes();

  /// Probe every backend once, synchronously: evict newly dead backends,
  /// revive answering ones. What the prober thread calls each tick;
  /// exposed so tests can force a transition without sleeping.
  void probe_once() EXCLUDES(mu_);

  /// Block until the mirror queue is empty and the in-flight replay (if
  /// any) finished, or `timeout_ms` elapsed; true when drained. What the
  /// failover tests (RouterFailoverTest.DeadPrimaryFailsOverWarmInOneDispatch)
  /// call between "prime" and "kill" so warmth assertions do not race the
  /// async mirror.
  bool wait_mirror_idle(int timeout_ms) EXCLUDES(mirror_mu_);

  RouterStats stats() const EXCLUDES(mu_);

  /// Serve the router protocol on an AF_UNIX socket (blocks until stop()).
  /// Also starts the prober.
  void run_unix_socket(const std::string& path);
  void stop();

 private:
  struct Backend {
    std::string name;
    std::string socket_path;
    std::unique_ptr<serve::ClientPool> pool;
    std::atomic<bool> healthy{true};
    std::atomic<bool> drained{false};
  };

  /// One mirror replay: the request line re-sent to the secondary owner.
  struct MirrorItem {
    std::string target;  // backend name (resolved again at replay time)
    std::string line;
  };

  /// Forward `line` to the owners of `bench`: owner-list failover and
  /// mirror enqueue (when `mirrorable`).
  std::string forward(const std::string& line, const std::string& bench,
                      bool mirrorable) EXCLUDES(mu_);

  /// Snapshot the bench's owner list as live Backend pointers, purging
  /// ring entries with no backend record (ring/map divergence must not
  /// throw out of the dispatch path). Empty when the ring is empty.
  std::vector<Backend*> snapshot_owners(const std::string& bench)
      EXCLUDES(mu_);

  /// One request over one backend's pool; retries once on a fresh socket
  /// before giving up. Returns false when the backend is unreachable.
  bool try_backend(Backend& backend, const std::string& line,
                   std::string* reply);

  /// Queue the line for async replay against the first healthy owner
  /// other than `answered` — drops (counted) when the queue is full.
  void enqueue_mirror(const std::string& line,
                      const std::vector<Backend*>& owners,
                      std::size_t answered) EXCLUDES(mirror_mu_);

  void start_mirror();
  void stop_mirror();
  void mirror_loop() EXCLUDES(mirror_mu_);
  /// Replay one mirror item; true when the target answered ok.
  bool replay_mirror(const MirrorItem& item) EXCLUDES(mu_);

  void mark_unhealthy(const std::string& name) EXCLUDES(mu_);
  void revive(const std::string& name) EXCLUDES(mu_);

  std::string format_backends() const EXCLUDES(mu_);
  std::string format_owners(const std::string& bench) const EXCLUDES(mu_);
  std::string format_stats() const EXCLUDES(mu_);
  std::string format_health() const EXCLUDES(mu_);

  RouterOptions options_;
  serve::SocketServer socket_server_;

  // Guards ring_ and backends_ *membership*; Backend objects themselves
  // are never erased, so raw Backend* taken under the lock stay valid
  // after it is released (forward/probe_once/mirror rely on this).
  mutable util::Mutex mu_{"router.state"};
  HashRing ring_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Backend>> backends_ GUARDED_BY(mu_);
  std::function<std::string(const std::string&)> backend_info_
      GUARDED_BY(mu_);

  std::thread prober_;
  std::atomic<bool> probing_{false};

  // Mirror queue: leaf lock, never held together with mu_ (enqueue and
  // replay each take exactly one of the two at a time).
  mutable util::Mutex mirror_mu_{"router.mirror"};
  util::CondVar mirror_cv_;
  std::deque<MirrorItem> mirror_queue_ GUARDED_BY(mirror_mu_);
  bool mirror_stop_ GUARDED_BY(mirror_mu_) = false;
  bool mirror_busy_ GUARDED_BY(mirror_mu_) = false;
  std::thread mirror_worker_;

  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> reroutes_{0};
  std::atomic<std::uint64_t> replica_hits_{0};
  std::atomic<std::uint64_t> mirrored_{0};
  std::atomic<std::uint64_t> mirror_dropped_{0};
  std::atomic<std::uint64_t> no_backend_errors_{0};
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> backends_failed_{0};
  std::atomic<std::uint64_t> backends_revived_{0};
};

}  // namespace rebert::router
