#include "router/router.h"

#include <chrono>
#include <exception>
#include <sstream>
#include <thread>
#include <utility>

#include "serve/protocol.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace rebert::router {

namespace {

/// Owners per key: the primary answers, the secondary is mirror-warmed.
constexpr int kReplicas = 2;
/// Health probe cadence of the background prober.
constexpr int kProbeIntervalMs = 200;
/// Placement passes per request: each pass re-snapshots the owner list
/// (the ring shrinks as dead owners are marked) and tries every owner once
/// before the request is refused.
constexpr int kForwardAttempts = 3;
/// Bound on the async mirror queue; an enqueue beyond it is dropped and
/// counted (`mirror_dropped`) — mirroring must never apply backpressure to
/// the answer path.
constexpr std::size_t kMirrorQueueDepth = 256;
/// Idle connections retained per backend pool.
constexpr std::size_t kPoolMaxIdle = 8;

}  // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      socket_server_(serve::SocketServer::Callbacks{
          /*handle_line=*/[this](const std::string& line, bool* quit) {
            return handle_line(line, quit);
          },
          /*is_blank=*/[](const std::string& line) {
            return util::trim(line).empty() || util::trim(line)[0] == '#';
          },
          /*overload_line=*/[this] {
            return serve::format_overloaded(options_.retry_after_ms);
          },
          /*on_answered=*/nullptr,
          /*on_shutdown=*/nullptr}) {
  if (options_.dispatch_threads > 0)
    socket_server_.set_dispatch_threads(options_.dispatch_threads);
  start_mirror();
}

Router::~Router() {
  stop_probes();
  stop_mirror();
}

void Router::add_backend(const std::string& name,
                         const std::string& socket_path) {
  util::MutexLock lock(mu_);
  REBERT_CHECK_MSG(backends_.find(name) == backends_.end(),
                   "duplicate backend '" + name + "'");
  auto backend = std::make_unique<Backend>();
  backend->name = name;
  backend->socket_path = socket_path;
  backend->pool = std::make_unique<serve::ClientPool>(
      socket_path, options_.client, kPoolMaxIdle);
  // Ring first: add() validates the name, and a throw must leave the
  // backend map untouched.
  ring_.add(name);
  backends_.emplace(name, std::move(backend));
  LOG_INFO << "router: backend " << name << " at " << socket_path
           << " joined the ring";
}

bool Router::drain(const std::string& name) {
  util::MutexLock lock(mu_);
  const auto it = backends_.find(name);
  if (it == backends_.end()) return false;
  it->second->drained.store(true, std::memory_order_relaxed);
  ring_.remove(name);
  LOG_INFO << "router: backend " << name << " drained";
  return true;
}

bool Router::undrain(const std::string& name) {
  util::MutexLock lock(mu_);
  const auto it = backends_.find(name);
  if (it == backends_.end()) return false;
  it->second->drained.store(false, std::memory_order_relaxed);
  if (it->second->healthy.load(std::memory_order_relaxed))
    ring_.add(name);
  LOG_INFO << "router: backend " << name << " undrained";
  return true;
}

std::string Router::backend_for(const std::string& bench) const {
  util::MutexLock lock(mu_);
  return ring_.node_for(bench);
}

std::vector<std::string> Router::owners_for(const std::string& bench) const {
  util::MutexLock lock(mu_);
  return ring_.owners(bench, kReplicas);
}

void Router::set_backend_info(
    std::function<std::string(const std::string&)> info) {
  util::MutexLock lock(mu_);
  backend_info_ = std::move(info);
}

void Router::mark_unhealthy(const std::string& name) {
  util::MutexLock lock(mu_);
  const auto it = backends_.find(name);
  if (it == backends_.end()) return;
  if (!it->second->healthy.exchange(false, std::memory_order_relaxed))
    return;  // already out
  ring_.remove(name);
  // Pooled connections to a dead backend are all stale; drop them so a
  // revival starts from fresh sockets.
  it->second->pool->clear_idle();
  backends_failed_.fetch_add(1, std::memory_order_relaxed);
  LOG_WARN << "router: backend " << name
           << " marked unhealthy; ring rebalanced";
}

void Router::revive(const std::string& name) {
  util::MutexLock lock(mu_);
  const auto it = backends_.find(name);
  if (it == backends_.end()) return;
  if (it->second->healthy.exchange(true, std::memory_order_relaxed))
    return;  // was already healthy
  if (!it->second->drained.load(std::memory_order_relaxed))
    ring_.add(name);
  backends_revived_.fetch_add(1, std::memory_order_relaxed);
  LOG_INFO << "router: backend " << name << " revived; key range restored";
}

bool Router::try_backend(Backend& backend, const std::string& line,
                         std::string* reply) {
  serve::ClientPool::Lease lease = backend.pool->acquire();
  if (lease) {
    try {
      *reply = lease->request(line);
      return true;
    } catch (const std::exception&) {
      // A pooled connection can be stale (backend restarted since it was
      // idle); one fresh socket distinguishes "stale connection" from
      // "dead backend" before the ring gets rebalanced.
      lease.discard();
    }
  }
  serve::ClientPool::Lease fresh = backend.pool->acquire_fresh();
  if (!fresh) return false;
  try {
    *reply = fresh->request(line);
    return true;
  } catch (const std::exception&) {
    fresh.discard();
    return false;
  }
}

std::vector<Router::Backend*> Router::snapshot_owners(
    const std::string& bench) {
  util::MutexLock lock(mu_);
  for (;;) {
    const std::vector<std::string> names = ring_.owners(bench, kReplicas);
    std::vector<Backend*> owners;
    owners.reserve(names.size());
    bool diverged = false;
    for (const std::string& name : names) {
      const auto it = backends_.find(name);
      if (it == backends_.end()) {
        // A ring entry with no backend record is a membership bug, but it
        // must degrade to a purge-and-replace, never to std::out_of_range
        // escaping the dispatch path mid-request.
        LOG_WARN << "router: purging ring entry '" << name
                 << "' with no backend record";
        ring_.remove(name);
        diverged = true;
        break;
      }
      owners.push_back(it->second.get());
    }
    if (!diverged) return owners;  // possibly empty: ring was/became empty
  }
}

std::string Router::forward(const std::string& line, const std::string& bench,
                            bool mirrorable) {
  std::string last_shed;
  // Walk the owner list in failover order. A dead owner shrinks the ring
  // (mark_unhealthy) and earns another pass over the re-snapshotted list;
  // a shed answer is remembered and the next — mirror-warmed — owner is
  // tried instead.
  for (int attempt = 0; attempt < kForwardAttempts; ++attempt) {
    const std::vector<Backend*> owners = snapshot_owners(bench);
    if (owners.empty()) break;  // ring empty: refuse below
    bool ring_changed = false;
    for (std::size_t i = 0; i < owners.size(); ++i) {
      std::string reply;
      if (!try_backend(*owners[i], line, &reply)) {
        mark_unhealthy(owners[i]->name);
        reroutes_.fetch_add(1, std::memory_order_relaxed);
        ring_changed = true;
        continue;
      }
      if (util::starts_with(reply, "err overloaded")) {
        last_shed = std::move(reply);  // freshest advisory wins
        continue;
      }
      forwarded_.fetch_add(1, std::memory_order_relaxed);
      if (i > 0) replica_hits_.fetch_add(1, std::memory_order_relaxed);
      if (mirrorable) enqueue_mirror(line, owners, i);
      return reply;
    }
    // Every live owner shed: re-walking the same list immediately would
    // spin, so refuse.
    if (!ring_changed) break;
  }
  if (!last_shed.empty()) {
    // Saturation, not absence: relay the backend's own advisory.
    forwarded_.fetch_add(1, std::memory_order_relaxed);
    return last_shed;
  }
  no_backend_errors_.fetch_add(1, std::memory_order_relaxed);
  return serve::format_no_backend(options_.retry_after_ms);
}

void Router::enqueue_mirror(const std::string& line,
                            const std::vector<Backend*>& owners,
                            std::size_t answered) {
  // Warm the first live owner that did not answer (normally the secondary;
  // the primary itself when a failover answered from the secondary).
  Backend* target = nullptr;
  for (std::size_t i = 0; i < owners.size(); ++i) {
    if (i == answered) continue;
    if (owners[i]->healthy.load(std::memory_order_relaxed) &&
        !owners[i]->drained.load(std::memory_order_relaxed)) {
      target = owners[i];
      break;
    }
  }
  if (target == nullptr) return;  // nobody to warm — nothing was lost
  util::MutexLock lock(mirror_mu_);
  if (mirror_stop_) return;
  if (mirror_queue_.size() >= kMirrorQueueDepth) {
    // Drop, never block: mirroring is strictly best-effort and must not
    // apply backpressure to the answer path.
    mirror_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  mirror_queue_.push_back(MirrorItem{target->name, line});
  mirror_cv_.notify_all();
}

bool Router::replay_mirror(const MirrorItem& item) {
  Backend* backend = nullptr;
  {
    util::MutexLock lock(mu_);
    const auto it = backends_.find(item.target);
    if (it != backends_.end() &&
        it->second->healthy.load(std::memory_order_relaxed) &&
        !it->second->drained.load(std::memory_order_relaxed))
      backend = it->second.get();
  }
  if (backend == nullptr) return false;  // target died since the enqueue
  // A replay failure is just a lost warm-up: membership transitions stay
  // the prober's job, so the mirror thread never rebalances the ring.
  std::string reply;
  return try_backend(*backend, item.line, &reply) &&
         util::starts_with(reply, "ok");
}

void Router::mirror_loop() {
  for (;;) {
    MirrorItem item;
    {
      util::MutexLock lock(mirror_mu_);
      while (mirror_queue_.empty() && !mirror_stop_)
        mirror_cv_.wait(mirror_mu_);
      if (mirror_stop_) {
        // Shutdown drops the backlog (counted): replaying against a fleet
        // that is itself shutting down would only stall the destructor.
        mirror_dropped_.fetch_add(mirror_queue_.size(),
                                  std::memory_order_relaxed);
        mirror_queue_.clear();
        return;
      }
      item = std::move(mirror_queue_.front());
      mirror_queue_.pop_front();
      mirror_busy_ = true;
    }
    const bool warmed = replay_mirror(item);
    (warmed ? mirrored_ : mirror_dropped_)
        .fetch_add(1, std::memory_order_relaxed);
    {
      util::MutexLock lock(mirror_mu_);
      mirror_busy_ = false;
      mirror_cv_.notify_all();  // wake wait_mirror_idle watchers
    }
  }
}

bool Router::wait_mirror_idle(int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  util::MutexLock lock(mirror_mu_);
  while (!mirror_queue_.empty() || mirror_busy_) {
    if (!mirror_cv_.wait_until(mirror_mu_, deadline))
      return mirror_queue_.empty() && !mirror_busy_;
  }
  return true;
}

void Router::start_mirror() {
  mirror_worker_ = std::thread([this] { mirror_loop(); });
}

void Router::stop_mirror() {
  {
    util::MutexLock lock(mirror_mu_);
    mirror_stop_ = true;
    mirror_cv_.notify_all();
  }
  if (mirror_worker_.joinable()) mirror_worker_.join();
}

std::string Router::handle_line(const std::string& line, bool* quit) {
  try {
    // Admin verbs first — they are router vocabulary, not protocol.h's.
    const std::vector<std::string> tokens =
        util::split_ws(util::trim(line));
    if (!tokens.empty()) {
      if (tokens[0] == "backends" && tokens.size() == 1)
        return serve::format_ok(format_backends());
      if (tokens[0] == "owners" && tokens.size() == 2)
        return serve::format_ok(format_owners(tokens[1]));
      if (tokens[0] == "drain" && tokens.size() == 2)
        return drain(tokens[1])
                   ? serve::format_ok("drained " + tokens[1])
                   : serve::format_error("unknown backend '" + tokens[1] +
                                         "'");
      if (tokens[0] == "undrain" && tokens.size() == 2)
        return undrain(tokens[1])
                   ? serve::format_ok("undrained " + tokens[1])
                   : serve::format_error("unknown backend '" + tokens[1] +
                                         "'");
    }
    const serve::Request request = serve::parse_request(line);
    switch (request.type) {
      case serve::RequestType::kScore:
      case serve::RequestType::kRecover:
        // Forward the raw line: the backend re-parses it, so a
        // deadline_ms= field survives verbatim.
        return forward(line, request.bench,
                       request.type == serve::RequestType::kScore);
      case serve::RequestType::kStats:
        return serve::format_ok(format_stats());
      case serve::RequestType::kHealth:
        return serve::format_ok(format_health());
      case serve::RequestType::kHelp:
        return serve::format_ok(
            serve::help_text() +
            "; router: backends | owners <bench> | drain <name> | "
            "undrain <name>");
      case serve::RequestType::kQuit:
        if (quit) *quit = true;
        return serve::format_ok("bye");
      case serve::RequestType::kInvalid:
        return serve::format_error(request.error);
    }
    return serve::format_error("unreachable");
  } catch (const std::exception& e) {
    return serve::format_exception(e);
  }
}

std::string Router::format_backends() const {
  util::MutexLock lock(mu_);
  std::ostringstream out;
  out << "backends=" << backends_.size();
  for (const auto& [name, backend] : backends_) {
    out << " | name=" << name << " path=" << backend->socket_path
        << " healthy=" << (backend->healthy.load(std::memory_order_relaxed)
                               ? 1 : 0)
        << " drained=" << (backend->drained.load(std::memory_order_relaxed)
                               ? 1 : 0);
    if (backend_info_) {
      const std::string extra = backend_info_(name);
      if (!extra.empty()) out << " " << extra;
    }
  }
  return out.str();
}

std::string Router::format_owners(const std::string& bench) const {
  const std::vector<std::string> owners = owners_for(bench);
  std::ostringstream out;
  out << "bench=" << bench << " replicas=" << owners.size() << " owners=";
  if (owners.empty()) {
    out << "none";
  } else {
    for (std::size_t i = 0; i < owners.size(); ++i) {
      if (i > 0) out << ",";
      out << owners[i];
    }
  }
  return out.str();
}

RouterStats Router::stats() const {
  RouterStats stats;
  stats.forwarded = forwarded_.load(std::memory_order_relaxed);
  stats.reroutes = reroutes_.load(std::memory_order_relaxed);
  stats.replica_hits = replica_hits_.load(std::memory_order_relaxed);
  stats.mirrored = mirrored_.load(std::memory_order_relaxed);
  stats.mirror_dropped = mirror_dropped_.load(std::memory_order_relaxed);
  stats.no_backend_errors =
      no_backend_errors_.load(std::memory_order_relaxed);
  stats.probes = probes_.load(std::memory_order_relaxed);
  stats.backends_failed = backends_failed_.load(std::memory_order_relaxed);
  stats.backends_revived =
      backends_revived_.load(std::memory_order_relaxed);
  util::MutexLock lock(mu_);
  stats.backends_total = static_cast<int>(backends_.size());
  for (const auto& [name, backend] : backends_) {
    (void)name;
    if (backend->healthy.load(std::memory_order_relaxed) &&
        !backend->drained.load(std::memory_order_relaxed))
      ++stats.backends_healthy;
  }
  return stats;
}

std::string Router::format_stats() const {
  const RouterStats stats = this->stats();
  std::ostringstream out;
  out << "role=router backends=" << stats.backends_total
      << " healthy=" << stats.backends_healthy
      << " replicas=" << kReplicas
      << " forwarded=" << stats.forwarded
      << " reroutes=" << stats.reroutes
      << " replica_hits=" << stats.replica_hits
      << " mirrored=" << stats.mirrored
      << " mirror_dropped=" << stats.mirror_dropped
      << " no_backend_errors=" << stats.no_backend_errors
      << " probes=" << stats.probes
      << " backends_failed=" << stats.backends_failed
      << " backends_revived=" << stats.backends_revived;
  return out.str();
}

std::string Router::format_health() const {
  const RouterStats stats = this->stats();
  const char* status = "ready";
  if (stats.backends_healthy == 0)
    status = "down";
  else if (stats.backends_healthy < stats.backends_total)
    status = "degraded";
  std::ostringstream out;
  out << "status=" << status << " backends=" << stats.backends_total
      << " healthy=" << stats.backends_healthy
      << " reroutes=" << stats.reroutes
      << " replica_hits=" << stats.replica_hits
      << " mirror_dropped=" << stats.mirror_dropped;
  return out.str();
}

void Router::probe_once() {
  // Snapshot the membership, then probe without holding the lock: a probe
  // blocks on connect timeouts and must not stall forwarding.
  std::vector<Backend*> targets;
  {
    util::MutexLock lock(mu_);
    targets.reserve(backends_.size());
    for (auto& [name, backend] : backends_) {
      (void)name;
      targets.push_back(backend.get());
    }
  }
  for (Backend* backend : targets) {
    probes_.fetch_add(1, std::memory_order_relaxed);
    // Probe on a fresh connection with a short connect budget: pooled
    // sockets would hide a dead backend until first use, and the default
    // budget (2 s) is too patient for a 200 ms cadence.
    serve::ClientOptions probe_options = options_.client;
    probe_options.connect_attempts = 1;
    serve::Client probe(backend->socket_path, probe_options);
    bool alive = false;
    if (probe.connect()) {
      try {
        alive = util::starts_with(probe.request("health"), "ok");
      } catch (const std::exception&) {
        alive = false;
      }
    }
    if (alive) {
      revive(backend->name);
    } else {
      mark_unhealthy(backend->name);
    }
  }
}

void Router::start_probes() {
  if (probing_.exchange(true, std::memory_order_relaxed)) return;
  prober_ = std::thread([this] {
    while (probing_.load(std::memory_order_relaxed)) {
      probe_once();
      // Sleep in small slices so stop_probes() is honoured promptly even
      // with a long probe interval.
      int remaining = kProbeIntervalMs;
      while (remaining > 0 && probing_.load(std::memory_order_relaxed)) {
        const int slice = remaining < 20 ? remaining : 20;
        std::this_thread::sleep_for(std::chrono::milliseconds(slice));
        remaining -= slice;
      }
    }
  });
}

void Router::stop_probes() {
  probing_.store(false, std::memory_order_relaxed);
  if (prober_.joinable()) prober_.join();
}

void Router::run_unix_socket(const std::string& path) {
  start_probes();
  socket_server_.run(path);
  stop_probes();
}

void Router::stop() { socket_server_.stop(); }

}  // namespace rebert::router
