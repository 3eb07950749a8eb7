// BackendSupervisor — spawn, reap, and restart backend worker processes.
//
// The router's workers are ordinary `rebert_cli serve` daemons; the
// supervisor forks/execs one process per registered backend and keeps it
// running: poll_once() reaps exits with waitpid(WNOHANG) and respawns dead
// workers after a capped exponential backoff (1 << consecutive_failures
// restart delays, so a crash-looping worker cannot busy-spin fork()).
// A worker that stays up long enough resets its failure streak — a crash
// after a week is not the same as the fifth crash this second.
//
// The supervisor only manages processes; it does not know about the ring.
// The Router's health prober notices the kill (probe fails -> key range
// rebalanced) and the revival (probe answers -> range restored) on its
// own, so supervisor and router compose without a shared clock: kill -9 a
// worker and its benches reroute, the supervisor respawns it, the prober
// puts it back.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

#include "util/mutex.h"

namespace rebert::router {

struct SupervisorOptions {
  /// Base restart delay; the k-th consecutive failure waits
  /// min(base << (k-1), max) milliseconds before the respawn.
  int restart_backoff_ms = 100;
  int max_backoff_ms = 5000;
  /// Uptime after which a worker's consecutive-failure streak resets.
  int healthy_uptime_ms = 3000;
};

class BackendSupervisor {
 public:
  explicit BackendSupervisor(SupervisorOptions options = {});
  ~BackendSupervisor();

  BackendSupervisor(const BackendSupervisor&) = delete;
  BackendSupervisor& operator=(const BackendSupervisor&) = delete;

  /// Register a worker: `argv` is the full command line (argv[0] = the
  /// binary, usually /proc/self/exe). Not spawned until start().
  void add(const std::string& name, std::vector<std::string> argv)
      EXCLUDES(mu_);

  /// Spawn every registered worker that is not already running.
  void start() EXCLUDES(mu_);

  /// SIGTERM (then SIGKILL after a grace period) every running worker and
  /// reap them. Idempotent; also runs on destruction.
  void stop() EXCLUDES(mu_);

  /// One supervision tick: reap exited workers (waitpid WNOHANG) and
  /// respawn those whose backoff has elapsed. Call from any loop cadence —
  /// delays are wall-clock based, not tick-counted. Returns the number of
  /// exits reaped. Public so tests drive supervision without a thread.
  int poll_once() EXCLUDES(mu_);

  /// The worker's current pid, or -1 when it is not running.
  pid_t pid_of(const std::string& name) const EXCLUDES(mu_);

  /// Times the worker has been respawned after an exit.
  std::uint64_t restarts_of(const std::string& name) const EXCLUDES(mu_);

  std::size_t size() const EXCLUDES(mu_);

 private:
  struct Worker {
    std::string name;
    std::vector<std::string> argv;
    pid_t pid = -1;
    std::uint64_t restarts = 0;
    int consecutive_failures = 0;
    std::chrono::steady_clock::time_point spawned_at{};
    std::chrono::steady_clock::time_point respawn_after{};
    bool want_running = false;
  };

  void spawn(Worker* worker) REQUIRES(mu_);

  SupervisorOptions options_;
  mutable util::Mutex mu_{"supervisor.workers"};
  std::map<std::string, Worker> workers_ GUARDED_BY(mu_);
};

}  // namespace rebert::router
