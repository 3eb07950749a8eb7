#include "router/supervisor.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include <sys/wait.h>
#include <unistd.h>

#include "util/backoff.h"
#include "util/check.h"
#include "util/fnv1a.h"
#include "util/logging.h"

namespace rebert::router {

namespace {

/// Deterministic seeded jitter stretching each respawn delay by up to this
/// percentage (util/backoff.h). Several workers dying together — a kill
/// drill, an OOM sweep — then respawn staggered instead of slamming
/// fork/exec and the router's prober in one wave. Jitter only adds delay,
/// so "not before the backoff" stays true.
constexpr int kRestartJitterPct = 15;

}  // namespace

BackendSupervisor::BackendSupervisor(SupervisorOptions options)
    : options_(options) {}

BackendSupervisor::~BackendSupervisor() { stop(); }

void BackendSupervisor::add(const std::string& name,
                            std::vector<std::string> argv) {
  REBERT_CHECK_MSG(!argv.empty(), "worker '" + name + "' needs an argv");
  util::MutexLock lock(mu_);
  REBERT_CHECK_MSG(workers_.find(name) == workers_.end(),
                   "duplicate worker '" + name + "'");
  Worker worker;
  worker.name = name;
  worker.argv = std::move(argv);
  workers_.emplace(name, std::move(worker));
}

void BackendSupervisor::spawn(Worker* worker) {
  // The parent may hold buffered stdio; flush so the child does not
  // double-emit it on exec failure.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  REBERT_CHECK_MSG(pid >= 0, "fork() failed for worker '" + worker->name +
                                 "'");
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(worker->argv.size() + 1);
    for (std::string& arg : worker->argv)
      argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    // Exec failed: nothing sane to do in the child but report and die
    // without running parent atexit handlers.
    std::perror("execv");
    ::_exit(127);
  }
  worker->pid = pid;
  worker->spawned_at = std::chrono::steady_clock::now();
  LOG_INFO << "supervisor: worker " << worker->name << " running as pid "
           << pid;
}

void BackendSupervisor::start() {
  util::MutexLock lock(mu_);
  for (auto& [name, worker] : workers_) {
    (void)name;
    worker.want_running = true;
    if (worker.pid < 0) spawn(&worker);
  }
}

int BackendSupervisor::poll_once() {
  util::MutexLock lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  int reaped = 0;
  for (auto& [name, worker] : workers_) {
    (void)name;
    if (worker.pid >= 0) {
      int status = 0;
      const pid_t got = ::waitpid(worker.pid, &status, WNOHANG);
      if (got == worker.pid) {
        ++reaped;
        const auto uptime =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - worker.spawned_at).count();
        // A long-enough run forgives earlier crashes; a quick death
        // escalates the backoff.
        if (uptime >= options_.healthy_uptime_ms)
          worker.consecutive_failures = 0;
        ++worker.consecutive_failures;
        const int shift = worker.consecutive_failures - 1;
        std::int64_t backoff = options_.restart_backoff_ms;
        // Cap the shift before shifting so a long crash loop cannot
        // overflow into an instant (or negative) delay.
        for (int i = 0; i < shift && backoff < options_.max_backoff_ms; ++i)
          backoff <<= 1;
        if (backoff > options_.max_backoff_ms)
          backoff = options_.max_backoff_ms;
        // Seeded per (worker, failure-streak): simultaneous deaths respawn
        // staggered, yet every run replays the same stagger.
        backoff = util::apply_backoff_jitter(
            static_cast<int>(backoff), util::fnv1a(worker.name),
            static_cast<std::uint64_t>(worker.consecutive_failures),
            kRestartJitterPct);
        worker.respawn_after =
            now + std::chrono::milliseconds(backoff);
        LOG_WARN << "supervisor: worker " << worker.name << " (pid "
                 << worker.pid << ") exited with status " << status
                 << " after " << uptime << " ms; respawn in " << backoff
                 << " ms";
        worker.pid = -1;
      }
    }
    // Respawn only workers that already ran once (start() owns the first
    // spawn) and whose backoff has elapsed.
    if (worker.pid < 0 && worker.want_running &&
        worker.spawned_at.time_since_epoch().count() != 0 &&
        worker.respawn_after <= now) {
      spawn(&worker);
      ++worker.restarts;
    }
  }
  return reaped;
}

void BackendSupervisor::stop() {
  std::vector<pid_t> pids;
  {
    util::MutexLock lock(mu_);
    for (auto& [name, worker] : workers_) {
      (void)name;
      worker.want_running = false;
      if (worker.pid >= 0) pids.push_back(worker.pid);
    }
  }
  if (pids.empty()) return;
  for (const pid_t pid : pids) ::kill(pid, SIGTERM);
  // Grace period for clean shutdown (socket unlink, cache snapshot), then
  // force. Poll instead of one long sleep so a fast exit returns fast.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
  std::vector<pid_t> alive = pids;
  while (!alive.empty() && std::chrono::steady_clock::now() < deadline) {
    std::vector<pid_t> still;
    for (const pid_t pid : alive) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) != pid) still.push_back(pid);
    }
    alive = std::move(still);
    if (!alive.empty())
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (const pid_t pid : alive) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  util::MutexLock lock(mu_);
  for (auto& [name, worker] : workers_) {
    (void)name;
    worker.pid = -1;
  }
}

pid_t BackendSupervisor::pid_of(const std::string& name) const {
  util::MutexLock lock(mu_);
  const auto it = workers_.find(name);
  return it == workers_.end() ? -1 : it->second.pid;
}

std::uint64_t BackendSupervisor::restarts_of(const std::string& name) const {
  util::MutexLock lock(mu_);
  const auto it = workers_.find(name);
  return it == workers_.end() ? 0 : it->second.restarts;
}

std::size_t BackendSupervisor::size() const {
  util::MutexLock lock(mu_);
  return workers_.size();
}

}  // namespace rebert::router
