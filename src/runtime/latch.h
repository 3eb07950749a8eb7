// Synchronization primitives shared by the runtime: a countdown latch and a
// cooperative cancellation token.
//
// Both are intentionally minimal — the thread pool and parallel_for need
// exactly "wait until N completions" and "was a stop requested", and tests
// need to exercise the primitives in isolation.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

#include "util/mutex.h"

namespace rebert::runtime {

/// Single-use countdown latch: constructed with an expected count,
/// count_down() by completing workers, wait() blocks until zero.
class Latch {
 public:
  explicit Latch(std::int64_t count) : count_(count) {}
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void count_down(std::int64_t n = 1) EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    count_ -= n;
    if (count_ <= 0) cv_.notify_all();
  }

  bool try_wait() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return count_ <= 0;
  }

  void wait() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    while (count_ > 0) cv_.wait(mu_);
  }

  /// Returns true when the latch reached zero within `timeout`.
  template <typename Rep, typename Period>
  bool wait_for(const std::chrono::duration<Rep, Period>& timeout) const
      EXCLUDES(mu_) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            timeout);
    util::MutexLock lock(mu_);
    while (count_ > 0) {
      if (!cv_.wait_until(mu_, deadline)) return count_ <= 0;
    }
    return true;
  }

 private:
  mutable util::Mutex mu_{"runtime.latch"};
  mutable util::CondVar cv_;
  std::int64_t count_ GUARDED_BY(mu_);
};

/// Cooperative cancellation: long-running parallel work polls requested()
/// between chunks and stops early when a stop was requested. Wait-free on
/// the polling side (deadline-armed tokens add one monotonic clock read).
///
/// Besides the explicit request_stop(), a token can carry a deadline:
/// set_deadline_after_ms(n) makes requested() start returning true once n
/// milliseconds of wall-clock have elapsed. This is how the serving layer
/// enforces per-request deadline_ms through the same polling points the
/// cancellation path already has — parallel_for stops between chunks,
/// never mid-forward.
class CancellationToken {
 public:
  void request_stop() { stop_.store(true, std::memory_order_release); }

  bool requested() const {
    if (stop_.load(std::memory_order_acquire)) return true;
    const std::int64_t deadline =
        deadline_ns_.load(std::memory_order_acquire);
    return deadline != 0 && now_ns() >= deadline;
  }

  /// Arm the deadline `ms` milliseconds from now (ms <= 0 expires
  /// immediately). Overwrites any previous deadline.
  void set_deadline_after_ms(std::int64_t ms) {
    deadline_ns_.store(now_ns() + ms * 1'000'000, std::memory_order_release);
  }

  bool deadline_armed() const {
    return deadline_ns_.load(std::memory_order_acquire) != 0;
  }

  void reset() {
    stop_.store(false, std::memory_order_release);
    deadline_ns_.store(0, std::memory_order_release);
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> deadline_ns_{0};
};

/// Thrown by parallel_for when its CancellationToken fires mid-run.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("parallel work cancelled") {}
};

}  // namespace rebert::runtime
