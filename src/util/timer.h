// Wall-clock timing used by the runtime experiments (Table III) and benches.
#pragma once

#include <chrono>

namespace rebert::util {

/// Monotonic stopwatch. Starts running on construction.
class WallTimer {
 public:
  WallTimer() { reset(); }

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last reset.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace rebert::util
