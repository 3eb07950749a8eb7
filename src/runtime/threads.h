// Thread-count resolution for every parallel entry point.
//
// All knobs funnel through one function so the CLI flag (--threads), the
// REBERT_THREADS environment variable, and hardware detection agree
// everywhere: benches, the serve daemon, and the pipeline resolve their
// worker counts identically.
#pragma once

namespace rebert::runtime {

/// Resolve a requested worker count into a concrete one:
///   requested >= 1  -> requested (clamped to kMaxThreads),
///   requested <= 0  -> REBERT_THREADS when set and >= 1,
///                      else std::thread::hardware_concurrency() (min 1).
int resolve_thread_count(int requested);

/// Upper bound accepted by resolve_thread_count; requests above it clamp.
/// Generous (the scheduler, not this library, should be the limit) but
/// finite so a malformed flag cannot ask for millions of threads.
inline constexpr int kMaxThreads = 512;

/// Threads currently alive in this process (the `Threads:` row of
/// /proc/self/status); -1 where procfs is unavailable. What the reactor
/// tests use to prove connection count never buys a thread.
int current_thread_count();

}  // namespace rebert::runtime
