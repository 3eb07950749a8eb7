// Deterministic data-parallel loop over an index range.
//
// parallel_for splits [begin, end) into fixed-size chunks (`grain` indices
// each — a function of the range only, never of the thread count) and lets
// pool workers plus the calling thread claim chunks from a shared cursor.
// Because every index is processed exactly once by a body that may only
// write state owned by that index, the results are bit-identical at any
// thread count — the scheduling order varies, the output cannot. That is
// the determinism guarantee score_pairs and the structural matcher
// build on (and tests/runtime/parallel_for_test.cc enforces).
//
// The caller participates in chunk processing and, while waiting for
// helpers, drains other queued pool tasks (help-while-wait), so nested
// parallel_for calls on one pool cannot deadlock.
//
// Exceptions: the first exception thrown by any body is captured and
// rethrown on the calling thread after all in-flight chunks settle.
// Cancellation: when `options.cancel` fires, no further chunks are issued
// and CancelledError is thrown (already-started chunks finish).
#pragma once

#include <cstdint>
#include <functional>

#include "runtime/latch.h"
#include "runtime/thread_pool.h"

namespace rebert::runtime {

struct ParallelForOptions {
  /// Indices per scheduling chunk. Larger = less scheduling overhead,
  /// smaller = better load balance for irregular bodies.
  std::int64_t grain = 64;
  /// Optional cooperative cancellation, polled between chunks.
  CancellationToken* cancel = nullptr;
};

/// Invoke body(i) for every i in [begin, end) using `pool`'s workers and
/// the calling thread. Blocks until every index ran (or throws, see above).
void parallel_for(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& body,
                  const ParallelForOptions& options = {});

/// Serial fallback with identical semantics (used when one thread is
/// resolved, so callers need no branching of their own).
void serial_for(std::int64_t begin, std::int64_t end,
                const std::function<void(std::int64_t)>& body,
                const ParallelForOptions& options = {});

}  // namespace rebert::runtime
