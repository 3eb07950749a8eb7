// Warm-start glue between the RBPC snapshot format and the prediction
// cache: save_cache() writes a snapshot, warm_start_cache() is the one
// way to load it. Header-only so persist stays a leaf library: only the
// including translation unit pays the dependencies (core, and
// rebert_runtime for the cache.load / cache.parse chaos sites — every
// current includer links both already).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "persist/mmap_snapshot.h"
#include "persist/snapshot.h"
#include "rebert/prediction_cache.h"
#include "runtime/fault_injector.h"
#include "util/logging.h"

namespace rebert::persist {

/// Atomically snapshot `cache` to `path`. Throws util::CheckError (with
/// errno detail) on I/O failure. Writes the mmap-able RBPC v2 layout
/// (mmap_snapshot.h) so every snapshot this build produces supports the
/// zero-copy warm start; warm_start_cache reads v1 and v2 alike.
inline void save_cache(const core::ShardedPredictionCache& cache,
                       const std::string& path) {
  save_snapshot_v2(cache.export_entries(), path);
}

/// core::ScoreTier over a mapped RBPC v2 snapshot — the adapter that
/// plugs the persistence layer's mapping into the cache's warm tier
/// without persist linking core (header-only; only includers pay the
/// dependency, and they all link core already).
class MmapSnapshotTier final : public core::ScoreTier {
 public:
  explicit MmapSnapshotTier(std::shared_ptr<const MmapSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}

  bool lookup(std::uint64_t key, double* score) const override {
    return snapshot_->lookup(key, score);
  }
  std::size_t size() const override { return snapshot_->count(); }
  void append_entries(
      std::vector<std::pair<std::uint64_t, double>>* out) const override {
    out->reserve(out->size() + snapshot_->count());
    for (std::size_t i = 0; i < snapshot_->count(); ++i)
      out->push_back(snapshot_->record(i));
  }

 private:
  std::shared_ptr<const MmapSnapshot> snapshot_;
};

/// Zero-copy warm start for the sharded cache: a v2 snapshot is mapped,
/// validated (header + checksum), and attached as a read-only warm tier —
/// O(1) in the record count beyond the validation scan, no
/// materialization. A v1 snapshot falls back to the stream parse +
/// import. Returns the entries made available; a missing file imports 0
/// (info log, normal first run) and a corrupt/truncated/version-skewed
/// file imports 0 with a warning — the caller always continues, at worst
/// cold. Never throws on file content. The cache.load / cache.parse chaos
/// sites (an unreadable file, a record-level corruption the checksum
/// missed) fire exactly once per call, whichever path runs, and degrade
/// to the same cold start.
inline std::size_t warm_start_cache(core::ShardedPredictionCache* cache,
                                    const std::string& path) {
  runtime::FaultInjector& faults = runtime::FaultInjector::global();
  if (faults.should_fail("cache.load")) {
    LOG_WARN << "cache snapshot: injected load fault for " << path
             << "; starting cold";
    return 0;
  }
  const MmapSnapshot::OpenResult mapped = MmapSnapshot::open(path);
  if (mapped.loaded()) {
    if (faults.should_fail("cache.parse")) {
      LOG_WARN << "cache snapshot rejected: injected parse fault for "
               << path << "; starting cold";
      return 0;
    }
    cache->attach_warm_tier(
        std::make_shared<MmapSnapshotTier>(mapped.snapshot));
    LOG_INFO << "cache snapshot: mapped " << mapped.snapshot->count()
             << " record(s) from " << path << " as a zero-copy warm tier";
    return mapped.snapshot->count();
  }
  const SnapshotLoadResult result = load_snapshot(path);
  if (result.status == SnapshotLoadStatus::kLoaded &&
      faults.should_fail("cache.parse")) {
    LOG_WARN << "cache snapshot rejected: injected parse fault for " << path
             << "; starting cold";
    return 0;
  }
  switch (result.status) {
    case SnapshotLoadStatus::kLoaded:
      return cache->import_entries(result.records);
    case SnapshotLoadStatus::kMissing:
      LOG_INFO << "cache snapshot: " << result.message << "; starting cold";
      return 0;
    case SnapshotLoadStatus::kCorrupt:
      LOG_WARN << "cache snapshot rejected: " << result.message
               << "; starting cold";
      return 0;
  }
  return 0;
}

}  // namespace rebert::persist
