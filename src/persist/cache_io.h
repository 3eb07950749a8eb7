// Warm-start glue between the RBPC snapshot format and the prediction
// cache: save_cache() writes a snapshot, warm_start_cache() is the one
// way to load it. Header-only so persist stays a leaf library: only the
// including translation unit pays the dependencies (core, and
// rebert_runtime for the cache.load / cache.parse chaos sites — every
// current includer links both already).
#pragma once

#include <cstddef>
#include <ios>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "persist/mmap_snapshot.h"
#include "rebert/prediction_cache.h"
#include "runtime/fault_injector.h"
#include "util/logging.h"

namespace rebert::persist {

/// Atomically snapshot `cache` to `path`, naming the scorer the cache
/// recorded (ShardedPredictionCache::fingerprint). Throws util::CheckError
/// (with errno detail) on I/O failure.
inline void save_cache(const core::ShardedPredictionCache& cache,
                       const std::string& path) {
  save_snapshot(cache.export_entries(), cache.fingerprint(), path);
}

/// core::ScoreTier over a mapped RBPC snapshot — the adapter that plugs
/// the persistence layer's mapping into the cache's warm tier without
/// persist linking core (header-only; only includers pay the dependency,
/// and they all link core already).
class MmapSnapshotTier final : public core::ScoreTier {
 public:
  explicit MmapSnapshotTier(std::shared_ptr<const MmapSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}

  bool lookup(std::uint64_t key, double* score) const override {
    return snapshot_->lookup(key, score);
  }
  std::size_t size() const override { return snapshot_->count(); }
  std::uint64_t fingerprint() const override {
    return snapshot_->fingerprint();
  }
  void append_entries(
      std::vector<std::pair<std::uint64_t, double>>* out) const override {
    out->reserve(out->size() + snapshot_->count());
    for (std::size_t i = 0; i < snapshot_->count(); ++i)
      out->push_back(snapshot_->record(i));
  }

 private:
  std::shared_ptr<const MmapSnapshot> snapshot_;
};

/// Zero-copy warm start: the snapshot is mapped, validated (header +
/// checksum) and attached as a read-only warm tier — O(1) in the record
/// count beyond the validation scan, no materialization. Returns the
/// entries made available. A missing file warms 0 (info log, normal first
/// run). A corrupt, truncated or older-version file, or one written by a
/// scorer other than the one the cache is bound to, warms 0 with a
/// warning and counts in cache->warm_rejected() — the caller always
/// continues, at worst cold. Never throws on file content. The cache.load
/// / cache.parse chaos sites (an unreadable file, a record-level
/// corruption the checksum missed) degrade to the same cold start.
inline std::size_t warm_start_cache(core::ShardedPredictionCache* cache,
                                    const std::string& path) {
  runtime::FaultInjector& faults = runtime::FaultInjector::global();
  if (faults.should_fail("cache.load")) {
    LOG_WARN << "cache snapshot: injected load fault for " << path
             << "; starting cold";
    return 0;
  }
  const MmapSnapshot::OpenResult mapped = MmapSnapshot::open(path);
  if (mapped.status == SnapshotLoadStatus::kMissing) {
    LOG_INFO << "cache snapshot: " << mapped.message << "; starting cold";
    return 0;
  }
  if (!mapped.loaded() || faults.should_fail("cache.parse")) {
    LOG_WARN << "cache snapshot rejected: "
             << (mapped.loaded() ? "injected parse fault for " + path
                                 : mapped.message)
             << "; starting cold";
    cache->count_warm_rejected();
    return 0;
  }
  if (!cache->attach_warm_tier(
          std::make_shared<MmapSnapshotTier>(mapped.snapshot))) {
    LOG_WARN << "cache snapshot rejected: " << path
             << " holds scores of scorer " << std::hex
             << mapped.snapshot->fingerprint()
             << ", but this cache scores with " << cache->fingerprint()
             << "; starting cold";
    return 0;
  }
  LOG_INFO << "cache snapshot: mapped " << mapped.snapshot->count()
           << " record(s) from " << path << " as a zero-copy warm tier";
  return mapped.snapshot->count();
}

}  // namespace rebert::persist
