// RBPC — the on-disk prediction-cache snapshot format.
//
// Layout (native endianness, like the RBTW checkpoint format):
//
//   bytes 0..3   magic "RBPC"
//   u32          version (kSnapshotVersion)
//   u64          record count
//   count ×      { u64 key, f64 score }   — sorted by key (deterministic
//                                           files; shard-agnostic)
//   u64          FNV-1a checksum over the count + record bytes
//
// Records are flat (key, score) pairs with no shard structure, so a
// snapshot written by a 64-shard ShardedPredictionCache warm-starts a
// 4-shard one unchanged.
//
// Loading NEVER throws on bad content: a missing, truncated, corrupt, or
// version-skewed file comes back as a status + diagnostic message, and the
// caller warms nothing (cold start). A daemon restarting into a torn
// snapshot must serve, not crash. Saving goes through the atomic writer
// (atomic_file.h), so a crash mid-save leaves the previous snapshot intact.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rebert::persist {

/// One cached prediction: (pair key, score). The key scheme belongs to
/// core::PredictionCache::key_of; this layer just persists the mapping.
using CacheRecord = std::pair<std::uint64_t, double>;

inline constexpr char kSnapshotMagic[4] = {'R', 'B', 'P', 'C'};
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// FNV-1a over `size` bytes — the checksum every persist artifact uses,
/// exposed so the formats share one implementation and the tests can
/// cross-check it.
std::uint64_t fnv1a(const void* data, std::size_t size);

/// Streaming form: fold `size` more bytes into a running FNV-1a state.
/// Seed with kFnv1aInit; fnv1a(d, n) == fnv1a_update(kFnv1aInit, d, n).
/// What writers too large to buffer (checkpoint saves) hash with.
inline constexpr std::uint64_t kFnv1aInit = 14695981039346656037ULL;
std::uint64_t fnv1a_update(std::uint64_t state, const void* data,
                           std::size_t size);

/// FNV-1a folded over 8-byte little-endian words instead of bytes. One
/// multiply per word instead of eight makes validating a mapped artifact
/// ~8× cheaper — byte-wise FNV's serial multiply chain would otherwise
/// dominate an O(1) warm start. Only formats whose payload is a whole
/// number of words may use it (RBPC v2's table is, by construction);
/// `size` must be a multiple of 8.
std::uint64_t fnv1a_words(const void* data, std::size_t size);

enum class SnapshotLoadStatus {
  kLoaded,   // records filled
  kMissing,  // no file at the path (a normal first run)
  kCorrupt,  // bad magic / version skew / truncation / checksum mismatch
};

struct SnapshotLoadResult {
  SnapshotLoadStatus status = SnapshotLoadStatus::kMissing;
  std::vector<CacheRecord> records;
  std::string message;  // diagnostic for kMissing / kCorrupt

  bool loaded() const { return status == SnapshotLoadStatus::kLoaded; }
};

/// Atomically write `records` to `path` (sorted by key first). Throws
/// util::CheckError with errno detail on I/O failure — saving is a caller
/// action whose failure must be loud, unlike loading.
void save_snapshot(std::vector<CacheRecord> records, const std::string& path);

/// Read and validate a snapshot, materializing its records. Reads both
/// layouts — v1 (above) and the mmap-able v2 (mmap_snapshot.h) — so
/// stream consumers (import into a cache, format conversion) accept any
/// snapshot this build can write. Never throws on file content: any
/// defect yields kCorrupt (or kMissing) with a one-line diagnosis.
SnapshotLoadResult load_snapshot(const std::string& path);

}  // namespace rebert::persist
