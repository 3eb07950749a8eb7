// RBPC — the on-disk prediction-cache snapshot format, mmap-able.
//
// Layout (native endianness, like the RBTW checkpoint format):
//
//   bytes 0..3   magic "RBPC"
//   u32          version = 3
//   u64          record count
//   u64          record stride in bytes  (this build writes and reads 16)
//   u64          FNV-1a checksum over the fingerprint and the record table
//   u64          fingerprint of the scorer that computed the scores
//   count ×      { u64 key, f64 score }  — sorted strictly ascending by key
//
// A score is a function of the pair, the model weights and the kernel
// backend (bit-identical per backend only), so the header names the
// scorer (bert::BertPairClassifier::fingerprint). The cache, not this
// layer, decides whether a fingerprint is acceptable: see
// persist/cache_io.h.
//
// The checksum sits in the header (a validator never seeks past data it
// has not sized yet), the stride is explicit (a reader rejects layout skew
// instead of misindexing), and the record table is the final,
// binary-searchable artifact. open() validates bounds, magic, version,
// stride, checksum and key order, and then lookups run directly off the
// mapping: no allocation or per-record parse, so a respawned backend
// warm-starts in O(1) work beyond one checksum pass. Records are flat
// (key, score) pairs with no shard structure, so a snapshot written by a
// 64-shard cache warm-starts a 4-shard one unchanged.
//
// open() NEVER throws on file content: a corrupt, truncated, stride-skewed,
// unsorted or older-version file comes back kCorrupt with a one-line
// diagnosis and the caller starts cold. A daemon restarting into a torn
// snapshot must serve, not crash. Saving goes through the atomic writer
// (atomic_file.h), so a crash mid-save leaves the previous snapshot intact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "persist/mmap_file.h"
#include "util/fnv1a.h"

namespace rebert::persist {

/// One cached prediction: (pair key, score). The key scheme belongs to
/// core::PredictionCache::key_of; this layer just persists the mapping.
using CacheRecord = std::pair<std::uint64_t, double>;

inline constexpr char kSnapshotMagic[4] = {'R', 'B', 'P', 'C'};
inline constexpr std::uint32_t kSnapshotVersion = 3;
inline constexpr std::size_t kSnapshotHeaderBytes = 40;
inline constexpr std::size_t kSnapshotStride = 16;

/// FNV-1a (util/fnv1a.h) folded over 8-byte words instead of bytes,
/// continuing from `state`. One multiply per word instead of eight makes
/// validating a mapped artifact (or digesting a model's weights) ~8×
/// cheaper than byte-wise FNV's serial multiply chain. A trailing partial
/// word is folded byte-wise.
std::uint64_t fnv1a_words(const void* data, std::size_t size,
                          std::uint64_t state = util::kFnv1aInit);

enum class SnapshotLoadStatus {
  kLoaded,   // snapshot mapped and validated
  kMissing,  // no file at the path (a normal first run)
  kCorrupt,  // bad magic / version skew / truncation / checksum mismatch
};

/// Atomically write `records` (sorted by key first; duplicate keys keep
/// their first record) as an RBPC artifact naming `fingerprint` as the
/// scorer. Identical records and fingerprint give identical bytes. Throws
/// util::CheckError with errno detail on I/O failure — saving is a caller
/// action whose failure must be loud, unlike loading.
void save_snapshot(std::vector<CacheRecord> records, std::uint64_t fingerprint,
                   const std::string& path);

/// A validated, mapped RBPC snapshot serving lookups off the mapping.
class MmapSnapshot {
 public:
  struct OpenResult {
    SnapshotLoadStatus status = SnapshotLoadStatus::kMissing;
    std::shared_ptr<const MmapSnapshot> snapshot;  // set when kLoaded
    std::string message;  // diagnostic for kMissing / kCorrupt

    bool loaded() const { return status == SnapshotLoadStatus::kLoaded; }
  };

  /// Map and validate `path`. Every offset is proven in bounds before
  /// use; never throws on file content.
  static OpenResult open(const std::string& path);

  std::size_t count() const { return count_; }
  std::uint64_t fingerprint() const { return fingerprint_; }
  const std::string& path() const { return file_.path(); }

  /// Binary search over the mapped record table.
  bool lookup(std::uint64_t key, double* score) const;

  /// The i-th record (caller keeps i < count()); used by export paths.
  CacheRecord record(std::size_t index) const;

 private:
  MmapSnapshot() = default;

  MmapFile file_;
  const unsigned char* table_ = nullptr;
  std::size_t count_ = 0;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace rebert::persist
