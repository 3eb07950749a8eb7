// Prediction cache — the "acceleration opportunity" the paper's
// conclusion defers to future work.
//
// After leaf generalization (§II-A-2) many bits of a word share *exactly*
// the same token sequence (template copies differ only in signal names),
// so the model is repeatedly asked to score identical inputs. Scores are
// deterministic at inference, so memoizing on the (sequence, sequence,
// tree-code) pair is lossless: the cached pipeline returns bit-identical
// score matrices while skipping forward passes. Within one recover the
// class scorer already asks once per sequence-class pair (scoring.h), so
// hits come from earlier recovers, serve requests and warm-start
// snapshots.
//
// PredictionCache holds the key scheme that the cache, RBPC snapshots and
// the serve engine share. A key hashes only the pair; the scorer (model
// weights, config, kernel backend) is the cache's binding instead, so a
// score is never served to a scorer that did not compute it (bind()).
//
// ShardedPredictionCache is the cache itself, mutex-striped for the
// concurrent runtime: the key space is split across kShards independent
// maps, each behind its own mutex, so parallel scorers rarely contend on
// the same lock. insert() of the same key from two threads is benign:
// inference is deterministic, so both write the same score.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rebert/tokenizer.h"
#include "util/mutex.h"

namespace rebert::core {

/// A read-only score source layered beneath ShardedPredictionCache's
/// mutable shards — the hook the zero-copy warm start plugs into: a
/// mapped RBPC snapshot (persist/mmap_snapshot.h) implements this and
/// serves historical scores straight off its mapping, so a restarted
/// engine is warm without materializing a single record. Implementations
/// must be safe for concurrent lookup() calls and immutable for the
/// attachment's lifetime.
class ScoreTier {
 public:
  virtual ~ScoreTier() = default;

  virtual bool lookup(std::uint64_t key, double* score) const = 0;
  virtual std::size_t size() const = 0;

  /// The scorer that computed these scores (see
  /// ShardedPredictionCache::bind).
  virtual std::uint64_t fingerprint() const = 0;

  /// Append every record (sorted by key) to *out — what export/merge
  /// paths use so snapshots taken from a warm cache keep the tier's
  /// entries.
  virtual void append_entries(
      std::vector<std::pair<std::uint64_t, double>>* out) const = 0;
};

/// Cache keys: a score is stored under the hash of the pair it scores.
struct PredictionCache {
  /// Order-sensitive key over both sequences' tokens and tree codes
  /// (encode_pair(a, b) and encode_pair(b, a) are different model inputs).
  static std::uint64_t key_of(const BitSequence& a, const BitSequence& b);
  /// key_of(a, b) == hash_sequence(key_prefix(a), b), so a caller pairing
  /// one sequence with many hashes it once.
  static std::uint64_t key_prefix(const BitSequence& a);
};

/// Thread-safe cache for the concurrent runtime: fixed shard count, one
/// mutex per shard, atomic statistics. All methods are safe to call from
/// any number of threads concurrently.
class ShardedPredictionCache {
 public:
  /// `shards` is rounded up to a power of two; 0 picks the default (64 —
  /// enough striping that 8-16 scoring threads rarely collide).
  explicit ShardedPredictionCache(int shards = 0);

  bool lookup(std::uint64_t key, double* score) const;
  void insert(std::uint64_t key, double score);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::size_t size() const;  // sum over shards; O(shards)
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Entries ever added to the shards (a duplicate insert adds none).
  /// Never reset, not even by clear(): an export that starts after this
  /// read holds every entry it counts that no clear() has dropped since.
  std::uint64_t inserts() const {
    return inserts_.load();
  }
  /// hits / (hits + misses); 0 before any lookup. The sum is taken in
  /// doubles so hits + misses cannot overflow the division.
  double hit_rate() const;

  /// All entries across shards, sorted by key. Shard-agnostic: a snapshot
  /// exported at one shard count imports at any other — records carry no
  /// shard structure.
  std::vector<std::pair<std::uint64_t, double>> export_entries() const;

  /// The scorer whose results this cache holds: what the last bind()
  /// named, or, before any bind, the fingerprint of an attached warm tier
  /// (0 = none). save_cache() writes it into the snapshot header.
  std::uint64_t fingerprint() const {
    return fingerprint_.load(std::memory_order_acquire);
  }

  /// Declare that `fingerprint` (bert::BertPairClassifier::fingerprint —
  /// weights, config and kernel backend) scores through this cache from
  /// now on. Scores of any other scorer go: a warm tier with another
  /// fingerprint is detached (counted in warm_rejected()), and shard
  /// entries learned under another bound scorer are cleared. Entries
  /// inserted before any binding are adopted. Rebinding the same
  /// fingerprint is one atomic load — callers bind on every use.
  void bind(std::uint64_t fingerprint) EXCLUDES(tier_mu_);

  /// Attach a read-only warm tier consulted after a shard miss (a tier
  /// hit counts as a cache hit, so warmed keys are never re-scored or
  /// re-inserted). Refused — false, counted in warm_rejected() — when the
  /// cache is bound to a scorer other than the tier's; an unbound cache
  /// takes the tier's fingerprint as its own. Replaces any previous tier;
  /// earlier tiers stay alive until the cache dies, so a concurrent lookup
  /// never races a teardown. size() and export_entries() include the
  /// tier's records.
  bool attach_warm_tier(std::shared_ptr<const ScoreTier> tier)
      EXCLUDES(tier_mu_);

  /// Snapshots refused at warm start (corrupt, an older format, or another
  /// scorer's) plus warm tiers a bind() detached.
  std::uint64_t warm_rejected() const {
    return warm_rejected_.load(std::memory_order_relaxed);
  }
  /// Count a snapshot the warm-start path refused before attaching it.
  void count_warm_rejected() { bump(warm_rejected_); }

  /// The currently attached tier (nullptr when none) — for tests and
  /// stats plumbing.
  const ScoreTier* warm_tier() const {
    return warm_tier_.load(std::memory_order_acquire);
  }

  /// Drop every entry and the warm tier, and zero the statistics. The
  /// binding stays: it names the scorer, not the contents.
  void clear() EXCLUDES(tier_mu_);

 private:
  struct Shard {
    // All shards share one graph node ("cache.shard"): the code never
    // holds two shards at once, and the debug registry aborts if that
    // discipline regresses (two same-name instances held together).
    mutable util::Mutex mu{"cache.shard"};
    std::unordered_map<std::uint64_t, double> entries GUARDED_BY(mu);
  };

  Shard& shard_for(std::uint64_t key) const;
  void clear_shards();

  // Hit/miss counters: relaxed atomics (they only feed statistics, never
  // control flow) that saturate instead of wrapping, so hit_rate() stays
  // meaningful even on absurdly long-lived servers.
  static void bump(std::atomic<std::uint64_t>& counter);
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> warm_rejected_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t shard_mask_ = 0;

  // The raw pointer is the lock-free read path (acquire pairs with the
  // release in attach_warm_tier); the owners vector keeps every tier ever
  // attached alive, so a reader that loaded a pointer can never see its
  // pointee destroyed.
  std::atomic<const ScoreTier*> warm_tier_{nullptr};
  // Written under tier_mu_; read lock-free by bind()'s fast path.
  std::atomic<std::uint64_t> fingerprint_{0};
  mutable util::Mutex tier_mu_{"cache.tier"};
  std::vector<std::shared_ptr<const ScoreTier>> tier_owners_
      GUARDED_BY(tier_mu_);
};

/// Hash helper (FNV-1a over ints).
std::uint64_t hash_sequence(std::uint64_t seed, const BitSequence& seq);

}  // namespace rebert::core
