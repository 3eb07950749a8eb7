#include "rebert/prediction_cache.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"

namespace rebert::core {

namespace {

inline std::uint64_t fnv_step(std::uint64_t h, std::uint64_t value) {
  h ^= value + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

inline std::uint64_t round_up_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

std::uint64_t hash_sequence(std::uint64_t seed, const BitSequence& seq) {
  std::uint64_t h = fnv_step(seed, static_cast<std::uint64_t>(
                                       seq.token_ids.size()));
  for (int token : seq.token_ids)
    h = fnv_step(h, static_cast<std::uint64_t>(token));
  for (const auto& code : seq.tree_codes) {
    // Pack the 0/1 code bits into words to keep hashing cheap.
    std::uint64_t packed = 0;
    int used = 0;
    for (std::uint8_t bit : code) {
      packed = (packed << 1) | bit;
      if (++used == 64) {
        h = fnv_step(h, packed);
        packed = 0;
        used = 0;
      }
    }
    h = fnv_step(h, packed ^ static_cast<std::uint64_t>(used));
  }
  return h;
}

std::uint64_t PredictionCache::key_of(const BitSequence& a,
                                      const BitSequence& b) {
  return hash_sequence(key_prefix(a), b);
}

std::uint64_t PredictionCache::key_prefix(const BitSequence& a) {
  return hash_sequence(0x5eedULL, a) * 0x100000001b3ULL;
}

ShardedPredictionCache::ShardedPredictionCache(int shards) {
  if (shards <= 0) shards = 64;
  const std::uint64_t n =
      round_up_pow2(static_cast<std::uint64_t>(shards));
  shards_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    shards_.push_back(std::make_unique<Shard>());
  shard_mask_ = n - 1;
}

ShardedPredictionCache::Shard& ShardedPredictionCache::shard_for(
    std::uint64_t key) const {
  // Fibonacci-mix the key before masking: keys are already hashes, but
  // the low bits of closely related sequences correlate; one multiply
  // spreads them across shards.
  const std::uint64_t mixed = key * 0x9e3779b97f4a7c15ULL;
  return *shards_[(mixed >> 32) & shard_mask_];
}

void ShardedPredictionCache::bump(std::atomic<std::uint64_t>& counter) {
  // Stop short of the maximum instead of wrapping to 0, which would report
  // a nonsense hit rate.
  constexpr std::uint64_t kSaturated = ~0ULL - 1024;
  if (counter.load(std::memory_order_relaxed) < kSaturated)
    counter.fetch_add(1, std::memory_order_relaxed);
}

double ShardedPredictionCache::hit_rate() const {
  const double h = static_cast<double>(hits());
  const double total = h + static_cast<double>(misses());
  return total > 0.0 ? h / total : 0.0;
}

bool ShardedPredictionCache::lookup(std::uint64_t key, double* score) const {
  Shard& shard = shard_for(key);
  {
    util::MutexLock lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      if (score) *score = it->second;
      bump(hits_);
      return true;
    }
  }
  // Shards hold what this process learned; the warm tier holds what a
  // snapshot knew. A tier hit is a real cache hit — the caller skips the
  // forward and never inserts, so warmed keys stay tier-only.
  const ScoreTier* tier = warm_tier_.load(std::memory_order_acquire);
  if (tier != nullptr && tier->lookup(key, score)) {
    bump(hits_);
    return true;
  }
  bump(misses_);
  return false;
}

void ShardedPredictionCache::insert(std::uint64_t key, double score) {
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mu);
  // emplace keeps the first value on duplicate keys; racing inserts carry
  // identical scores (deterministic inference), so either winning is fine.
  shard.entries.emplace(key, score);
}

std::size_t ShardedPredictionCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    total += shard->entries.size();
  }
  const ScoreTier* tier = warm_tier_.load(std::memory_order_acquire);
  if (tier != nullptr) total += tier->size();
  return total;
}

std::vector<std::pair<std::uint64_t, double>>
ShardedPredictionCache::export_entries() const {
  std::vector<std::pair<std::uint64_t, double>> out;
  out.reserve(size());
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    out.insert(out.end(), shard->entries.begin(), shard->entries.end());
  }
  std::sort(out.begin(), out.end());
  // Merge the warm tier underneath: shard entries win on key collision
  // (they are this process's own results; on collision the values are
  // identical anyway — inference is deterministic).
  const ScoreTier* tier = warm_tier_.load(std::memory_order_acquire);
  if (tier != nullptr) {
    std::vector<std::pair<std::uint64_t, double>> tier_entries;
    tier->append_entries(&tier_entries);
    const std::size_t shard_end = out.size();
    for (const auto& entry : tier_entries) {
      const auto at = std::lower_bound(
          out.begin(), out.begin() + static_cast<std::ptrdiff_t>(shard_end),
          entry.first, [](const std::pair<std::uint64_t, double>& have,
                          std::uint64_t key) { return have.first < key; });
      if (at == out.begin() + static_cast<std::ptrdiff_t>(shard_end) ||
          at->first != entry.first)
        out.push_back(entry);
    }
    std::sort(out.begin(), out.end());
  }
  return out;
}

void ShardedPredictionCache::bind(std::uint64_t fingerprint) {
  if (fingerprint_.load(std::memory_order_acquire) == fingerprint) return;
  util::MutexLock lock(tier_mu_);
  const std::uint64_t previous = fingerprint_.load(std::memory_order_relaxed);
  if (previous == fingerprint) return;
  const ScoreTier* tier = warm_tier_.load(std::memory_order_relaxed);
  if (tier != nullptr && tier->fingerprint() != fingerprint) {
    LOG_WARN << "prediction cache: dropping a warm tier of " << tier->size()
             << " score(s) from scorer " << std::hex << tier->fingerprint()
             << "; now scoring with " << fingerprint;
    warm_tier_.store(nullptr, std::memory_order_release);
    bump(warm_rejected_);
  }
  if (previous != 0) clear_shards();
  fingerprint_.store(fingerprint, std::memory_order_release);
}

bool ShardedPredictionCache::attach_warm_tier(
    std::shared_ptr<const ScoreTier> tier) {
  util::MutexLock lock(tier_mu_);
  const std::uint64_t bound = fingerprint_.load(std::memory_order_relaxed);
  if (tier != nullptr && bound != 0 && tier->fingerprint() != bound) {
    bump(warm_rejected_);
    return false;
  }
  if (tier != nullptr && bound == 0)
    fingerprint_.store(tier->fingerprint(), std::memory_order_release);
  const ScoreTier* raw = tier.get();
  if (tier != nullptr) tier_owners_.push_back(std::move(tier));
  warm_tier_.store(raw, std::memory_order_release);
  return true;
}

void ShardedPredictionCache::clear_shards() {
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    shard->entries.clear();
  }
}

void ShardedPredictionCache::clear() {
  clear_shards();
  // Detach (but keep alive) any warm tier: a concurrent reader may still
  // hold the old pointer, and the owners vector guarantees its pointee.
  warm_tier_.store(nullptr, std::memory_order_release);
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  warm_rejected_.store(0, std::memory_order_relaxed);
}

}  // namespace rebert::core
