// Pairwise scores over sequence classes (§II-C/D, Fig. 1(d) input).
//
// score(i,j) = P(same word | bits i, j) from the model, or kFiltered (-1)
// when the Jaccard pre-filter rejects the pair. Both depend only on the
// bits' token ids and tree codes, so bits with equal ones form a sequence
// class and bits i < j score as the ordered class pair (class i, class j).
// Memory is O(n + classes + scored class pairs), never n x n; DESIGN.md
// ("Scoring over sequence classes") gives the argument.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bert/model.h"
#include "rebert/filter.h"
#include "rebert/prediction_cache.h"
#include "rebert/tokenizer.h"
#include "runtime/latch.h"
#include "runtime/thread_pool.h"

namespace rebert::core {

/// Scheduling knobs for score_pairs and score_all_pairs.
struct ScoringOptions {
  /// Worker threads; 1 = serial, 0 = resolve from REBERT_THREADS /
  /// hardware (runtime::resolve_thread_count).
  int num_threads = 1;
  /// Pairs per scheduling chunk (see runtime/parallel_for.h). A request
  /// of at most `grain` pairs is one chunk and runs on the calling thread.
  int grain = 32;
  /// Reuse an existing pool (e.g. the serve engine's) instead of spinning
  /// up a transient one. When null and more than one thread is resolved, a
  /// pool is created for the call.
  runtime::ThreadPool* pool = nullptr;
  /// Cooperative cancellation / deadline token, polled between scheduling
  /// chunks (see runtime/parallel_for.h). When it fires mid-sweep the call
  /// throws runtime::CancelledError — how the serve engine bounds a
  /// request to its deadline_ms.
  runtime::CancellationToken* cancel = nullptr;
};

/// A sequence ready to lead or follow scored pairs: the sequence and its
/// PredictionCache::key_prefix, hashed once however many pairs it leads.
struct KeyedSequence {
  const BitSequence* sequence = nullptr;
  std::uint64_t key_prefix = 0;
};

/// The identity a prediction cache binds to (ShardedPredictionCache::bind):
/// the model's fingerprint (weights, config, kernel backend) with the
/// tokenizer's pair budget folded in. TokenizerOptions::max_seq_len
/// truncates every longer pair in encode_pair, so it changes scores that
/// PredictionCache::key_of (the full sequences) cannot tell apart.
std::uint64_t scorer_fingerprint(const bert::BertPairClassifier& model,
                                 const TokenizerOptions& tokenizer);

/// The one pairwise scorer behind recover and score: for pair k = (a, b),
/// out[k] = P(same word | sequences[a], sequences[b]). With a cache that is
/// one lookup under PredictionCache::key_of, and on a miss one encode_pair
/// + forward whose score is inserted; without one, always the forward.
/// Pairs fan out in `options.grain` chunks: on `options.pool` when set,
/// serially at one resolved thread, otherwise on a transient pool. Returns
/// how many pairs were forwarded. Throws runtime::CancelledError when
/// `options.cancel` fires between chunks, and rethrows the first failure
/// of any forward once every started chunk settled.
///
/// Determinism: each pair is computed by exactly one body invocation that
/// writes only out[k], the model is read-only, and cache hits are
/// lossless, so scheduling cannot change a bit.
std::int64_t score_pairs(std::span<const KeyedSequence> sequences,
                         std::span<const std::pair<int, int>> pairs,
                         const Tokenizer& tokenizer,
                         const bert::BertPairClassifier& model,
                         ShardedPredictionCache* cache,
                         const ScoringOptions& options, std::span<double> out);

class ScoreMatrix {
 public:
  static constexpr double kFiltered = -1.0;

  /// n bits, each its own class, every pair filtered until set().
  explicit ScoreMatrix(int n);

  int size() const { return static_cast<int>(class_of_.size()); }
  /// Score of bits i and j, looked up through their classes: symmetric,
  /// kFiltered on the diagonal and for pairs without a score.
  double at(int i, int j) const;
  /// Symmetric write of one bit pair's score; kFiltered clears it. Only for
  /// a matrix whose classes are single bits (as ScoreMatrix(n) builds).
  /// O(1) when pairs arrive in row-major order, O(edges) otherwise.
  void set(int i, int j, double score);

  /// Maximum score; kFiltered when no pair has one.
  double max_score() const;

  /// Fraction of bit pairs i < j that were filtered.
  double filtered_fraction() const;

  int num_classes() const { return static_cast<int>(offsets_.size()) - 1; }
  /// Bits of class `cls`, ascending.
  std::span<const int> members(int cls) const;
  /// Number of scored ordered class pairs.
  std::size_t num_edges() const { return scores_.size(); }

  /// f(c, d, score) for every scored ordered class pair: each bit pair
  /// i∈c, j∈d with i < j has that score.
  template <typename F>
  void for_each_edge(F&& f) const {
    for (const auto& [key, score] : scores_)
      f(static_cast<int>(key >> 32), static_cast<int>(key & 0xffffffffu),
        score);
  }

 private:
  /// class_ids[i] is bit i's class; classes are numbered 0..k-1.
  explicit ScoreMatrix(std::vector<int> class_ids);

  static std::uint64_t edge_key(int c, int d) {
    return (static_cast<std::uint64_t>(c) << 32) |
           static_cast<std::uint32_t>(d);
  }

  friend ScoreMatrix score_all_pairs(const std::vector<BitSequence>&,
                                     const Tokenizer&, const FilterOptions&,
                                     const bert::BertPairClassifier&,
                                     ShardedPredictionCache*,
                                     const ScoringOptions&);

  std::vector<int> class_of_;
  // Bits grouped by class, ascending in each: class c is
  // members_[offsets_[c], offsets_[c + 1]).
  std::vector<int> members_;
  std::vector<std::size_t> offsets_;
  // (edge_key, score), ascending by key.
  std::vector<std::pair<std::uint64_t, double>> scores_;
  std::int64_t scored_pairs_ = 0;  // bit pairs i < j with a score
};

/// Score every candidate pair of `bits`: one lookup, and on a miss one
/// forward, per ordered sequence-class pair that occurs (min c < max d;
/// two members when c == d) inside a bag-class pair the filter passes.
/// The class pairs are scored by score_pairs, from each class's first bit.
///
/// Determinism: bit-identical at any thread count (see score_pairs).
/// Enforced by tests/runtime/scoring_parallel_test.cc against a bit-pair
/// reference at 1, 2 and 8 threads.
ScoreMatrix score_all_pairs(const std::vector<BitSequence>& bits,
                            const Tokenizer& tokenizer,
                            const FilterOptions& filter,
                            const bert::BertPairClassifier& model,
                            ShardedPredictionCache* cache = nullptr,
                            const ScoringOptions& options = {});

}  // namespace rebert::core
