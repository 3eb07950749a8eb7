// Pairwise score matrix (§II-C/D, Fig. 1(d) input).
//
// score(i,j) = P(same word | bits i, j) from the model, or kFiltered (-1)
// when the Jaccard pre-filter rejects the pair. The matrix is symmetric
// with a kFiltered diagonal (self-pairs are never scored).
#pragma once

#include <functional>
#include <vector>

#include "bert/model.h"
#include "rebert/filter.h"
#include "rebert/prediction_cache.h"
#include "rebert/tokenizer.h"
#include "runtime/latch.h"
#include "runtime/thread_pool.h"

namespace rebert::core {

class ScoreMatrix {
 public:
  static constexpr double kFiltered = -1.0;

  explicit ScoreMatrix(int n);

  int size() const { return n_; }
  double at(int i, int j) const;
  void set(int i, int j, double score);  // symmetric write

  /// Maximum entry (filtered cells included as -1); -1 when fully filtered.
  double max_score() const;

  /// Fraction of strict-upper-triangle pairs that were filtered.
  double filtered_fraction() const;

 private:
  int n_;
  std::vector<double> values_;
};

/// Scores every pair with `scorer` unless the filter rejects it first.
/// `scorer(i, j)` is only invoked for surviving pairs.
ScoreMatrix build_score_matrix(
    const std::vector<BitSequence>& bits, const FilterOptions& filter,
    const std::function<double(int, int)>& scorer);

/// Convenience: model-backed scoring through Tokenizer::encode_pair.
/// When `cache` is non-null, identical (generalized) sequence pairs reuse
/// previous predictions — lossless, since inference is deterministic.
ScoreMatrix build_score_matrix_with_model(
    const std::vector<BitSequence>& bits, const Tokenizer& tokenizer,
    const FilterOptions& filter, const bert::BertPairClassifier& model,
    PredictionCache* cache = nullptr);

/// Scheduling knobs for score_all_pairs.
struct ScoringOptions {
  /// Worker threads; 1 = serial, 0 = resolve from REBERT_THREADS /
  /// hardware (runtime::resolve_thread_count).
  int num_threads = 1;
  /// Candidate pairs per scheduling chunk (see runtime/parallel_for.h).
  int grain = 32;
  /// Reuse an existing pool (e.g. the serve engine's) instead of spinning
  /// up a transient one. When null and more than one thread is resolved, a
  /// pool is created for the call.
  runtime::ThreadPool* pool = nullptr;
  /// Cooperative cancellation / deadline token, polled between scheduling
  /// chunks (see runtime/parallel_for.h). When it fires mid-sweep the call
  /// throws runtime::CancelledError — how the serve engine bounds a
  /// recover request to its deadline_ms.
  runtime::CancellationToken* cancel = nullptr;
};

/// Score every candidate pair of `bits` — the O(bits²) hot path of the
/// whole pipeline — fanning surviving pairs out across worker threads.
///
/// Determinism: the output is bit-identical at any thread count. Each of
/// the n(n-1)/2 pair slots is computed by exactly one chunk (`grain`
/// consecutive pairs of the row-major upper triangle) that writes only its
/// own matrix cells, the model is read-only during
/// inference, and cache hits are lossless (same key -> same score), so
/// scheduling order cannot change a single bit of the result. Enforced by
/// tests/runtime/scoring_parallel_test.cc at 1, 2, and 8 threads.
ScoreMatrix score_all_pairs(const std::vector<BitSequence>& bits,
                            const Tokenizer& tokenizer,
                            const FilterOptions& filter,
                            const bert::BertPairClassifier& model,
                            ShardedPredictionCache* cache = nullptr,
                            const ScoringOptions& options = {});

}  // namespace rebert::core
