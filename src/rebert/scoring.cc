#include "rebert/scoring.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "runtime/parallel_for.h"
#include "runtime/threads.h"
#include "util/check.h"

namespace rebert::core {

ScoreMatrix::ScoreMatrix(int n) : n_(n) {
  REBERT_CHECK_MSG(n >= 1, "score matrix needs at least one bit");
  values_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                 kFiltered);
}

double ScoreMatrix::at(int i, int j) const {
  REBERT_CHECK(i >= 0 && i < n_ && j >= 0 && j < n_);
  return values_[static_cast<std::size_t>(i) * n_ + j];
}

void ScoreMatrix::set(int i, int j, double score) {
  REBERT_CHECK(i >= 0 && i < n_ && j >= 0 && j < n_);
  values_[static_cast<std::size_t>(i) * n_ + j] = score;
  values_[static_cast<std::size_t>(j) * n_ + i] = score;
}

double ScoreMatrix::max_score() const {
  return *std::max_element(values_.begin(), values_.end());
}

double ScoreMatrix::filtered_fraction() const {
  if (n_ < 2) return 0.0;
  long long filtered = 0, total = 0;
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) {
      ++total;
      if (at(i, j) == kFiltered) ++filtered;
    }
  }
  return static_cast<double>(filtered) / static_cast<double>(total);
}

namespace {

/// Row-major index p of the strict upper triangle of an n x n matrix ->
/// its cell (i, j), i < j. Row i starts at index i * (2n - i - 1) / 2.
std::pair<int, int> upper_triangle_cell(int n, std::int64_t p) {
  const auto start = [n](std::int64_t i) { return i * (2 * n - i - 1) / 2; };
  const double b = 2.0 * n - 1.0;
  auto i = static_cast<std::int64_t>((b - std::sqrt(b * b - 8.0 * p)) / 2.0);
  // The square root only estimates the row; settle it exactly.
  while (i > 0 && start(i) > p) --i;
  while (start(i + 1) <= p) ++i;
  return {static_cast<int>(i), static_cast<int>(p - start(i) + i + 1)};
}

}  // namespace

ScoreMatrix build_score_matrix(
    const std::vector<BitSequence>& bits, const FilterOptions& filter,
    const std::function<double(int, int)>& scorer) {
  REBERT_CHECK(!bits.empty());
  const SortedBags bags(bits);
  ScoreMatrix matrix(static_cast<int>(bits.size()));
  for (int i = 0; i < matrix.size(); ++i) {
    for (int j = i + 1; j < matrix.size(); ++j) {
      if (!bags_pass_filter(bags.bag(static_cast<std::size_t>(i)),
                            bags.bag(static_cast<std::size_t>(j)), filter))
        continue;  // stays kFiltered
      matrix.set(i, j, scorer(i, j));
    }
  }
  return matrix;
}

ScoreMatrix build_score_matrix_with_model(
    const std::vector<BitSequence>& bits, const Tokenizer& tokenizer,
    const FilterOptions& filter, const bert::BertPairClassifier& model,
    PredictionCache* cache) {
  return build_score_matrix(
      bits, filter, [&](int i, int j) {
        const BitSequence& a = bits[static_cast<std::size_t>(i)];
        const BitSequence& b = bits[static_cast<std::size_t>(j)];
        std::uint64_t key = 0;
        if (cache) {
          key = PredictionCache::key_of(a, b);
          double cached = 0.0;
          if (cache->lookup(key, &cached)) return cached;
        }
        const bert::EncodedSequence pair = tokenizer.encode_pair(a, b);
        const double score = model.predict_same_word_probability(pair);
        if (cache) cache->insert(key, score);
        return score;
      });
}

ScoreMatrix score_all_pairs(const std::vector<BitSequence>& bits,
                            const Tokenizer& tokenizer,
                            const FilterOptions& filter,
                            const bert::BertPairClassifier& model,
                            ShardedPredictionCache* cache,
                            const ScoringOptions& options) {
  REBERT_CHECK(!bits.empty());
  const int n = static_cast<int>(bits.size());
  const SortedBags bags(bits);
  ScoreMatrix matrix(n);

  // (i, j) identifies the only body invocation that may touch matrix cells
  // (i, j)/(j, i).
  const auto score_one = [&](int i, int j) {
    if (!bags_pass_filter(bags.bag(static_cast<std::size_t>(i)),
                          bags.bag(static_cast<std::size_t>(j)), filter))
      return;  // cell stays kFiltered
    const BitSequence& a = bits[static_cast<std::size_t>(i)];
    const BitSequence& b = bits[static_cast<std::size_t>(j)];
    std::uint64_t key = 0;
    if (cache) {
      key = PredictionCache::key_of(a, b);
      double cached = 0.0;
      if (cache->lookup(key, &cached)) {
        matrix.set(i, j, cached);
        return;
      }
    }
    const bert::EncodedSequence encoded = tokenizer.encode_pair(a, b);
    const double score = model.predict_same_word_probability(encoded);
    if (cache) cache->insert(key, score);
    matrix.set(i, j, score);
  };
  // The strict upper triangle, row-major, cut into chunks of `grain`
  // pairs: parallel_for hands out chunks, and each walks its pairs from a
  // decoded first cell. No n^2 work list is materialized.
  const std::int64_t total = static_cast<std::int64_t>(n) * (n - 1) / 2;
  const std::int64_t grain = std::max(1, options.grain);
  const auto score_chunk = [&](std::int64_t chunk) {
    const std::int64_t first = chunk * grain;
    auto [i, j] = upper_triangle_cell(n, first);
    for (std::int64_t p = first; p < std::min(total, first + grain); ++p) {
      score_one(i, j);
      if (++j == n) {
        ++i;
        j = i + 1;
      }
    }
  };
  const std::int64_t chunks = (total + grain - 1) / grain;

  runtime::ParallelForOptions schedule;
  schedule.grain = 1;  // one chunk of `grain` pairs per index
  schedule.cancel = options.cancel;
  const int threads = options.num_threads == 1
                          ? 1
                          : runtime::resolve_thread_count(options.num_threads);
  if (threads <= 1 && options.pool == nullptr) {
    runtime::serial_for(0, chunks, score_chunk, schedule);
  } else if (options.pool != nullptr) {
    runtime::parallel_for(*options.pool, 0, chunks, score_chunk, schedule);
  } else {
    // The calling thread participates in parallel_for, so a transient pool
    // needs one fewer worker to land on `threads` scoring threads total.
    runtime::ThreadPool pool(std::max(1, threads - 1));
    runtime::parallel_for(pool, 0, chunks, score_chunk, schedule);
  }
  return matrix;
}

}  // namespace rebert::core
