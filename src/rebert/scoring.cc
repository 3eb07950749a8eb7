#include "rebert/scoring.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "runtime/parallel_for.h"
#include "runtime/threads.h"
#include "util/check.h"
#include "util/fnv1a.h"

namespace rebert::core {

namespace {

/// First edge whose key is not below `key`; edges ascend by key.
template <typename Edges>
auto edge_at(Edges& edges, std::uint64_t key) {
  return std::lower_bound(
      edges.begin(), edges.end(), key,
      [](const auto& edge, std::uint64_t k) { return edge.first < k; });
}

}  // namespace

std::uint64_t scorer_fingerprint(const bert::BertPairClassifier& model,
                                 const TokenizerOptions& tokenizer) {
  const std::uint64_t budget =
      static_cast<std::uint64_t>(tokenizer.max_seq_len);
  return util::fnv1a_update(model.fingerprint(), &budget, sizeof(budget));
}

ScoreMatrix::ScoreMatrix(int n) {
  REBERT_CHECK_MSG(n >= 1, "score matrix needs at least one bit");
  class_of_.resize(static_cast<std::size_t>(n));
  std::iota(class_of_.begin(), class_of_.end(), 0);
  members_ = class_of_;
  offsets_.resize(class_of_.size() + 1);
  std::iota(offsets_.begin(), offsets_.end(), 0);
}

ScoreMatrix::ScoreMatrix(std::vector<int> class_ids)
    : class_of_(std::move(class_ids)) {
  // Counting sort by class; a stable pass keeps each class ascending.
  const int classes =
      *std::max_element(class_of_.begin(), class_of_.end()) + 1;
  offsets_.assign(static_cast<std::size_t>(classes) + 1, 0);
  for (const int c : class_of_) ++offsets_[static_cast<std::size_t>(c) + 1];
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  members_.resize(class_of_.size());
  for (int i = 0; i < size(); ++i)
    members_[cursor[static_cast<std::size_t>(
        class_of_[static_cast<std::size_t>(i)])]++] = i;
}

std::span<const int> ScoreMatrix::members(int cls) const {
  REBERT_CHECK(cls >= 0 && cls < num_classes());
  const auto c = static_cast<std::size_t>(cls);
  return std::span<const int>(members_).subspan(offsets_[c],
                                                offsets_[c + 1] - offsets_[c]);
}

double ScoreMatrix::at(int i, int j) const {
  REBERT_CHECK(i >= 0 && i < size() && j >= 0 && j < size());
  if (i == j) return kFiltered;
  const int ci = class_of_[static_cast<std::size_t>(i)];
  const int cj = class_of_[static_cast<std::size_t>(j)];
  const std::uint64_t key = i < j ? edge_key(ci, cj) : edge_key(cj, ci);
  const auto it = edge_at(scores_, key);
  return it != scores_.end() && it->first == key ? it->second : kFiltered;
}

void ScoreMatrix::set(int i, int j, double score) {
  REBERT_CHECK(i >= 0 && i < size() && j >= 0 && j < size() && i != j);
  REBERT_CHECK_MSG(num_classes() == size(),
                   "set() writes single-bit classes only");
  const std::uint64_t key = edge_key(std::min(i, j), std::max(i, j));
  // Pairs written in row-major order append in O(1).
  const auto it = !scores_.empty() && scores_.back().first < key
                      ? scores_.end()
                      : edge_at(scores_, key);
  const bool present = it != scores_.end() && it->first == key;
  if (score == kFiltered) {
    if (present) {
      scores_.erase(it);
      --scored_pairs_;
    }
  } else if (present) {
    it->second = score;
  } else {
    scores_.insert(it, {key, score});
    ++scored_pairs_;
  }
}

double ScoreMatrix::max_score() const {
  double best = kFiltered;
  for (const auto& [key, score] : scores_)
    if (score > best) best = score;
  return best;
}

double ScoreMatrix::filtered_fraction() const {
  const auto n = static_cast<std::int64_t>(size());
  if (n < 2) return 0.0;
  const std::int64_t total = n * (n - 1) / 2;
  return static_cast<double>(total - scored_pairs_) /
         static_cast<double>(total);
}

namespace {

/// Each bit's sequence class, numbered in first-seen order. A hash only
/// proposes a class; equal token ids and tree codes decide.
std::vector<int> intern_classes(const std::vector<BitSequence>& bits) {
  std::vector<int> class_of(bits.size());
  std::vector<std::size_t> first;  // per class: its first bit
  std::unordered_map<std::uint64_t, std::vector<int>> by_hash;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    std::vector<int>& bucket = by_hash[PredictionCache::key_prefix(bits[i])];
    const auto same = std::find_if(bucket.begin(), bucket.end(), [&](int c) {
      const BitSequence& seen = bits[first[static_cast<std::size_t>(c)]];
      return seen.token_ids == bits[i].token_ids &&
             seen.tree_codes == bits[i].tree_codes;
    });
    if (same != bucket.end()) {
      class_of[i] = *same;
      continue;
    }
    class_of[i] = static_cast<int>(first.size());
    bucket.push_back(class_of[i]);
    first.push_back(i);
  }
  return class_of;
}

}  // namespace

std::int64_t score_pairs(std::span<const KeyedSequence> sequences,
                         std::span<const std::pair<int, int>> pairs,
                         const Tokenizer& tokenizer,
                         const bert::BertPairClassifier& model,
                         ShardedPredictionCache* cache,
                         const ScoringOptions& options,
                         std::span<double> out) {
  REBERT_CHECK(out.size() == pairs.size());
  runtime::ParallelForOptions schedule;
  schedule.grain = std::max(1, options.grain);
  schedule.cancel = options.cancel;

  // Pair k writes only out[k]; the counter is touched once per forward.
  std::atomic<std::int64_t> forwards{0};
  const auto score_one = [&](std::int64_t k) {
    const auto [i, j] = pairs[static_cast<std::size_t>(k)];
    const KeyedSequence& a = sequences[static_cast<std::size_t>(i)];
    const BitSequence& b = *sequences[static_cast<std::size_t>(j)].sequence;
    double& score = out[static_cast<std::size_t>(k)];
    std::uint64_t key = 0;
    if (cache) {
      key = hash_sequence(a.key_prefix, b);
      if (cache->lookup(key, &score)) return;
    }
    score = model.predict_same_word_probability(
        tokenizer.encode_pair(*a.sequence, b));
    forwards.fetch_add(1, std::memory_order_relaxed);
    if (cache) cache->insert(key, score);
  };
  const auto total = static_cast<std::int64_t>(pairs.size());
  const int threads = options.num_threads == 1
                          ? 1
                          : runtime::resolve_thread_count(options.num_threads);
  if (threads <= 1 && options.pool == nullptr) {
    runtime::serial_for(0, total, score_one, schedule);
  } else if (options.pool != nullptr) {
    runtime::parallel_for(*options.pool, 0, total, score_one, schedule);
  } else {
    // The calling thread participates in parallel_for, so a transient pool
    // needs one fewer worker to land on `threads` scoring threads total.
    runtime::ThreadPool pool(std::max(1, threads - 1));
    runtime::parallel_for(pool, 0, total, score_one, schedule);
  }
  return forwards.load(std::memory_order_relaxed);
}

ScoreMatrix score_all_pairs(const std::vector<BitSequence>& bits,
                            const Tokenizer& tokenizer,
                            const FilterOptions& filter,
                            const bert::BertPairClassifier& model,
                            ShardedPredictionCache* cache,
                            const ScoringOptions& options) {
  REBERT_CHECK(!bits.empty());
  ScoreMatrix matrix(intern_classes(bits));
  // A class is scored through its first bit. Ordered pair (c, d) occurs
  // when some i∈c, j∈d has i < j; for c == d that means two members.
  const auto sequence = [&](int c) -> const BitSequence& {
    return bits[static_cast<std::size_t>(matrix.members(c).front())];
  };
  const auto occurs = [&](int c, int d) {
    return matrix.members(c).front() < matrix.members(d).back();
  };
  std::vector<KeyedSequence> keyed;  // per class: its first bit, keyed
  struct Bag {
    std::vector<int> classes;
    std::int64_t bits = 0;
  };
  std::map<std::vector<int>, Bag> bags;  // token_counts -> classes
  for (int c = 0; c < matrix.num_classes(); ++c) {
    keyed.push_back({&sequence(c), PredictionCache::key_prefix(sequence(c))});
    Bag& bag = bags[token_counts(sequence(c).token_ids)];
    bag.classes.push_back(c);
    bag.bits += static_cast<std::int64_t>(matrix.members(c).size());
  }

  // Filter once per unordered bag-class pair; collect the occurring
  // ordered class pairs of the passing ones, in a thread-independent order.
  std::vector<std::pair<int, int>> candidates;
  std::int64_t scored_pairs = 0;
  for (auto a = bags.begin(); a != bags.end(); ++a) {
    if (options.cancel && options.cancel->requested())
      throw runtime::CancelledError();
    for (auto b = a; b != bags.end(); ++b) {
      if (!counts_pass_filter(a->first, b->first, filter)) continue;
      const std::int64_t na = a->second.bits, nb = b->second.bits;
      scored_pairs += a == b ? na * (na - 1) / 2 : na * nb;
      for (const int c : a->second.classes)
        for (const int d : b->second.classes) {
          if (a == b && d < c) continue;  // each class pair once
          if (occurs(c, d)) candidates.emplace_back(c, d);
          if (c != d && occurs(d, c)) candidates.emplace_back(d, c);
        }
    }
  }

  std::vector<double> scores(candidates.size());
  score_pairs(keyed, candidates, tokenizer, model, cache, options, scores);

  matrix.scores_.reserve(candidates.size());
  for (std::size_t k = 0; k < candidates.size(); ++k)
    matrix.scores_.emplace_back(
        ScoreMatrix::edge_key(candidates[k].first, candidates[k].second),
        scores[k]);
  std::sort(matrix.scores_.begin(), matrix.scores_.end());
  matrix.scored_pairs_ = scored_pairs;
  return matrix;
}

}  // namespace rebert::core
