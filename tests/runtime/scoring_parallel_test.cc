// The class scorer against the bit-pair algorithm it replaced:
// score_all_pairs must give, at any thread count and with or without a
// cache, the same score in every cell, the same filtered fraction and the
// same words as filtering, keying and scoring every bit pair i < j into a
// dense matrix — the reference below.
#include "rebert/scoring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_map>
#include <vector>

#include "bert/config.h"
#include "circuitgen/suite.h"
#include "nl/corruption.h"
#include "rebert/grouping.h"
#include "rebert/pipeline.h"
#include "rebert/vocab.h"
#include "runtime/thread_pool.h"

namespace rebert::core {
namespace {

/// Dense bit-pair scoring and grouping: every i < j runs passes_filter ->
/// key_of -> encode_pair -> predict (a memo only skips repeated keys),
/// and every cell above max * factor unites its two bits.
struct BitPairReference {
  int n = 0;
  std::vector<double> cells;  // n x n, kFiltered diagonal
  double filtered_fraction = 0.0;
  std::vector<int> labels;

  double at(int i, int j) const {
    return cells[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(j)];
  }
};

BitPairReference bit_pair_reference(const std::vector<BitSequence>& bits,
                                    const Tokenizer& tokenizer,
                                    const FilterOptions& filter,
                                    const bert::BertPairClassifier& model) {
  BitPairReference ref;
  ref.n = static_cast<int>(bits.size());
  const auto n = static_cast<std::size_t>(ref.n);
  ref.cells.assign(n * n, ScoreMatrix::kFiltered);
  std::unordered_map<std::uint64_t, double> memo;  // key_of -> score
  long long filtered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!passes_filter(bits[i], bits[j], filter)) {
        ++filtered;
        continue;
      }
      const std::uint64_t key = PredictionCache::key_of(bits[i], bits[j]);
      auto [it, fresh] = memo.try_emplace(key, 0.0);
      if (fresh)
        it->second = model.predict_same_word_probability(
            tokenizer.encode_pair(bits[i], bits[j]));
      ref.cells[i * n + j] = ref.cells[j * n + i] = it->second;
    }
  }
  const long long pairs = static_cast<long long>(n) * (ref.n - 1) / 2;
  ref.filtered_fraction =
      pairs ? static_cast<double>(filtered) / static_cast<double>(pairs)
            : 0.0;
  const double max_score = *std::max_element(ref.cells.begin(),
                                             ref.cells.end());
  UnionFind uf(ref.n);
  if (max_score > 0.0) {
    const double threshold = max_score * GroupingOptions{}.threshold_factor;
    for (int i = 0; i < ref.n; ++i)
      for (int j = i + 1; j < ref.n; ++j)
        if (ref.at(i, j) > threshold) uf.unite(i, j);
  }
  ref.labels = uf.labels();
  return ref;
}

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every cell bitwise, the filtered fraction exactly, and the words.
void expect_matches(const BitPairReference& ref, const ScoreMatrix& scores) {
  ASSERT_EQ(ref.n, scores.size());
  for (int i = 0; i < ref.n; ++i)
    for (int j = 0; j < ref.n; ++j)
      ASSERT_TRUE(same_double(ref.at(i, j), scores.at(i, j)))
          << "cell (" << i << "," << j << "): " << ref.at(i, j) << " vs "
          << scores.at(i, j);
  EXPECT_EQ(ref.filtered_fraction, scores.filtered_fraction());
  EXPECT_EQ(ref.labels, group_words(scores));
}

void expect_identical(const ScoreMatrix& a, const ScoreMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i)
    for (int j = 0; j < a.size(); ++j)
      ASSERT_TRUE(same_double(a.at(i, j), b.at(i, j)))
          << "cell (" << i << "," << j << ")";
}

bert::BertConfig small_config() {
  bert::BertConfig config =
      bert::eval_config(static_cast<int>(vocabulary().size()), 128);
  config.tree_code_dim = 8;
  config.hidden = 32;
  config.num_layers = 1;
  config.num_heads = 2;
  config.intermediate = 64;
  return config;
}

constexpr TokenizerOptions kTokenizer{
    .backtrace_depth = 4, .tree_code_dim = 8, .max_seq_len = 128};

struct Fixture {
  Fixture()
      : generated(gen::generate_benchmark("b03", 0.5)),
        tokenizer(kTokenizer),
        bits(tokenizer.tokenize_bits(generated.netlist)),
        model(small_config()) {}

  gen::GeneratedCircuit generated;
  Tokenizer tokenizer;
  std::vector<BitSequence> bits;
  bert::BertPairClassifier model;
};

ScoreMatrix score_with_threads(Fixture& f, int threads, bool cached,
                               const FilterOptions& filter = {}) {
  ScoringOptions options;
  options.num_threads = threads;
  ShardedPredictionCache cache;
  return score_all_pairs(f.bits, f.tokenizer, filter, f.model,
                         cached ? &cache : nullptr, options);
}

TEST(ScoreAllPairsTest, MatchesBitPairReferenceAcrossConfigurations) {
  Fixture f;
  const nl::Netlist b03 = gen::generate_benchmark("b03", 1.0).netlist;
  for (const double r_index : {0.0, 0.4}) {
    const nl::Netlist netlist =
        r_index == 0.0 ? b03
                       : nl::corrupt_netlist(b03, {.r_index = r_index,
                                                   .seed = 7});
    const std::vector<BitSequence> bits = f.tokenizer.tokenize_bits(netlist);
    for (const bool filter_on : {true, false}) {
      FilterOptions filter;
      filter.enabled = filter_on;
      const BitPairReference ref =
          bit_pair_reference(bits, f.tokenizer, filter, f.model);
      for (const int threads : {1, 2, 8}) {
        for (const bool cached : {true, false}) {
          SCOPED_TRACE(::testing::Message()
                       << "R=" << r_index << " filter=" << filter_on
                       << " threads=" << threads << " cache=" << cached);
          ScoringOptions options;
          options.num_threads = threads;
          ShardedPredictionCache cache;
          expect_matches(ref, score_all_pairs(bits, f.tokenizer, filter,
                                              f.model,
                                              cached ? &cache : nullptr,
                                              options));
        }
      }
    }
  }
}

TEST(ScoreAllPairsTest, TrainedModelMatchesBitPairReference) {
  // Untrained weights tend to put most bits in one component, where a
  // grouping bug can hide; a briefly trained model gives several words
  // and singletons, so a wrong edge changes the labels.
  gen::GeneratedCircuit generated = gen::generate_benchmark("b03", 1.0);
  const CircuitData circuit{"b03", generated.netlist, generated.words};
  ExperimentOptions options;
  options.pipeline.tokenizer = kTokenizer;
  options.dataset.r_indices = {0.0};
  options.dataset.max_samples_per_circuit = 300;
  options.training.epochs = 3;
  options.model_hidden = 32;
  options.model_layers = 1;
  options.model_heads = 2;
  const auto model = train_rebert({&circuit}, options);

  const Tokenizer tokenizer(kTokenizer);
  for (const double r_index : {0.0, 0.4}) {
    SCOPED_TRACE(::testing::Message() << "R=" << r_index);
    const nl::Netlist netlist =
        r_index == 0.0 ? circuit.netlist
                       : nl::corrupt_netlist(circuit.netlist,
                                             {.r_index = r_index, .seed = 7});
    const std::vector<BitSequence> bits = tokenizer.tokenize_bits(netlist);
    const BitPairReference ref =
        bit_pair_reference(bits, tokenizer, FilterOptions{}, *model);
    std::map<int, int> word_sizes;
    for (const int label : ref.labels) ++word_sizes[label];
    int multi_bit = 0, singletons = 0;
    for (const auto& [label, size] : word_sizes)
      (size >= 2 ? multi_bit : singletons) += 1;
    ASSERT_GE(multi_bit, 3) << "the reference must split into several words";
    ASSERT_GE(singletons, 1) << "the reference must leave a bit alone";

    for (const int threads : {1, 8}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      ScoringOptions scoring;
      scoring.num_threads = threads;
      ShardedPredictionCache cache;
      expect_matches(ref, score_all_pairs(bits, tokenizer, FilterOptions{},
                                          *model, &cache, scoring));
    }
  }
}

TEST(ScoreAllPairsTest, BitIdenticalAtOneTwoAndEightThreads) {
  Fixture f;
  const ScoreMatrix serial = score_with_threads(f, 1, /*cached=*/false);
  expect_identical(serial, score_with_threads(f, 2, false));
  expect_identical(serial, score_with_threads(f, 8, false));
}

TEST(ScoreAllPairsTest, SharedCacheDoesNotChangeParallelScores) {
  Fixture f;
  const ScoreMatrix uncached = score_with_threads(f, 1, false);
  expect_identical(uncached, score_with_threads(f, 1, true));
  expect_identical(uncached, score_with_threads(f, 8, true));
}

TEST(ScoreAllPairsTest, MatchesLegacySerialBuilder) {
  // The bit-pair reference is the serial builder the class scorer
  // replaced, one pair at a time.
  Fixture f;
  const BitPairReference legacy =
      bit_pair_reference(f.bits, f.tokenizer, FilterOptions{}, f.model);
  expect_matches(legacy, score_with_threads(f, 1, false));
  expect_matches(legacy, score_with_threads(f, 8, true));
}

TEST(ScoreAllPairsTest, ExternalPoolGivesSameMatrix) {
  Fixture f;
  const ScoreMatrix serial = score_with_threads(f, 1, false);
  runtime::ThreadPool pool(3);
  ScoringOptions options;
  options.pool = &pool;
  ShardedPredictionCache cache;
  const ScoreMatrix pooled = score_all_pairs(
      f.bits, f.tokenizer, FilterOptions{}, f.model, &cache, options);
  expect_identical(serial, pooled);
}

TEST(ScoreAllPairsTest, EveryGrainCoversEachPairOnce) {
  // Chunks of `grain` candidate class pairs: at any bit count and any
  // grain — dividing the candidate count or not, larger than it or not —
  // every cell matches the bit-pair reference.
  Fixture f;
  ASSERT_GE(f.bits.size(), 12u);
  FilterOptions off;
  off.enabled = false;  // score every pair, so every cell is checked
  for (std::size_t n = 1; n <= 12; ++n) {
    const std::vector<BitSequence> bits(f.bits.begin(),
                                        f.bits.begin() +
                                            static_cast<std::ptrdiff_t>(n));
    const BitPairReference reference =
        bit_pair_reference(bits, f.tokenizer, off, f.model);
    for (const int grain : {1, 2, 5, 32, 1000}) {
      ScoringOptions options;
      options.grain = grain;
      options.num_threads = grain == 5 ? 3 : 1;
      expect_matches(reference, score_all_pairs(bits, f.tokenizer, off,
                                                f.model, nullptr, options));
    }
  }
}

TEST(ScoreAllPairsTest, RespectsFilterInParallel) {
  Fixture f;
  ScoringOptions options;
  options.num_threads = 4;
  const ScoreMatrix scores = score_all_pairs(
      f.bits, f.tokenizer, FilterOptions{}, f.model, nullptr, options);
  const BitPairReference reference =
      bit_pair_reference(f.bits, f.tokenizer, FilterOptions{}, f.model);
  EXPECT_GT(reference.filtered_fraction, 0.0);
  EXPECT_EQ(scores.filtered_fraction(), reference.filtered_fraction);
}

TEST(ScoreAllPairsTest, OneLookupPerScoredClassPair) {
  // Each ordered class pair is keyed once, so a cold cache misses once per
  // scored class pair and a second pass hits every one of them.
  Fixture f;
  ShardedPredictionCache cache;
  const ScoreMatrix cold = score_all_pairs(f.bits, f.tokenizer,
                                           FilterOptions{}, f.model, &cache);
  ASSERT_LT(cold.num_classes(), cold.size());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), cold.num_edges());
  EXPECT_EQ(cache.size(), cold.num_edges());
  const ScoreMatrix warm = score_all_pairs(f.bits, f.tokenizer,
                                           FilterOptions{}, f.model, &cache);
  EXPECT_EQ(cache.hits(), cold.num_edges());
  EXPECT_EQ(cache.misses(), cold.num_edges());
  expect_identical(cold, warm);
}

TEST(ScoreAllPairsTest, CancelledTokenStopsScoring) {
  Fixture f;
  runtime::CancellationToken cancel;
  cancel.request_stop();
  ScoringOptions options;
  options.cancel = &cancel;
  EXPECT_THROW(score_all_pairs(f.bits, f.tokenizer, FilterOptions{}, f.model,
                               nullptr, options),
               runtime::CancelledError);
}

TEST(RecoverWordsTest, LabelsIdenticalAcrossThreadCounts) {
  // End-to-end: the full pipeline (which routes through score_all_pairs)
  // recovers the same partition no matter the thread count.
  Fixture f;
  PipelineOptions options;
  options.tokenizer = f.tokenizer.options();
  options.num_threads = 1;
  const RecoveryResult serial =
      recover_words(f.generated.netlist, f.model, options);
  options.num_threads = 4;
  const RecoveryResult parallel =
      recover_words(f.generated.netlist, f.model, options);
  EXPECT_EQ(serial.labels, parallel.labels);
  EXPECT_EQ(serial.num_words, parallel.num_words);
  EXPECT_EQ(serial.sequence_classes, parallel.sequence_classes);
  EXPECT_EQ(serial.scored_class_pairs, parallel.scored_class_pairs);
  EXPECT_GT(serial.sequence_classes, 0);
  EXPECT_LE(serial.sequence_classes, static_cast<int>(f.bits.size()));
}

}  // namespace
}  // namespace rebert::core
