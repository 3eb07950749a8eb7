// Determinism of the parallel scoring hot path: score_all_pairs must
// produce a bit-identical ScoreMatrix at any thread count (the property
// scoring.h documents and the acceptance bar for the concurrent runtime).
#include "rebert/scoring.h"

#include <gtest/gtest.h>

#include <vector>

#include "bert/config.h"
#include "circuitgen/suite.h"
#include "rebert/pipeline.h"
#include "rebert/vocab.h"
#include "runtime/thread_pool.h"

namespace rebert::core {
namespace {

struct Fixture {
  Fixture()
      : generated(gen::generate_benchmark("b03", 0.5)),
        tokenizer({.backtrace_depth = 4, .tree_code_dim = 8,
                   .max_seq_len = 128}),
        bits(tokenizer.tokenize_bits(generated.netlist)),
        model(make_config()) {}

  static bert::BertConfig make_config() {
    bert::BertConfig config = bert::eval_config(
        static_cast<int>(vocabulary().size()), 128);
    config.tree_code_dim = 8;
    config.hidden = 32;
    config.num_layers = 1;
    config.num_heads = 2;
    config.intermediate = 64;
    return config;
  }

  gen::GeneratedCircuit generated;
  Tokenizer tokenizer;
  std::vector<BitSequence> bits;
  bert::BertPairClassifier model;
};

void expect_identical(const ScoreMatrix& a, const ScoreMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i)
    for (int j = 0; j < a.size(); ++j)
      ASSERT_EQ(a.at(i, j), b.at(i, j)) << "cell (" << i << "," << j << ")";
}

ScoreMatrix score_with_threads(Fixture& f, int threads, bool cached) {
  ScoringOptions options;
  options.num_threads = threads;
  ShardedPredictionCache cache;
  return score_all_pairs(f.bits, f.tokenizer, FilterOptions{}, f.model,
                         cached ? &cache : nullptr, options);
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
  // score_all_pairs with one thread must agree exactly with the original
  // build_score_matrix_with_model path it parallelizes.
  Fixture f;
  const ScoreMatrix legacy = build_score_matrix_with_model(
      f.bits, f.tokenizer, FilterOptions{}, f.model, nullptr);
  expect_identical(legacy, score_with_threads(f, 1, false));
  expect_identical(legacy, score_with_threads(f, 8, true));
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
  // Chunks of `grain` pairs are decoded back to (i, j): at any bit count
  // and any grain — dividing the pair count or not, larger than it or
  // not — every cell matches the row-by-row serial builder.
  Fixture f;
  ASSERT_GE(f.bits.size(), 12u);
  FilterOptions off;
  off.enabled = false;  // score every pair, so every cell is checked
  for (std::size_t n = 1; n <= 12; ++n) {
    const std::vector<BitSequence> bits(f.bits.begin(),
                                        f.bits.begin() +
                                            static_cast<std::ptrdiff_t>(n));
    const ScoreMatrix reference = build_score_matrix_with_model(
        bits, f.tokenizer, off, f.model, nullptr);
    for (const int grain : {1, 2, 5, 32, 1000}) {
      ScoringOptions options;
      options.grain = grain;
      options.num_threads = grain == 5 ? 3 : 1;
      expect_identical(reference,
                       score_all_pairs(bits, f.tokenizer, off, f.model,
                                       nullptr, options));
    }
  }
}

TEST(ScoreAllPairsTest, RespectsFilterInParallel) {
  Fixture f;
  ScoringOptions options;
  options.num_threads = 4;
  const ScoreMatrix scores = score_all_pairs(
      f.bits, f.tokenizer, FilterOptions{}, f.model, nullptr, options);
  const ScoreMatrix reference = build_score_matrix_with_model(
      f.bits, f.tokenizer, FilterOptions{}, f.model, nullptr);
  EXPECT_EQ(scores.filtered_fraction(), reference.filtered_fraction());
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
}

}  // namespace
}  // namespace rebert::core
