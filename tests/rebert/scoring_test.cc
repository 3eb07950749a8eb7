#include "rebert/scoring.h"

#include <gtest/gtest.h>

#include "bert/config.h"
#include "nl/parser.h"
#include "rebert/vocab.h"

namespace rebert::core {
namespace {

constexpr TokenizerOptions kTokenizer{
    .backtrace_depth = 4, .tree_code_dim = 8, .max_seq_len = 64};

std::vector<BitSequence> three_bits() {
  // Bits 0 and 1 share a template; bit 2 differs completely.
  const nl::Netlist n = nl::parse_bench_string(R"(
INPUT(a0)
INPUT(b0)
INPUT(a1)
INPUT(b1)
INPUT(c)
d0 = XOR(a0, b0)
d1 = XOR(a1, b1)
inv = NOT(c)
d2 = NOT(inv)
q0 = DFF(d0)
q1 = DFF(d1)
q2 = DFF(d2)
OUTPUT(d2)
)");
  return Tokenizer(kTokenizer).tokenize_bits(n);
}

bert::BertPairClassifier small_model() {
  bert::BertConfig config =
      bert::eval_config(static_cast<int>(vocabulary().size()), 64);
  config.tree_code_dim = 8;
  config.hidden = 32;
  config.num_layers = 1;
  config.num_heads = 2;
  config.intermediate = 64;
  return bert::BertPairClassifier(config);
}

TEST(BuildScoreMatrixTest, FilterShortCircuitsScorer) {
  const auto bits = three_bits();
  const Tokenizer tokenizer(kTokenizer);
  const bert::BertPairClassifier model = small_model();
  ShardedPredictionCache cache;
  const ScoreMatrix scores =
      score_all_pairs(bits, tokenizer, FilterOptions{}, model, &cache);
  // Bits 0 and 1 are one class, so pair (0,1) is one scored class pair.
  // Pairs with bit 2 are dissimilar -> filtered without a lookup.
  EXPECT_EQ(scores.num_classes(), 2);
  EXPECT_EQ(scores.members(0).size(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(scores.num_edges(), 1u);
  EXPECT_GE(scores.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(scores.at(0, 2), ScoreMatrix::kFiltered);
  EXPECT_DOUBLE_EQ(scores.at(1, 2), ScoreMatrix::kFiltered);
  EXPECT_NEAR(scores.filtered_fraction(), 2.0 / 3.0, 1e-12);
}

TEST(BuildScoreMatrixTest, DisabledFilterScoresAllPairs) {
  const auto bits = three_bits();
  const Tokenizer tokenizer(kTokenizer);
  const bert::BertPairClassifier model = small_model();
  FilterOptions off;
  off.enabled = false;
  ShardedPredictionCache cache;
  const ScoreMatrix scores = score_all_pairs(bits, tokenizer, off, model,
                                             &cache);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_GE(scores.at(i, j), 0.0) << i << "," << j;
      }
    }
  EXPECT_DOUBLE_EQ(scores.filtered_fraction(), 0.0);
  // Classes {0,1} and {2}: (c01, c01) and (c01, c2) occur; (c2, c01) does
  // not, since bit 2 follows both bits of the other class.
  EXPECT_EQ(scores.num_edges(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(BuildScoreMatrixTest, ScoresLandSymmetrically) {
  const auto bits = three_bits();
  const Tokenizer tokenizer(kTokenizer);
  const bert::BertPairClassifier model = small_model();
  FilterOptions off;
  off.enabled = false;
  const ScoreMatrix scores = score_all_pairs(bits, tokenizer, off, model);
  for (int i = 0; i < scores.size(); ++i) {
    EXPECT_DOUBLE_EQ(scores.at(i, i), ScoreMatrix::kFiltered);
    for (int j = 0; j < scores.size(); ++j)
      if (i != j) {
        EXPECT_DOUBLE_EQ(scores.at(i, j), scores.at(j, i));
      }
  }
}

TEST(BuildScoreMatrixTest, SingleBitMatrix) {
  const auto bits = three_bits();
  const Tokenizer tokenizer(kTokenizer);
  const std::vector<BitSequence> one{bits[0]};
  const ScoreMatrix scores =
      score_all_pairs(one, tokenizer, FilterOptions{}, small_model());
  EXPECT_EQ(scores.size(), 1);
  EXPECT_EQ(scores.num_classes(), 1);
  EXPECT_EQ(scores.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(scores.filtered_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(scores.max_score(), ScoreMatrix::kFiltered);
}

}  // namespace
}  // namespace rebert::core
