#include "rebert/grouping.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bert/config.h"
#include "rebert/vocab.h"
#include "util/check.h"
#include "util/rng.h"

namespace rebert::core {
namespace {

TEST(UnionFindTest, BasicOperations) {
  UnionFind uf(5);
  EXPECT_FALSE(uf.connected(0, 1));
  uf.unite(0, 1);
  EXPECT_TRUE(uf.connected(0, 1));
  uf.unite(1, 2);
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(0, 3));
  const std::vector<int> labels = uf.labels();
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_NE(labels[3], labels[4]);
}

TEST(UnionFindTest, LabelsAreCompactAndFirstSeen) {
  UnionFind uf(4);
  uf.unite(2, 3);
  const std::vector<int> labels = uf.labels();
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[1], 1);
  EXPECT_EQ(labels[2], 2);
  EXPECT_EQ(labels[3], 2);
}

TEST(UnionFindTest, RangeChecked) {
  UnionFind uf(3);
  EXPECT_THROW(uf.find(3), util::CheckError);
  EXPECT_THROW(uf.find(-1), util::CheckError);
}

TEST(GroupingTest, ThresholdIsMaxOverThree) {
  // max = 0.9 -> threshold 0.3: edges for scores > 0.3.
  ScoreMatrix scores(4);
  scores.set(0, 1, 0.9);
  scores.set(2, 3, 0.31);
  scores.set(0, 2, 0.29);
  const std::vector<int> labels = group_words(scores);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
}

TEST(GroupingTest, FilteredPairsNeverConnect) {
  ScoreMatrix scores(3);
  scores.set(0, 1, 0.9);
  // (1,2) stays kFiltered = -1.
  const std::vector<int> labels = group_words(scores);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_NE(labels[1], labels[2]);
}

TEST(GroupingTest, AllFilteredYieldsSingletons) {
  ScoreMatrix scores(4);
  const std::vector<int> labels = group_words(scores);
  for (std::size_t i = 0; i < labels.size(); ++i)
    for (std::size_t j = i + 1; j < labels.size(); ++j)
      EXPECT_NE(labels[i], labels[j]);
}

TEST(GroupingTest, TransitiveChainsMerge) {
  // 0-1, 1-2 above threshold: all three in one word even though 0-2 is low.
  ScoreMatrix scores(3);
  scores.set(0, 1, 0.9);
  scores.set(1, 2, 0.9);
  scores.set(0, 2, 0.05);
  const std::vector<int> labels = group_words(scores);
  EXPECT_EQ(labels[0], labels[2]);
}

TEST(GroupingTest, DynamicThresholdAdaptsToLowScores) {
  // Even weak scores group if they dominate the matrix: max 0.2 ->
  // threshold ~0.066.
  ScoreMatrix scores(3);
  scores.set(0, 1, 0.2);
  scores.set(1, 2, 0.07);
  const std::vector<int> labels = group_words(scores);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
}

TEST(GroupingTest, CustomThresholdFactor) {
  // max = 0.9; the 0.5 edge appears only when the factor drops below 5/9.
  ScoreMatrix scores(3);
  scores.set(0, 1, 0.9);
  scores.set(1, 2, 0.5);
  GroupingOptions strict;
  strict.threshold_factor = 0.7;  // threshold 0.63 > 0.5
  const std::vector<int> strict_labels = group_words(scores, strict);
  EXPECT_EQ(strict_labels[0], strict_labels[1]);
  EXPECT_NE(strict_labels[1], strict_labels[2]);
  GroupingOptions loose;
  loose.threshold_factor = 0.3;  // threshold 0.27 < 0.5
  const std::vector<int> loose_labels = group_words(scores, loose);
  EXPECT_EQ(loose_labels[0], loose_labels[2]);
}

TEST(GroupingTest, RejectsBadFactor) {
  ScoreMatrix scores(2);
  GroupingOptions bad;
  bad.threshold_factor = 0.0;
  EXPECT_THROW(group_words(scores, bad), util::CheckError);
  bad.threshold_factor = 1.5;
  EXPECT_THROW(group_words(scores, bad), util::CheckError);
}

TEST(ScoreMatrixTest, SymmetricStorage) {
  ScoreMatrix scores(3);
  scores.set(0, 2, 0.42);
  EXPECT_DOUBLE_EQ(scores.at(2, 0), 0.42);
  EXPECT_DOUBLE_EQ(scores.at(0, 1), ScoreMatrix::kFiltered);
  EXPECT_THROW(scores.at(3, 0), util::CheckError);
}

TEST(ScoreMatrixTest, MaxAndFilteredFraction) {
  ScoreMatrix scores(3);
  EXPECT_DOUBLE_EQ(scores.max_score(), ScoreMatrix::kFiltered);
  EXPECT_DOUBLE_EQ(scores.filtered_fraction(), 1.0);
  scores.set(0, 1, 0.4);
  EXPECT_DOUBLE_EQ(scores.max_score(), 0.4);
  EXPECT_NEAR(scores.filtered_fraction(), 2.0 / 3.0, 1e-12);
}

/// Grouping by definition: unite every bit pair i < j whose score exceeds
/// max * factor, over a dense score array.
std::vector<int> brute_force_words(const std::vector<double>& dense, int n,
                                   double factor) {
  const auto cell = [&](int i, int j) {
    return dense[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(j)];
  };
  double max_score = ScoreMatrix::kFiltered;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) max_score = std::max(max_score, cell(i, j));
  UnionFind uf(n);
  if (max_score > 0.0)
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (cell(i, j) > max_score * factor) uf.unite(i, j);
  return uf.labels();
}

std::vector<double> dense_view(const ScoreMatrix& scores) {
  const int n = scores.size();
  std::vector<double> dense;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) dense.push_back(scores.at(i, j));
  return dense;
}

constexpr double kFactors[] = {0.05, 1.0 / 3.0, 0.6, 0.9, 0.99, 0.999};

TEST(GroupingPropertyTest, ClassEdgesGroupLikeEveryBitPair) {
  // Random class layouts — members interleaved, classes paired with
  // themselves, singleton classes, class pairs occurring in one
  // orientation only — scored by a small untrained model; group_words over
  // class edges must match uniting every bit pair above the threshold.
  bert::BertConfig config =
      bert::eval_config(static_cast<int>(vocabulary().size()), 64);
  config.tree_code_dim = 8;
  config.hidden = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.intermediate = 32;
  const bert::BertPairClassifier model(config);
  const Tokenizer tokenizer(
      {.backtrace_depth = 4, .tree_code_dim = 8, .max_seq_len = 64});
  FilterOptions filter;
  filter.threshold = 0.5;  // some class pairs pass, some do not

  util::Rng rng(31);
  int interleaved = 0, one_orientation = 0, self_paired = 0, singletons = 0;
  int grouped = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const int n = rng.uniform_int(1, 24);
    const int k = rng.uniform_int(1, std::min(n, 6));
    std::vector<BitSequence> sequences(static_cast<std::size_t>(k));
    for (BitSequence& seq : sequences) {
      seq.token_ids.resize(static_cast<std::size_t>(rng.uniform_int(1, 5)));
      for (int& t : seq.token_ids) t = rng.uniform_int(0, 3);
      for (std::size_t t = 0; t < seq.token_ids.size(); ++t) {
        std::vector<std::uint8_t> code(8);
        for (std::uint8_t& b : code)
          b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
        seq.tree_codes.push_back(code);
      }
    }
    std::vector<BitSequence> bits;
    for (int i = 0; i < n; ++i)
      bits.push_back(
          sequences[static_cast<std::size_t>(rng.uniform_int(0, k - 1))]);

    const ScoreMatrix scores =
        score_all_pairs(bits, tokenizer, filter, model);
    for (int c = 0; c < scores.num_classes(); ++c)
      if (scores.members(c).size() == 1) ++singletons;
    scores.for_each_edge([&](int c, int d, double) {
      const auto in_c = scores.members(c), in_d = scores.members(d);
      if (c == d) {
        ++self_paired;
      } else if (in_c.back() < in_d.front()) {
        ++one_orientation;
      } else if (in_d.front() < in_c.back() && in_c.front() < in_d.back()) {
        ++interleaved;
      }
    });

    const std::vector<double> dense = dense_view(scores);
    for (const double factor : kFactors) {
      GroupingOptions options;
      options.threshold_factor = factor;
      const std::vector<int> labels = group_words(scores, options);
      ASSERT_EQ(labels, brute_force_words(dense, n, factor))
          << "trial " << trial << " factor " << factor;
      if (*std::max_element(labels.begin(), labels.end()) + 1 < n) ++grouped;
    }
  }
  EXPECT_GT(interleaved, 0);
  EXPECT_GT(one_orientation, 0);
  EXPECT_GT(self_paired, 0);
  EXPECT_GT(singletons, 0);
  EXPECT_GT(grouped, 0);
}

TEST(GroupingPropertyTest, SetMatrixGroupsLikeDenseCells) {
  // ScoreMatrix(n) + set() keeps the dense semantics: every cell, the
  // maximum, the filtered fraction and the words match a dense array fed
  // the same writes, clears (kFiltered) and overwrites included.
  util::Rng rng(57);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = rng.uniform_int(2, 30);
    ScoreMatrix scores(n);
    std::vector<double> dense(static_cast<std::size_t>(n) * n,
                              ScoreMatrix::kFiltered);
    const int writes = rng.uniform_int(0, n * 2);
    for (int w = 0; w < writes; ++w) {
      const int i = rng.uniform_int(0, n - 1);
      int j = rng.uniform_int(0, n - 2);
      if (j >= i) ++j;
      const double s = rng.uniform_int(0, 4) == 0
                           ? ScoreMatrix::kFiltered
                           : rng.uniform_int(1, 1000) / 1000.0;
      scores.set(i, j, s);
      dense[static_cast<std::size_t>(i) * n + j] = s;
      dense[static_cast<std::size_t>(j) * n + i] = s;
    }
    ASSERT_EQ(dense_view(scores), dense) << "trial " << trial;
    long long filtered = 0;
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (dense[static_cast<std::size_t>(i) * n + j] ==
            ScoreMatrix::kFiltered)
          ++filtered;
    EXPECT_EQ(scores.filtered_fraction(),
              static_cast<double>(filtered) / (n * (n - 1) / 2));
    EXPECT_EQ(scores.max_score(),
              *std::max_element(dense.begin(), dense.end()));
    for (const double factor : kFactors) {
      GroupingOptions options;
      options.threshold_factor = factor;
      ASSERT_EQ(group_words(scores, options),
                brute_force_words(dense, n, factor))
          << "trial " << trial << " factor " << factor;
    }
  }
}

TEST(ScoreMatrixTest, SetRejectsDiagonal) {
  ScoreMatrix scores(3);
  EXPECT_THROW(scores.set(1, 1, 0.5), util::CheckError);
  EXPECT_DOUBLE_EQ(scores.at(1, 1), ScoreMatrix::kFiltered);
}

}  // namespace
}  // namespace rebert::core
