#include "metrics/clustering.h"

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/rng.h"

namespace rebert::metrics {
namespace {

TEST(AriTest, PerfectAgreementIsOne) {
  EXPECT_DOUBLE_EQ(adjusted_rand_index({0, 0, 1, 1, 2}, {0, 0, 1, 1, 2}),
                   1.0);
}

TEST(AriTest, LabelValuesAreIrrelevant) {
  // Same partition under a different labeling scheme.
  EXPECT_DOUBLE_EQ(
      adjusted_rand_index({0, 0, 1, 1, 2}, {7, 7, -3, -3, 100}), 1.0);
}

TEST(AriTest, CompleteDisagreementIsNegativeOrZero) {
  // Truth: two clusters of 2. Prediction crosses them.
  const double ari = adjusted_rand_index({0, 0, 1, 1}, {0, 1, 0, 1});
  EXPECT_LT(ari, 0.01);
}

TEST(AriTest, KnownValueHandComputed) {
  // Classic example: truth {a,a,a,b,b,b}, predicted {a,a,b,b,c,c}.
  // Contingency: row a: [2,1,0], row b: [0,1,2].
  // sum_cells C2 = 1+0+0 + 0+0+1 = 2; rows: C(3,2)*2 = 6; cols: 1+1+1 = 3.
  // total pairs C(6,2)=15; expected = 6*3/15 = 1.2; max = 4.5.
  // ARI = (2-1.2)/(4.5-1.2) = 0.8/3.3.
  const double ari =
      adjusted_rand_index({0, 0, 0, 1, 1, 1}, {0, 0, 1, 1, 2, 2});
  EXPECT_NEAR(ari, 0.8 / 3.3, 1e-12);
}

TEST(AriTest, SymmetricInArguments) {
  const std::vector<int> a{0, 0, 1, 1, 2, 2, 2};
  const std::vector<int> b{0, 1, 1, 1, 2, 0, 2};
  EXPECT_NEAR(adjusted_rand_index(a, b), adjusted_rand_index(b, a), 1e-12);
}

TEST(AriTest, RandomLabelingsScoreNearZero) {
  // ARI is chance-adjusted: random groupings average ~0.
  util::Rng rng(123);
  const int n = 200;
  std::vector<int> truth(n);
  for (int i = 0; i < n; ++i) truth[i] = i / 20;  // 10 words of 20 bits
  double total = 0.0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    std::vector<int> pred(n);
    for (int i = 0; i < n; ++i) pred[i] = rng.uniform_int(0, 9);
    total += adjusted_rand_index(truth, pred);
  }
  EXPECT_NEAR(total / trials, 0.0, 0.02);
}

TEST(AriTest, TrivialPartitionsReturnOne) {
  // Both all-singletons and both one-cluster: identical partitions.
  EXPECT_DOUBLE_EQ(adjusted_rand_index({0, 1, 2}, {5, 6, 7}), 1.0);
  EXPECT_DOUBLE_EQ(adjusted_rand_index({0, 0, 0}, {1, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(adjusted_rand_index({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(adjusted_rand_index({3}, {9}), 1.0);
}

TEST(AriTest, AllSingletonPredictionOnGroupedTruthIsZero) {
  // Singleton prediction has Index = 0 = Expected contribution edge case.
  const std::vector<int> truth{0, 0, 0, 1, 1, 1};
  const std::vector<int> pred{0, 1, 2, 3, 4, 5};
  EXPECT_NEAR(adjusted_rand_index(truth, pred), 0.0, 1e-12);
}

TEST(AriTest, MergingAllIntoOneClusterScoresLow) {
  const std::vector<int> truth{0, 0, 1, 1, 2, 2};
  const std::vector<int> pred{0, 0, 0, 0, 0, 0};
  EXPECT_NEAR(adjusted_rand_index(truth, pred), 0.0, 1e-12);
}

TEST(AriTest, RejectsLengthMismatch) {
  EXPECT_THROW(adjusted_rand_index({0, 1}, {0}), util::CheckError);
}

TEST(AriTest, PartialAgreementBetweenZeroAndOne) {
  // One misplaced bit out of 8.
  const std::vector<int> truth{0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<int> pred{0, 0, 0, 1, 1, 1, 1, 1};
  const double ari = adjusted_rand_index(truth, pred);
  EXPECT_GT(ari, 0.3);
  EXPECT_LT(ari, 1.0);
}

TEST(RandIndexTest, BoundsAndPerfection) {
  EXPECT_DOUBLE_EQ(rand_index({0, 0, 1, 1}, {0, 0, 1, 1}), 1.0);
  const double ri = rand_index({0, 0, 1, 1}, {0, 1, 0, 1});
  EXPECT_GE(ri, 0.0);
  EXPECT_LE(ri, 1.0);
  // Exactly: pairs = 6; together-both = 0; apart-both = 2 -> 2/6.
  EXPECT_NEAR(ri, 2.0 / 6.0, 1e-12);
}

TEST(RandIndexTest, DominatedByAgreementOnSeparation) {
  // Unlike ARI, plain Rand is inflated by many clusters.
  const std::vector<int> truth{0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<int> pred{0, 1, 2, 3, 4, 5, 6, 6};
  EXPECT_GT(rand_index(truth, pred), 0.9);
}

TEST(PairwiseTest, PerfectPrediction) {
  const PairwiseScores s = pairwise_scores({0, 0, 1, 1}, {5, 5, 9, 9});
  EXPECT_DOUBLE_EQ(s.precision, 1.0);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
  EXPECT_DOUBLE_EQ(s.f1, 1.0);
  EXPECT_EQ(s.true_positives, 2);
}

TEST(PairwiseTest, OverMergingHurtsPrecisionNotRecall) {
  const PairwiseScores s =
      pairwise_scores({0, 0, 1, 1}, {0, 0, 0, 0});
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
  EXPECT_NEAR(s.precision, 2.0 / 6.0, 1e-12);
}

TEST(PairwiseTest, OverSplittingHurtsRecallNotPrecision) {
  const PairwiseScores s =
      pairwise_scores({0, 0, 0, 0}, {0, 0, 1, 1});
  EXPECT_DOUBLE_EQ(s.precision, 1.0);
  EXPECT_NEAR(s.recall, 2.0 / 6.0, 1e-12);
}

TEST(PairwiseTest, VacuousCasesDefinedAsPerfect) {
  // All singletons in both: no pairs predicted, none required.
  const PairwiseScores s = pairwise_scores({0, 1, 2}, {0, 1, 2});
  EXPECT_DOUBLE_EQ(s.precision, 1.0);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
}

TEST(VMeasureTest, PerfectAgreementScoresOne) {
  const VMeasure v = v_measure({0, 0, 1, 1}, {5, 5, 9, 9});
  EXPECT_NEAR(v.homogeneity, 1.0, 1e-12);
  EXPECT_NEAR(v.completeness, 1.0, 1e-12);
  EXPECT_NEAR(v.v, 1.0, 1e-12);
}

TEST(VMeasureTest, OverMergingHurtsHomogeneityOnly) {
  // All bits merged into one predicted word: complete but not homogeneous.
  const VMeasure v = v_measure({0, 0, 1, 1}, {0, 0, 0, 0});
  EXPECT_NEAR(v.completeness, 1.0, 1e-12);
  EXPECT_LT(v.homogeneity, 0.01);
  EXPECT_LT(v.v, 0.01);
}

TEST(VMeasureTest, OverSplittingHurtsCompletenessOnly) {
  const VMeasure v = v_measure({0, 0, 1, 1}, {0, 1, 2, 3});
  EXPECT_NEAR(v.homogeneity, 1.0, 1e-12);
  EXPECT_LT(v.completeness, 0.6);
  EXPECT_LT(v.v, 0.8);
}

TEST(VMeasureTest, SymmetricRolesSwapHAndC) {
  const std::vector<int> a{0, 0, 1, 1, 2, 2};
  const std::vector<int> b{0, 0, 0, 1, 1, 1};
  const VMeasure ab = v_measure(a, b);
  const VMeasure ba = v_measure(b, a);
  EXPECT_NEAR(ab.homogeneity, ba.completeness, 1e-12);
  EXPECT_NEAR(ab.completeness, ba.homogeneity, 1e-12);
  EXPECT_NEAR(ab.v, ba.v, 1e-12);
}

TEST(VMeasureTest, TrivialAndEmptyCases) {
  EXPECT_NEAR(v_measure({}, {}).v, 1.0, 1e-12);
  EXPECT_NEAR(v_measure({0, 0}, {1, 1}).v, 1.0, 1e-12);
  // Truth all-one-cluster: homogeneity vacuous (H(truth)=0) -> 1.
  const VMeasure v = v_measure({0, 0, 0}, {0, 1, 2});
  EXPECT_NEAR(v.homogeneity, 1.0, 1e-12);
  EXPECT_LT(v.completeness, 1.0);
}

TEST(VMeasureTest, BoundsOnRandomLabelings) {
  util::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> truth(40), pred(40);
    for (int i = 0; i < 40; ++i) {
      truth[i] = i / 8;
      pred[i] = rng.uniform_int(0, 4);
    }
    const VMeasure v = v_measure(truth, pred);
    EXPECT_GE(v.homogeneity, 0.0);
    EXPECT_LE(v.homogeneity, 1.0);
    EXPECT_GE(v.completeness, 0.0);
    EXPECT_LE(v.completeness, 1.0);
    EXPECT_GE(v.v, 0.0);
    EXPECT_LE(v.v, 1.0);
  }
}

TEST(NumClustersTest, CountsDistinctLabels) {
  EXPECT_EQ(num_clusters({0, 0, 1, 2, 2}), 3);
  EXPECT_EQ(num_clusters({}), 0);
  EXPECT_EQ(num_clusters({-5, -5}), 1);
}

// Property sweep: ARI of a prediction that splits every true word into two
// halves is strictly between 0 and 1 and decreases as words shrink.
class AriSplitProperty : public ::testing::TestWithParam<int> {};

TEST_P(AriSplitProperty, SplittingWordsLandsBetweenZeroAndOne) {
  const int word_size = GetParam();
  const int num_words = 6;
  std::vector<int> truth, pred;
  for (int w = 0; w < num_words; ++w) {
    for (int b = 0; b < word_size; ++b) {
      truth.push_back(w);
      pred.push_back(w * 2 + (b < word_size / 2 ? 0 : 1));
    }
  }
  const double ari = adjusted_rand_index(truth, pred);
  EXPECT_GT(ari, 0.0);
  EXPECT_LT(ari, 1.0);
}

INSTANTIATE_TEST_SUITE_P(WordSizes, AriSplitProperty,
                         ::testing::Values(4, 6, 8, 12, 16));

}  // namespace
}  // namespace rebert::metrics
