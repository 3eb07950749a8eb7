#include "rebert/filter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "util/check.h"
#include "util/rng.h"

namespace rebert::core {
namespace {

/// The per-token count form of the bag Jaccard: sum of min counts over sum
/// of max counts, from two hash maps. The sorted-merge implementation must
/// reproduce it exactly.
double hash_map_jaccard(const std::vector<int>& a, const std::vector<int>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::unordered_map<int, int> count_a, count_b;
  for (int t : a) ++count_a[t];
  for (int t : b) ++count_b[t];
  long long intersection = 0, uni = 0;
  for (const auto& [token, ca] : count_a) {
    const auto it = count_b.find(token);
    const int cb = it == count_b.end() ? 0 : it->second;
    intersection += std::min(ca, cb);
    uni += std::max(ca, cb);
  }
  for (const auto& [token, cb] : count_b)
    if (!count_a.count(token)) uni += cb;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

TEST(JaccardTest, IdenticalSequencesScoreOne) {
  EXPECT_DOUBLE_EQ(jaccard_similarity({1, 2, 3}, {1, 2, 3}), 1.0);
  // Bag semantics: order does not matter.
  EXPECT_DOUBLE_EQ(jaccard_similarity({1, 2, 3}, {3, 2, 1}), 1.0);
}

TEST(JaccardTest, DisjointSequencesScoreZero) {
  EXPECT_DOUBLE_EQ(jaccard_similarity({1, 2}, {3, 4}), 0.0);
}

TEST(JaccardTest, MultisetCountsMatter) {
  // {1,1,2} vs {1,2,2}: min counts 1+1=2; max counts 2+2=4 -> 0.5.
  EXPECT_DOUBLE_EQ(jaccard_similarity({1, 1, 2}, {1, 2, 2}), 0.5);
  // {1,1} vs {1}: 1/2.
  EXPECT_DOUBLE_EQ(jaccard_similarity({1, 1}, {1}), 0.5);
}

TEST(JaccardTest, EmptyEdgeCases) {
  EXPECT_DOUBLE_EQ(jaccard_similarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(jaccard_similarity({1}, {}), 0.0);
}

TEST(JaccardTest, SymmetricAndBounded) {
  const std::vector<int> a{1, 2, 2, 3, 5};
  const std::vector<int> b{2, 3, 3, 4};
  const double ab = jaccard_similarity(a, b);
  EXPECT_DOUBLE_EQ(ab, jaccard_similarity(b, a));
  EXPECT_GT(ab, 0.0);
  EXPECT_LT(ab, 1.0);
}

TEST(JaccardTest, CountVectorsMatchHashMapReference) {
  // Seeded random bags over a small alphabet, so repeated tokens are
  // common; lengths start at 0 to cover empty bags on either side, and
  // the two count vectors usually differ in width.
  util::Rng rng(2024);
  for (int trial = 0; trial < 4000; ++trial) {
    const int alphabet = rng.uniform_int(1, 8);
    std::vector<int> a(static_cast<std::size_t>(rng.uniform_int(0, 24)));
    std::vector<int> b(static_cast<std::size_t>(rng.uniform_int(0, 24)));
    for (int& t : a) t = rng.uniform_int(0, alphabet - 1);
    for (int& t : b) t = rng.uniform_int(0, alphabet - 1);
    const double want = hash_map_jaccard(a, b);
    ASSERT_EQ(jaccard_similarity(a, b), want) << "trial " << trial;
    BitSequence bit_a, bit_b;
    bit_a.token_ids = a;
    bit_b.token_ids = b;
    for (const double threshold : {0.0, 0.5, 0.7, want, 1.0}) {
      FilterOptions filter;
      filter.threshold = threshold;
      ASSERT_EQ(passes_filter(bit_a, bit_b, filter), want >= threshold)
          << "trial " << trial;
      ASSERT_EQ(counts_pass_filter(token_counts(a), token_counts(b), filter),
                want >= threshold)
          << "trial " << trial;
    }
  }
}

TEST(JaccardTest, TokenCountsEndAtTheLargestId) {
  EXPECT_EQ(token_counts({}), std::vector<int>{});
  EXPECT_EQ(token_counts({2, 0, 2}), (std::vector<int>{1, 0, 2}));
  // Equal bags give equal vectors, whatever the order.
  EXPECT_EQ(token_counts({3, 1, 1}), token_counts({1, 3, 1}));
  EXPECT_THROW(token_counts({-1}), util::CheckError);
}

TEST(FilterTest, ThresholdGatesPairs) {
  BitSequence a, b;
  a.token_ids = {1, 2, 3, 4};
  b.token_ids = {1, 2, 3, 9};  // Jaccard = 3/5 = 0.6
  FilterOptions strict;          // threshold 0.7
  EXPECT_FALSE(passes_filter(a, b, strict));
  FilterOptions loose;
  loose.threshold = 0.5;
  EXPECT_TRUE(passes_filter(a, b, loose));
}

TEST(FilterTest, DisabledFilterPassesEverything) {
  BitSequence a, b;
  a.token_ids = {1};
  b.token_ids = {9};
  FilterOptions off;
  off.enabled = false;
  EXPECT_TRUE(passes_filter(a, b, off));
}

TEST(FilterTest, PaperThresholdIsPointSeven) {
  EXPECT_DOUBLE_EQ(FilterOptions{}.threshold, 0.7);
}

}  // namespace
}  // namespace rebert::core
