// Clustering-comparison metrics (§III-A-3).
//
// The paper scores word recovery with the Adjusted Rand Index between the
// predicted grouping of bits and the ground-truth grouping. We implement
// ARI plus the companions a practitioner wants when debugging a grouping
// method: plain Rand index, pairwise precision/recall/F1, and the
// V-measure. All functions take two label vectors of equal length;
// label values are arbitrary ids (only equality matters).
#pragma once

#include <vector>

namespace rebert::metrics {

/// Adjusted Rand Index in [-1, 1]; 1 = identical partitions, ~0 = random.
/// ARI = (Index - E[Index]) / (MaxIndex - E[Index]) over bit pairs.
/// When the denominator is zero (both partitions trivially all-singleton or
/// all-in-one) the partitions are identical and 1.0 is returned, matching
/// the standard convention.
double adjusted_rand_index(const std::vector<int>& truth,
                           const std::vector<int>& predicted);

/// Plain Rand index in [0, 1]: fraction of pairs on which both partitions
/// agree (together-together or apart-apart).
double rand_index(const std::vector<int>& truth,
                  const std::vector<int>& predicted);

/// Pairwise classification view: a predicted pair is a true positive if the
/// two bits share a word in both partitions.
struct PairwiseScores {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  long long true_positives = 0;
  long long predicted_positives = 0;
  long long actual_positives = 0;
};
PairwiseScores pairwise_scores(const std::vector<int>& truth,
                               const std::vector<int>& predicted);

/// Rosenberg & Hirschberg's V-measure family. Homogeneity penalizes
/// predicted words mixing several true words (over-merging); completeness
/// penalizes true words split across predictions (over-splitting); the
/// V-measure is their harmonic mean. All in [0, 1]; trivially-equal
/// partitions score 1.
struct VMeasure {
  double homogeneity = 0.0;
  double completeness = 0.0;
  double v = 0.0;
};
VMeasure v_measure(const std::vector<int>& truth,
                   const std::vector<int>& predicted);

/// Number of distinct labels.
int num_clusters(const std::vector<int>& labels);

}  // namespace rebert::metrics
