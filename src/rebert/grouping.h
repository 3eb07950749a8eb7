// Word generation from the score matrix (§II-D).
//
// Threshold = max(score matrix) / 3 — dynamically adapted per circuit, as
// the paper specifies, because score ranges vary between netlists. Every
// pair scoring above the threshold becomes a graph edge; connected
// components are the recovered words. The scan runs over the matrix's
// scored class pairs, uniting O(|c| + |d|) bits per pair, never over n^2
// bit pairs.
#pragma once

#include <vector>

#include "rebert/scoring.h"

namespace rebert::core {

struct GroupingOptions {
  /// Numerator of the dynamic threshold: threshold = max_score * factor.
  /// The paper uses 1/3.
  double threshold_factor = 1.0 / 3.0;
};

/// Union-find over n elements (exposed for reuse and tests).
class UnionFind {
 public:
  explicit UnionFind(int n);
  int find(int x);
  void unite(int a, int b);
  bool connected(int a, int b) { return find(a) == find(b); }
  /// Component labels compacted to 0..k-1 in first-seen order.
  std::vector<int> labels();

 private:
  std::vector<int> parent_;
  std::vector<int> rank_;
};

/// Recovered word labels, one per bit (index-aligned with the score
/// matrix). If every pair was filtered or scores are non-positive, every
/// bit becomes its own singleton word.
std::vector<int> group_words(const ScoreMatrix& scores,
                             const GroupingOptions& options = {});

}  // namespace rebert::core
