#include "rebert/grouping.h"

#include "util/check.h"

namespace rebert::core {

UnionFind::UnionFind(int n)
    : parent_(static_cast<std::size_t>(n)),
      rank_(static_cast<std::size_t>(n), 0) {
  REBERT_CHECK(n >= 0);
  for (int i = 0; i < n; ++i) parent_[static_cast<std::size_t>(i)] = i;
}

int UnionFind::find(int x) {
  REBERT_CHECK(x >= 0 && x < static_cast<int>(parent_.size()));
  int root = x;
  while (parent_[static_cast<std::size_t>(root)] != root)
    root = parent_[static_cast<std::size_t>(root)];
  while (parent_[static_cast<std::size_t>(x)] != root) {
    const int next = parent_[static_cast<std::size_t>(x)];
    parent_[static_cast<std::size_t>(x)] = root;
    x = next;
  }
  return root;
}

void UnionFind::unite(int a, int b) {
  int ra = find(a), rb = find(b);
  if (ra == rb) return;
  if (rank_[static_cast<std::size_t>(ra)] <
      rank_[static_cast<std::size_t>(rb)])
    std::swap(ra, rb);
  parent_[static_cast<std::size_t>(rb)] = ra;
  if (rank_[static_cast<std::size_t>(ra)] ==
      rank_[static_cast<std::size_t>(rb)])
    ++rank_[static_cast<std::size_t>(ra)];
}

std::vector<int> UnionFind::labels() {
  std::vector<int> out(parent_.size(), -1);
  std::vector<int> root_label(parent_.size(), -1);
  int next = 0;
  for (int i = 0; i < static_cast<int>(parent_.size()); ++i) {
    const int root = find(i);
    if (root_label[static_cast<std::size_t>(root)] < 0)
      root_label[static_cast<std::size_t>(root)] = next++;
    out[static_cast<std::size_t>(i)] =
        root_label[static_cast<std::size_t>(root)];
  }
  return out;
}

std::vector<int> group_words(const ScoreMatrix& scores,
                             const GroupingOptions& options) {
  REBERT_CHECK_MSG(options.threshold_factor > 0.0 &&
                       options.threshold_factor < 1.0,
                   "threshold factor must be in (0,1)");
  UnionFind uf(scores.size());
  const double max_score = scores.max_score();
  if (max_score > 0.0) {
    const double threshold = max_score * options.threshold_factor;
    // Edge (c, d) joins every i∈c, j∈d with i < j, and those bits form one
    // component through lo = min c and hi = max d: every such j exceeds lo
    // and every such i is below hi, and lo < hi is itself such a pair. A
    // class paired with itself (lo = min c, hi = max c) joins all members.
    scores.for_each_edge([&](int c, int d, double score) {
      if (!(score > threshold)) return;
      const int lo = scores.members(c).front(), hi = scores.members(d).back();
      for (const int j : scores.members(d))
        if (j > lo) uf.unite(lo, j);
      for (const int i : scores.members(c))
        if (i < hi) uf.unite(i, hi);
    });
  }
  return uf.labels();
}

}  // namespace rebert::core
