// Jaccard pre-filter (§II-C).
//
// Before invoking the model, ReBERT discards pairs whose token sequences
// are too dissimilar: pairs with Jaccard similarity below 0.7 get score -1.
// With the generalized 'X' leaves the token *set* is tiny, so we use the
// bag (multiset) Jaccard — sum of per-token min counts over sum of max
// counts — which preserves the intended behaviour (similar gate-type
// compositions pass; different compositions are cut).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "rebert/tokenizer.h"

namespace rebert::core {

struct FilterOptions {
  double threshold = 0.7;  // the paper's cut-off
  bool enabled = true;
};

/// Bag Jaccard over two token-id sequences in [0, 1]. Both empty -> 1.
double jaccard_similarity(const std::vector<int>& a,
                          const std::vector<int>& b);

/// jaccard_similarity of two bags already sorted ascending, by one merge:
/// the intersection pairs equal tokens off one to one and
/// |a ∪ b| = |a| + |b| - |a ∩ b| — the same integers, so the same double,
/// as per-token min/max counts.
double sorted_bag_jaccard(std::span<const int> sorted_a,
                          std::span<const int> sorted_b);

/// True when the pair should be scored by the model (similarity >=
/// threshold), false when it should be filtered to score -1.
bool passes_filter(const BitSequence& a, const BitSequence& b,
                   const FilterOptions& options);
/// passes_filter for bags already sorted ascending.
bool bags_pass_filter(std::span<const int> sorted_a,
                      std::span<const int> sorted_b,
                      const FilterOptions& options);

/// Every sequence's token bag, sorted, in one buffer: pair loops sort each
/// bag once per call instead of once per pair.
class SortedBags {
 public:
  explicit SortedBags(const std::vector<BitSequence>& bits);

  std::span<const int> bag(std::size_t i) const {
    return {tokens_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

 private:
  std::vector<int> tokens_;
  // Bag i is tokens_[offsets_[i], offsets_[i + 1]).
  std::vector<std::size_t> offsets_{0};
};

}  // namespace rebert::core
