// Jaccard pre-filter (§II-C).
//
// Before invoking the model, ReBERT discards pairs whose token sequences
// are too dissimilar: pairs with Jaccard similarity below 0.7 get score -1.
// With the generalized 'X' leaves the token *set* is tiny, so we use the
// bag (multiset) Jaccard — sum of per-token min counts over sum of max
// counts — which preserves the intended behaviour (similar gate-type
// compositions pass; different compositions are cut).
#pragma once

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

/// True when the pair should be scored by the model (similarity >=
/// threshold), false when it should be filtered to score -1.
bool passes_filter(const BitSequence& a, const BitSequence& b,
                   const FilterOptions& options);

/// Per-token-id counts of a bag (ids must be non-negative), ending at the
/// largest id present, so equal bags give equal vectors.
std::vector<int> token_counts(const std::vector<int>& token_ids);

/// passes_filter for bags given as token_counts of any widths: Σ min counts
/// over |a| + |b| - Σ min, the one verdict every scoring path computes.
bool counts_pass_filter(std::span<const int> counts_a,
                        std::span<const int> counts_b,
                        const FilterOptions& options);

}  // namespace rebert::core
