#include "rebert/filter.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace rebert::core {

namespace {

double count_jaccard(std::span<const int> a, std::span<const int> b) {
  long long intersection = 0;
  for (std::size_t t = 0; t < std::min(a.size(), b.size()); ++t)
    intersection += std::min(a[t], b[t]);
  const long long size_a = std::accumulate(a.begin(), a.end(), 0LL);
  const long long size_b = std::accumulate(b.begin(), b.end(), 0LL);
  if (size_a == 0 && size_b == 0) return 1.0;
  const long long uni = size_a + size_b - intersection;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

}  // namespace

std::vector<int> token_counts(const std::vector<int>& token_ids) {
  int width = 0;
  for (const int token : token_ids) {
    REBERT_CHECK_MSG(token >= 0, "token ids must be non-negative");
    width = std::max(width, token + 1);
  }
  std::vector<int> counts(static_cast<std::size_t>(width), 0);
  for (const int token : token_ids) ++counts[static_cast<std::size_t>(token)];
  return counts;
}

double jaccard_similarity(const std::vector<int>& a,
                          const std::vector<int>& b) {
  return count_jaccard(token_counts(a), token_counts(b));
}

bool passes_filter(const BitSequence& a, const BitSequence& b,
                   const FilterOptions& options) {
  if (!options.enabled) return true;
  return counts_pass_filter(token_counts(a.token_ids),
                            token_counts(b.token_ids), options);
}

bool counts_pass_filter(std::span<const int> counts_a,
                        std::span<const int> counts_b,
                        const FilterOptions& options) {
  if (!options.enabled) return true;
  return count_jaccard(counts_a, counts_b) >= options.threshold;
}

}  // namespace rebert::core
