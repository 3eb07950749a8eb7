#include "rebert/filter.h"

#include <algorithm>

namespace rebert::core {

double sorted_bag_jaccard(std::span<const int> sorted_a,
                          std::span<const int> sorted_b) {
  if (sorted_a.empty() && sorted_b.empty()) return 1.0;
  long long intersection = 0;
  auto a = sorted_a.begin();
  auto b = sorted_b.begin();
  while (a != sorted_a.end() && b != sorted_b.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++intersection;
      ++a;
      ++b;
    }
  }
  const long long uni = static_cast<long long>(sorted_a.size()) +
                        static_cast<long long>(sorted_b.size()) -
                        intersection;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

double jaccard_similarity(const std::vector<int>& a,
                          const std::vector<int>& b) {
  std::vector<int> sorted_a = a, sorted_b = b;
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_b.begin(), sorted_b.end());
  return sorted_bag_jaccard(sorted_a, sorted_b);
}

bool passes_filter(const BitSequence& a, const BitSequence& b,
                   const FilterOptions& options) {
  if (!options.enabled) return true;
  return jaccard_similarity(a.token_ids, b.token_ids) >= options.threshold;
}

bool bags_pass_filter(std::span<const int> sorted_a,
                      std::span<const int> sorted_b,
                      const FilterOptions& options) {
  if (!options.enabled) return true;
  return sorted_bag_jaccard(sorted_a, sorted_b) >= options.threshold;
}

SortedBags::SortedBags(const std::vector<BitSequence>& bits) {
  offsets_.reserve(bits.size() + 1);
  for (const BitSequence& bit : bits) {
    tokens_.insert(tokens_.end(), bit.token_ids.begin(), bit.token_ids.end());
    std::sort(tokens_.begin() + static_cast<std::ptrdiff_t>(offsets_.back()),
              tokens_.end());
    offsets_.push_back(tokens_.size());
  }
}

}  // namespace rebert::core
