#include "metrics/clustering.h"

#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "util/check.h"

namespace rebert::metrics {

namespace {

inline double choose2(double n) { return n * (n - 1.0) / 2.0; }

// Contingency table between two labelings plus marginals.
struct Contingency {
  std::unordered_map<long long, long long> cells;  // (ti<<32|pi) -> count
  std::unordered_map<int, long long> row;          // truth label -> count
  std::unordered_map<int, long long> col;          // predicted label -> count
  long long n = 0;
};

Contingency build_contingency(const std::vector<int>& truth,
                              const std::vector<int>& predicted) {
  REBERT_CHECK_MSG(truth.size() == predicted.size(),
                   "label vectors differ in length: " << truth.size() << " vs "
                                                      << predicted.size());
  Contingency c;
  c.n = static_cast<long long>(truth.size());
  // Dense re-indexing so the packed key below cannot collide on negatives.
  std::unordered_map<int, int> tid, pid;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const int t = tid.emplace(truth[i], static_cast<int>(tid.size()))
                      .first->second;
    const int p = pid.emplace(predicted[i], static_cast<int>(pid.size()))
                      .first->second;
    ++c.cells[(static_cast<long long>(t) << 32) | static_cast<long long>(p)];
    ++c.row[t];
    ++c.col[p];
  }
  return c;
}

}  // namespace

double adjusted_rand_index(const std::vector<int>& truth,
                           const std::vector<int>& predicted) {
  const Contingency c = build_contingency(truth, predicted);
  if (c.n < 2) return 1.0;

  double sum_cells = 0.0, sum_rows = 0.0, sum_cols = 0.0;
  for (const auto& [key, count] : c.cells)
    sum_cells += choose2(static_cast<double>(count));
  for (const auto& [label, count] : c.row)
    sum_rows += choose2(static_cast<double>(count));
  for (const auto& [label, count] : c.col)
    sum_cols += choose2(static_cast<double>(count));

  const double total_pairs = choose2(static_cast<double>(c.n));
  const double expected = sum_rows * sum_cols / total_pairs;
  const double max_index = 0.5 * (sum_rows + sum_cols);
  const double denom = max_index - expected;
  if (std::abs(denom) < 1e-12) return 1.0;  // both partitions trivial
  return (sum_cells - expected) / denom;
}

double rand_index(const std::vector<int>& truth,
                  const std::vector<int>& predicted) {
  const Contingency c = build_contingency(truth, predicted);
  if (c.n < 2) return 1.0;

  double sum_cells = 0.0, sum_rows = 0.0, sum_cols = 0.0;
  for (const auto& [key, count] : c.cells)
    sum_cells += choose2(static_cast<double>(count));
  for (const auto& [label, count] : c.row)
    sum_rows += choose2(static_cast<double>(count));
  for (const auto& [label, count] : c.col)
    sum_cols += choose2(static_cast<double>(count));

  const double total_pairs = choose2(static_cast<double>(c.n));
  // agreements = together-in-both + apart-in-both
  const double together_both = sum_cells;
  const double apart_both =
      total_pairs - sum_rows - sum_cols + sum_cells;
  return (together_both + apart_both) / total_pairs;
}

PairwiseScores pairwise_scores(const std::vector<int>& truth,
                               const std::vector<int>& predicted) {
  const Contingency c = build_contingency(truth, predicted);
  PairwiseScores s;
  double tp = 0.0, pp = 0.0, ap = 0.0;
  for (const auto& [key, count] : c.cells)
    tp += choose2(static_cast<double>(count));
  for (const auto& [label, count] : c.col)
    pp += choose2(static_cast<double>(count));
  for (const auto& [label, count] : c.row)
    ap += choose2(static_cast<double>(count));
  s.true_positives = static_cast<long long>(tp);
  s.predicted_positives = static_cast<long long>(pp);
  s.actual_positives = static_cast<long long>(ap);
  s.precision = pp > 0 ? tp / pp : 1.0;  // no predicted pairs: vacuous
  s.recall = ap > 0 ? tp / ap : 1.0;
  s.f1 = (s.precision + s.recall) > 0
             ? 2.0 * s.precision * s.recall / (s.precision + s.recall)
             : 0.0;
  return s;
}

VMeasure v_measure(const std::vector<int>& truth,
                   const std::vector<int>& predicted) {
  const Contingency c = build_contingency(truth, predicted);
  VMeasure result;
  if (c.n == 0) {
    result.homogeneity = result.completeness = result.v = 1.0;
    return result;
  }
  const double n = static_cast<double>(c.n);

  double h_truth = 0.0, h_pred = 0.0;
  for (const auto& [label, count] : c.row) {
    const double p = count / n;
    h_truth -= p * std::log(p);
  }
  for (const auto& [label, count] : c.col) {
    const double p = count / n;
    h_pred -= p * std::log(p);
  }
  // Conditional entropies H(truth|pred) and H(pred|truth).
  double h_truth_given_pred = 0.0, h_pred_given_truth = 0.0;
  for (const auto& [key, count] : c.cells) {
    const int t = static_cast<int>(key >> 32);
    const int p = static_cast<int>(key & 0xffffffffLL);
    const double joint = count / n;
    h_truth_given_pred -=
        joint * std::log(static_cast<double>(count) / c.col.at(p));
    h_pred_given_truth -=
        joint * std::log(static_cast<double>(count) / c.row.at(t));
  }
  result.homogeneity =
      h_truth < 1e-12 ? 1.0 : 1.0 - h_truth_given_pred / h_truth;
  result.completeness =
      h_pred < 1e-12 ? 1.0 : 1.0 - h_pred_given_truth / h_pred;
  const double total = result.homogeneity + result.completeness;
  result.v = total > 1e-12
                 ? 2.0 * result.homogeneity * result.completeness / total
                 : 0.0;
  return result;
}

int num_clusters(const std::vector<int>& labels) {
  std::unordered_set<int> distinct(labels.begin(), labels.end());
  return static_cast<int>(distinct.size());
}

}  // namespace rebert::metrics
