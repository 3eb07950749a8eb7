// Self-tests of the benchmark's own machinery, run by run.py before every
// measurement (`perfbench --self-test`): the percentile reporting rule,
// seed determinism of the pair schedule and the netlist, and the
// metric-name grammar.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "nl/parser.h"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "self-test FAILED: %s\n", what);
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

void percentile_rule() {
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  expect(percentile_reportable(1000, 0.99), "p99 reportable at n=1000");
  expect(!percentile_reportable(999, 0.99), "p99 not reportable at n=999");
  expect(percentile_reportable(20, 0.5), "p50 reportable at n=20");
  expect(!percentile_reportable(19, 0.5), "p50 not reportable at n=19");
  expect(percentile_or_zero(iota(999), 0.99) == 0.0,
         "an unreportable percentile reads 0");
  expect(percentile(iota(1000), 0.99) == 990.0, "nearest-rank p99 of 1..1000");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd sample");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even sample");
  expect(fastest_median({{5.0, 4.0, 6.0}, {3.0, 1.0, 2.0}, {}}) == 2.0,
         "fastest worker's median skips empty workers");
}

void seed_determinism() {
  const auto a = pair_schedule(7, 1415, 512);
  expect(a == pair_schedule(7, 1415, 512), "same seed, same pair schedule");
  expect(a != pair_schedule(8, 1415, 512), "other seed, other pair schedule");
  bool in_range = true;
  for (const auto& [x, y] : a)
    in_range = in_range && x != y && x >= 0 && y >= 0 && x < 1415 && y < 1415;
  expect(in_range, "scheduled pairs are distinct in-range bits");

  // A small scale keeps this fast; the seed path is the same at scale 1.
  const std::string one =
      rebert::nl::write_bench_string(make_inputs(7, 0.05).netlist);
  expect(one == rebert::nl::write_bench_string(make_inputs(7, 0.05).netlist),
         "same seed, same reordered netlist");
  expect(one != rebert::nl::write_bench_string(make_inputs(8, 0.05).netlist),
         "other seed, other reordered netlist");
}

void name_grammar() {
  expect(valid_metric_name("bert.forward_us.p50"), "dotted name is valid");
  expect(valid_metric_name("0-a_b.c"), "digit start is valid");
  expect(!valid_metric_name(""), "empty name is invalid");
  expect(!valid_metric_name(".p50"), "leading dot is invalid");
  expect(!valid_metric_name("a b"), "space is invalid");
  expect(!valid_metric_name("a/b"), "slash is invalid");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters is invalid");
  std::set<std::string> names;
  for (const auto* specs : {&e2e_specs(), &layer_specs()})
    for (const MetricSpec& spec : *specs) {
      expect(valid_metric_name(spec.name), spec.name);
      expect(names.insert(spec.name).second, spec.name);
    }
  std::vector<Metric> reported{{"latency_ms", 1.0, "ms"}};
  expect(canonicalize(e2e_specs(), &reported).empty() &&
             reported.size() == e2e_specs().size(),
         "canonicalize fills every declared metric");
  reported = {{"nope", 1.0, "ms"}};
  expect(!canonicalize(e2e_specs(), &reported).empty(),
         "canonicalize rejects undeclared metrics");
}

}  // namespace

int run_self_tests() {
  failures = 0;
  percentile_rule();
  seed_determinism();
  name_grammar();
  return failures;
}

}  // namespace perfbench
