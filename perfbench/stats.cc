#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "bench.h"

namespace perfbench {

void Result::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
               why.c_str());
  note("FAILED " + why);
}

void Result::add_e2e(const std::string& name, double value,
                     const std::string& unit) {
  e2e.push_back({name, value, unit});
}

void Result::add_layer(const std::string& name, double value,
                       const std::string& unit) {
  layers.push_back({name, value, unit});
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

namespace {

std::size_t nearest_rank_index(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return static_cast<std::size_t>(std::max(1.0, rank)) - 1;
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t index = nearest_rank_index(values.size(), q);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - nearest_rank_index(n, q);
}

bool percentile_reportable(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinSamplesBeyond;
}

double percentile_or_zero(const std::vector<double>& values, double q) {
  return percentile_reportable(values.size(), q) ? percentile(values, q)
                                                 : 0.0;
}

double fastest_median(const std::vector<std::vector<double>>& per_worker) {
  double fastest = 0.0;
  for (const std::vector<double>& samples : per_worker) {
    if (samples.empty()) continue;
    const double m = median(samples);
    if (fastest == 0.0 || m < fastest) fastest = m;
  }
  return fastest;
}

void note_workers(const std::string& name,
                  const std::vector<std::vector<double>>& per_worker,
                  Result* result) {
  char part[96];
  std::snprintf(part, sizeof(part), "%s=%.6g (fastest worker's median; per worker:",
                name.c_str(), fastest_median(per_worker));
  std::string line = part;
  for (std::size_t w = 0; w < per_worker.size(); ++w) {
    std::snprintf(part, sizeof(part), "%s %.6g (n=%zu)", w ? "," : "",
                  median(per_worker[w]), per_worker[w].size());
    line += part;
  }
  result->note(line + ")");
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string result_json(const Result& result, bool trace) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const std::vector<Metric>& metrics = trace ? result.layers : result.e2e;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

const std::vector<MetricSpec>& e2e_specs() {
  static const std::vector<MetricSpec> specs{
      {"setup_s", "s"},
      {"latency_ms", "ms"},
      {"throughput_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& layer_specs() {
  static const std::vector<MetricSpec> specs{
      {"tokenizer.tokenize_ms", "ms"},
      {"tokenizer.encode_pair_calls", "count"},
      {"tokenizer.encode_pair_us.p50", "us"},
      {"filter.calls", "count"},
      {"filter.ms", "ms"},
      {"filter.pass_ratio", "ratio"},
      {"cache.lookups", "count"},
      {"cache.misses", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.lookup_ms", "ms"},
      {"cache.insert_ms", "ms"},
      {"cache.entries", "count"},
      {"persist.warm_load_ms", "ms"},
      {"persist.records", "count"},
      {"persist.snapshot_bytes", "B"},
      {"persist.save_ms", "ms"},
      {"bert.forwards", "count"},
      {"bert.useful_ratio", "ratio"},
      {"bert.forward_ms", "ms"},
      {"bert.forward_us.p50", "us"},
      {"bert.forward_us.p99", "us"},
      {"bert.tokens_per_forward.p50", "count"},
      {"bert.tokens_per_forward.max", "count"},
      {"kernels.flops_per_forward", "flop"},
      {"kernels.bytes_per_forward", "B"},
      {"kernels.gemm_gflops", "GFLOP/s"},
      {"kernels.softmax_us", "us"},
      {"kernels.layer_norm_us", "us"},
      {"kernels.gelu_us", "us"},
      {"grouping.ms", "ms"},
      {"scoring.matrix_mb", "MiB"},
      {"circuitgen.generate_ms", "ms"},
      {"nl.corrupt_ms", "ms"},
      {"serve.engine_score_us.p50", "us"},
      {"client.request_us.p50", "us"},
      {"serve.transport_us.p50", "us"},
      {"serve.shed", "count"},
      {"serve.deadline_exceeded", "count"},
      {"serve.score_requests", "count"},
      {"loadgen.sent", "count"},
      {"loadgen.ok", "count"},
      {"loadgen.failed", "count"},
      {"loadgen.lag_ms.p99.low", "ms"},
      {"loadgen.lag_ms.max.low", "ms"},
      {"loadgen.lag_ms.p99.high", "ms"},
      {"loadgen.lag_ms.max.high", "ms"},
      {"trace.wall_ms", "ms"},
      {"trace.untraced_ms", "ms"},
      {"trace.overhead_ms", "ms"},
      {"trace.attributed_ratio", "ratio"},
  };
  return specs;
}

std::string canonicalize(const std::vector<MetricSpec>& specs,
                         std::vector<Metric>* reported) {
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : specs) ordered.push_back({spec.name, 0.0, spec.unit});
  std::vector<char> seen(specs.size(), 0);
  for (const Metric& metric : *reported) {
    const auto it = std::find_if(specs.begin(), specs.end(), [&](const MetricSpec& s) {
      return metric.name == s.name;
    });
    if (it == specs.end()) return "undeclared metric " + metric.name;
    const std::size_t index = static_cast<std::size_t>(it - specs.begin());
    if (seen[index]) return "metric reported twice: " + metric.name;
    if (metric.unit != it->unit)
      return "metric " + metric.name + " has unit " + metric.unit + ", not " +
             it->unit;
    if (!std::isfinite(metric.value))
      return "metric " + metric.name + " is not finite";
    seen[index] = 1;
    ordered[index].value = metric.value;
  }
  *reported = std::move(ordered);
  return "";
}

}  // namespace perfbench
