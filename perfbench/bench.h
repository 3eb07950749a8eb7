// perfbench — the repository benchmark (see README.md in this directory).
//
// One binary, three workloads (recover_cold, recover_warm, serve_score),
// each driven through the public API of the rebert, bert, kernels, persist
// and serve modules. An untraced run reports end-to-end metrics; a traced
// run (--trace 1) records spans around the benchmark's own calls into each
// layer and reports per-layer busy/self times and counts. Nothing inside
// src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bert/model.h"
#include "nl/netlist.h"
#include "rebert/pipeline.h"

namespace perfbench {

// ---- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation reports. `e2e` feeds the untraced JSON line,
/// `layers` the traced one; `info` lines are human-readable extras (named
/// figures such as recover_s and score_p99_ms.high, with sample counts).
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::string> info;
  std::string threads = "{}";  // JSON: thread counts the workload used

  void fail(const std::string& why);  // correctness miss: logs, flips correct
  void add_e2e(const std::string& name, double value, const std::string& unit);
  void add_layer(const std::string& name, double value,
                 const std::string& unit);
  void note(const std::string& line) { info.push_back(line); }
};

// ---- statistics (stats.cc) ---------------------------------------------------

/// Median (mean of the middle two for even sizes). 0 for an empty input.
double median(std::vector<double> values);

/// Nearest-rank percentile, q in (0, 1]. Samples strictly beyond it:
/// n - ceil(q * n).
double percentile(std::vector<double> values, double q);
std::size_t samples_beyond(std::size_t n, double q);

/// The reporting rule: a percentile other than the median is reported only
/// when at least ten samples lie beyond it.
inline constexpr std::size_t kMinSamplesBeyond = 10;
bool percentile_reportable(std::size_t n, double q);

/// percentile() when reportable, else 0 (the "not measured" value every
/// per-layer metric uses when the rule or the workload rules it out).
double percentile_or_zero(const std::vector<double>& values, double q);

/// The smallest of the workers' medians: what a workload that runs on
/// several workers at once reports (see worker_count).
double fastest_median(const std::vector<std::vector<double>>& per_worker);

/// Adds a "<name>=<fastest median> (fastest worker's median; per worker:
/// ...)" note.
void note_workers(const std::string& name,
                  const std::vector<std::vector<double>>& per_worker,
                  Result* result);

/// Metric-name grammar: starts with a letter or digit; letters, digits,
/// '_', '.', '-' only; at most 64 characters.
bool valid_metric_name(const std::string& name);

/// The one-line JSON result that ends stdout.
std::string result_json(const Result& result, bool trace);

/// The metric sets BENCHMARK.json declares: every untraced run reports
/// each end-to-end metric, every traced run each per-layer metric (0 when
/// the layer is not on the workload's path or a percentile fails the
/// reporting rule).
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& e2e_specs();
const std::vector<MetricSpec>& layer_specs();

/// Orders `reported` as `specs`, filling absent metrics with 0. Returns an
/// error message when a reported metric is not declared, repeats, has the
/// wrong unit, or is not finite; empty on success.
std::string canonicalize(const std::vector<MetricSpec>& specs,
                         std::vector<Metric>* reported);

// ---- host fingerprint (host.cc) -----------------------------------------------

/// One-line JSON: CPU model, ISA flags, kernel backend, build type,
/// compiler, nproc, and the thread counts the workload uses.
std::string host_fingerprint_json(const std::string& workload,
                                  const std::string& threads_json);

// ---- tracing (trace.cc) ----------------------------------------------------------

/// In-memory span recorder. A record is either an interval span (begin/end)
/// or an aggregate that sums the busy time of many calls made under one
/// parent (per row of the score matrix, say). A record's self time is its
/// busy time minus its children's; children never overlap, so that is the
/// part of the interval no child covers.
class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  /// Opens an interval span under `parent` (-1 = root); returns its id.
  int begin(const char* name, int parent);
  void end(int id);

  /// Creates an empty aggregate under `parent`; feed it with add().
  int aggregate(const char* name, int parent);
  void add(int id, std::int64_t busy_ns, std::int64_t calls = 1);

  struct Totals {
    double busy_ms = 0.0;
    std::int64_t calls = 0;
  };
  /// Busy time and calls summed per record name.
  Totals totals(const std::string& name) const;
  double busy_ms(int id) const;
  /// Self time of every record in `id`'s subtree whose name is in `layers`,
  /// as a share of `id`'s busy time — the "self times sum to the wall"
  /// check.
  double attributed_share(int id, const std::vector<std::string>& layers)
      const;

  /// Writes every record as JSON lines (name, id, parent, start_us,
  /// busy_us, self_us, calls) after a header line.
  void write(const std::string& path, const std::string& header_json) const;

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  struct Record {
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t busy_ns;
    std::int64_t calls;
  };
  std::int64_t self_ns(std::size_t id) const;
  std::vector<Record> records_;
  std::vector<std::int64_t> child_ns_;  // sum of children's busy, per id
};

// ---- inputs (workloads.cc) -------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   // scratch files (bench, snapshot, socket)
  std::string trace_dir;  // where traced runs write their spans
};

/// The benchmark's design: b17 at full scale, corrupted at R-Index 0.4
/// with the fixed corruption seed of `rebert_cli corrupt` (the ROADMAP
/// reference netlist). The workload seed reorders its statements, so
/// every seed poses the same work in a different gate and bit order;
/// seeding the corruption instead moves the forward count, and with it
/// the recover time, by about +-15% between seeds.
inline constexpr const char* kDesign = "b17";
inline constexpr double kDesignScale = 1.0;
inline constexpr double kRIndex = 0.4;
inline constexpr std::uint64_t kCorruptionSeed = 7;

/// Tokenizer/model settings of `rebert_cli recover` (the ROADMAP reference
/// run): depth 6, tree codes of width 16, sequences capped at 256.
rebert::core::ExperimentOptions experiment_options();

struct Inputs {
  rebert::nl::Netlist netlist;  // corrupted, 2-input
  double generate_ms = 0.0;
  double corrupt_ms = 0.0;
  double tokenize_ms = 0.0;
  std::vector<rebert::core::BitSequence> sequences;
};

/// Generate, corrupt, reorder (by `seed`) and tokenize the design.
Inputs make_inputs(std::uint64_t seed, double scale = kDesignScale);

/// `count` uniformly random ordered pairs (a != b) over `n` bits.
std::vector<std::pair<int, int>> pair_schedule(std::uint64_t seed, int n,
                                               std::size_t count);

/// Correctness gate (a): a seeded sample of pair scores on the active
/// backend against the scalar backend, within kParityAtol/kParityRtol.
/// Returns the number of mismatching pairs; `sampled` gets the sample size.
int parity_mismatches(const Inputs& inputs,
                      const rebert::bert::BertPairClassifier& model,
                      std::uint64_t seed, int* sampled);

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Workers that repeat the same timed work side by side: one per core, at
/// most four. On a shared host each core turns slower for seconds at a
/// time while other tenants load the machine, and one core can stay slow
/// for a whole run, so a workload reports its fastest worker's median
/// (fastest_median): that figure follows the program, not its neighbours.
unsigned worker_count();

/// Runs body(w) for every w < workers on a thread of its own, joins them
/// all, and rethrows the first exception a body threw.
void run_on_workers(std::size_t workers,
                    const std::function<void(std::size_t)>& body);

// ---- kernel replay (workloads.cc) -----------------------------------------------

/// Replays one forward's GEMM, softmax, LayerNorm and GELU shapes for each
/// sequence length in `lengths` (token counts) on the active backend and
/// reports the kernels.* per-layer metrics. FLOPs and bytes are computed
/// from the tensor shapes, not counted in hardware.
void replay_kernels(const rebert::bert::BertConfig& config,
                    const std::vector<double>& lengths, Result* result);

// ---- workloads ---------------------------------------------------------------------

void run_recover(const RunOptions& options, bool warm, Result* result);
void run_serve_score(const RunOptions& options, Result* result);

// ---- self-tests (selftest.cc) --------------------------------------------------------

/// Checks the percentile rule, seed determinism of the pair schedule and
/// the netlist, and the metric-name grammar. Returns the failure count.
int run_self_tests();

}  // namespace perfbench
