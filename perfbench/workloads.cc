// Inputs, correctness gates, the kernel replay, and the two recover
// workloads.
//
//   recover_cold — core::recover_words on b17 (full scale, R-Index 0.4) with
//     a fresh per-call prediction cache on one thread, on every worker at
//     once (see worker_count): the ROADMAP reference. About 14k forwards;
//     forward and kernels dominate, the cache both reads and writes.
//   recover_warm — the same netlist and model, but every timed call first
//     warm-starts a fresh ShardedPredictionCache from an RBPC v2 snapshot
//     (mmap tier) made by a cold pass at setup. Zero forwards: filter,
//     cache reads, persist, the n^2 score matrix and grouping carry the
//     time, so a forward/kernel change predicts no change here and a
//     filter or matrix-layout change shows only here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "circuitgen/suite.h"
#include "kernels/aligned.h"
#include "kernels/backend.h"
#include "kernels/kernels.h"
#include "nl/corruption.h"
#include "nl/decompose.h"
#include "nl/parser.h"
#include "persist/cache_io.h"
#include "rebert/filter.h"
#include "rebert/grouping.h"
#include "rebert/prediction_cache.h"
#include "rebert/scoring.h"
#include "rebert/tokenizer.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {

using namespace rebert;

namespace {

/// Setup repeats per run; setup_s is their median. Host noise shifts a
/// ~40 ms setup by +-15% from one second to the next, so the repeats span
/// about a second. A warm setup includes a full cold pass, so it repeats
/// fewer times (and spans several seconds anyway).
constexpr int kSetupRepeats = 25;
constexpr int kWarmSetupRepeats = 3;
/// Threads of the setup cold pass that produces the warm snapshot (setup
/// only; the timed recovers run on one thread).
constexpr int kSetupThreads = 4;
/// Timed recovers per worker and run, at least.
constexpr std::size_t kMinRecovers = 3;
/// Workers at most: nproc of the host the benchmark was tuned on.
constexpr unsigned kMaxWorkers = 4;
/// Pairs in the scalar-vs-active parity sample.
constexpr std::size_t kParityPairs = 32;
/// Forwards the kernel replay reproduces (lengths spread evenly over the
/// workload's sorted length distribution).
constexpr std::size_t kReplayForwards = 512;

double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Model input length of encode_pair(a, b): [CLS] a [SEP] b [SEP], capped.
double pair_length(const core::BitSequence& a, const core::BitSequence& b,
                   int max_seq_len) {
  const int tokens = static_cast<int>(a.token_ids.size() + b.token_ids.size());
  return std::min(tokens, max_seq_len - 3) + 3;
}

bool same_bits(const core::ScoreMatrix& x, const core::ScoreMatrix& y) {
  if (x.size() != y.size()) return false;
  for (int i = 0; i < x.size(); ++i)
    for (int j = 0; j < x.size(); ++j) {
      const double a = x.at(i, j);
      const double b = y.at(i, j);
      if (std::memcmp(&a, &b, sizeof(double)) != 0) return false;
    }
  return true;
}

}  // namespace

unsigned worker_count() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, kMaxWorkers);
}

void run_on_workers(std::size_t workers,
                    const std::function<void(std::size_t)>& body) {
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> threads;
  try {
    for (std::size_t w = 0; w < workers; ++w)
      threads.emplace_back([&, w] {
        try {
          body(w);
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
  } catch (...) {
    for (std::thread& thread : threads) thread.join();
    throw;
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

core::ExperimentOptions experiment_options() {
  core::ExperimentOptions options;
  options.pipeline.tokenizer.backtrace_depth = 6;
  options.pipeline.tokenizer.tree_code_dim = 16;
  options.pipeline.tokenizer.max_seq_len = 256;
  return options;
}

Inputs make_inputs(std::uint64_t seed, double scale) {
  Inputs inputs;
  util::WallTimer timer;
  gen::GeneratedCircuit circuit = gen::generate_benchmark(kDesign, scale);
  inputs.generate_ms = timer.milliseconds();

  timer.reset();
  nl::CorruptionOptions corruption;
  corruption.r_index = kRIndex;
  corruption.seed = kCorruptionSeed;
  const nl::Netlist corrupted = nl::corrupt_netlist(circuit.netlist, corruption);
  inputs.corrupt_ms = timer.milliseconds();

  // The seeded part: the same circuit with its statements in a seeded
  // order, so gate ids, bit order and pair order all differ by seed.
  std::vector<std::string> ports, statements;
  std::istringstream text(nl::write_bench_string(corrupted));
  for (std::string line; std::getline(text, line);) {
    if (line.empty() || line[0] == '#') continue;
    const bool port = line.rfind("INPUT(", 0) == 0 || line.rfind("OUTPUT(", 0) == 0;
    (port ? ports : statements).push_back(line);
  }
  util::Rng rng(seed);
  rng.shuffle(ports);
  rng.shuffle(statements);
  std::string shuffled;
  for (const auto* lines : {&ports, &statements})
    for (const std::string& line : *lines) shuffled += line + "\n";
  inputs.netlist = nl::parse_bench_string(shuffled, kDesign);
  if (!nl::is_2input(inputs.netlist))
    inputs.netlist = nl::decompose_to_2input(inputs.netlist);

  timer.reset();
  const core::Tokenizer tokenizer(experiment_options().pipeline.tokenizer);
  inputs.sequences = tokenizer.tokenize_bits(inputs.netlist);
  inputs.tokenize_ms = timer.milliseconds();
  return inputs;
}

std::vector<std::pair<int, int>> pair_schedule(std::uint64_t seed, int n,
                                               std::size_t count) {
  util::Rng rng(seed);
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const int a = rng.uniform_int(0, n - 1);
    int b = rng.uniform_int(0, n - 2);
    if (b >= a) ++b;
    pairs.emplace_back(a, b);
  }
  return pairs;
}

int parity_mismatches(const Inputs& inputs,
                      const bert::BertPairClassifier& model,
                      std::uint64_t seed, int* sampled) {
  const core::Tokenizer tokenizer(experiment_options().pipeline.tokenizer);
  const auto pairs =
      pair_schedule(seed ^ 0x9a217u, static_cast<int>(inputs.sequences.size()),
                    kParityPairs);
  std::vector<bert::EncodedSequence> encoded;
  for (const auto& [a, b] : pairs)
    encoded.push_back(tokenizer.encode_pair(
        inputs.sequences[static_cast<std::size_t>(a)],
        inputs.sequences[static_cast<std::size_t>(b)]));

  std::vector<double> active;
  for (const auto& e : encoded)
    active.push_back(model.predict_same_word_probability(e));
  const kernels::Backend previous = kernels::active_backend();
  kernels::set_backend(kernels::Backend::kScalar);
  int mismatches = 0;
  for (std::size_t k = 0; k < encoded.size(); ++k) {
    const double scalar = model.predict_same_word_probability(encoded[k]);
    if (!(std::fabs(active[k] - scalar) <=
          kernels::kParityAtol + kernels::kParityRtol * std::fabs(scalar)))
      ++mismatches;
  }
  kernels::set_backend(previous);
  *sampled = static_cast<int>(encoded.size());
  return mismatches;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

void replay_kernels(const bert::BertConfig& config,
                    const std::vector<double>& all_lengths, Result* result) {
  if (all_lengths.empty()) return;
  std::vector<int> sorted(all_lengths.begin(), all_lengths.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> lengths;
  const std::size_t count = std::min(kReplayForwards, sorted.size());
  for (std::size_t k = 0; k < count; ++k)
    lengths.push_back(sorted[k * sorted.size() / count]);

  const int h = config.hidden;
  const int heads = config.num_heads;
  const int dh = config.head_dim();
  const int inter = config.intermediate;
  const int n_max = sorted.back();
  // Buffers sized for the longest sequence, filled with small values.
  const auto buffer = [](std::size_t elems) {
    kernels::AlignedFloatVector v(elems);
    for (std::size_t i = 0; i < elems; ++i)
      v[i] = 0.01f * static_cast<float>(static_cast<int>(i % 17) - 8);
    return v;
  };
  const std::size_t rows = static_cast<std::size_t>(n_max);
  auto x = buffer(rows * static_cast<std::size_t>(std::max(h, inter)));
  auto w = buffer(static_cast<std::size_t>(h) * inter);
  auto y = buffer(rows * static_cast<std::size_t>(std::max(h, inter)));
  auto scores = buffer(rows * rows);
  auto gamma = buffer(static_cast<std::size_t>(h));
  auto beta = buffer(static_cast<std::size_t>(h));

  std::int64_t gemm_ns = 0, softmax_ns = 0, norm_ns = 0, gelu_ns = 0;
  double gemm_flops = 0.0, bytes = 0.0;
  const auto gemm = [&](int m, int k, int n) {
    const std::int64_t t0 = Trace::now_ns();
    kernels::gemm(x.data(), w.data(), y.data(), m, k, n);
    gemm_ns += Trace::now_ns() - t0;
    gemm_flops += 2.0 * m * k * n;
    bytes += 4.0 * (static_cast<double>(m) * k + static_cast<double>(k) * n +
                    static_cast<double>(m) * n);
  };
  const auto gemm_nt = [&](int m, int k, int n) {
    const std::int64_t t0 = Trace::now_ns();
    kernels::gemm_nt(x.data(), w.data(), scores.data(), m, k, n);
    gemm_ns += Trace::now_ns() - t0;
    gemm_flops += 2.0 * m * k * n;
    bytes += 4.0 * (static_cast<double>(m) * k + static_cast<double>(n) * k +
                    static_cast<double>(m) * n);
  };
  const auto layer_norm = [&](int n) {
    const std::int64_t t0 = Trace::now_ns();
    kernels::layer_norm(x.data(), gamma.data(), beta.data(), 1e-12f, n, h,
                        y.data(), nullptr, nullptr);
    norm_ns += Trace::now_ns() - t0;
    bytes += 4.0 * (2.0 * n * h + 2.0 * h);
  };

  for (const int n : lengths) {
    layer_norm(n);  // embeddings
    for (int layer = 0; layer < config.num_layers; ++layer) {
      for (int p = 0; p < 3; ++p) gemm(n, h, h);  // Q, K, V
      for (int head = 0; head < heads; ++head) {
        gemm_nt(n, dh, n);
        const std::int64_t t0 = Trace::now_ns();
        kernels::softmax_rows(scores.data(), n, n);
        softmax_ns += Trace::now_ns() - t0;
        bytes += 4.0 * 2.0 * n * n;
        // P·V reads the probabilities as its A operand.
        const std::int64_t t1 = Trace::now_ns();
        kernels::gemm(scores.data(), w.data(), y.data(), n, n, dh);
        gemm_ns += Trace::now_ns() - t1;
        gemm_flops += 2.0 * n * n * dh;
        bytes += 4.0 * (static_cast<double>(n) * n +
                        static_cast<double>(n) * dh +
                        static_cast<double>(n) * dh);
      }
      gemm(n, h, h);  // attention output projection
      layer_norm(n);
      gemm(n, h, inter);  // FFN up
      const std::int64_t t0 = Trace::now_ns();
      kernels::gelu(x.data(), y.data(),
                    static_cast<std::int64_t>(n) * inter);
      gelu_ns += Trace::now_ns() - t0;
      bytes += 4.0 * 2.0 * n * inter;
      gemm(n, inter, h);  // FFN down
      layer_norm(n);
    }
    gemm(1, h, h);                   // pooler
    gemm(1, h, config.num_classes);  // classifier
  }
  const double forwards = static_cast<double>(lengths.size());
  result->add_layer("kernels.flops_per_forward", gemm_flops / forwards,
                    "flop");
  result->add_layer("kernels.bytes_per_forward", bytes / forwards, "B");
  result->add_layer("kernels.gemm_gflops",
                    gemm_ns > 0 ? gemm_flops / static_cast<double>(gemm_ns)
                                : 0.0,
                    "GFLOP/s");
  result->add_layer("kernels.softmax_us", ns_to_us(softmax_ns) / forwards,
                    "us");
  result->add_layer("kernels.layer_norm_us", ns_to_us(norm_ns) / forwards,
                    "us");
  result->add_layer("kernels.gelu_us", ns_to_us(gelu_ns) / forwards, "us");
  result->note("kernels: replayed " + std::to_string(lengths.size()) +
               " forwards on " +
               kernels::backend_name(kernels::active_backend()) +
               "; flops (GEMM only) and bytes (operands + results) are "
               "computed from tensor shapes");
}

namespace {

/// What the traced recover observed besides its spans.
struct TracedRecover {
  core::ScoreMatrix scores{1};
  std::vector<int> labels;
  std::vector<double> encode_us;
  std::vector<double> forward_us;
  std::vector<double> lookup_tokens;   // input length of every looked-up pair
  std::vector<double> forward_tokens;  // input length of every forward
  std::int64_t candidates = 0;
  std::int64_t survivors = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::size_t warm_records = 0;
  std::size_t entries = 0;
  int root = -1;
};

/// recover_words composed from public calls, with a span around each.
/// Cache operations happen in the same order as serial score_all_pairs
/// (filtering is pure, so hoisting a row's filter calls changes nothing),
/// so the matrix, the forward count and the hit count match it exactly.
TracedRecover traced_recover(Trace& trace, const nl::Netlist& netlist,
                             const bert::BertPairClassifier& model,
                             const core::PipelineOptions& pipeline,
                             const std::string& snapshot) {
  TracedRecover out;
  out.root = trace.begin("recover", -1);
  core::ShardedPredictionCache cache;
  if (!snapshot.empty()) {
    const int load = trace.begin("persist.warm_load", out.root);
    out.warm_records = persist::warm_start_cache(&cache, snapshot);
    trace.end(load);
  }
  const core::Tokenizer tokenizer(pipeline.tokenizer);
  int span = trace.begin("tokenizer.tokenize", out.root);
  const std::vector<nl::Bit> bits = nl::extract_bits(netlist);
  const std::vector<core::BitSequence> sequences =
      tokenizer.tokenize_bits(netlist);
  trace.end(span);

  const int n = static_cast<int>(sequences.size());
  span = trace.begin("scoring.matrix", out.root);
  core::ScoreMatrix matrix(n);
  trace.end(span);

  const int max_len = pipeline.tokenizer.max_seq_len;
  const int loop = trace.begin("scoring.loop", out.root);
  std::vector<int> survivors;
  for (int i = 0; i < n; ++i) {
    const int filter = trace.aggregate("filter", loop);
    const int lookup = trace.aggregate("cache.lookup", loop);
    const int encode = trace.aggregate("tokenizer.encode_pair", loop);
    const int forward = trace.aggregate("bert.forward", loop);
    const int insert = trace.aggregate("cache.insert", loop);
    const core::BitSequence& a = sequences[static_cast<std::size_t>(i)];

    survivors.clear();
    std::int64_t t0 = Trace::now_ns();
    for (int j = i + 1; j < n; ++j)
      if (core::passes_filter(a, sequences[static_cast<std::size_t>(j)],
                              pipeline.filter))
        survivors.push_back(j);
    trace.add(filter, Trace::now_ns() - t0, n - i - 1);
    out.candidates += n - i - 1;
    out.survivors += static_cast<std::int64_t>(survivors.size());

    for (const int j : survivors) {
      const core::BitSequence& b = sequences[static_cast<std::size_t>(j)];
      t0 = Trace::now_ns();
      const std::uint64_t key = core::PredictionCache::key_of(a, b);
      double score = 0.0;
      const bool hit = cache.lookup(key, &score);
      const std::int64_t t1 = Trace::now_ns();
      trace.add(lookup, t1 - t0);
      out.lookup_tokens.push_back(pair_length(a, b, max_len));
      if (hit) {
        ++out.hits;
      } else {
        ++out.misses;
        const bert::EncodedSequence encoded = tokenizer.encode_pair(a, b);
        const std::int64_t t2 = Trace::now_ns();
        score = model.predict_same_word_probability(encoded);
        const std::int64_t t3 = Trace::now_ns();
        cache.insert(key, score);
        const std::int64_t t4 = Trace::now_ns();
        trace.add(encode, t2 - t1);
        trace.add(forward, t3 - t2);
        trace.add(insert, t4 - t3);
        out.encode_us.push_back(ns_to_us(t2 - t1));
        out.forward_us.push_back(ns_to_us(t3 - t2));
        out.forward_tokens.push_back(encoded.length());
      }
      matrix.set(i, j, score);
    }
  }
  trace.end(loop);

  span = trace.begin("grouping", out.root);
  out.labels = core::group_words(matrix, pipeline.grouping);
  trace.end(span);
  out.entries = cache.size();
  trace.end(out.root);
  out.scores = std::move(matrix);
  return out;
}

const std::vector<std::string>& recover_layers() {
  static const std::vector<std::string> layers{
      "persist.warm_load", "tokenizer.tokenize", "scoring.matrix",
      "filter",            "cache.lookup",       "tokenizer.encode_pair",
      "bert.forward",      "cache.insert",       "grouping"};
  return layers;
}

}  // namespace

void run_recover(const RunOptions& options, bool warm, Result* result) {
  const core::ExperimentOptions experiment = experiment_options();
  const std::string snapshot = options.work_dir + "/cold.rbpc";
  result->threads =
      "{\"recover\": 1, \"recover_workers\": " +
      std::to_string(options.trace ? 1u : worker_count()) +
      ", \"setup_workers\": " + std::to_string(warm ? 1u : worker_count()) +
      ", \"setup_cold_pass\": " + std::to_string(warm ? kSetupThreads : 0) + "}";

  // ---- setup (repeated; setup_s is a median) ---------------------------------
  // Cold set-ups run on every worker at once and setup_s is the fastest
  // worker's median, as for the recovers below. A warm set-up includes a
  // kSetupThreads-thread cold pass, so its repeats run one at a time.
  struct Setup {
    std::unique_ptr<Inputs> inputs;
    std::unique_ptr<bert::BertPairClassifier> model;
    std::vector<double> setup_s, generate_ms, corrupt_ms;
  };
  std::vector<Setup> setups(warm ? 1 : worker_count());
  std::vector<int> reference;  // labels every recover must reproduce
  double save_ms = 0.0;
  run_on_workers(setups.size(), [&](std::size_t w) {
    Setup& s = setups[w];
    for (int r = 0; r < (warm ? kWarmSetupRepeats : kSetupRepeats); ++r) {
      s.inputs.reset();
      s.model.reset();
      util::WallTimer timer;
      s.inputs = std::make_unique<Inputs>(make_inputs(options.seed));
      s.model = std::make_unique<bert::BertPairClassifier>(
          core::make_model_config(experiment));
      if (warm) {
        core::ShardedPredictionCache cache;
        core::PipelineOptions pipeline = experiment.pipeline;
        pipeline.external_cache = &cache;
        pipeline.num_threads = kSetupThreads;
        reference =
            core::recover_words(s.inputs->netlist, *s.model, pipeline).labels;
        util::WallTimer save;
        persist::save_cache(cache, snapshot);
        save_ms = save.milliseconds();
      }
      s.setup_s.push_back(timer.seconds());
      s.generate_ms.push_back(s.inputs->generate_ms);
      s.corrupt_ms.push_back(s.inputs->corrupt_ms);
    }
  });
  std::vector<std::vector<double>> setup_s;
  for (const Setup& s : setups) setup_s.push_back(s.setup_s);
  const double setup_median = fastest_median(setup_s);
  note_workers("setup_s", setup_s, result);
  const std::unique_ptr<Inputs> inputs = std::move(setups[0].inputs);
  const std::unique_ptr<bert::BertPairClassifier> model =
      std::move(setups[0].model);
  const std::vector<double>& generate_ms = setups[0].generate_ms;
  const std::vector<double>& corrupt_ms = setups[0].corrupt_ms;

  // ---- correctness gate (a): scalar parity ------------------------------------
  int sampled = 0;
  const int mismatches =
      parity_mismatches(*inputs, *model, options.seed, &sampled);
  result->attempted += sampled;
  result->failed += mismatches;
  if (mismatches > 0)
    result->fail(std::to_string(mismatches) + "/" + std::to_string(sampled) +
                 " pair scores outside the scalar parity tolerance");

  core::PipelineOptions pipeline = experiment.pipeline;
  pipeline.num_threads = 1;
  // One recover as the workload defines it: a fresh cache every call,
  // warm-started from the snapshot (inside the timed call) when warm.
  const auto recover_once = [&](core::ShardedPredictionCache* cache) {
    if (warm) persist::warm_start_cache(cache, snapshot);
    core::PipelineOptions call = pipeline;
    call.external_cache = cache;
    return core::recover_words_detailed(inputs->netlist, *model, call);
  };
  // Gate (b) for warm runs and label determinism for cold runs. `misses`
  // is the recover's cache misses, i.e. its forwards.
  const auto check = [&](const std::vector<int>& labels, std::uint64_t misses) {
    bool ok = true;
    if (reference.empty()) reference = labels;
    if (labels != reference) {
      result->fail(warm ? "warm labels differ from the setup cold pass"
                        : "cold labels differ between recovers");
      ok = false;
    }
    if (warm && misses != 0) {
      result->fail("warm recover ran " + std::to_string(misses) +
                   " forwards");
      ok = false;
    }
    ++result->attempted;
    if (!ok) ++result->failed;
  };

  if (!options.trace) {
    // ---- timed recovers -------------------------------------------------------
    // Every worker runs recovers back to back: at least kMinRecovers, and
    // after that another only when it should still end within --seconds,
    // so a slow host stretches the run by at most the minimum. The checks
    // run here after the join.
    struct Timed {
      std::vector<double> recover_s;
      std::vector<std::vector<int>> labels;
      std::vector<std::uint64_t> misses;
    };
    std::vector<Timed> timed(worker_count());
    util::WallTimer wall;
    run_on_workers(timed.size(), [&](std::size_t w) {
      Timed& t = timed[w];
      while (t.recover_s.size() < kMinRecovers ||
             wall.seconds() + t.recover_s.back() <= options.seconds) {
        core::ShardedPredictionCache cache;
        util::WallTimer timer;
        const core::RecoveryArtifacts recovered = recover_once(&cache);
        t.recover_s.push_back(timer.seconds());
        t.labels.push_back(recovered.result.labels);
        t.misses.push_back(cache.misses());
      }
    });
    std::vector<std::vector<double>> recover_s;
    for (const Timed& t : timed) {
      for (std::size_t k = 0; k < t.recover_s.size(); ++k)
        check(t.labels[k], t.misses[k]);
      recover_s.push_back(t.recover_s);
    }

    const double recover_fastest = fastest_median(recover_s);
    result->add_e2e("setup_s", setup_median, "s");
    result->add_e2e("latency_ms", recover_fastest * 1e3, "ms");
    result->add_e2e("throughput_per_s", 1.0 / recover_fastest, "1/s");
    result->add_e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    note_workers("recover_s", recover_s, result);
    return;
  }

  // ---- traced run: untraced reference, traced composition, untraced timing --
  core::ShardedPredictionCache untraced_cache;
  const core::RecoveryArtifacts untraced = recover_once(&untraced_cache);
  check(untraced.result.labels, untraced_cache.misses());

  Trace trace;
  const TracedRecover traced = traced_recover(
      trace, inputs->netlist, *model, pipeline, warm ? snapshot : "");
  ++result->attempted;
  bool traced_ok = true;
  if (!same_bits(traced.scores, untraced.scores)) {
    result->fail("traced ScoreMatrix differs from score_all_pairs");
    traced_ok = false;
  }
  if (traced.labels != reference) {
    result->fail("traced labels differ from the untraced recover");
    traced_ok = false;
  }
  const auto forwards = static_cast<std::int64_t>(traced.forward_us.size());
  if (forwards != traced.misses ||
      static_cast<std::uint64_t>(traced.misses) != untraced_cache.misses()) {
    result->fail("bert.forwards != cache misses");
    traced_ok = false;
  }
  if (warm && forwards != 0) {
    result->fail("warm traced recover ran forwards");
    traced_ok = false;
  }
  // Timed after the traced pass so both see the same warmed process state.
  core::ShardedPredictionCache timing_cache;
  util::WallTimer timer;
  (void)recover_once(&timing_cache);
  const double untraced_ms = timer.milliseconds();
  const double wall_ms = trace.busy_ms(traced.root);
  const double attributed = trace.attributed_share(traced.root,
                                                   recover_layers());
  if (attributed < 0.95 || attributed > 1.0001) {
    result->fail("layer self times cover " + std::to_string(attributed) +
                 " of the traced wall (want within 5%)");
    traced_ok = false;
  }
  if (!traced_ok) ++result->failed;

  const auto layer = [&](const char* name) { return trace.totals(name); };
  result->add_layer("tokenizer.tokenize_ms", layer("tokenizer.tokenize").busy_ms,
                    "ms");
  result->add_layer("tokenizer.encode_pair_calls",
                    static_cast<double>(layer("tokenizer.encode_pair").calls),
                    "count");
  result->add_layer("tokenizer.encode_pair_us.p50", median(traced.encode_us),
                    "us");
  result->add_layer("filter.calls", static_cast<double>(traced.candidates),
                    "count");
  result->add_layer("filter.ms", layer("filter").busy_ms, "ms");
  result->add_layer("filter.pass_ratio",
                    static_cast<double>(traced.survivors) /
                        static_cast<double>(std::max<std::int64_t>(
                            1, traced.candidates)),
                    "ratio");
  result->add_layer("cache.lookups", static_cast<double>(traced.survivors),
                    "count");
  result->add_layer("cache.misses", static_cast<double>(traced.misses),
                    "count");
  result->add_layer("cache.hit_ratio",
                    static_cast<double>(traced.hits) /
                        static_cast<double>(std::max<std::int64_t>(
                            1, traced.survivors)),
                    "ratio");
  result->add_layer("cache.lookup_ms", layer("cache.lookup").busy_ms, "ms");
  result->add_layer("cache.insert_ms", layer("cache.insert").busy_ms, "ms");
  result->add_layer("cache.entries", static_cast<double>(traced.entries),
                    "count");
  if (warm) {
    result->add_layer("persist.warm_load_ms",
                      layer("persist.warm_load").busy_ms, "ms");
    result->add_layer("persist.records",
                      static_cast<double>(traced.warm_records), "count");
    result->add_layer(
        "persist.snapshot_bytes",
        static_cast<double>(std::filesystem::file_size(snapshot)), "B");
    result->add_layer("persist.save_ms", save_ms, "ms");
  }
  result->add_layer("bert.forwards", static_cast<double>(forwards), "count");
  result->add_layer("bert.useful_ratio",
                    forwards > 0 ? static_cast<double>(traced.misses) /
                                       static_cast<double>(forwards)
                                 : 1.0,
                    "ratio");
  result->add_layer("bert.forward_ms", layer("bert.forward").busy_ms, "ms");
  result->add_layer("bert.forward_us.p50", median(traced.forward_us), "us");
  result->add_layer("bert.forward_us.p99",
                    percentile_or_zero(traced.forward_us, 0.99), "us");
  result->add_layer("bert.tokens_per_forward.p50",
                    median(traced.forward_tokens), "count");
  result->add_layer(
      "bert.tokens_per_forward.max",
      traced.forward_tokens.empty()
          ? 0.0
          : *std::max_element(traced.forward_tokens.begin(),
                              traced.forward_tokens.end()),
      "count");
  // The lengths the model really ran; a warm run has none, so it replays
  // the pairs it looked up instead.
  replay_kernels(model->config(),
                 forwards > 0 ? traced.forward_tokens : traced.lookup_tokens,
                 result);
  result->add_layer("grouping.ms", layer("grouping").busy_ms, "ms");
  const double n = static_cast<double>(traced.scores.size());
  result->add_layer("scoring.matrix_mb", n * n * 8.0 / (1024.0 * 1024.0),
                    "MiB");
  result->add_layer("circuitgen.generate_ms", median(generate_ms), "ms");
  result->add_layer("nl.corrupt_ms", median(corrupt_ms), "ms");
  result->add_layer("trace.wall_ms", wall_ms, "ms");
  result->add_layer("trace.untraced_ms", untraced_ms, "ms");
  result->add_layer("trace.overhead_ms", wall_ms - untraced_ms, "ms");
  result->add_layer("trace.attributed_ratio", attributed, "ratio");

  char line[200];
  std::snprintf(line, sizeof(line),
                "traced: wall %.1f ms, untraced %.1f ms, self times cover "
                "%.4f of the wall; %lld forwards == %lld misses; "
                "forward_us p99 from n=%zu",
                wall_ms, untraced_ms, attributed,
                static_cast<long long>(forwards),
                static_cast<long long>(traced.misses),
                traced.forward_us.size());
  result->note(line);
  trace.write(options.trace_dir + "/" + options.workload + "-seed" +
                  std::to_string(options.seed) + ".trace.jsonl",
              host_fingerprint_json(options.workload, result->threads));
}

}  // namespace perfbench
