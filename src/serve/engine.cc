#include "serve/engine.h"

#include <algorithm>
#include <unordered_map>

#include "circuitgen/suite.h"
#include "kernels/backend.h"
#include "nl/decompose.h"
#include "persist/cache_io.h"
#include "nl/netlist.h"
#include "nl/parser.h"
#include "rebert/scoring.h"
#include "runtime/fault_injector.h"
#include "runtime/threads.h"
#include "structural/matching.h"
#include "util/check.h"
#include "util/logging.h"

namespace rebert::serve {

namespace {

bool is_generated_bench(const std::string& name) {
  const std::vector<std::string>& names = gen::benchmark_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

InferenceEngine::InferenceEngine(EngineOptions options)
    : options_(std::move(options)),
      tokenizer_(options_.experiment.pipeline.tokenizer),
      pool_(std::max(
          1, runtime::resolve_thread_count(options_.num_threads) - 1)),
      model_(core::make_model_config(options_.experiment)) {
  if (options_.model_path.empty()) {
    LOG_WARN << "serve: no --model given; using untrained weights "
                "(scores exercise the runtime, not the paper's accuracy)";
  } else {
    try {
      model_.load(options_.model_path);
      LOG_INFO << "serve: loaded model " << options_.model_path;
    } catch (const std::exception& error) {
      // A bad checkpoint must not stop the daemon: it starts degraded,
      // recover answers structurally and score answers err.
      LOG_WARN << "serve: failed to load model " << options_.model_path
               << " (" << error.what() << "); serving degraded";
      load_ok_ = false;
      set_model_health(false);
    }
  }
  // Bound before any warm start, so a snapshot of another model, kernel
  // backend or token budget is refused instead of served. Weights that
  // failed to load have no fingerprint, and their cache is never read.
  if (load_ok_)
    cache_.bind(core::scorer_fingerprint(
        model_, options_.experiment.pipeline.tokenizer));
}

const InferenceEngine::BenchContext& InferenceEngine::bench(
    const std::string& name) {
  util::MutexLock lock(benches_mu_);
  auto it = benches_.find(name);
  if (it != benches_.end()) return *it->second;

  // First use: generate or parse, decompose, tokenize. Loading holds
  // benches_mu_ — concurrent requests for other benches wait, which is
  // acceptable for a map that fills once per bench and is then read-only.
  nl::Netlist netlist;
  if (is_generated_bench(name)) {
    netlist = gen::generate_benchmark(name, options_.suite_scale).netlist;
  } else {
    netlist = nl::parse_bench_file(name);
    if (!nl::is_2input(netlist)) netlist = nl::decompose_to_2input(netlist);
  }

  auto context = std::make_unique<BenchContext>();
  context->bits = nl::extract_bits(netlist);
  REBERT_CHECK_MSG(!context->bits.empty(),
                   "bench '" + name + "' has no sequential elements");
  context->sequences = tokenizer_.tokenize_bits(netlist);
  for (int i = 0; i < static_cast<int>(context->bits.size()); ++i)
    context->index_of[context->bits[static_cast<std::size_t>(i)].name] = i;
  for (const core::BitSequence& sequence : context->sequences)
    context->keyed.push_back(
        {&sequence, core::PredictionCache::key_prefix(sequence)});
  // The netlist outlives tokenization so a model-path failure can still
  // answer recover via the structural baseline (no model involved).
  context->netlist = std::move(netlist);
  LOG_INFO << "serve: loaded bench " << name << " ("
           << context->bits.size() << " bits)";
  it = benches_.emplace(name, std::move(context)).first;
  return *it->second;
}

int InferenceEngine::bit_index(const BenchContext& context,
                               const std::string& bench,
                               const std::string& bit) const {
  const auto it = context.index_of.find(bit);
  REBERT_CHECK_MSG(it != context.index_of.end(),
                   "bench '" + bench + "' has no bit named '" + bit + "'");
  return it->second;
}

void InferenceEngine::Admission::release() {
  if (engine_ == nullptr) return;
  engine_->inflight_.fetch_sub(1, std::memory_order_relaxed);
  engine_ = nullptr;
}

InferenceEngine::Admission InferenceEngine::try_admit() {
  const int budget = options_.max_inflight;
  if (budget < 1) {  // unlimited: keep the gauge, never decline
    inflight_.fetch_add(1, std::memory_order_relaxed);
    return Admission(this);
  }
  int current = inflight_.load(std::memory_order_relaxed);
  while (true) {
    if (current >= budget) {
      shed_requests_.fetch_add(1, std::memory_order_relaxed);
      return Admission();
    }
    if (inflight_.compare_exchange_weak(current, current + 1,
                                        std::memory_order_relaxed))
      return Admission(this);
  }
}

double InferenceEngine::score(const std::string& bench,
                              const std::string& bit_a,
                              const std::string& bit_b,
                              runtime::CancellationToken* cancel) {
  return score_batch(bench, {{bit_a, bit_b}}, cancel).front();
}

std::vector<double> InferenceEngine::score_batch(
    const std::string& bench_name,
    const std::vector<std::pair<std::string, std::string>>& bit_pairs,
    runtime::CancellationToken* cancel) {
  score_requests_.fetch_add(bit_pairs.size(), std::memory_order_relaxed);
  const BenchContext& context = bench(bench_name);
  // Weights that never loaded cannot score anything meaningful.
  REBERT_CHECK_MSG(load_ok_, "model is unhealthy (checkpoint failed to load)");

  // Unknown names are request errors too: resolve them all before scoring.
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(bit_pairs.size());
  for (const auto& [a, b] : bit_pairs)
    pairs.emplace_back(bit_index(context, bench_name, a),
                       bit_index(context, bench_name, b));

  core::ShardedPredictionCache* cache =
      options_.experiment.pipeline.use_prediction_cache ? &cache_ : nullptr;
  // With a cache, pairs under one cache key are scored once and the score
  // fanned back out: two chunks racing on a repeated pair would otherwise
  // both miss and both forward.
  std::vector<std::size_t> slot;  // pair k's score is scores[slot[k]]
  if (cache != nullptr) {
    std::unordered_map<std::uint64_t, std::size_t> first_of;
    std::vector<std::pair<int, int>> distinct;
    slot.reserve(pairs.size());
    for (const auto& [a, b] : pairs) {
      const std::uint64_t key = core::hash_sequence(
          context.keyed[static_cast<std::size_t>(a)].key_prefix,
          *context.keyed[static_cast<std::size_t>(b)].sequence);
      const auto [it, fresh] = first_of.try_emplace(key, distinct.size());
      if (fresh) distinct.emplace_back(a, b);
      slot.push_back(it->second);
    }
    pairs = std::move(distinct);
  }

  core::ScoringOptions scoring;
  scoring.pool = &pool_;
  scoring.cancel = cancel;
  std::vector<double> scores(pairs.size());
  std::int64_t forwards = 0;
  try {
    forwards = core::score_pairs(context.keyed, pairs, tokenizer_,
                                 model_, cache, scoring, scores);
  } catch (const runtime::CancelledError&) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    throw;
  } catch (...) {
    set_model_health(false);  // the encode or forward failed
    throw;
  }
  // A started forward always finishes; a deadline that fired during the
  // last one still fails the request instead of answering late.
  if (cancel != nullptr && cancel->requested()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    throw runtime::CancelledError();
  }
  if (forwards > 0) set_model_health(true);
  if (slot.empty()) return scores;
  std::vector<double> out;
  out.reserve(slot.size());
  for (const std::size_t k : slot) out.push_back(scores[k]);
  return out;
}

RecoverSummary InferenceEngine::recover(const std::string& bench_name,
                                        runtime::CancellationToken* cancel) {
  recover_requests_.fetch_add(1, std::memory_order_relaxed);
  // Failures before scoring (unknown bench, unparsable .bench file) are
  // request errors, not model failures — they propagate undegraded.
  const BenchContext& context = bench(bench_name);
  const core::PipelineOptions& pipeline = options_.experiment.pipeline;

  util::WallTimer timer;
  RecoverSummary summary;
  summary.num_bits = static_cast<int>(context.bits.size());
  std::vector<int> labels;
  // A checkpoint that never loaded has nothing to forward — go straight
  // to the structural baseline instead of failing the request.
  bool try_model = load_ok_;
  if (!try_model) {
    degraded_recoveries_.fetch_add(1, std::memory_order_relaxed);
    LOG_WARN << "serve: recover(" << bench_name
             << ") model never loaded; answering via the structural baseline";
  }
  if (try_model) {
    try {
      core::ScoringOptions scoring;
      scoring.pool = &pool_;
      scoring.cancel = cancel;
      const core::ScoreMatrix matrix = core::score_all_pairs(
          context.sequences, tokenizer_, pipeline.filter, model_,
          pipeline.use_prediction_cache ? &cache_ : nullptr, scoring);
      labels = core::group_words(matrix, pipeline.grouping);
      summary.filtered_fraction = matrix.filtered_fraction();
      set_model_health(true);
    } catch (const runtime::CancelledError&) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      throw;
    } catch (const std::exception& e) {
      // Model-path failure (injected forward fault, NaN tripwire, broken
      // checkpoint arithmetic): degrade to the structural matching baseline
      // — no model involved — instead of failing the request.
      set_model_health(false);
      degraded_recoveries_.fetch_add(1, std::memory_order_relaxed);
      LOG_WARN << "serve: recover(" << bench_name << ") model path failed ("
               << e.what() << "); answering via the structural baseline";
      try_model = false;
    }
  }
  if (!try_model) {
    structural::MatchingOptions matching;
    matching.backtrace_depth = pipeline.tokenizer.backtrace_depth;
    labels = structural::recover_words_structural(context.netlist,
                                                  matching).labels;
    summary.degraded = true;
  }
  // The fallback runs serially and does not poll the token; honour a
  // deadline that fired while it ran rather than returning late.
  if (cancel != nullptr && cancel->requested()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    throw runtime::CancelledError();
  }

  summary.num_words = metrics::num_clusters(labels);
  summary.cache_hit_rate = cache_.hit_rate();
  summary.seconds = timer.seconds();
  return summary;
}

EngineStats InferenceEngine::stats() const {
  EngineStats stats;
  stats.threads = pool_.size() + 1;
  stats.cache_shards = cache_.num_shards();
  stats.score_requests = score_requests_.load(std::memory_order_relaxed);
  stats.recover_requests =
      recover_requests_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.cache_entries = cache_.size();
  stats.warm_entries = warm_entries_.load(std::memory_order_relaxed);
  stats.warm_rejected = cache_.warm_rejected();
  {
    util::MutexLock lock(benches_mu_);
    stats.benches_loaded = benches_.size();
  }
  stats.uptime_seconds = uptime_.seconds();
  stats.inflight = inflight_.load(std::memory_order_relaxed);
  stats.max_inflight = options_.max_inflight;
  stats.model_healthy = model_healthy_.load(std::memory_order_relaxed);
  stats.shed_requests = shed_requests_.load(std::memory_order_relaxed);
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.degraded_recoveries =
      degraded_recoveries_.load(std::memory_order_relaxed);
  stats.faults_injected = runtime::FaultInjector::global().total_trips();
  stats.kernels = kernels::backend_name(kernels::active_backend());
  return stats;
}

std::size_t InferenceEngine::load_cache(const std::string& path) {
  // The snapshot attaches as a zero-copy warm tier (validate + mmap, no
  // materialization); a missing, corrupt or foreign file warms nothing and
  // serving starts cold.
  const std::size_t loaded = persist::warm_start_cache(&cache_, path);
  warm_entries_.fetch_add(loaded, std::memory_order_relaxed);
  if (loaded > 0) {
    LOG_INFO << "serve: warm-started " << loaded << " cache entries from "
             << path;
  }
  return loaded;
}

void InferenceEngine::save_cache(const std::string& path) const {
  // Chaos site: simulates a failing snapshot write (disk full, EIO).
  // ServeLoop::snapshot_cache catches and logs — losing a snapshot must
  // never take serving down.
  runtime::FaultInjector::global().maybe_throw("snapshot.save");
  persist::save_cache(cache_, path);
}

int InferenceEngine::warm(const std::string& name) {
  return static_cast<int>(bench(name).bits.size());
}

std::vector<std::string> InferenceEngine::bit_names(
    const std::string& name) {
  const BenchContext& context = bench(name);
  std::vector<std::string> names;
  names.reserve(context.bits.size());
  for (const nl::Bit& bit : context.bits) names.push_back(bit.name);
  return names;
}

}  // namespace rebert::serve
