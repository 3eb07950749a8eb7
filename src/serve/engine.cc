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

// The registry always exists: with no manifest the engine behaves exactly
// as a single-model deployment — one entry named "default", loaded from
// model_path (or fresh weights), sharing the persisted cache.
ModelManifest manifest_for(const EngineOptions& options) {
  if (!options.manifest_path.empty())
    return parse_model_manifest(options.manifest_path);
  ModelManifest single;
  single.models.push_back(
      {"default", options.model_path.empty() ? "-" : options.model_path, 0});
  single.default_model = "default";
  return single;
}

}  // namespace

InferenceEngine::InferenceEngine(EngineOptions options)
    : options_(std::move(options)),
      tokenizer_(options_.experiment.pipeline.tokenizer),
      pool_(std::max(
          1, runtime::resolve_thread_count(options_.num_threads) - 1)),
      registry_(manifest_for(options_),
                core::make_model_config(options_.experiment),
                options_.experiment.pipeline.tokenizer, &cache_) {
  if (options_.manifest_path.empty() && options_.model_path.empty()) {
    LOG_WARN << "serve: no --model given; using untrained weights "
                "(scores exercise the runtime, not the paper's accuracy)";
  } else {
    LOG_INFO << "serve: registry holds " << registry_.size() << " model(s), "
             << registry_.unhealthy_count() << " unhealthy";
  }
}

const InferenceEngine::BenchContext& InferenceEngine::bench(
    const std::string& name) {
  util::MutexLock lock(benches_mu_);
  auto it = benches_.find(name);
  if (it != benches_.end()) return *it->second;

  // First use: generate or parse, decompose, tokenize. Loading holds the
  // registry lock — concurrent requests for other benches wait, which is
  // acceptable for a registry that fills once and is then read-only.
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

void InferenceEngine::set_model_health(ModelRegistry::Entry& entry,
                                       bool healthy) {
  model_healthy_.store(healthy, std::memory_order_relaxed);
  entry.healthy.store(healthy, std::memory_order_relaxed);
}

void InferenceEngine::Admission::release() {
  if (engine_ == nullptr) return;
  engine_->inflight_.fetch_sub(1, std::memory_order_relaxed);
  if (!bench_.empty()) engine_->release_bench_slot(bench_);
  engine_ = nullptr;
  bench_.clear();
}

InferenceEngine::Admission InferenceEngine::try_admit(
    const std::string& bench) {
  const int budget = options_.max_inflight;
  Admission admission;
  if (budget < 1) {  // unlimited: keep the gauge, never decline
    inflight_.fetch_add(1, std::memory_order_relaxed);
    admission = Admission(this);
  } else {
    int current = inflight_.load(std::memory_order_relaxed);
    while (true) {
      if (current >= budget) {
        shed_requests_.fetch_add(1, std::memory_order_relaxed);
        return Admission();
      }
      if (inflight_.compare_exchange_weak(current, current + 1,
                                          std::memory_order_relaxed)) {
        admission = Admission(this);
        break;
      }
    }
  }
  // Per-bench budget on top of the global one. Declining here destructs
  // `admission`, which returns the already-taken global slot.
  const int bench_budget = options_.max_inflight_per_bench;
  if (bench_budget >= 1 && !bench.empty()) {
    util::MutexLock lock(bench_slots_mu_);
    int& count = bench_inflight_[bench];
    if (count >= bench_budget) {
      bench_shed_requests_.fetch_add(1, std::memory_order_relaxed);
      shed_requests_.fetch_add(1, std::memory_order_relaxed);
      return Admission();
    }
    ++count;
    admission.bench_ = bench;
  }
  return admission;
}

void InferenceEngine::release_bench_slot(const std::string& bench) {
  util::MutexLock lock(bench_slots_mu_);
  auto it = bench_inflight_.find(bench);
  if (it != bench_inflight_.end() && --it->second <= 0)
    bench_inflight_.erase(it);
}

double InferenceEngine::score(const std::string& bench,
                              const std::string& bit_a,
                              const std::string& bit_b,
                              runtime::CancellationToken* cancel,
                              const std::string& model) {
  return score_batch(bench, {{bit_a, bit_b}}, cancel, model).front();
}

std::vector<double> InferenceEngine::score_batch(
    const std::string& bench_name,
    const std::vector<std::pair<std::string, std::string>>& bit_pairs,
    runtime::CancellationToken* cancel, const std::string& model) {
  score_requests_.fetch_add(bit_pairs.size(), std::memory_order_relaxed);
  const BenchContext& context = bench(bench_name);
  ModelRegistry::Entry& entry =
      registry_.select(model, static_cast<int>(context.bits.size()));
  // An explicitly named entry whose checkpoint never loaded cannot score
  // anything meaningful — that is a request error, not a server fault.
  // (The size rule never picks such entries; see ModelRegistry::select.)
  REBERT_CHECK_MSG(entry.load_ok, "model '" + entry.spec.name +
                                      "' is unhealthy (checkpoint failed "
                                      "to load)");
  entry.requests.fetch_add(bit_pairs.size(), std::memory_order_relaxed);

  // Unknown names are request errors too: resolve them all before scoring.
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(bit_pairs.size());
  for (const auto& [a, b] : bit_pairs)
    pairs.emplace_back(bit_index(context, bench_name, a),
                       bit_index(context, bench_name, b));

  core::ShardedPredictionCache* cache =
      options_.experiment.pipeline.use_prediction_cache ? entry.cache
                                                        : nullptr;
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
                                 *entry.model, cache, scoring, scores);
  } catch (const runtime::CancelledError&) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    throw;
  } catch (...) {
    set_model_health(entry, false);  // the encode or forward failed
    throw;
  }
  // A started forward always finishes; a deadline that fired during the
  // last one still fails the request instead of answering late.
  if (cancel != nullptr && cancel->requested()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    throw runtime::CancelledError();
  }
  if (forwards > 0) set_model_health(entry, true);
  if (slot.empty()) return scores;
  std::vector<double> out;
  out.reserve(slot.size());
  for (const std::size_t k : slot) out.push_back(scores[k]);
  return out;
}

RecoverSummary InferenceEngine::recover(const std::string& bench_name,
                                        runtime::CancellationToken* cancel,
                                        const std::string& model) {
  recover_requests_.fetch_add(1, std::memory_order_relaxed);
  // Failures before scoring (unknown bench, unparsable .bench file,
  // unknown model name) are request errors, not model failures — they
  // propagate undegraded.
  const BenchContext& context = bench(bench_name);
  ModelRegistry::Entry& entry =
      registry_.select(model, static_cast<int>(context.bits.size()));
  entry.requests.fetch_add(1, std::memory_order_relaxed);
  const core::PipelineOptions& pipeline = options_.experiment.pipeline;

  util::WallTimer timer;
  RecoverSummary summary;
  summary.num_bits = static_cast<int>(context.bits.size());
  std::vector<int> labels;
  // An entry whose checkpoint never loaded has nothing to forward — go
  // straight to the structural baseline instead of failing the request.
  bool try_model = entry.load_ok;
  if (!try_model) {
    degraded_recoveries_.fetch_add(1, std::memory_order_relaxed);
    LOG_WARN << "serve: recover(" << bench_name << ") model '"
             << entry.spec.name
             << "' never loaded; answering via the structural baseline";
  }
  if (try_model) {
    try {
      core::ScoringOptions scoring;
      scoring.pool = &pool_;
      scoring.cancel = cancel;
      const core::ScoreMatrix matrix = core::score_all_pairs(
          context.sequences, tokenizer_, pipeline.filter, *entry.model,
          pipeline.use_prediction_cache ? entry.cache : nullptr, scoring);
      labels = core::group_words(matrix, pipeline.grouping);
      summary.filtered_fraction = matrix.filtered_fraction();
      set_model_health(entry, true);
    } catch (const runtime::CancelledError&) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      throw;
    } catch (const std::exception& e) {
      // Model-path failure (injected forward fault, NaN tripwire, broken
      // checkpoint arithmetic): degrade to the structural matching baseline
      // — no model involved — instead of failing the request.
      set_model_health(entry, false);
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
  summary.cache_hit_rate = entry.cache->hit_rate();
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
  stats.models = static_cast<int>(registry_.size());
  stats.unhealthy_models = registry_.unhealthy_count();
  stats.max_inflight_per_bench = options_.max_inflight_per_bench;
  stats.bench_shed_requests =
      bench_shed_requests_.load(std::memory_order_relaxed);
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
