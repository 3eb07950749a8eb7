// InferenceEngine — the long-lived core of the serving runtime.
//
// Owns one immutable BertPairClassifier (const after construction; the
// inference path is compiler-enforced read-only, see bert/model.h), a
// runtime::ThreadPool, a sharded thread-safe PredictionCache shared by all
// requests, and a lazily-populated map of benchmark contexts (tokenized
// bit universes). score and recover ask the model through one routine,
// core::score_pairs: score hands it the request's bit pairs, recover
// (through core::score_all_pairs) the candidate class pairs. It scores
// pairs in fixed-size chunks on the engine pool with the request thread
// taking part, so a small score request runs on the request thread alone.
//
// Thread safety: every public method may be called from any number of
// threads concurrently (one per connection in the socket server). The
// model and tokenizer are read-only, the cache is internally sharded,
// bench loading is serialized behind a mutex, and request counters are
// relaxed atomics.
//
// Robustness (see DESIGN.md "Overload-safe serving"):
//   * Admission control — try_admit() hands out at most max_inflight
//     concurrent request slots; callers answer `err overloaded
//     retry_after_ms=<n>` when it declines instead of queueing unboundedly.
//   * Deadlines — score/recover take an optional CancellationToken; arm it
//     with set_deadline_after_ms and the work stops cooperatively between
//     scoring chunks, surfacing runtime::CancelledError.
//   * Graceful degradation — when the model path fails (injected fault,
//     NaN tripwire) recover() falls back to the structural matching
//     baseline (Meade et al., ISCAS'16), which needs no model, and tags the
//     summary `degraded`. A checkpoint that failed to load degrades the
//     same way without attempting a forward, and leaves the engine
//     unhealthy for its lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bert/model.h"
#include "nl/words.h"
#include "rebert/pipeline.h"
#include "rebert/prediction_cache.h"
#include "rebert/scoring.h"
#include "rebert/tokenizer.h"
#include "runtime/latch.h"
#include "runtime/thread_pool.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace rebert::serve {

struct EngineOptions {
  /// Worker threads in the engine pool: 0 = REBERT_THREADS / hardware.
  int num_threads = 0;
  /// circuitgen scale for generated benchmark names ("b03".."b18").
  double suite_scale = 0.25;
  /// Weight file produced by `rebert_cli train --save`. Empty = fresh
  /// (untrained) weights — scores are meaningless but the runtime paths
  /// are fully exercised, which is what the serve tests and benches need.
  /// A file that fails to load leaves the engine serving degraded (see
  /// model_healthy()) rather than failing construction.
  std::string model_path;
  /// Model dimensions and pipeline knobs (tokenizer/filter/grouping). The
  /// model config is derived with core::make_model_config, so it must
  /// match the checkpoint when model_path is set.
  core::ExperimentOptions experiment;
  /// Admission budget: score/recover requests concurrently in flight
  /// before try_admit() starts shedding. 0 = unlimited (no shedding).
  int max_inflight = 0;
  /// Advisory client backoff carried by shed responses
  /// (`err overloaded retry_after_ms=<n>`).
  int retry_after_ms = 50;
};

struct EngineStats {
  int threads = 0;
  int cache_shards = 0;
  std::uint64_t score_requests = 0;
  std::uint64_t recover_requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t cache_entries = 0;
  std::size_t warm_entries = 0;     // entries imported by load_cache()
  std::uint64_t warm_rejected = 0;  // snapshots load_cache() refused
  std::size_t benches_loaded = 0;
  double uptime_seconds = 0.0;
  // Robustness gauges and counters (see class comment).
  int inflight = 0;            // admitted requests right now
  int max_inflight = 0;        // 0 = unlimited
  bool model_healthy = true;   // checkpoint loaded, last forward succeeded
  std::uint64_t shed_requests = 0;       // admission declines (all causes)
  std::uint64_t deadline_exceeded = 0;   // requests cancelled by deadline
  std::uint64_t degraded_recoveries = 0; // recovers answered structurally
  std::uint64_t faults_injected = 0;     // trips of the global FaultInjector
  // Active compute-kernel backend ("scalar" / "avx2"); see kernels/backend.h.
  std::string kernels;
};

struct RecoverSummary {
  int num_bits = 0;
  int num_words = 0;
  double filtered_fraction = 0.0;
  double cache_hit_rate = 0.0;  // engine-lifetime rate at completion
  double seconds = 0.0;
  /// True when the model path failed and the words came from the
  /// structural baseline instead (response tag `degraded=structural`).
  bool degraded = false;
};

class InferenceEngine {
 public:
  /// RAII admission slot. Falsy when the budget was exhausted and the
  /// request must be shed; releases its slot on destruction otherwise.
  class Admission {
   public:
    Admission() = default;
    explicit Admission(InferenceEngine* engine) : engine_(engine) {}
    Admission(Admission&& other) noexcept
        : engine_(std::exchange(other.engine_, nullptr)) {}
    Admission& operator=(Admission&& other) noexcept {
      if (this != &other) {
        release();
        engine_ = std::exchange(other.engine_, nullptr);
      }
      return *this;
    }
    Admission(const Admission&) = delete;
    Admission& operator=(const Admission&) = delete;
    ~Admission() { release(); }
    explicit operator bool() const { return engine_ != nullptr; }

   private:
    void release();
    InferenceEngine* engine_ = nullptr;
  };

  explicit InferenceEngine(EngineOptions options);

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Reserve an in-flight slot for one score/recover request. Falsy when
  /// max_inflight slots are taken — the caller must answer
  /// `err overloaded` (the decline is counted in shed_requests). With
  /// max_inflight == 0 admission always succeeds but the in-flight gauge
  /// still tracks.
  Admission try_admit();

  /// The advisory backoff to attach to shed responses.
  int retry_after_ms() const { return options_.retry_after_ms; }

  /// Account a request shed outside the engine (e.g. a connection turned
  /// away at the listener's connection cap) so stats() aggregates all
  /// shedding in one counter.
  void record_shed() {
    shed_requests_.fetch_add(1, std::memory_order_relaxed);
  }

  /// P(same word) for two bits (DFF names) of a benchmark. Throws
  /// util::CheckError on unknown bench or bit names, or when the
  /// checkpoint failed to load. When `cancel` fires (deadline or explicit
  /// stop) throws runtime::CancelledError.
  double score(const std::string& bench, const std::string& bit_a,
               const std::string& bit_b,
               runtime::CancellationToken* cancel = nullptr);

  /// Batched form: scores every (bitA, bitB) name pair against one bench
  /// through core::score_pairs. Result order matches input order. With
  /// the prediction cache on, pairs sharing a cache key are scored once
  /// per request. `cancel` is polled between scoring chunks, never
  /// mid-forward, and once more before returning. A failed encode or
  /// forward marks the model unhealthy; a request that forwarded marks it
  /// healthy again.
  std::vector<double> score_batch(
      const std::string& bench,
      const std::vector<std::pair<std::string, std::string>>& bit_pairs,
      runtime::CancellationToken* cancel = nullptr);

  /// Full word recovery over a benchmark, parallelized on the engine pool.
  /// A model-path failure — or a checkpoint that never loaded — degrades
  /// to the structural baseline (summary tagged `degraded`); a fired
  /// `cancel` throws runtime::CancelledError.
  RecoverSummary recover(const std::string& bench,
                         runtime::CancellationToken* cancel = nullptr);

  /// False after a model forward failed (until one succeeds again), and
  /// for good when the checkpoint failed to load — what the `health` verb
  /// reports as `degraded`.
  bool model_healthy() const {
    return model_healthy_.load(std::memory_order_relaxed);
  }

  EngineStats stats() const;

  /// Warm-start the prediction cache from an RBPC snapshot
  /// (persist/mmap_snapshot.h), validated and mapped as a zero-copy warm
  /// tier — O(1) in the record count, scores served off the mapping.
  /// Missing, truncated, corrupt or older-version files, and snapshots of
  /// another model or kernel backend, warm nothing and never throw — the
  /// engine starts cold with a warning, and stats() counts the refusal as
  /// warm_rejected. Returns the entries made available (also reported by
  /// stats() as warm_entries).
  std::size_t load_cache(const std::string& path);

  /// Atomically snapshot the prediction cache to `path` in the
  /// mmap-able RBPC layout (crash mid-save leaves any previous snapshot
  /// intact; a process still mapping the replaced file keeps its old inode).
  /// Throws util::CheckError with errno detail on I/O failure. Safe to call
  /// while requests are in flight — the cache is read under its shard locks.
  void save_cache(const std::string& path) const;

  /// Pre-load a bench context (useful before latency measurements so the
  /// first timed request does not pay tokenization). Returns its bit count.
  int warm(const std::string& bench);

  /// Bit (DFF) names of a bench in extract_bits order — what a load
  /// generator needs to fabricate valid score requests.
  std::vector<std::string> bit_names(const std::string& bench);

  int threads() const { return pool_.size() + 1; }  // pool + calling thread
  runtime::ThreadPool& pool() { return pool_; }
  const EngineOptions& options() const { return options_; }

 private:
  struct BenchContext {
    nl::Netlist netlist;  // retained for the structural fallback
    std::vector<nl::Bit> bits;
    std::vector<core::BitSequence> sequences;
    std::map<std::string, int> index_of;  // bit name -> sequence index
    std::vector<core::KeyedSequence> keyed;  // per bit: into `sequences`
  };

  /// Resolve a bench name to its context, loading it on first use.
  /// The returned reference stays valid for the engine's lifetime (contexts
  /// are heap-allocated and never erased, so the pointee is safely read
  /// outside benches_mu_ once returned).
  const BenchContext& bench(const std::string& name) EXCLUDES(benches_mu_);

  int bit_index(const BenchContext& context, const std::string& bench,
                const std::string& bit) const;

  void set_model_health(bool healthy) {
    model_healthy_.store(healthy, std::memory_order_relaxed);
  }

  EngineOptions options_;
  core::Tokenizer tokenizer_;
  // The request thread participates in every parallel_for it issues, so
  // the pool holds one fewer worker than the resolved scoring width.
  runtime::ThreadPool pool_;
  bert::BertPairClassifier model_;
  // False for good when model_path failed to load: nothing is forwarded,
  // and cache_ is never bound or read.
  bool load_ok_ = true;
  core::ShardedPredictionCache cache_;

  mutable util::Mutex benches_mu_{"engine.benches"};
  std::map<std::string, std::unique_ptr<BenchContext>> benches_
      GUARDED_BY(benches_mu_);

  std::atomic<std::uint64_t> score_requests_{0};
  std::atomic<std::uint64_t> recover_requests_{0};
  std::atomic<std::size_t> warm_entries_{0};
  std::atomic<int> inflight_{0};
  std::atomic<bool> model_healthy_{true};
  std::atomic<std::uint64_t> shed_requests_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> degraded_recoveries_{0};
  util::WallTimer uptime_;
};

}  // namespace rebert::serve
