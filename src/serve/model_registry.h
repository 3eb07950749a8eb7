// ModelRegistry — several named model snapshots behind one engine.
//
// ReBERT inference cost scales with netlist size (PAPER.md Table III), so
// a deployment serving mixed traffic wants several checkpoints — a small
// fast model for small benches, a deep one for the big ones — behind one
// protocol endpoint. The registry holds them and picks one per request:
//
//   * explicit:  a `model=<name>` protocol field names an entry directly
//                (unknown names are request errors);
//   * size rule: with no field, the entry with the smallest max_bits that
//                still covers the bench's bit count wins; benches bigger
//                than every bound fall through to the default entry.
//
// Entries are loaded from a manifest file (one model per line):
//
//   # comment lines and blanks are skipped
//   model <name> <weights-path> [max_bits=<n>]
//   default <name>
//
// A weights-path of "-" means fresh (untrained) weights — what the tests
// and benches use to exercise the routing without training checkpoints.
// An entry whose checkpoint fails to load is kept but marked unhealthy: a
// bad snapshot must not stop the daemon from serving the good ones.
// Unhealthy entries are skipped by the size rule; an explicitly named
// unhealthy entry makes `recover` fall back to the structural baseline
// (tagged degraded) and `score` answer an error.
//
// Each non-default entry owns a private prediction cache: scores are a
// function of (pair, model), so sharing the key space across models would
// serve one model's probabilities for another's. The default entry shares
// the engine's persisted cache, which keeps single-model deployments —
// and their warm-start snapshots — exactly as before. Every entry's cache
// is bound to its model's fingerprint at construction, so a snapshot
// written by another model or kernel backend starts cold.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bert/config.h"
#include "bert/model.h"
#include "rebert/prediction_cache.h"
#include "rebert/tokenizer.h"

namespace rebert::serve {

struct ModelSpec {
  std::string name;
  std::string path;   // checkpoint file; "-" = fresh untrained weights
  int max_bits = 0;   // size-rule bound; 0 = unbounded (never size-picked)
};

struct ModelManifest {
  std::vector<ModelSpec> models;
  std::string default_model;  // empty = first listed
};

/// Parse the manifest grammar from a string (`origin` labels errors).
/// Throws util::CheckError on malformed lines, duplicate names, or an
/// unknown default.
ModelManifest parse_model_manifest_text(const std::string& text,
                                        const std::string& origin);

/// Parse a manifest file. Throws util::CheckError when the file cannot be
/// read or fails parse_model_manifest_text.
ModelManifest parse_model_manifest(const std::string& path);

class ModelRegistry {
 public:
  struct Entry {
    ModelSpec spec;
    std::unique_ptr<bert::BertPairClassifier> model;
    /// Private cache for non-default entries; null for the default entry,
    /// which shares the engine's persisted cache.
    std::unique_ptr<core::ShardedPredictionCache> owned_cache;
    core::ShardedPredictionCache* cache = nullptr;
    /// False forever when the checkpoint failed to load — the one failure
    /// that cannot heal without a restart. Explicitly naming such an entry
    /// is a request error for `score` and a straight structural fallback
    /// for `recover`.
    bool load_ok = true;
    /// False after the checkpoint failed to load or the last forward with
    /// this model failed; healed by the next successful forward.
    std::atomic<bool> healthy{true};
    std::atomic<std::uint64_t> requests{0};
  };

  /// Build one entry per manifest model, all with the same architecture
  /// `config` (a manifest mixing architectures would need per-entry
  /// configs; checkpoints of the wrong shape fail to load and mark the
  /// entry unhealthy instead). The default entry's cache is
  /// `default_cache`; every other entry gets its own. Each entry's cache
  /// is bound to core::scorer_fingerprint of its model and `tokenizer`.
  ModelRegistry(const ModelManifest& manifest, const bert::BertConfig& config,
                const core::TokenizerOptions& tokenizer,
                core::ShardedPredictionCache* default_cache);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  Entry& default_entry() { return *entries_[default_index_]; }

  /// Entry by name, or null when unknown.
  Entry* find(const std::string& name);

  /// The entry serving a request: `name` when given (throws
  /// util::CheckError on an unknown name — a request error, not a server
  /// fault), otherwise the size rule over `num_bits`.
  Entry& select(const std::string& name, int num_bits);

  std::size_t size() const { return entries_.size(); }
  int unhealthy_count() const;
  const std::vector<std::unique_ptr<Entry>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::unique_ptr<Entry>> entries_;
  std::size_t default_index_ = 0;
};

}  // namespace rebert::serve
