#include "serve/model_registry.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "rebert/scoring.h"
#include "util/check.h"
#include "util/logging.h"

namespace rebert::serve {
namespace {

// `max_bits=<n>` with n >= 1; anything else is a manifest error.
int parse_max_bits(const std::string& token, const std::string& where) {
  const std::string prefix = "max_bits=";
  REBERT_CHECK_MSG(token.rfind(prefix, 0) == 0,
                   where + ": unknown token '" + token + "'");
  const std::string digits = token.substr(prefix.size());
  REBERT_CHECK_MSG(!digits.empty() &&
                       digits.find_first_not_of("0123456789") ==
                           std::string::npos,
                   where + ": bad max_bits '" + token + "'");
  const int value = std::stoi(digits);
  REBERT_CHECK_MSG(value >= 1, where + ": max_bits must be >= 1");
  return value;
}

}  // namespace

ModelManifest parse_model_manifest_text(const std::string& text,
                                        const std::string& origin) {
  ModelManifest manifest;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const std::string where =
        origin + ":" + std::to_string(line_no);
    std::istringstream fields(line);
    std::string verb;
    if (!(fields >> verb) || verb[0] == '#') continue;
    if (verb == "model") {
      ModelSpec spec;
      REBERT_CHECK_MSG(static_cast<bool>(fields >> spec.name >> spec.path),
                       where + ": expected 'model <name> <path> [max_bits=<n>]'");
      std::string extra;
      if (fields >> extra) spec.max_bits = parse_max_bits(extra, where);
      REBERT_CHECK_MSG(!(fields >> extra),
                       where + ": trailing token '" + extra + "'");
      for (const ModelSpec& existing : manifest.models)
        REBERT_CHECK_MSG(existing.name != spec.name,
                         where + ": duplicate model '" + spec.name + "'");
      manifest.models.push_back(std::move(spec));
    } else if (verb == "default") {
      REBERT_CHECK_MSG(static_cast<bool>(fields >> manifest.default_model),
                       where + ": expected 'default <name>'");
    } else {
      REBERT_CHECK_MSG(false, where + ": unknown directive '" + verb + "'");
    }
  }
  REBERT_CHECK_MSG(!manifest.models.empty(),
                   origin + ": manifest declares no models");
  if (manifest.default_model.empty()) {
    manifest.default_model = manifest.models.front().name;
  } else {
    bool known = false;
    for (const ModelSpec& spec : manifest.models)
      known = known || spec.name == manifest.default_model;
    REBERT_CHECK_MSG(known, origin + ": default names unknown model '" +
                                manifest.default_model + "'");
  }
  return manifest;
}

ModelManifest parse_model_manifest(const std::string& path) {
  std::ifstream in(path);
  REBERT_CHECK_MSG(in.good(), "cannot read model manifest: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_model_manifest_text(text.str(), path);
}

ModelRegistry::ModelRegistry(const ModelManifest& manifest,
                             const bert::BertConfig& config,
                             const core::TokenizerOptions& tokenizer,
                             core::ShardedPredictionCache* default_cache) {
  for (std::size_t i = 0; i < manifest.models.size(); ++i) {
    const ModelSpec& spec = manifest.models[i];
    auto entry = std::make_unique<Entry>();
    entry->spec = spec;
    entry->model = std::make_unique<bert::BertPairClassifier>(config);
    if (spec.path != "-") {
      try {
        entry->model->load(spec.path);
      } catch (const std::exception& error) {
        // A bad checkpoint must not stop the daemon from serving the good
        // ones: keep the entry so `health`/`stats` can report it, but
        // never route to it.
        LOG_WARN << "model '" << spec.name << "': failed to load "
                 << spec.path << " (" << error.what()
                 << "); marking unhealthy";
        entry->load_ok = false;
        entry->healthy.store(false, std::memory_order_relaxed);
      }
    }
    if (spec.name == manifest.default_model) {
      default_index_ = entries_.size();
      entry->cache = default_cache;
    } else {
      entry->owned_cache = std::make_unique<core::ShardedPredictionCache>();
      entry->cache = entry->owned_cache.get();
    }
    // Bound before any warm start, so a snapshot of another model, kernel
    // backend or token budget is refused instead of served. (An entry
    // whose checkpoint failed never reads its cache; its weights have no
    // fingerprint.)
    if (entry->load_ok)
      entry->cache->bind(core::scorer_fingerprint(*entry->model, tokenizer));
    entries_.push_back(std::move(entry));
  }
}

ModelRegistry::Entry* ModelRegistry::find(const std::string& name) {
  for (auto& entry : entries_)
    if (entry->spec.name == name) return entry.get();
  return nullptr;
}

ModelRegistry::Entry& ModelRegistry::select(const std::string& name,
                                            int num_bits) {
  if (!name.empty()) {
    Entry* entry = find(name);
    REBERT_CHECK_MSG(entry != nullptr, "unknown model '" + name + "'");
    return *entry;
  }
  // Size rule: tightest healthy bound that still covers the bench; bigger
  // than every bound (or nothing bounded/healthy) falls to the default.
  Entry* best = nullptr;
  int best_bound = std::numeric_limits<int>::max();
  for (auto& entry : entries_) {
    if (entry->spec.max_bits <= 0) continue;  // unbounded: never size-picked
    if (entry->spec.max_bits < num_bits) continue;
    if (!entry->healthy.load(std::memory_order_relaxed)) continue;
    if (entry->spec.max_bits < best_bound) {
      best = entry.get();
      best_bound = entry->spec.max_bits;
    }
  }
  return best != nullptr ? *best : default_entry();
}

int ModelRegistry::unhealthy_count() const {
  int count = 0;
  for (const auto& entry : entries_)
    if (!entry->healthy.load(std::memory_order_relaxed)) ++count;
  return count;
}

}  // namespace rebert::serve
