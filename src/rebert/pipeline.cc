#include "rebert/pipeline.h"

#include <functional>

#include "nl/corruption.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/timer.h"

namespace rebert::core {

RecoveryArtifacts recover_words_detailed(const nl::Netlist& netlist,
                                         bert::BertPairClassifier& model,
                                         const PipelineOptions& options) {
  RecoveryArtifacts artifacts;
  RecoveryResult& result = artifacts.result;
  util::WallTimer total;

  const Tokenizer tokenizer(options.tokenizer);
  util::WallTimer phase;
  artifacts.bits = nl::extract_bits(netlist);
  artifacts.sequences = tokenizer.tokenize_bits(netlist);
  result.tokenize_seconds = phase.seconds();
  REBERT_CHECK_MSG(!artifacts.sequences.empty(),
                   "netlist has no sequential elements");

  phase.reset();
  ShardedPredictionCache* cache =
      options.use_prediction_cache ? options.external_cache : nullptr;
  if (cache) cache->bind(scorer_fingerprint(model, options.tokenizer));
  const std::uint64_t hits_before = cache ? cache->hits() : 0;
  const std::uint64_t misses_before = cache ? cache->misses() : 0;
  ScoringOptions scoring;
  scoring.num_threads = options.num_threads;
  artifacts.scores = score_all_pairs(artifacts.sequences, tokenizer,
                                     options.filter, model, cache, scoring);
  result.scoring_seconds = phase.seconds();
  result.filtered_fraction = artifacts.scores.filtered_fraction();
  if (cache) {
    const double hits = static_cast<double>(cache->hits() - hits_before);
    const double lookups =
        hits + static_cast<double>(cache->misses() - misses_before);
    result.cache_hit_rate = lookups > 0.0 ? hits / lookups : 0.0;
  }
  result.sequence_classes = artifacts.scores.num_classes();
  result.scored_class_pairs = artifacts.scores.num_edges();

  phase.reset();
  result.labels = group_words(artifacts.scores, options.grouping);
  result.grouping_seconds = phase.seconds();

  result.num_words = metrics::num_clusters(result.labels);
  result.total_seconds = total.seconds();
  return artifacts;
}

RecoveryResult recover_words(const nl::Netlist& netlist,
                             bert::BertPairClassifier& model,
                             const PipelineOptions& options) {
  return recover_words_detailed(netlist, model, options).result;
}

bert::BertConfig make_model_config(const ExperimentOptions& options) {
  bert::BertConfig config;
  config.vocab_size = vocabulary().size();
  config.hidden = options.model_hidden;
  config.num_layers = options.model_layers;
  config.num_heads = options.model_heads;
  config.intermediate = options.model_hidden * 4;
  config.max_seq_len = options.pipeline.tokenizer.max_seq_len;
  config.tree_code_dim = options.pipeline.tokenizer.tree_code_dim;
  config.validate();
  return config;
}

std::unique_ptr<bert::BertPairClassifier> train_rebert(
    const std::vector<const CircuitData*>& train_circuits,
    const ExperimentOptions& options) {
  DatasetOptions dataset_options = options.dataset;
  dataset_options.tokenizer = options.pipeline.tokenizer;
  const std::vector<bert::LabeledExample> examples =
      build_training_set(train_circuits, dataset_options);
  REBERT_CHECK_MSG(!examples.empty(), "empty training set");
  LOG_INFO << "training ReBERT on " << examples.size() << " pair examples";

  auto model = std::make_unique<bert::BertPairClassifier>(
      make_model_config(options));
  bert::train(*model, examples, options.training);
  return model;
}

EvaluationResult evaluate_rebert(const CircuitData& circuit, double r_index,
                                 bert::BertPairClassifier& model,
                                 const ExperimentOptions& options) {
  nl::CorruptionOptions corrupt_options;
  corrupt_options.r_index = r_index;
  corrupt_options.seed = options.corruption_seed ^
                         std::hash<std::string>{}(circuit.name);
  const nl::Netlist variant =
      r_index == 0.0 ? circuit.netlist
                     : nl::corrupt_netlist(circuit.netlist, corrupt_options);

  EvaluationResult result;
  result.recovery = recover_words(variant, model, options.pipeline);

  const std::vector<nl::Bit> bits = nl::extract_bits(variant);
  const std::vector<int> truth = circuit.words.labels_for(bits);
  result.ari = metrics::adjusted_rand_index(truth, result.recovery.labels);
  return result;
}

}  // namespace rebert::core
