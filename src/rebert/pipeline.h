// End-to-end ReBERT pipeline (Fig. 1).
//
// Bundles tokenizer, Jaccard filter, trained model, and word generation
// into the one call a user wants: netlist in, word labels out. Also hosts
// the experiment driver used by the Table II/III benches: train a model
// under leave-one-out CV and evaluate ARI per benchmark per R-Index.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bert/model.h"
#include "bert/trainer.h"
#include "metrics/clustering.h"
#include "rebert/dataset.h"
#include "rebert/filter.h"
#include "rebert/grouping.h"
#include "rebert/scoring.h"
#include "rebert/tokenizer.h"

namespace rebert::core {

struct PipelineOptions {
  TokenizerOptions tokenizer;
  FilterOptions filter;
  GroupingOptions grouping;
  /// Consult `external_cache` (false scores every class pair through the
  /// model even when a cache is set, e.g. to measure cold scoring).
  bool use_prediction_cache = true;
  /// Caller-owned cache reused across calls (e.g. warm-started from an
  /// RBPC snapshot via persist/cache_io.h). Null = no cache: within one
  /// call the class scorer asks each key once, so memoization only pays
  /// across calls. Every call binds it to the model's fingerprint, which
  /// drops scores of another model or kernel backend; hits are lossless,
  /// so recovered labels are identical warm or cold.
  ShardedPredictionCache* external_cache = nullptr;
  /// Worker threads for the pairwise-scoring hot path (see
  /// core::score_all_pairs): 1 = serial, 0 = REBERT_THREADS / hardware,
  /// n > 1 = exactly n. The recovered labels are bit-identical at any
  /// value — threading only changes wall-clock time.
  int num_threads = 1;
};

struct RecoveryResult {
  std::vector<int> labels;        // predicted word label per bit
  int num_words = 0;
  double filtered_fraction = 0.0; // Jaccard-filtered bit pairs
  double cache_hit_rate = 0.0;    // this call's lookups; 0 with no cache
  int sequence_classes = 0;       // distinct (token ids, tree codes)
  std::size_t scored_class_pairs = 0;  // ordered class pairs scored
  double tokenize_seconds = 0.0;
  double scoring_seconds = 0.0;
  double grouping_seconds = 0.0;
  double total_seconds = 0.0;
};

/// ReBERT inference: recover word labels for every bit of `netlist` using a
/// trained pair classifier.
RecoveryResult recover_words(const nl::Netlist& netlist,
                             bert::BertPairClassifier& model,
                             const PipelineOptions& options);

/// Full artifacts of one recovery: the bit universe, tokenized sequences,
/// the score matrix (what report.h consumes), and the summary result.
struct RecoveryArtifacts {
  std::vector<nl::Bit> bits;
  std::vector<BitSequence> sequences;
  ScoreMatrix scores{1};
  RecoveryResult result;
};
RecoveryArtifacts recover_words_detailed(const nl::Netlist& netlist,
                                         bert::BertPairClassifier& model,
                                         const PipelineOptions& options);

/// Configuration of one full experiment run (Table II / Table III).
struct ExperimentOptions {
  PipelineOptions pipeline;
  DatasetOptions dataset;
  bert::TrainOptions training;
  int model_hidden = 64;        // eval profile; see bert::eval_config
  int model_layers = 2;
  int model_heads = 4;
  std::uint64_t corruption_seed = 77;  // test-time corruption stream
};

/// Builds the BertConfig implied by ExperimentOptions (vocab and sequence
/// length derived from the tokenizer settings).
bert::BertConfig make_model_config(const ExperimentOptions& options);

/// Train a ReBERT model on the given circuits (the LOO training half).
std::unique_ptr<bert::BertPairClassifier> train_rebert(
    const std::vector<const CircuitData*>& train_circuits,
    const ExperimentOptions& options);

/// Evaluate a trained model on one circuit at one R-Index: corrupt, recover
/// words, return ARI against ground truth (plus the runtime breakdown).
struct EvaluationResult {
  double ari = 0.0;
  RecoveryResult recovery;
};
EvaluationResult evaluate_rebert(const CircuitData& circuit, double r_index,
                                 bert::BertPairClassifier& model,
                                 const ExperimentOptions& options);

}  // namespace rebert::core
