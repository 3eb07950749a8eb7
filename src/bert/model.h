// BertPairClassifier: the full ReBERT model (Fig. 1 + Fig. 4).
//
// embeddings -> N encoder layers -> pooler (first token, linear + tanh) ->
// classifier head (2 classes: "same word" / "different word"). The
// probability of class 1 is the pairwise score used by the word-generation
// stage.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bert/embedding.h"
#include "bert/encoder_layer.h"

namespace rebert::bert {

/// Cold-path static check of the whole model graph: verifies shape
/// compatibility end-to-end (embedding -> attention heads -> FFN -> pooler
/// -> classifier) and every parameter's shape against the configuration.
/// Run once at model build time by the BertPairClassifier constructor;
/// throws util::CheckError listing *all* inconsistencies. This replaces
/// per-forward-call shape checking on the hot path (see tensor/graphcheck.h).
void check_model_graph(const BertConfig& config,
                       const std::vector<tensor::Parameter*>& parameters);

class BertPairClassifier {
 public:
  explicit BertPairClassifier(const BertConfig& config);

  // parameters() hands out pointers into the member layers; copying or
  // moving would leave them dangling.
  BertPairClassifier(const BertPairClassifier&) = delete;
  BertPairClassifier& operator=(const BertPairClassifier&) = delete;

  const BertConfig& config() const { return config_; }

  /// Probability that the pair belongs to the same word (class 1).
  ///
  /// Runs the inference forward: one pass over `input` that keeps every
  /// temporary in the per-thread scratch arena and reads the weights the
  /// constructor, load() or pack_weights() packed. Scores are bitwise
  /// equal to the training forward's with dropout off, per backend.
  /// Throws util::CheckError if the weights may have changed since the
  /// last pack (see parameters()), so a score always comes from the
  /// weights the model holds now.
  ///
  /// Thread safety: reads only, so any number of threads may score pairs
  /// against one model concurrently. Training methods, parameters() and
  /// pack_weights() are NOT concurrency-safe and must not overlap with
  /// inference.
  double predict_same_word_probability(const EncodedSequence& input) const;

  /// Training-mode forward (dropout on) + backward for one example.
  /// Returns the loss; accumulates gradients on all parameters.
  double train_step_accumulate(const EncodedSequence& input, int label);

  /// Cross-entropy of the inference logits; no gradients.
  double eval_loss(const EncodedSequence& input, int label) const;

  /// All trainable parameters in a stable order, for mutation. Marks the
  /// packed inference weights stale: inference throws until
  /// pack_weights() runs again.
  const std::vector<tensor::Parameter*>& parameters();
  /// The same parameters, read-only; leaves the pack valid.
  std::vector<const tensor::Parameter*> parameters() const;

  std::int64_t num_parameters() const;

  void save(const std::string& path) const;
  /// Loads every parameter by name, then re-packs the inference weights.
  void load(const std::string& path);

  /// Packs the current parameter values into the inference layout: Q/K/V
  /// fused into one [H, 3H] matrix, every projection in kernels::pack_b
  /// panels. Run after changing weights through parameters() — the
  /// trainer does so after every optimizer step.
  void pack_weights();

  /// Identity of the scores this model computes, for stored scores to be
  /// checked against (RBPC snapshots, prediction caches): FNV-1a over the
  /// config fields inference reads and the weight values, digested once
  /// per pack_weights(), then the active kernel backend's name — scores
  /// are bit-identical per backend only. Equal weights give equal
  /// fingerprints in any process.
  /// Throws util::CheckError when the weights are stale, like inference.
  std::uint64_t fingerprint() const;

  /// RNG used for dropout; exposed so training runs are reproducible.
  util::Rng& dropout_rng() { return dropout_rng_; }

 private:
  struct ForwardCache;
  struct PackedWeights;  // inference.cc
  struct PackedWeightsDeleter {
    void operator()(const PackedWeights* packed) const;
  };

  /// Training forward: logits [1, num_classes], dropout drawn from
  /// dropout_rng_, everything backward needs kept in `cache`.
  tensor::Tensor training_forward(const EncodedSequence& input,
                                  ForwardCache& cache);
  void backward(const tensor::Tensor& d_logits, const ForwardCache& cache);
  /// Inference forward: logits [1, num_classes] (inference.cc).
  tensor::Tensor inference_logits(const EncodedSequence& input) const;

  BertConfig config_;
  util::Rng init_rng_;
  util::Rng dropout_rng_;
  BertEmbeddings embeddings_;
  std::vector<EncoderLayer> layers_;
  tensor::Linear pooler_;
  tensor::Linear classifier_;
  std::vector<tensor::Parameter*> parameter_list_;

  std::unique_ptr<const PackedWeights, PackedWeightsDeleter> packed_;
  /// Bumped by non-const parameters(); packed_generation_ records the
  /// value pack_weights() packed, and inference requires the two equal.
  std::uint64_t weights_generation_ = 0;
  std::uint64_t packed_generation_ = 0;
  /// Config and weight digest of the last pack; fingerprint() adds the
  /// backend.
  std::uint64_t packed_digest_ = 0;
};

}  // namespace rebert::bert
