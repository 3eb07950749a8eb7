// Combined input embedding (§II-B).
//
// ReBERT sums three embeddings per token:
//   1. word embedding      — learned table over the gate-token vocabulary,
//   2. sequential positional embedding — learned table over positions,
//   3. tree-based positional embedding — the token's position in the bit's
//      binary tree, encoded as the root-to-node path code of §II-B-3
//      (root = all zeros; each child right-shifts the parent code by two and
//      prepends '10' for a left child, '01' for a right child), then
//      projected into the hidden space by a learned linear map.
// The sum is layer-normalized and dropout is applied, as in standard BERT.
#pragma once

#include <vector>

#include "bert/config.h"
#include "tensor/layers.h"

namespace rebert::bert {

/// One tokenized pair sequence ready for the model. Produced by
/// rebert::TokenEncoder; defined here so the model layer has no dependency
/// on the netlist pipeline.
struct EncodedSequence {
  std::vector<int> token_ids;       // length n, values < vocab_size
  std::vector<int> position_ids;    // length n, values < max_seq_len
  tensor::Tensor tree_codes;        // [n, tree_code_dim], entries in {0,1}
  /// Number of real (non-[PAD]) leading tokens; 0 means "no padding".
  /// Attention masks positions >= valid_len at every layer.
  int valid_len = 0;

  int length() const { return static_cast<int>(token_ids.size()); }
};

/// Entry-point checks every forward (training and inference) runs on its
/// input: non-empty, ids and positions in range, tree codes [n,
/// tree_code_dim] when the tree embedding is on, valid_len in [0, n].
/// Throws util::CheckError.
void check_input(const BertConfig& config, const EncodedSequence& input);

class BertEmbeddings {
 public:
  BertEmbeddings() = default;
  BertEmbeddings(const BertConfig& config, util::Rng& rng);

  struct Cache {
    tensor::Embedding::Cache word;
    tensor::Embedding::Cache position;
    tensor::Linear::Cache tree;
    tensor::LayerNorm::Cache norm;
    tensor::Dropout::Cache dropout;
    bool used_tree = false;
  };

  /// Training forward -> [n, hidden]; fills `cache` for backward and draws
  /// dropout masks from `rng`.
  tensor::Tensor forward(const EncodedSequence& input, util::Rng& rng,
                         Cache& cache) const;

  /// Accumulates all embedding gradients (no input gradient: ids are
  /// discrete and tree codes are fixed features).
  void backward(const tensor::Tensor& dy, const Cache& cache);

  std::vector<tensor::Parameter*> parameters();

 private:
  friend class BertPairClassifier;  // reads the tables for inference

  BertConfig config_;
  tensor::Embedding word_;
  tensor::Embedding position_;
  tensor::Linear tree_projection_;
  tensor::LayerNorm norm_;
  tensor::Dropout dropout_{0.0f};
};

}  // namespace rebert::bert
