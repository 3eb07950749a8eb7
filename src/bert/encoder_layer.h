// One BERT encoder layer (§II-C):
//   attention -> dropout -> Add & Norm -> FFN(GELU) -> dropout -> Add & Norm.
#pragma once

#include "bert/attention.h"
#include "bert/config.h"
#include "tensor/layers.h"

namespace rebert::bert {

class EncoderLayer {
 public:
  EncoderLayer() = default;
  EncoderLayer(const std::string& name, const BertConfig& config,
               util::Rng& rng);

  struct Cache {
    MultiHeadSelfAttention::Cache attention;
    tensor::Dropout::Cache attention_dropout;
    tensor::LayerNorm::Cache attention_norm;
    tensor::Linear::Cache intermediate;
    tensor::Tensor intermediate_pre_act;  // FFN pre-GELU activations
    tensor::Linear::Cache ffn_output;
    tensor::Dropout::Cache ffn_dropout;
    tensor::LayerNorm::Cache ffn_norm;
  };

  /// Training forward; fills `cache` for backward and draws dropout
  /// masks from `rng`. `valid_len` > 0 masks trailing [PAD] positions in
  /// the attention sublayer (see MultiHeadSelfAttention::forward).
  tensor::Tensor forward(const tensor::Tensor& x, util::Rng& rng,
                         Cache& cache, int valid_len = 0) const;
  tensor::Tensor backward(const tensor::Tensor& dy, const Cache& cache);

  std::vector<tensor::Parameter*> parameters();

 private:
  friend class BertPairClassifier;  // packs the weights for inference

  MultiHeadSelfAttention attention_;
  tensor::LayerNorm attention_norm_;
  tensor::Linear intermediate_;  // H -> intermediate ("BERT Intermediate")
  tensor::Linear ffn_output_;    // intermediate -> H ("BERT Output")
  tensor::LayerNorm ffn_norm_;
  tensor::Dropout dropout_{0.0f};
};

}  // namespace rebert::bert
