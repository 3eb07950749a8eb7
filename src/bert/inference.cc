// The inference forward of BertPairClassifier, the weight packing it
// reads and the fingerprint of the scores it computes.
//
// Inference has one path: inference_logits() below. It runs the same
// kernels in the same per-element order as the training forward with
// dropout off (so scores are bitwise equal to it per backend), but keeps
// nothing for backward: every temporary lives in the per-thread scratch
// arena, and the weights come pre-packed in kernels::pack_b panels
// instead of being repacked on every GEMM call. Q, K and V share one
// [H, 3H] matrix, so one GEMM projects all three.
//
// The classifier head reads only the final hidden state of [CLS] (row
// 0), so the last layer runs past its QKV projection on that row alone:
// row 0's attention over all n keys and values, the output projection,
// both Add & Norms and the FFN. This stays bitwise equal to the training
// forward's row 0 because every kernel is row-independent: each GEMM
// element is one fixed-order reduction over its own A row, softmax and
// LayerNorm work per row, GELU per element, and the residual axpy adds
// with alpha 1, which rounds the same in a vector lane or a scalar tail.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>

#include "bert/model.h"
#include "kernels/aligned.h"
#include "kernels/arena.h"
#include "kernels/backend.h"
#include "kernels/kernels.h"
#include "persist/mmap_snapshot.h"
#include "util/check.h"

namespace rebert::bert {

using tensor::Tensor;

struct BertPairClassifier::PackedWeights {
  /// y = x W + b with W in pack_b panels; the operation order of
  /// tensor::Linear::forward.
  struct Linear {
    int in = 0;
    int out = 0;
    kernels::AlignedFloatVector weight;
    kernels::AlignedFloatVector bias;

    /// Packs Linears that read the same input as one, their output
    /// columns side by side in argument order.
    static Linear pack(std::initializer_list<const tensor::Linear*> parts);

    void apply(const float* x, int rows, float* y) const {
      kernels::gemm_packed(x, weight.data(), y, rows, in, out);
      kernels::add_row_bias(y, bias.data(), rows, out);
    }
  };
  struct Layer {
    Linear qkv;  // query | key | value columns
    Linear attention_output;
    Linear intermediate;
    Linear ffn_output;
  };

  Linear tree_projection;
  std::vector<Layer> layers;
  Linear pooler;
  Linear classifier;
};

BertPairClassifier::PackedWeights::Linear
BertPairClassifier::PackedWeights::Linear::pack(
    std::initializer_list<const tensor::Linear*> parts) {
  Linear packed;
  packed.in = (*parts.begin())->in_features();
  for (const tensor::Linear* part : parts)
    packed.out += part->out_features();
  std::vector<float> weight(static_cast<std::size_t>(packed.in) *
                            packed.out);
  packed.bias.reserve(static_cast<std::size_t>(packed.out));
  int c0 = 0;
  for (const tensor::Linear* part : parts) {
    const int cols = part->out_features();
    const float* w = part->weight.value.data();
    for (int r = 0; r < packed.in; ++r)
      std::copy(w + static_cast<std::size_t>(r) * cols,
                w + static_cast<std::size_t>(r + 1) * cols,
                weight.data() + static_cast<std::size_t>(r) * packed.out + c0);
    const float* b = part->bias.value.data();
    packed.bias.insert(packed.bias.end(), b, b + cols);
    c0 += cols;
  }
  packed.weight.resize(kernels::packed_b_floats(packed.in, packed.out));
  kernels::pack_b(weight.data(), packed.in, packed.out, packed.weight.data());
  return packed;
}

namespace {

/// Every BertConfig field inference reads; seed and dropout only shape
/// training, so a checkpoint loaded into any seed scores identically.
std::uint64_t config_digest(const BertConfig& config) {
  const std::uint64_t fields[] = {
      static_cast<std::uint64_t>(config.vocab_size),
      static_cast<std::uint64_t>(config.hidden),
      static_cast<std::uint64_t>(config.num_layers),
      static_cast<std::uint64_t>(config.num_heads),
      static_cast<std::uint64_t>(config.intermediate),
      static_cast<std::uint64_t>(config.max_seq_len),
      static_cast<std::uint64_t>(config.tree_code_dim),
      static_cast<std::uint64_t>(config.num_classes),
      config.use_word_embedding,
      config.use_position_embedding,
      config.use_tree_embedding};
  return persist::fnv1a_words(fields, sizeof(fields));
}

void layer_norm(const tensor::LayerNorm& norm, const float* x, int rows,
                int cols, float* y) {
  kernels::layer_norm(x, norm.gamma.value.data(), norm.beta.value.data(),
                      norm.eps, rows, cols, y, nullptr, nullptr);
}

}  // namespace

void BertPairClassifier::PackedWeightsDeleter::operator()(
    const PackedWeights* packed) const {
  delete packed;
}

void BertPairClassifier::pack_weights() {
  const auto pack = &PackedWeights::Linear::pack;
  auto packed = std::make_unique<PackedWeights>();
  packed->tree_projection = pack({&embeddings_.tree_projection_});
  for (const EncoderLayer& layer : layers_) {
    const MultiHeadSelfAttention& att = layer.attention_;
    packed->layers.push_back({pack({&att.query_, &att.key_, &att.value_}),
                              pack({&att.output_}),
                              pack({&layer.intermediate_}),
                              pack({&layer.ffn_output_})});
  }
  packed->pooler = pack({&pooler_});
  packed->classifier = pack({&classifier_});
  packed_.reset(packed.release());
  packed_generation_ = weights_generation_;
  // Digested once per pack, so fingerprint() only folds in the backend.
  std::uint64_t digest = config_digest(config_);
  for (const tensor::Parameter* p : parameter_list_)
    digest = persist::fnv1a_words(
        p->value.data(), static_cast<std::size_t>(p->value.numel()) *
                             sizeof(float), digest);
  packed_digest_ = digest;
}

std::uint64_t BertPairClassifier::fingerprint() const {
  REBERT_CHECK_MSG(packed_generation_ == weights_generation_,
                   "model fingerprint is stale: parameters were handed out "
                   "for mutation after the last pack_weights()");
  const char* backend = kernels::backend_name(kernels::active_backend());
  return util::fnv1a_update(packed_digest_, backend,
                               std::strlen(backend));
}

Tensor BertPairClassifier::inference_logits(
    const EncodedSequence& input) const {
  REBERT_CHECK_MSG(packed_generation_ == weights_generation_,
                   "inference weights are stale: parameters were handed out "
                   "for mutation after the last pack_weights()");
  check_input(config_, input);
  const PackedWeights& packed = *packed_;
  const int n = input.length();
  const int hidden = config_.hidden;
  const int inter = config_.intermediate;
  const std::size_t nh = static_cast<std::size_t>(n) * hidden;

  kernels::ArenaScope scope;
  float* x = scope.floats(nh);  // the hidden state between layers

  // Embeddings, summed from zero in the training forward's order: word,
  // position, then the projected tree code.
  {
    kernels::ArenaScope layer_scope;
    float* sum = layer_scope.floats(nh);
    std::fill(sum, sum + nh, 0.0f);
    const BertEmbeddings& emb = embeddings_;
    for (int i = 0; i < n; ++i) {
      float* row = sum + static_cast<std::size_t>(i) * hidden;
      const auto add_row = [&](const tensor::Embedding& table, int id) {
        kernels::axpy(row,
                      table.table.value.data() +
                          static_cast<std::size_t>(id) * hidden,
                      1.0f, hidden);
      };
      if (config_.use_word_embedding)
        add_row(emb.word_, input.token_ids[static_cast<std::size_t>(i)]);
      if (config_.use_position_embedding)
        add_row(emb.position_,
                input.position_ids[static_cast<std::size_t>(i)]);
    }
    if (config_.use_tree_embedding) {
      float* tree = layer_scope.floats(nh);
      packed.tree_projection.apply(input.tree_codes.data(), n, tree);
      kernels::axpy(sum, tree, 1.0f, static_cast<std::int64_t>(nh));
    }
    layer_norm(emb.norm_, sum, n, hidden, x);
  }

  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const EncoderLayer& layer = layers_[l];
    const PackedWeights::Layer& w = packed.layers[l];
    // Past its QKV projection the last layer computes the [CLS] row only.
    const int rows = l + 1 == layers_.size() ? 1 : n;
    const std::size_t rh = static_cast<std::size_t>(rows) * hidden;
    const std::size_t ri = static_cast<std::size_t>(rows) * inter;
    kernels::ArenaScope layer_scope;
    float* qkv = layer_scope.floats(3 * nh);
    w.qkv.apply(x, n, qkv);
    float* concat = layer_scope.floats(rh);
    attend_heads(qkv, qkv + hidden, qkv + 2 * hidden, 3 * hidden, rows, n,
                 layer.attention_.num_heads_, layer.attention_.head_dim_,
                 input.valid_len, concat, nullptr);
    float* att = layer_scope.floats(rh);
    w.attention_output.apply(concat, rows, att);
    kernels::axpy(att, x, 1.0f, static_cast<std::int64_t>(rh));  // residual
    float* att_normed = layer_scope.floats(rh);
    layer_norm(layer.attention_norm_, att, rows, hidden, att_normed);

    float* pre_act = layer_scope.floats(ri);
    w.intermediate.apply(att_normed, rows, pre_act);
    float* activated = layer_scope.floats(ri);
    kernels::gelu(pre_act, activated, static_cast<std::int64_t>(ri));
    float* ffn = layer_scope.floats(rh);
    w.ffn_output.apply(activated, rows, ffn);
    kernels::axpy(ffn, att_normed, 1.0f,
                  static_cast<std::int64_t>(rh));  // residual
    layer_norm(layer.ffn_norm_, ffn, rows, hidden, x);
  }

  // Head: [CLS] row -> pooler -> tanh -> classifier.
  float* pooled = scope.floats(static_cast<std::size_t>(hidden));
  packed.pooler.apply(x, 1, pooled);
  for (int j = 0; j < hidden; ++j) pooled[j] = std::tanh(pooled[j]);
  Tensor logits({1, config_.num_classes});
  packed.classifier.apply(pooled, 1, logits.data());
  return logits;
}

}  // namespace rebert::bert
