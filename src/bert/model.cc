#include "bert/model.h"

#include <unordered_map>

#include "runtime/fault_injector.h"
#include "tensor/graphcheck.h"
#include "tensor/serialize.h"

namespace rebert::bert {

using tensor::Tensor;

void check_model_graph(const BertConfig& config,
                       const std::vector<tensor::Parameter*>& parameters) {
  const int n = tensor::kDynamicDim;  // sequence length, dynamic
  const int H = config.hidden;
  const int I = config.intermediate;

  std::unordered_map<std::string, const tensor::Parameter*> by_name;
  for (const tensor::Parameter* p : parameters) by_name.emplace(p->name, p);

  tensor::GraphCheck g("BertPairClassifier");
  auto check_param = [&](const std::string& name,
                         const tensor::ShapePattern& expected) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      g.require(false, "parameter '" + name + "' is missing");
      return;
    }
    g.param(name, it->second->value.shape(), expected);
    g.require(it->second->grad.shape() == it->second->value.shape(),
              "parameter '" + name + "' gradient shape differs from value");
  };

  g.require(config.num_heads >= 1 && H % config.num_heads == 0,
            "num_heads must divide hidden");
  g.require(config.num_classes >= 2, "classifier needs >= 2 classes");

  // Embedding: token ids [n] -> summed embeddings [n, H] -> LayerNorm.
  g.stage("embeddings.sum", {n}, {n, H});
  check_param("embeddings.word.table", {config.vocab_size, H});
  check_param("embeddings.position.table", {config.max_seq_len, H});
  check_param("embeddings.tree_projection.weight", {config.tree_code_dim, H});
  check_param("embeddings.tree_projection.bias", {H});
  g.stage("embeddings.norm", {n, H}, {n, H});
  check_param("embeddings.norm.gamma", {H});
  check_param("embeddings.norm.beta", {H});

  // Encoder stack: each layer maps [n, H] -> [n, H] through attention
  // (H split across heads) and the GELU FFN ([n, H] -> [n, I] -> [n, H]).
  for (int i = 0; i < config.num_layers; ++i) {
    const std::string prefix = "encoder." + std::to_string(i);
    g.stage(prefix + ".attention", {n, H}, {n, H});
    for (const char* proj : {"query", "key", "value", "output"}) {
      check_param(prefix + ".attention." + proj + ".weight", {H, H});
      check_param(prefix + ".attention." + proj + ".bias", {H});
    }
    g.stage(prefix + ".attention_norm", {n, H}, {n, H});
    check_param(prefix + ".attention_norm.gamma", {H});
    check_param(prefix + ".attention_norm.beta", {H});
    g.stage(prefix + ".intermediate", {n, H}, {n, I});
    check_param(prefix + ".intermediate.weight", {H, I});
    check_param(prefix + ".intermediate.bias", {I});
    g.stage(prefix + ".ffn_output", {n, I}, {n, H});
    check_param(prefix + ".ffn_output.weight", {I, H});
    check_param(prefix + ".ffn_output.bias", {H});
    g.stage(prefix + ".ffn_norm", {n, H}, {n, H});
    check_param(prefix + ".ffn_norm.gamma", {H});
    check_param(prefix + ".ffn_norm.beta", {H});
  }

  // Head: [CLS] slice -> pooler (tanh) -> classifier logits.
  g.stage("pooler.first_token", {n, H}, {1, H});
  g.stage("pooler", {1, H}, {1, H});
  check_param("pooler.weight", {H, H});
  check_param("pooler.bias", {H});
  g.stage("classifier", {1, H}, {1, config.num_classes});
  check_param("classifier.weight", {H, config.num_classes});
  check_param("classifier.bias", {config.num_classes});

  g.finish();
}

struct BertPairClassifier::ForwardCache {
  BertEmbeddings::Cache embeddings;
  std::vector<EncoderLayer::Cache> layers;
  int seq_len = 0;
  tensor::Linear::Cache pooler;
  Tensor pooled_tanh;  // tanh output, [1, H]
  tensor::Linear::Cache classifier;
};

BertPairClassifier::BertPairClassifier(const BertConfig& config)
    : config_(config),
      init_rng_(config.seed),
      dropout_rng_(config.seed ^ 0xd120u),
      embeddings_(config, init_rng_),
      pooler_("pooler", config.hidden, config.hidden, init_rng_),
      classifier_("classifier", config.hidden, config.num_classes,
                  init_rng_) {
  config_.validate();
  layers_.reserve(static_cast<std::size_t>(config.num_layers));
  for (int i = 0; i < config.num_layers; ++i)
    layers_.emplace_back("encoder." + std::to_string(i), config, init_rng_);
  for (auto* p : embeddings_.parameters()) parameter_list_.push_back(p);
  for (auto& layer : layers_)
    for (auto* p : layer.parameters()) parameter_list_.push_back(p);
  for (auto* p : pooler_.parameters()) parameter_list_.push_back(p);
  for (auto* p : classifier_.parameters()) parameter_list_.push_back(p);
  // One cold-path pass proves the whole stage chain shape-consistent, so
  // the forward paths do not re-check layer shapes per call.
  check_model_graph(config_, parameter_list_);
  pack_weights();
}

Tensor BertPairClassifier::training_forward(const EncodedSequence& input,
                                            ForwardCache& cache) {
  cache.seq_len = input.length();
  cache.layers.resize(layers_.size());

  Tensor hidden = embeddings_.forward(input, dropout_rng_, cache.embeddings);
  for (std::size_t i = 0; i < layers_.size(); ++i)
    hidden = layers_[i].forward(hidden, dropout_rng_, cache.layers[i],
                                input.valid_len);

  // Pooler: first token ([CLS]) -> linear -> tanh.
  Tensor first_row({1, config_.hidden});
  for (int j = 0; j < config_.hidden; ++j) first_row.at(0, j) = hidden.at(0, j);
  const Tensor pooled = pooler_.forward(first_row, cache.pooler);
  cache.pooled_tanh = tensor::tanh_forward(pooled);
  return classifier_.forward(cache.pooled_tanh, cache.classifier);
}

void BertPairClassifier::backward(const Tensor& d_logits,
                                  const ForwardCache& cache) {
  const Tensor d_pooled_tanh = classifier_.backward(d_logits,
                                                    cache.classifier);
  const Tensor d_pooled =
      tensor::tanh_backward(d_pooled_tanh, cache.pooled_tanh);
  const Tensor d_first_row = pooler_.backward(d_pooled, cache.pooler);

  // Only the first token receives gradient from the pooler.
  Tensor d_hidden({cache.seq_len, config_.hidden});
  for (int j = 0; j < config_.hidden; ++j)
    d_hidden.at(0, j) = d_first_row.at(0, j);

  for (std::size_t i = layers_.size(); i-- > 0;)
    d_hidden = layers_[i].backward(d_hidden, cache.layers[i]);
  embeddings_.backward(d_hidden, cache.embeddings);
}

double BertPairClassifier::predict_same_word_probability(
    const EncodedSequence& input) const {
  // Chaos site: simulates an inference failure (bad checkpoint arithmetic,
  // a NaN tripwire from check_numerics, a future accelerator backend
  // erroring out). One check per forward so probability-armed chaos runs
  // fail a deterministic fraction of predictions.
  runtime::FaultInjector::global().maybe_throw("model.forward");
  const Tensor probs = tensor::softmax_rows(inference_logits(input));
  return probs.at(0, 1);
}

double BertPairClassifier::train_step_accumulate(const EncodedSequence& input,
                                                 int label) {
  ForwardCache cache;
  const Tensor logits = training_forward(input, cache);
  Tensor d_logits;
  const double loss =
      tensor::cross_entropy_with_logits(logits, {label}, &d_logits);
  backward(d_logits, cache);
  return loss;
}

double BertPairClassifier::eval_loss(const EncodedSequence& input,
                                     int label) const {
  return tensor::cross_entropy_with_logits(inference_logits(input), {label},
                                           nullptr);
}

const std::vector<tensor::Parameter*>& BertPairClassifier::parameters() {
  ++weights_generation_;
  return parameter_list_;
}

std::vector<const tensor::Parameter*> BertPairClassifier::parameters()
    const {
  return {parameter_list_.begin(), parameter_list_.end()};
}

std::int64_t BertPairClassifier::num_parameters() const {
  std::int64_t total = 0;
  for (const auto* p : parameter_list_) total += p->value.numel();
  return total;
}

void BertPairClassifier::save(const std::string& path) const {
  tensor::save_parameters(parameters(), path);
}

void BertPairClassifier::load(const std::string& path) {
  tensor::load_parameters(parameters(), path);
  pack_weights();
}

}  // namespace rebert::bert
