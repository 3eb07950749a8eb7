#include "bert/encoder_layer.h"

#include "util/check.h"

namespace rebert::bert {

using tensor::Tensor;

EncoderLayer::EncoderLayer(const std::string& name, const BertConfig& config,
                           util::Rng& rng)
    : attention_(name + ".attention", config, rng),
      attention_norm_(name + ".attention_norm", config.hidden),
      intermediate_(name + ".intermediate", config.hidden,
                    config.intermediate, rng),
      ffn_output_(name + ".ffn_output", config.intermediate, config.hidden,
                  rng),
      ffn_norm_(name + ".ffn_norm", config.hidden),
      dropout_(config.dropout) {}

Tensor EncoderLayer::forward(const Tensor& x, util::Rng& rng, Cache& cache,
                             int valid_len) const {
  // Attention block with residual.
  Tensor att = attention_.forward(x, cache.attention, valid_len);
  att = dropout_.forward(att, rng, cache.attention_dropout);
  const Tensor att_res = tensor::add(x, att);
  const Tensor att_normed = attention_norm_.forward(att_res,
                                                    cache.attention_norm);

  // Feed-forward block with residual.
  cache.intermediate_pre_act =
      intermediate_.forward(att_normed, cache.intermediate);
  const Tensor activated = tensor::gelu(cache.intermediate_pre_act);
  Tensor ffn = ffn_output_.forward(activated, cache.ffn_output);
  ffn = dropout_.forward(ffn, rng, cache.ffn_dropout);
  const Tensor ffn_res = tensor::add(att_normed, ffn);
  return ffn_norm_.forward(ffn_res, cache.ffn_norm);
}

Tensor EncoderLayer::backward(const Tensor& dy, const Cache& cache) {
  // Unwind: ffn_norm -> residual split -> ffn -> attention_norm ->
  // residual split -> attention.
  const Tensor d_ffn_res = ffn_norm_.backward(dy, cache.ffn_norm);
  // ffn_res = att_normed + dropout(ffn): gradient flows to both.
  const Tensor d_ffn_drop = dropout_.backward(d_ffn_res, cache.ffn_dropout);
  const Tensor d_activated = ffn_output_.backward(d_ffn_drop,
                                                  cache.ffn_output);
  const Tensor d_pre_act =
      tensor::gelu_backward(d_activated, cache.intermediate_pre_act);
  Tensor d_att_normed = intermediate_.backward(d_pre_act, cache.intermediate);
  d_att_normed.add_scaled(d_ffn_res, 1.0f);  // residual path

  const Tensor d_att_res =
      attention_norm_.backward(d_att_normed, cache.attention_norm);
  const Tensor d_att_drop =
      dropout_.backward(d_att_res, cache.attention_dropout);
  Tensor dx = attention_.backward(d_att_drop, cache.attention);
  dx.add_scaled(d_att_res, 1.0f);  // residual path
  return dx;
}

std::vector<tensor::Parameter*> EncoderLayer::parameters() {
  std::vector<tensor::Parameter*> params;
  for (auto* p : attention_.parameters()) params.push_back(p);
  for (auto* p : attention_norm_.parameters()) params.push_back(p);
  for (auto* p : intermediate_.parameters()) params.push_back(p);
  for (auto* p : ffn_output_.parameters()) params.push_back(p);
  for (auto* p : ffn_norm_.parameters()) params.push_back(p);
  return params;
}

}  // namespace rebert::bert
