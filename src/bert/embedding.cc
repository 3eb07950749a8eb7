#include "bert/embedding.h"

#include "util/check.h"

namespace rebert::bert {

using tensor::Tensor;

BertEmbeddings::BertEmbeddings(const BertConfig& config, util::Rng& rng)
    : config_(config),
      word_("embeddings.word", config.vocab_size, config.hidden, rng),
      position_("embeddings.position", config.max_seq_len, config.hidden,
                rng),
      tree_projection_("embeddings.tree_projection", config.tree_code_dim,
                       config.hidden, rng),
      norm_("embeddings.norm", config.hidden),
      dropout_(config.dropout) {
  config.validate();
}

void check_input(const BertConfig& config, const EncodedSequence& input) {
  const int n = input.length();
  REBERT_CHECK_MSG(n >= 1, "empty sequence");
  REBERT_CHECK_MSG(static_cast<int>(input.position_ids.size()) == n,
                   "position_ids length mismatch");
  for (int id : input.token_ids)
    REBERT_CHECK_MSG(id >= 0 && id < config.vocab_size,
                     "token id " << id << " out of vocabulary");
  for (int p : input.position_ids)
    REBERT_CHECK_MSG(p >= 0 && p < config.max_seq_len,
                     "position " << p << " exceeds max_seq_len "
                                 << config.max_seq_len);
  if (config.use_tree_embedding)
    REBERT_CHECK_MSG(input.tree_codes.rank() == 2 &&
                         input.tree_codes.dim(0) == n &&
                         input.tree_codes.dim(1) == config.tree_code_dim,
                     "tree_codes shape " << input.tree_codes.shape_string()
                                         << " (expected [" << n << ","
                                         << config.tree_code_dim << "])");
  REBERT_CHECK_MSG(input.valid_len >= 0 && input.valid_len <= n,
                   "valid_len " << input.valid_len << " out of range for "
                                << n);
}

Tensor BertEmbeddings::forward(const EncodedSequence& input, util::Rng& rng,
                               Cache& cache) const {
  check_input(config_, input);
  Tensor sum({input.length(), config_.hidden});
  if (config_.use_word_embedding)
    sum.add_scaled(word_.forward(input.token_ids, cache.word), 1.0f);
  if (config_.use_position_embedding)
    sum.add_scaled(position_.forward(input.position_ids, cache.position),
                   1.0f);
  cache.used_tree = config_.use_tree_embedding;
  if (config_.use_tree_embedding)
    sum.add_scaled(tree_projection_.forward(input.tree_codes, cache.tree),
                   1.0f);
  const Tensor normed = norm_.forward(sum, cache.norm);
  return dropout_.forward(normed, rng, cache.dropout);
}

void BertEmbeddings::backward(const Tensor& dy, const Cache& cache) {
  const Tensor d_norm = dropout_.backward(dy, cache.dropout);
  const Tensor d_sum = norm_.backward(d_norm, cache.norm);
  if (config_.use_word_embedding) word_.backward(d_sum, cache.word);
  if (config_.use_position_embedding)
    position_.backward(d_sum, cache.position);
  if (cache.used_tree) tree_projection_.backward(d_sum, cache.tree);
}

std::vector<tensor::Parameter*> BertEmbeddings::parameters() {
  std::vector<tensor::Parameter*> params;
  // All parameters are registered regardless of ablation flags so that
  // checkpoints keep a stable layout; disabled embeddings simply receive no
  // gradient.
  for (auto* p : word_.parameters()) params.push_back(p);
  for (auto* p : position_.parameters()) params.push_back(p);
  for (auto* p : tree_projection_.parameters()) params.push_back(p);
  for (auto* p : norm_.parameters()) params.push_back(p);
  return params;
}

}  // namespace rebert::bert
