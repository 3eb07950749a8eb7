// Padding / attention-mask fidelity tests: [PAD] tokens must never change
// what the model computes for real positions (§II-A-3 pads pair sequences
// to a uniform length).
#include <gtest/gtest.h>

#include "bert/model.h"
#include "tensor/optimizer.h"
#include "util/check.h"

namespace rebert::bert {
namespace {

using tensor::Tensor;

BertConfig tiny_config() {
  BertConfig c;
  c.vocab_size = 12;
  c.hidden = 16;
  c.num_heads = 2;
  c.num_layers = 2;
  c.intermediate = 32;
  c.max_seq_len = 32;
  c.tree_code_dim = 6;
  c.dropout = 0.0f;
  c.seed = 77;
  return c;
}

EncodedSequence make_sequence(const std::vector<int>& tokens,
                              const BertConfig& c, int pad_to = 0) {
  EncodedSequence s;
  s.token_ids = tokens;
  if (pad_to > static_cast<int>(tokens.size())) {
    s.valid_len = static_cast<int>(tokens.size());
    s.token_ids.resize(static_cast<std::size_t>(pad_to), 0);  // 0 = [PAD]
  }
  const int n = static_cast<int>(s.token_ids.size());
  for (int i = 0; i < n; ++i) s.position_ids.push_back(i);
  s.tree_codes = Tensor({n, c.tree_code_dim});
  for (int i = 0; i < s.valid_len || (s.valid_len == 0 && i < n); ++i)
    s.tree_codes.at(i, s.token_ids[static_cast<std::size_t>(i)] %
                           c.tree_code_dim) = 1.0f;
  return s;
}

/// Training attention forward with a throwaway cache.
Tensor forward(const MultiHeadSelfAttention& att, const Tensor& x,
               int valid_len) {
  MultiHeadSelfAttention::Cache cache;
  return att.forward(x, cache, valid_len);
}

TEST(MaskingTest, AttentionMaskedForwardIgnoresPadContent) {
  // Through the inference forward: whatever sits in the padded positions
  // (token ids, tree codes), the score is bit-identical.
  const BertConfig c = tiny_config();
  const BertPairClassifier model(c);
  const EncodedSequence padded = make_sequence({1, 5, 3, 7}, c, 9);
  EncodedSequence scrambled = padded;
  for (int i = padded.valid_len; i < padded.length(); ++i) {
    scrambled.token_ids[static_cast<std::size_t>(i)] = 1 + i % 11;
    for (int j = 0; j < c.tree_code_dim; ++j)
      scrambled.tree_codes.at(i, j) = static_cast<float>((i + j) % 2);
  }
  EXPECT_EQ(model.predict_same_word_probability(padded),
            model.predict_same_word_probability(scrambled));
}

TEST(MaskingTest, ZeroValidLenMeansNoMask) {
  const BertConfig c = tiny_config();
  util::Rng rng(2);
  MultiHeadSelfAttention att("att", c, rng);
  const Tensor x = Tensor::randn({4, 16}, rng);
  EXPECT_TRUE(allclose(forward(att, x, 0), forward(att, x, 4)));
}

TEST(MaskingTest, MaskedProbsAreExactlyZero) {
  const BertConfig c = tiny_config();
  util::Rng rng(3);
  MultiHeadSelfAttention att("att", c, rng);
  const Tensor x = Tensor::randn({5, 16}, rng);
  MultiHeadSelfAttention::Cache cache;
  att.forward(x, cache, 3);
  for (const Tensor& probs : cache.probs)
    for (int i = 0; i < 5; ++i) {
      for (int j = 3; j < 5; ++j) EXPECT_EQ(probs.at(i, j), 0.0f);
      float total = 0.0f;
      for (int j = 0; j < 3; ++j) total += probs.at(i, j);
      EXPECT_NEAR(total, 1.0f, 1e-5);
    }
}

TEST(MaskingTest, AttentionRejectsBadValidLen) {
  const BertConfig c = tiny_config();
  util::Rng rng(4);
  MultiHeadSelfAttention att("att", c, rng);
  const Tensor x = Tensor::randn({3, 16}, rng);
  EXPECT_THROW(forward(att, x, 4), util::CheckError);
  EXPECT_THROW(forward(att, x, -1), util::CheckError);
}

TEST(MaskingTest, PaddedPredictionEqualsUnpadded) {
  const BertConfig c = tiny_config();
  BertPairClassifier model(c);
  const std::vector<int> tokens{1, 5, 3, 7, 2};
  const EncodedSequence plain = make_sequence(tokens, c);
  const EncodedSequence padded = make_sequence(tokens, c, 12);
  EXPECT_DOUBLE_EQ(model.predict_same_word_probability(plain),
                   model.predict_same_word_probability(padded));
}

TEST(MaskingTest, DifferentPadAmountsAgree) {
  const BertConfig c = tiny_config();
  BertPairClassifier model(c);
  const std::vector<int> tokens{4, 4, 9, 1};
  const EncodedSequence pad8 = make_sequence(tokens, c, 8);
  const EncodedSequence pad16 = make_sequence(tokens, c, 16);
  EXPECT_DOUBLE_EQ(model.predict_same_word_probability(pad8),
                   model.predict_same_word_probability(pad16));
}

TEST(MaskingTest, TrainingWithPaddingMatchesGradientsOfUnpadded) {
  // Same loss and same parameter gradients, padded or not.
  const BertConfig c = tiny_config();
  BertPairClassifier a(c), b(c);
  const std::vector<int> tokens{1, 2, 3};
  const EncodedSequence plain = make_sequence(tokens, c);
  const EncodedSequence padded = make_sequence(tokens, c, 10);
  const double loss_a = a.train_step_accumulate(plain, 1);
  const double loss_b = b.train_step_accumulate(padded, 1);
  EXPECT_DOUBLE_EQ(loss_a, loss_b);
  const auto& pa = a.parameters();
  const auto& pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    // Padding adds [PAD]-row embedding gradients (those rows still feed
    // LayerNorm locally) — compare everything except the embedding tables
    // and shared norm, where pads legitimately accumulate their own rows.
    if (pa[i]->name.rfind("embeddings.", 0) == 0) continue;
    EXPECT_TRUE(allclose(pa[i]->grad, pb[i]->grad, 1e-5f)) << pa[i]->name;
  }
}

}  // namespace
}  // namespace rebert::bert
