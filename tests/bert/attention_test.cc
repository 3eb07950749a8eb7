#include "bert/attention.h"

#include <gtest/gtest.h>

#include "tensor/gradcheck.h"
#include "util/check.h"

namespace rebert::bert {
namespace {

using tensor::Tensor;

BertConfig tiny_config() {
  BertConfig c;
  c.vocab_size = 8;
  c.hidden = 8;
  c.num_heads = 2;
  c.num_layers = 1;
  c.intermediate = 16;
  c.max_seq_len = 16;
  c.tree_code_dim = 4;
  c.dropout = 0.0f;
  return c;
}

TEST(SliceColsTest, RoundTrip) {
  util::Rng rng(1);
  const Tensor x = Tensor::randn({3, 6}, rng);
  const Tensor left = slice_cols(x, 0, 3);
  const Tensor right = slice_cols(x, 3, 6);
  EXPECT_EQ(left.dim(1), 3);
  EXPECT_FLOAT_EQ(left.at(1, 2), x.at(1, 2));
  EXPECT_FLOAT_EQ(right.at(2, 0), x.at(2, 3));

  Tensor rebuilt({3, 6});
  add_into_cols(&rebuilt, left, 0);
  add_into_cols(&rebuilt, right, 3);
  EXPECT_TRUE(allclose(rebuilt, x));
}

/// Training forward with a throwaway cache.
Tensor forward(const MultiHeadSelfAttention& att, const Tensor& x) {
  MultiHeadSelfAttention::Cache cache;
  return att.forward(x, cache);
}

TEST(AttentionTest, OutputShapeMatchesInput) {
  util::Rng rng(2);
  MultiHeadSelfAttention att("att", tiny_config(), rng);
  const Tensor x = Tensor::randn({5, 8}, rng);
  const Tensor y = forward(att, x);
  EXPECT_EQ(y.dim(0), 5);
  EXPECT_EQ(y.dim(1), 8);
}

TEST(AttentionTest, SingleTokenSequenceWorks) {
  util::Rng rng(3);
  MultiHeadSelfAttention att("att", tiny_config(), rng);
  const Tensor x = Tensor::randn({1, 8}, rng);
  const Tensor y = forward(att, x);
  EXPECT_EQ(y.dim(0), 1);
}

TEST(AttentionTest, AttentionProbsAreRowStochastic) {
  util::Rng rng(4);
  MultiHeadSelfAttention att("att", tiny_config(), rng);
  const Tensor x = Tensor::randn({4, 8}, rng);
  MultiHeadSelfAttention::Cache cache;
  att.forward(x, cache);
  ASSERT_EQ(cache.probs.size(), 2u);
  for (const Tensor& probs : cache.probs) {
    ASSERT_EQ(probs.dim(0), 4);
    ASSERT_EQ(probs.dim(1), 4);
    for (int i = 0; i < 4; ++i) {
      float total = 0.0f;
      for (int j = 0; j < 4; ++j) total += probs.at(i, j);
      EXPECT_NEAR(total, 1.0f, 1e-5);
    }
  }
}

TEST(AttentionTest, PermutingOtherTokensChangesOutput) {
  // Self-attention mixes information across positions: zeroing one token
  // must change the others' outputs (sanity that attention is not diagonal).
  util::Rng rng(5);
  MultiHeadSelfAttention att("att", tiny_config(), rng);
  Tensor x = Tensor::randn({3, 8}, rng);
  const Tensor y1 = forward(att, x);
  for (int j = 0; j < 8; ++j) x.at(2, j) = 0.0f;
  const Tensor y2 = forward(att, x);
  float diff = 0.0f;
  for (int j = 0; j < 8; ++j) diff += std::abs(y1.at(0, j) - y2.at(0, j));
  EXPECT_GT(diff, 1e-4f);
}

TEST(AttentionTest, GradcheckInputAndWeights) {
  util::Rng rng(6);
  MultiHeadSelfAttention att("att", tiny_config(), rng);
  Tensor x = Tensor::randn({3, 8}, rng);
  const Tensor w = Tensor::randn({3, 8}, rng);  // loss weights

  auto loss = [&]() {
    return tensor::mul(forward(att, x), w).sum();
  };

  MultiHeadSelfAttention::Cache cache;
  att.forward(x, cache);
  for (auto* p : att.parameters()) p->zero_grad();
  const Tensor dx = att.backward(w, cache);

  const auto xres = tensor::check_gradient(&x, dx, loss, 1e-2, 5e-2);
  EXPECT_TRUE(xres.ok) << "input rel err " << xres.max_rel_error;

  for (auto* p : att.parameters()) {
    const auto res =
        tensor::check_gradient(&p->value, p->grad, loss, 1e-2, 5e-2, 20);
    EXPECT_TRUE(res.ok) << p->name << " rel err " << res.max_rel_error;
  }
}

TEST(AttentionTest, RejectsWrongWidth) {
  util::Rng rng(7);
  MultiHeadSelfAttention att("att", tiny_config(), rng);
  const Tensor x = Tensor::randn({3, 4}, rng);
  EXPECT_THROW(forward(att, x), util::CheckError);
}

}  // namespace
}  // namespace rebert::bert
