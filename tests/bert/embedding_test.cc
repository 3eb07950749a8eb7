#include "bert/embedding.h"

#include <gtest/gtest.h>

#include "tensor/gradcheck.h"
#include "util/check.h"

namespace rebert::bert {
namespace {

using tensor::Tensor;

BertConfig tiny_config() {
  BertConfig c;
  c.vocab_size = 10;
  c.hidden = 8;
  c.num_heads = 2;
  c.num_layers = 1;
  c.intermediate = 16;
  c.max_seq_len = 16;
  c.tree_code_dim = 6;
  c.dropout = 0.0f;
  return c;
}

EncodedSequence make_sequence(int n, const BertConfig& c, util::Rng& rng) {
  EncodedSequence s;
  for (int i = 0; i < n; ++i) {
    s.token_ids.push_back(rng.uniform_int(0, c.vocab_size - 1));
    s.position_ids.push_back(i);
  }
  s.tree_codes = Tensor({n, c.tree_code_dim});
  for (std::int64_t i = 0; i < s.tree_codes.numel(); ++i)
    s.tree_codes[i] = rng.bernoulli(0.5) ? 1.0f : 0.0f;
  return s;
}

/// Training forward with a throwaway cache.
Tensor forward(const BertEmbeddings& emb, const EncodedSequence& s,
               util::Rng& rng) {
  BertEmbeddings::Cache cache;
  return emb.forward(s, rng, cache);
}

TEST(EmbeddingsTest, OutputShape) {
  util::Rng rng(1);
  const BertConfig c = tiny_config();
  BertEmbeddings emb(c, rng);
  const EncodedSequence s = make_sequence(5, c, rng);
  util::Rng drop_rng(2);
  const Tensor y = forward(emb, s, drop_rng);
  EXPECT_EQ(y.dim(0), 5);
  EXPECT_EQ(y.dim(1), 8);
}

TEST(EmbeddingsTest, RowsAreLayerNormalized) {
  util::Rng rng(2);
  const BertConfig c = tiny_config();
  BertEmbeddings emb(c, rng);
  const EncodedSequence s = make_sequence(4, c, rng);
  util::Rng drop_rng(3);
  const Tensor y = forward(emb, s, drop_rng);
  for (int i = 0; i < 4; ++i) {
    double mean = 0;
    for (int j = 0; j < 8; ++j) mean += y.at(i, j);
    EXPECT_NEAR(mean / 8, 0.0, 1e-4);
  }
}

TEST(EmbeddingsTest, AblationFlagsChangeOutput) {
  util::Rng rng(3);
  BertConfig with_tree = tiny_config();
  BertConfig without_tree = tiny_config();
  without_tree.use_tree_embedding = false;
  util::Rng rng1(3), rng2(3);  // identical init
  BertEmbeddings emb1(with_tree, rng1);
  BertEmbeddings emb2(without_tree, rng2);
  const EncodedSequence s = make_sequence(4, with_tree, rng);
  util::Rng d1(5), d2(5);
  const Tensor y1 = forward(emb1, s, d1);
  const Tensor y2 = forward(emb2, s, d2);
  EXPECT_FALSE(allclose(y1, y2, 1e-6f));
}

TEST(EmbeddingsTest, TreeCodeInfluencesOutputOnlyWhenEnabled) {
  util::Rng rng(4);
  BertConfig c = tiny_config();
  c.use_tree_embedding = false;
  BertEmbeddings emb(c, rng);
  EncodedSequence s = make_sequence(3, c, rng);
  util::Rng d1(7), d2(7);
  const Tensor y1 = forward(emb, s, d1);
  s.tree_codes.fill(1.0f);  // radically different codes
  const Tensor y2 = forward(emb, s, d2);
  EXPECT_TRUE(allclose(y1, y2));
}

TEST(EmbeddingsTest, RejectsBadInputs) {
  util::Rng rng(5);
  const BertConfig c = tiny_config();
  BertEmbeddings emb(c, rng);
  util::Rng drop_rng(1);

  EncodedSequence empty;
  empty.tree_codes = Tensor({1, c.tree_code_dim});
  EXPECT_THROW(forward(emb, empty, drop_rng),
               util::CheckError);

  EncodedSequence bad_token = make_sequence(2, c, rng);
  bad_token.token_ids[0] = c.vocab_size;
  EXPECT_THROW(forward(emb, bad_token, drop_rng),
               util::CheckError);

  EncodedSequence bad_pos = make_sequence(2, c, rng);
  bad_pos.position_ids[1] = c.max_seq_len;
  EXPECT_THROW(forward(emb, bad_pos, drop_rng),
               util::CheckError);

  EncodedSequence bad_tree = make_sequence(2, c, rng);
  bad_tree.tree_codes = Tensor({2, c.tree_code_dim + 2});
  EXPECT_THROW(forward(emb, bad_tree, drop_rng),
               util::CheckError);
}

TEST(EmbeddingsTest, GradcheckThroughLayerNorm) {
  util::Rng rng(6);
  const BertConfig c = tiny_config();
  BertEmbeddings emb(c, rng);
  const EncodedSequence s = make_sequence(3, c, rng);
  const Tensor w = Tensor::randn({3, 8}, rng);
  util::Rng drop_rng(1);

  auto loss = [&]() {
    util::Rng r(1);
    return tensor::mul(forward(emb, s, r), w).sum();
  };

  BertEmbeddings::Cache cache;
  emb.forward(s, drop_rng, cache);
  for (auto* p : emb.parameters()) p->zero_grad();
  emb.backward(w, cache);

  for (auto* p : emb.parameters()) {
    const auto res =
        tensor::check_gradient(&p->value, p->grad, loss, 1e-2, 5e-2, 20);
    EXPECT_TRUE(res.ok) << p->name << " rel err " << res.max_rel_error;
  }
}

TEST(EmbeddingsTest, ParameterNamesAreUnique) {
  util::Rng rng(7);
  BertEmbeddings emb(tiny_config(), rng);
  std::vector<std::string> names;
  for (auto* p : emb.parameters()) names.push_back(p->name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  EXPECT_EQ(names.size(), 6u);  // word, position, tree W+b, norm gamma+beta
}

}  // namespace
}  // namespace rebert::bert
