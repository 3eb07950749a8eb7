#include "bert/encoder_layer.h"

#include <gtest/gtest.h>

#include "tensor/gradcheck.h"

namespace rebert::bert {
namespace {

using tensor::Tensor;

BertConfig tiny_config() {
  BertConfig c;
  c.vocab_size = 8;
  c.hidden = 8;
  c.num_heads = 2;
  c.num_layers = 1;
  c.intermediate = 12;
  c.max_seq_len = 16;
  c.tree_code_dim = 4;
  c.dropout = 0.0f;
  return c;
}

TEST(EncoderLayerTest, PreservesShape) {
  util::Rng rng(1);
  EncoderLayer layer("enc", tiny_config(), rng);
  const Tensor x = Tensor::randn({6, 8}, rng);
  util::Rng drop_rng(2);
  EncoderLayer::Cache cache;
  const Tensor y = layer.forward(x, drop_rng, cache);
  EXPECT_EQ(y.dim(0), 6);
  EXPECT_EQ(y.dim(1), 8);
}

TEST(EncoderLayerTest, OutputRowsAreNormalized) {
  util::Rng rng(2);
  EncoderLayer layer("enc", tiny_config(), rng);
  const Tensor x = Tensor::randn({4, 8}, rng, 5.0f);
  util::Rng drop_rng(3);
  EncoderLayer::Cache cache;
  const Tensor y = layer.forward(x, drop_rng, cache);
  // Final LayerNorm with default gamma=1, beta=0: each row ~zero mean.
  for (int i = 0; i < 4; ++i) {
    double mean = 0;
    for (int j = 0; j < 8; ++j) mean += y.at(i, j);
    EXPECT_NEAR(mean / 8, 0.0, 1e-4);
  }
}

TEST(EncoderLayerTest, GradcheckThroughFullLayer) {
  util::Rng rng(3);
  EncoderLayer layer("enc", tiny_config(), rng);
  Tensor x = Tensor::randn({3, 8}, rng);
  const Tensor w = Tensor::randn({3, 8}, rng);
  util::Rng drop_rng(4);

  auto loss = [&]() {
    util::Rng r(4);
    EncoderLayer::Cache scratch;
    return tensor::mul(layer.forward(x, r, scratch), w).sum();
  };

  EncoderLayer::Cache cache;
  layer.forward(x, drop_rng, cache);
  for (auto* p : layer.parameters()) p->zero_grad();
  const Tensor dx = layer.backward(w, cache);

  const auto xres = tensor::check_gradient(&x, dx, loss, 1e-2, 6e-2);
  EXPECT_TRUE(xres.ok) << "input rel err " << xres.max_rel_error;
  for (auto* p : layer.parameters()) {
    const auto res =
        tensor::check_gradient(&p->value, p->grad, loss, 1e-2, 6e-2, 12);
    EXPECT_TRUE(res.ok) << p->name << " rel err " << res.max_rel_error;
  }
}

TEST(EncoderLayerTest, DropoutChangesTrainingOutputOnly) {
  // Only an active dropout draws from the RNG: at rate 0 two different
  // streams give the same output, at rate 0.5 they differ. (Inference never
  // runs dropout at all; InferenceTest.DropoutNeverRunsAtInference.)
  const Tensor x = [] {
    util::Rng rng(6);
    return Tensor::randn({4, 8}, rng);
  }();
  for (const float rate : {0.0f, 0.5f}) {
    BertConfig c = tiny_config();
    c.dropout = rate;
    util::Rng rng(5);
    EncoderLayer layer("enc", c, rng);
    util::Rng t1(10), t2(20);
    EncoderLayer::Cache c1, c2;
    const Tensor y1 = layer.forward(x, t1, c1);
    const Tensor y2 = layer.forward(x, t2, c2);
    EXPECT_EQ(allclose(y1, y2, 1e-6f), rate == 0.0f) << "rate " << rate;
  }
}

TEST(EncoderLayerTest, ParameterCount) {
  util::Rng rng(6);
  EncoderLayer layer("enc", tiny_config(), rng);
  // attention: 4 linears (W+b) = 8; 2 layernorms = 4; 2 FFN linears = 4.
  EXPECT_EQ(layer.parameters().size(), 16u);
}

}  // namespace
}  // namespace rebert::bert
