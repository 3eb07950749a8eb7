#include "tensor/layers.h"

#include <gtest/gtest.h>

#include "tensor/gradcheck.h"
#include "util/check.h"

namespace rebert::tensor {
namespace {

TEST(LinearTest, ForwardShapeAndBias) {
  util::Rng rng(1);
  Linear layer("l", 3, 2, rng);
  layer.weight.value.fill(0.0f);
  layer.weight.value.at(0, 0) = 1.0f;  // y0 = x0
  layer.weight.value.at(2, 1) = 2.0f;  // y1 = 2 x2
  layer.bias.value[1] = 0.5f;
  const Tensor x = Tensor::from_vector({1, 10, 100}).reshaped({1, 3});
  Linear::Cache cache;
  const Tensor y = layer.forward(x, cache);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 200.5f);
}

TEST(LinearTest, GradcheckWeightBiasInput) {
  util::Rng rng(2);
  Linear layer("l", 4, 3, rng);
  const Tensor x = Tensor::randn({5, 4}, rng);
  // Loss = sum(forward(x)).
  auto loss = [&]() {
    Linear::Cache scratch;
    return layer.forward(x, scratch).sum();
  };
  Linear::Cache cache;
  const Tensor y = layer.forward(x, cache);
  const Tensor dy = Tensor::full(y.shape(), 1.0f);
  layer.weight.zero_grad();
  layer.bias.zero_grad();
  const Tensor dx = layer.backward(dy, cache);

  const auto wres =
      check_gradient(&layer.weight.value, layer.weight.grad, loss);
  EXPECT_TRUE(wres.ok) << "weight rel err " << wres.max_rel_error;
  const auto bres = check_gradient(&layer.bias.value, layer.bias.grad, loss);
  EXPECT_TRUE(bres.ok) << "bias rel err " << bres.max_rel_error;

  // Input gradient: loss as function of x entries.
  Tensor x_copy = x;
  auto loss_x = [&]() {
    Linear::Cache scratch;
    return layer.forward(x_copy, scratch).sum();
  };
  const auto xres = check_gradient(&x_copy, dx, loss_x);
  EXPECT_TRUE(xres.ok) << "input rel err " << xres.max_rel_error;
}

TEST(LinearTest, GradientsAccumulateAcrossCalls) {
  util::Rng rng(3);
  Linear layer("l", 2, 2, rng);
  const Tensor x = Tensor::randn({1, 2}, rng);
  Linear::Cache cache;
  layer.forward(x, cache);
  const Tensor dy = Tensor::full({1, 2}, 1.0f);
  layer.backward(dy, cache);
  const double norm1 = layer.weight.grad.norm();
  layer.backward(dy, cache);
  EXPECT_NEAR(layer.weight.grad.norm(), 2 * norm1, 1e-5);
}

TEST(LayerNormTest, NormalizesRows) {
  LayerNorm norm("ln", 4);
  const Tensor x =
      Tensor::from_vector({1, 2, 3, 4, -10, 0, 10, 20}).reshaped({2, 4});
  LayerNorm::Cache cache;
  const Tensor y = norm.forward(x, cache);
  for (int i = 0; i < 2; ++i) {
    double mean = 0, var = 0;
    for (int j = 0; j < 4; ++j) mean += y.at(i, j);
    mean /= 4;
    for (int j = 0; j < 4; ++j) var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
    var /= 4;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNormTest, GammaBetaApplied) {
  LayerNorm norm("ln", 2);
  norm.gamma.value[0] = 2.0f;
  norm.beta.value[1] = 5.0f;
  const Tensor x = Tensor::from_vector({1, 3}).reshaped({1, 2});
  LayerNorm::Cache cache;
  const Tensor y = norm.forward(x, cache);
  // normalized = {-1, 1}: y0 = -2, y1 = 1 + 5.
  EXPECT_NEAR(y.at(0, 0), -2.0f, 1e-3);
  EXPECT_NEAR(y.at(0, 1), 6.0f, 1e-3);
}

TEST(LayerNormTest, Gradcheck) {
  util::Rng rng(4);
  LayerNorm norm("ln", 6);
  for (std::int64_t i = 0; i < norm.gamma.value.numel(); ++i)
    norm.gamma.value[i] = static_cast<float>(rng.uniform(0.5, 1.5));
  Tensor x = Tensor::randn({3, 6}, rng);
  // Weighted loss so gradients differ per coordinate.
  const Tensor w = Tensor::randn({3, 6}, rng);
  auto loss = [&]() {
    LayerNorm::Cache scratch;
    return mul(norm.forward(x, scratch), w).sum();
  };
  LayerNorm::Cache cache;
  norm.forward(x, cache);
  norm.gamma.zero_grad();
  norm.beta.zero_grad();
  const Tensor dx = norm.backward(w, cache);

  EXPECT_TRUE(check_gradient(&norm.gamma.value, norm.gamma.grad, loss).ok);
  EXPECT_TRUE(check_gradient(&norm.beta.value, norm.beta.grad, loss).ok);
  EXPECT_TRUE(check_gradient(&x, dx, loss).ok);
}

TEST(EmbeddingTest, LookupAndBackward) {
  util::Rng rng(5);
  Embedding emb("e", 10, 4, rng);
  Embedding::Cache cache;
  const Tensor out = emb.forward({3, 7, 3}, cache);
  EXPECT_EQ(out.dim(0), 3);
  EXPECT_EQ(out.dim(1), 4);
  // Row 0 and 2 identical (same id).
  for (int j = 0; j < 4; ++j) EXPECT_EQ(out.at(0, j), out.at(2, j));

  emb.table.zero_grad();
  Tensor dy({3, 4});
  dy.fill(1.0f);
  emb.backward(dy, cache);
  // id 3 used twice: grad 2; id 7 once: grad 1; others 0.
  EXPECT_FLOAT_EQ(emb.table.grad.at(3, 0), 2.0f);
  EXPECT_FLOAT_EQ(emb.table.grad.at(7, 2), 1.0f);
  EXPECT_FLOAT_EQ(emb.table.grad.at(0, 0), 0.0f);
}

TEST(EmbeddingTest, Gradcheck) {
  util::Rng rng(6);
  Embedding emb("e", 5, 3, rng);
  const std::vector<int> ids{1, 4, 1};
  const Tensor w = Tensor::randn({3, 3}, rng);
  auto loss = [&]() {
    Embedding::Cache scratch;
    return mul(emb.forward(ids, scratch), w).sum();
  };
  Embedding::Cache cache;
  emb.forward(ids, cache);
  emb.table.zero_grad();
  emb.backward(w, cache);
  EXPECT_TRUE(check_gradient(&emb.table.value, emb.table.grad, loss).ok);
}

TEST(DropoutTest, TrainingDropsAndRescales) {
  util::Rng rng(8);
  Dropout drop(0.5f);
  const Tensor x = Tensor::full({100, 100}, 1.0f);
  Dropout::Cache cache;
  const Tensor y = drop.forward(x, rng, cache);
  int zeros = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f)
      ++zeros;
    else
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // 1 / (1 - 0.5)
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.5, 0.02);
  // Expectation preserved.
  EXPECT_NEAR(y.sum() / y.numel(), 1.0, 0.05);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  util::Rng rng(9);
  Dropout drop(0.3f);
  const Tensor x = Tensor::full({10, 10}, 1.0f);
  Dropout::Cache cache;
  const Tensor y = drop.forward(x, rng, cache);
  const Tensor dx = drop.backward(Tensor::full({10, 10}, 1.0f), cache);
  for (std::int64_t i = 0; i < y.numel(); ++i)
    EXPECT_EQ(dx[i] == 0.0f, y[i] == 0.0f);
}

TEST(DropoutTest, ZeroRateIsIdentityEvenInTraining) {
  util::Rng rng(10);
  Dropout drop(0.0f);
  const Tensor x = Tensor::randn({3, 3}, rng);
  Dropout::Cache cache;
  EXPECT_TRUE(allclose(drop.forward(x, rng, cache), x));
}

TEST(ClipGradientsTest, ScalesDownLargeGradients) {
  Parameter a("a", Tensor::from_vector({0, 0, 0}));
  Parameter b("b", Tensor::from_vector({0, 0, 0, 0}));
  a.grad = Tensor::from_vector({3, 0, 0});
  b.grad = Tensor::from_vector({0, 4, 0, 0});
  // Global norm = 5.
  const double norm = clip_gradients({&a, &b}, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  EXPECT_NEAR(a.grad[0], 3.0 / 5.0, 1e-6);
  EXPECT_NEAR(b.grad[1], 4.0 / 5.0, 1e-6);
}

TEST(ClipGradientsTest, LeavesSmallGradientsAlone) {
  Parameter a("a", Tensor::from_vector({0}));
  a.grad = Tensor::from_vector({0.5f});
  clip_gradients({&a}, 1.0);
  EXPECT_FLOAT_EQ(a.grad[0], 0.5f);
}

}  // namespace
}  // namespace rebert::tensor
