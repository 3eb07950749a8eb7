#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace rebert::tensor {
namespace {

Tensor make(const std::vector<float>& values, int rows, int cols) {
  return Tensor::from_vector(values).reshaped({rows, cols});
}

/// The reference the matmul_tn / matmul_nt variants are checked against.
Tensor transpose(const Tensor& a) {
  const int m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) t.at(j, i) = a.at(i, j);
  return t;
}

TEST(MatmulTest, HandComputed2x2) {
  const Tensor a = make({1, 2, 3, 4}, 2, 2);
  const Tensor b = make({5, 6, 7, 8}, 2, 2);
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(MatmulTest, RectangularShapes) {
  const Tensor a = make({1, 2, 3, 4, 5, 6}, 2, 3);
  const Tensor b = make({1, 0, 0, 1, 1, 1}, 3, 2);
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c.dim(0), 2);
  EXPECT_EQ(c.dim(1), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 4.0f);   // 1+0+3
  EXPECT_FLOAT_EQ(c.at(1, 1), 11.0f);  // 5+6
}

TEST(MatmulTest, RejectsMismatch) {
  const Tensor a({2, 3});
  const Tensor b({2, 3});
  EXPECT_THROW(matmul(a, b), util::CheckError);
  EXPECT_THROW(matmul(a, Tensor::from_vector({1, 2})), util::CheckError);
}

TEST(MatmulTest, VariantsAgreeWithExplicitTranspose) {
  util::Rng rng(11);
  const Tensor a = Tensor::randn({4, 5}, rng);
  const Tensor b = Tensor::randn({4, 6}, rng);
  // matmul_tn(a, b) == a^T b.
  EXPECT_TRUE(allclose(matmul_tn(a, b), matmul(transpose(a), b), 1e-4f));
  const Tensor c = Tensor::randn({6, 5}, rng);
  // matmul_nt(a, c) == a c^T.
  EXPECT_TRUE(allclose(matmul_nt(a, c), matmul(a, transpose(c)), 1e-4f));
}

TEST(TransposeTest, Involution) {
  util::Rng rng(13);
  const Tensor a = Tensor::randn({3, 7}, rng);
  EXPECT_TRUE(allclose(transpose(transpose(a)), a));
}

TEST(ElementwiseTest, AddSubMulScale) {
  const Tensor a = Tensor::from_vector({1, 2, 3});
  const Tensor b = Tensor::from_vector({4, 5, 6});
  EXPECT_TRUE(allclose(add(a, b), Tensor::from_vector({5, 7, 9})));
  EXPECT_TRUE(allclose(sub(b, a), Tensor::from_vector({3, 3, 3})));
  EXPECT_TRUE(allclose(mul(a, b), Tensor::from_vector({4, 10, 18})));
  EXPECT_TRUE(allclose(scale(a, -2.0f), Tensor::from_vector({-2, -4, -6})));
}

TEST(BiasTest, AddRowBiasAndColumnSum) {
  const Tensor x = make({1, 2, 3, 4}, 2, 2);
  const Tensor bias = Tensor::from_vector({10, 20});
  const Tensor y = add_row_bias(x, bias);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 24.0f);
  const Tensor cs = column_sum(x);
  EXPECT_FLOAT_EQ(cs[0], 4.0f);
  EXPECT_FLOAT_EQ(cs[1], 6.0f);
  EXPECT_THROW(add_row_bias(x, Tensor::from_vector({1, 2, 3})),
               util::CheckError);
}

TEST(GeluTest, KnownValues) {
  const Tensor x = Tensor::from_vector({0.0f, 1.0f, -1.0f, 3.0f});
  const Tensor y = gelu(x);
  EXPECT_NEAR(y[0], 0.0f, 1e-6);
  EXPECT_NEAR(y[1], 0.8413447f, 1e-5);   // 1 * Phi(1)
  EXPECT_NEAR(y[2], -0.1586553f, 1e-5);  // -1 * Phi(-1)
  EXPECT_NEAR(y[3], 2.9959507f, 1e-5);
}

TEST(GeluTest, BackwardMatchesFiniteDifference) {
  const float eps = 1e-3f;
  for (float v : {-2.0f, -0.5f, 0.0f, 0.7f, 2.5f}) {
    const Tensor x = Tensor::from_vector({v});
    const Tensor dy = Tensor::from_vector({1.0f});
    const float analytic = gelu_backward(dy, x)[0];
    const float plus = gelu(Tensor::from_vector({v + eps}))[0];
    const float minus = gelu(Tensor::from_vector({v - eps}))[0];
    EXPECT_NEAR(analytic, (plus - minus) / (2 * eps), 1e-3) << "x=" << v;
  }
}

TEST(TanhTest, ForwardBackward) {
  const Tensor x = Tensor::from_vector({0.5f});
  const Tensor y = tanh_forward(x);
  EXPECT_NEAR(y[0], std::tanh(0.5f), 1e-6);
  const Tensor dx = tanh_backward(Tensor::from_vector({1.0f}), y);
  EXPECT_NEAR(dx[0], 1.0f - y[0] * y[0], 1e-6);
}

TEST(SoftmaxTest, RowsSumToOne) {
  util::Rng rng(17);
  const Tensor x = Tensor::randn({5, 8}, rng, 3.0f);
  const Tensor y = softmax_rows(x);
  for (int i = 0; i < 5; ++i) {
    float total = 0.0f;
    for (int j = 0; j < 8; ++j) {
      EXPECT_GT(y.at(i, j), 0.0f);
      total += y.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5);
  }
}

TEST(SoftmaxTest, ShiftInvariant) {
  const Tensor x = make({1, 2, 3, 4}, 2, 2);
  Tensor shifted = x;
  for (std::int64_t i = 0; i < shifted.numel(); ++i) shifted[i] += 100.0f;
  EXPECT_TRUE(allclose(softmax_rows(x), softmax_rows(shifted), 1e-5f));
}

TEST(SoftmaxTest, StableForLargeLogits) {
  const Tensor x = make({1000.0f, 0.0f}, 1, 2);
  const Tensor y = softmax_rows(x);
  EXPECT_NEAR(y.at(0, 0), 1.0f, 1e-6);
  EXPECT_FALSE(std::isnan(y.at(0, 1)));
}

TEST(SoftmaxTest, BackwardMatchesFiniteDifference) {
  // Scalar loss = sum(w . softmax(x)) with fixed weights.
  const Tensor w = Tensor::from_vector({0.3f, -1.2f, 2.0f}).reshaped({1, 3});
  Tensor x = Tensor::from_vector({0.1f, 0.5f, -0.3f}).reshaped({1, 3});
  auto loss = [&]() {
    const Tensor y = softmax_rows(x);
    double total = 0.0;
    for (int j = 0; j < 3; ++j) total += w.at(0, j) * y.at(0, j);
    return total;
  };
  const Tensor y = softmax_rows(x);
  const Tensor dx = softmax_rows_backward(w, y);
  const float eps = 1e-3f;
  for (int j = 0; j < 3; ++j) {
    const float orig = x.at(0, j);
    x.at(0, j) = orig + eps;
    const double plus = loss();
    x.at(0, j) = orig - eps;
    const double minus = loss();
    x.at(0, j) = orig;
    EXPECT_NEAR(dx.at(0, j), (plus - minus) / (2 * eps), 1e-4);
  }
}

TEST(CrossEntropyTest, KnownValue) {
  // Uniform logits over 2 classes: loss = ln 2.
  const Tensor logits = make({0, 0, 0, 0}, 2, 2);
  const double loss =
      cross_entropy_with_logits(logits, {0, 1}, nullptr);
  EXPECT_NEAR(loss, std::log(2.0), 1e-6);
}

TEST(CrossEntropyTest, GradientIsSoftmaxMinusOnehot) {
  const Tensor logits = make({1, 2, 0.5f, -0.5f}, 2, 2);
  Tensor d;
  cross_entropy_with_logits(logits, {1, 0}, &d);
  const Tensor probs = softmax_rows(logits);
  EXPECT_NEAR(d.at(0, 0), probs.at(0, 0) / 2, 1e-6);
  EXPECT_NEAR(d.at(0, 1), (probs.at(0, 1) - 1) / 2, 1e-6);
  EXPECT_NEAR(d.at(1, 0), (probs.at(1, 0) - 1) / 2, 1e-6);
}

TEST(CrossEntropyTest, RejectsBadLabels) {
  const Tensor logits = make({0, 0}, 1, 2);
  EXPECT_THROW(cross_entropy_with_logits(logits, {2}, nullptr),
               util::CheckError);
  EXPECT_THROW(cross_entropy_with_logits(logits, {0, 1}, nullptr),
               util::CheckError);
}

TEST(GatherTest, SelectsRows) {
  const Tensor table = make({1, 2, 3, 4, 5, 6}, 3, 2);
  const Tensor out = gather_rows(table, {2, 0, 2});
  EXPECT_FLOAT_EQ(out.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(out.at(2, 1), 6.0f);
  EXPECT_THROW(gather_rows(table, {3}), util::CheckError);
  EXPECT_THROW(gather_rows(table, {-1}), util::CheckError);
}

TEST(AllcloseTest, Behaviour) {
  const Tensor a = Tensor::from_vector({1.0f, 2.0f});
  Tensor b = a;
  EXPECT_TRUE(allclose(a, b));
  b[1] += 1e-6f;
  EXPECT_TRUE(allclose(a, b, 1e-5f));
  b[1] += 1.0f;
  EXPECT_FALSE(allclose(a, b, 1e-5f));
  EXPECT_FALSE(allclose(a, Tensor::from_vector({1.0f, 2.0f, 3.0f})));
}

}  // namespace
}  // namespace rebert::tensor
