#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.h"

namespace rebert::tensor {
namespace {

TEST(TensorTest, ConstructionAndShape) {
  Tensor t({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.numel(), 6);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
  EXPECT_EQ(t.shape_string(), "[2,3]");
}

TEST(TensorTest, EmptyTensor) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.rank(), 0);
}

TEST(TensorTest, RejectsBadDims) {
  EXPECT_THROW(Tensor({2, 0}), util::CheckError);
  EXPECT_THROW(Tensor({-1}), util::CheckError);
}

TEST(TensorTest, At2DRowMajor) {
  Tensor t({2, 3});
  t.at(0, 0) = 1;
  t.at(0, 2) = 3;
  t.at(1, 0) = 4;
  EXPECT_EQ(t[0], 1.0f);
  EXPECT_EQ(t[2], 3.0f);
  EXPECT_EQ(t[3], 4.0f);
  EXPECT_THROW(t.at(2, 0), util::CheckError);
  EXPECT_THROW(t.at(0, 3), util::CheckError);
}

TEST(TensorTest, At3D) {
  Tensor t({2, 3, 4});
  t.at(1, 2, 3) = 7.0f;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 7.0f);
  Tensor m({2, 2});
  EXPECT_THROW(m.at(0, 0, 0), util::CheckError);
}

TEST(TensorTest, Reshape) {
  Tensor t({2, 6});
  t.at(1, 0) = 5.0f;
  const Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_EQ(r[6], 5.0f);  // same flat layout
  EXPECT_THROW(t.reshaped({5, 2}), util::CheckError);
}

TEST(TensorTest, FillAndFull) {
  Tensor t = Tensor::full({3}, 2.5f);
  EXPECT_EQ(t[0], 2.5f);
  t.zero();
  EXPECT_EQ(t[2], 0.0f);
}

TEST(TensorTest, AddScaled) {
  Tensor a = Tensor::from_vector({1, 2, 3});
  const Tensor b = Tensor::from_vector({10, 20, 30});
  a.add_scaled(b, 0.5f);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
  EXPECT_FLOAT_EQ(a[2], 18.0f);
  Tensor wrong({2});
  EXPECT_THROW(a.add_scaled(wrong, 1.0f), util::CheckError);
}

TEST(TensorTest, SumNormMax) {
  const Tensor t = Tensor::from_vector({3, -4, 0});
  EXPECT_DOUBLE_EQ(t.sum(), -1.0);
  EXPECT_DOUBLE_EQ(t.norm(), 5.0);
}

TEST(TensorTest, XavierWithinLimit) {
  util::Rng rng(3);
  const int fan_in = 64, fan_out = 32;
  const Tensor w = Tensor::xavier(fan_in, fan_out, rng);
  const float limit = std::sqrt(6.0f / (fan_in + fan_out));
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_LE(w[i], limit);
    EXPECT_GE(w[i], -limit);
  }
  // Not degenerate.
  EXPECT_GT(w.norm(), 0.1);
}

TEST(TensorTest, RandnMoments) {
  util::Rng rng(5);
  const Tensor t = Tensor::randn({100, 100}, rng, 0.5f);
  const double mean = t.sum() / t.numel();
  EXPECT_NEAR(mean, 0.0, 0.01);
  const double var = t.norm() * t.norm() / t.numel() - mean * mean;
  EXPECT_NEAR(var, 0.25, 0.01);
}

TEST(TensorTest, ValueSemantics) {
  Tensor a({2, 2});
  a.at(0, 0) = 1.0f;
  Tensor b = a;
  b.at(0, 0) = 9.0f;
  EXPECT_EQ(a.at(0, 0), 1.0f);
}

TEST(TensorTest, StorageIs64ByteAligned) {
  // The kernel backends (kernels/) rely on cache-line-aligned tensor
  // storage; regression-pin it across the allocator, copies, and awkward
  // sizes that land mid-line.
  for (const std::vector<int>& shape :
       {std::vector<int>{1}, {3}, {7, 5}, {64, 64}, {13, 17, 3}}) {
    const Tensor t(shape);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % 64, 0u)
        << t.shape_string();
    const Tensor copy = t;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(copy.data()) % 64, 0u);
  }
}

}  // namespace
}  // namespace rebert::tensor
