// Dense float tensor with value semantics.
//
// The whole NN substrate (ops, layers, BERT) is built on this one type:
// row-major contiguous float storage plus a shape. No views, no autograd
// tape — layers implement explicit forward/backward, which keeps every
// gradient auditable and lets the tests verify each layer against finite
// differences. Sized for this project's models (up to a few million
// parameters), not for generality.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/aligned.h"
#include "util/rng.h"

namespace rebert::tensor {

class Tensor {
 public:
  /// Empty (rank-0, no elements).
  Tensor() = default;

  /// Zero-initialized tensor of the given shape. All dims must be >= 1.
  explicit Tensor(std::vector<int> shape);

  static Tensor zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }
  static Tensor full(std::vector<int> shape, float value);
  /// I.i.d. normal entries.
  static Tensor randn(std::vector<int> shape, util::Rng& rng,
                      float stddev = 1.0f);
  /// Xavier/Glorot uniform for a [fan_in, fan_out] weight matrix.
  static Tensor xavier(int fan_in, int fan_out, util::Rng& rng);
  /// 1-D tensor from explicit values.
  static Tensor from_vector(const std::vector<float>& values);

  const std::vector<int>& shape() const { return shape_; }
  int rank() const { return static_cast<int>(shape_.size()); }
  int dim(int i) const;
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Flat element access.
  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

  /// Checked 2-D / 3-D access.
  float& at(int i, int j);
  float at(int i, int j) const;
  float& at(int i, int j, int k);
  float at(int i, int j, int k) const;

  /// Same data, new shape (numel must match).
  Tensor reshaped(std::vector<int> new_shape) const;

  void fill(float value);
  void zero() { fill(0.0f); }

  /// In-place axpy: *this += alpha * other (shapes must match).
  void add_scaled(const Tensor& other, float alpha);

  double sum() const;
  /// L2 norm of all entries.
  double norm() const;

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  std::string shape_string() const;

 private:
  std::vector<int> shape_;
  // 64-byte-aligned so kernel backends can assume cache-line-aligned rows
  // for aligned vector loads (see kernels/aligned.h).
  kernels::AlignedFloatVector data_;
};

}  // namespace rebert::tensor
