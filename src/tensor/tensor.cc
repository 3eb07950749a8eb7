#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "kernels/kernels.h"
#include "util/check.h"

namespace rebert::tensor {

namespace {
std::int64_t shape_numel(const std::vector<int>& shape) {
  std::int64_t n = 1;
  for (int d : shape) {
    REBERT_CHECK_MSG(d >= 1, "tensor dims must be >= 1, got " << d);
    n *= d;
  }
  return shape.empty() ? 0 : n;
}
}  // namespace

Tensor::Tensor(std::vector<int> shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<std::size_t>(shape_numel(shape_)), 0.0f);
}

Tensor Tensor::full(std::vector<int> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(std::vector<int> shape, util::Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.gaussian(0.0, stddev));
  return t;
}

Tensor Tensor::xavier(int fan_in, int fan_out, util::Rng& rng) {
  REBERT_CHECK(fan_in >= 1 && fan_out >= 1);
  Tensor t({fan_in, fan_out});
  const double limit = std::sqrt(6.0 / (fan_in + fan_out));
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.uniform(-limit, limit));
  return t;
}

Tensor Tensor::from_vector(const std::vector<float>& values) {
  REBERT_CHECK(!values.empty());
  Tensor t({static_cast<int>(values.size())});
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

int Tensor::dim(int i) const {
  REBERT_CHECK_MSG(i >= 0 && i < rank(),
                   "dim " << i << " out of range for rank " << rank());
  return shape_[static_cast<std::size_t>(i)];
}

float& Tensor::at(int i, int j) {
  REBERT_CHECK_MSG(rank() == 2, "at(i,j) on rank-" << rank() << " tensor");
  REBERT_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1]);
  return data_[static_cast<std::size_t>(i) * shape_[1] + j];
}

float Tensor::at(int i, int j) const {
  return const_cast<Tensor*>(this)->at(i, j);
}

float& Tensor::at(int i, int j, int k) {
  REBERT_CHECK_MSG(rank() == 3, "at(i,j,k) on rank-" << rank() << " tensor");
  REBERT_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1] && k >= 0 &&
               k < shape_[2]);
  return data_[(static_cast<std::size_t>(i) * shape_[1] + j) * shape_[2] + k];
}

float Tensor::at(int i, int j, int k) const {
  return const_cast<Tensor*>(this)->at(i, j, k);
}

Tensor Tensor::reshaped(std::vector<int> new_shape) const {
  Tensor t;
  t.shape_ = std::move(new_shape);
  REBERT_CHECK_MSG(shape_numel(t.shape_) == numel(),
                   "reshape " << shape_string() << " -> " << t.shape_string()
                              << " changes element count");
  t.data_ = data_;
  return t;
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::add_scaled(const Tensor& other, float alpha) {
  REBERT_CHECK_MSG(same_shape(other), "add_scaled shape mismatch "
                                          << shape_string() << " vs "
                                          << other.shape_string());
  kernels::axpy(data_.data(), other.data_.data(), alpha,
                static_cast<std::int64_t>(data_.size()));
}

double Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Tensor::norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ',';
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

}  // namespace rebert::tensor
