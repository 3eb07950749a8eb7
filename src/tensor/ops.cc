#include "tensor/ops.h"

#include <cmath>

#include "kernels/kernels.h"
#include "util/check.h"

namespace rebert::tensor {

namespace {

void check_matrix(const Tensor& t, const char* who) {
  REBERT_CHECK_MSG(t.rank() == 2, who << " expects a matrix, got rank "
                                      << t.rank());
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* who) {
  REBERT_CHECK_MSG(a.same_shape(b), who << " shape mismatch "
                                        << a.shape_string() << " vs "
                                        << b.shape_string());
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_matrix(a, "matmul");
  check_matrix(b, "matmul");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  REBERT_CHECK_MSG(b.dim(0) == k, "matmul inner-dim mismatch "
                                      << a.shape_string() << " x "
                                      << b.shape_string());
  Tensor c({m, n});
  kernels::gemm(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check_matrix(a, "matmul_tn");
  check_matrix(b, "matmul_tn");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  REBERT_CHECK_MSG(b.dim(0) == m, "matmul_tn row mismatch "
                                      << a.shape_string() << " vs "
                                      << b.shape_string());
  Tensor c({k, n});
  kernels::gemm_tn(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_matrix(a, "matmul_nt");
  check_matrix(b, "matmul_nt");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  REBERT_CHECK_MSG(b.dim(1) == k, "matmul_nt column mismatch "
                                      << a.shape_string() << " vs "
                                      << b.shape_string());
  Tensor c({m, n});
  kernels::gemm_nt(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor c = a;
  c.add_scaled(b, 1.0f);
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor c = a;
  c.add_scaled(b, -1.0f);
  return c;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor c = a;
  for (std::int64_t i = 0; i < c.numel(); ++i) c[i] *= b[i];
  return c;
}

Tensor scale(const Tensor& a, float alpha) {
  Tensor c = a;
  kernels::scale(c.data(), alpha, c.numel());
  return c;
}

Tensor add_row_bias(const Tensor& x, const Tensor& bias) {
  check_matrix(x, "add_row_bias");
  REBERT_CHECK_MSG(bias.rank() == 1 && bias.dim(0) == x.dim(1),
                   "bias shape " << bias.shape_string() << " for x "
                                 << x.shape_string());
  Tensor y = x;
  kernels::add_row_bias(y.data(), bias.data(), x.dim(0), x.dim(1));
  return y;
}

Tensor column_sum(const Tensor& dy) {
  check_matrix(dy, "column_sum");
  Tensor out({dy.dim(1)});
  for (int i = 0; i < dy.dim(0); ++i)
    for (int j = 0; j < dy.dim(1); ++j) out[j] += dy.at(i, j);
  return out;
}

Tensor gelu(const Tensor& x) {
  Tensor y(x.shape());
  kernels::gelu(x.data(), y.data(), x.numel());
  return y;
}

Tensor gelu_backward(const Tensor& dy, const Tensor& x) {
  check_same_shape(dy, x, "gelu_backward");
  Tensor dx(dy.shape());
  kernels::gelu_backward(dy.data(), x.data(), dx.data(), dx.numel());
  return dx;
}

Tensor tanh_forward(const Tensor& x) {
  Tensor y = x;
  for (std::int64_t i = 0; i < y.numel(); ++i) y[i] = std::tanh(x[i]);
  return y;
}

Tensor tanh_backward(const Tensor& dy, const Tensor& y) {
  check_same_shape(dy, y, "tanh_backward");
  Tensor dx = dy;
  for (std::int64_t i = 0; i < dx.numel(); ++i)
    dx[i] = dy[i] * (1.0f - y[i] * y[i]);
  return dx;
}

Tensor softmax_rows(const Tensor& x) {
  check_matrix(x, "softmax_rows");
  Tensor y = x;
  kernels::softmax_rows(y.data(), x.dim(0), x.dim(1));
  return y;
}

Tensor softmax_rows_backward(const Tensor& dy, const Tensor& y) {
  check_same_shape(dy, y, "softmax_rows_backward");
  Tensor dx(dy.shape());
  kernels::softmax_rows_backward(dy.data(), y.data(), dx.data(), y.dim(0),
                                 y.dim(1));
  return dx;
}

double cross_entropy_with_logits(const Tensor& logits,
                                 const std::vector<int>& labels,
                                 Tensor* d_logits) {
  check_matrix(logits, "cross_entropy_with_logits");
  const int n = logits.dim(0), classes = logits.dim(1);
  REBERT_CHECK_MSG(static_cast<int>(labels.size()) == n,
                   "labels size " << labels.size() << " != rows " << n);
  const Tensor probs = softmax_rows(logits);
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    const int label = labels[static_cast<std::size_t>(i)];
    REBERT_CHECK_MSG(label >= 0 && label < classes,
                     "label " << label << " out of range");
    loss -= std::log(std::max(probs.at(i, label), 1e-12f));
  }
  loss /= n;
  if (d_logits) {
    Tensor d = probs;
    const float inv_n = 1.0f / static_cast<float>(n);
    for (int i = 0; i < n; ++i) {
      d.at(i, labels[static_cast<std::size_t>(i)]) -= 1.0f;
      for (int j = 0; j < classes; ++j) d.at(i, j) *= inv_n;
    }
    *d_logits = std::move(d);
  }
  return loss;
}

Tensor gather_rows(const Tensor& table, const std::vector<int>& ids) {
  check_matrix(table, "gather_rows");
  REBERT_CHECK(!ids.empty());
  const int cols = table.dim(1);
  Tensor out({static_cast<int>(ids.size()), cols});
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const int row = ids[i];
    REBERT_CHECK_MSG(row >= 0 && row < table.dim(0),
                     "gather index " << row << " out of range");
    const float* src = table.data() + static_cast<std::size_t>(row) * cols;
    float* dst = out.data() + i * cols;
    for (int j = 0; j < cols; ++j) dst[j] = src[j];
  }
  return out;
}

bool allclose(const Tensor& a, const Tensor& b, float atol) {
  if (!a.same_shape(b)) return false;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    if (std::abs(a[i] - b[i]) > atol) return false;
  return true;
}

}  // namespace rebert::tensor
