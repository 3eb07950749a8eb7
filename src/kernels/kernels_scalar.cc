// Portable scalar backend: the numerics the repo shipped with before the
// kernel subsystem, preserved loop-for-loop so the scalar backend stays
// the bit-exact reference the parity tests compare AVX2 against.
//
// One deliberate change from the pre-kernel tensor/ops.cc code: the GEMM
// rank-1 loops no longer skip zero A entries. The skip was a scalar-only
// micro-optimization that also skipped NaN/Inf propagation (0 * NaN
// contributes NaN; "skip because a == 0" contributes nothing), which
// would have made the graphcheck tripwire backend-dependent. For finite
// inputs the results are bit-identical with or without the skip.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "kernels/kernels.h"

namespace rebert::kernels {

// The B-panel packer is portable code shared by every backend, so it
// lives with the scalar backend.
std::size_t packed_b_floats(int k, int n) {
  const std::size_t panels =
      static_cast<std::size_t>((n + kPanelWidth - 1) / kPanelWidth);
  return panels * static_cast<std::size_t>(k) * kPanelWidth;
}

void pack_b(const float* b, int k, int n, float* packed) {
  for (int j0 = 0; j0 < n; j0 += kPanelWidth) {
    const int w = std::min(kPanelWidth, n - j0);
    for (int kk = 0; kk < k; ++kk) {
      const float* src = b + static_cast<std::size_t>(kk) * n + j0;
      float* dst = packed + static_cast<std::size_t>(kk) * kPanelWidth;
      int j = 0;
      for (; j < w; ++j) dst[j] = src[j];
      for (; j < kPanelWidth; ++j) dst[j] = 0.0f;
    }
    packed += static_cast<std::size_t>(k) * kPanelWidth;
  }
}

namespace {

void scalar_gemm(const float* a, const float* b, float* c, int m, int k,
                 int n) {
  // ikj loop order: streams through B and C rows; good cache behaviour
  // without explicit blocking at scalar speeds.
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(m) * n; ++i)
    c[i] = 0.0f;
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * n;
    const float* arow = a + static_cast<std::size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      const float* brow = b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void scalar_gemm_packed(const float* a, const float* packed_b, float* c,
                        int m, int k, int n) {
  // Each element starts at 0 and adds a[i,kk] * b[kk,j] for kk ascending,
  // exactly as scalar_gemm does, so the two are bitwise equal.
  const float* panel = packed_b;
  for (int j0 = 0; j0 < n; j0 += kPanelWidth) {
    const int w = std::min(kPanelWidth, n - j0);
    for (int i = 0; i < m; ++i) {
      const float* arow = a + static_cast<std::size_t>(i) * k;
      float acc[kPanelWidth] = {};
      for (int kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        const float* prow = panel + static_cast<std::size_t>(kk) * kPanelWidth;
        for (int j = 0; j < kPanelWidth; ++j) acc[j] += av * prow[j];
      }
      std::memcpy(c + static_cast<std::size_t>(i) * n + j0, acc,
                  static_cast<std::size_t>(w) * sizeof(float));
    }
    panel += static_cast<std::size_t>(k) * kPanelWidth;
  }
}

void scalar_gemm_tn(const float* a, const float* b, float* c, int m, int k,
                    int n) {
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(k) * n; ++i)
    c[i] = 0.0f;
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    const float* brow = b + static_cast<std::size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      float* crow = c + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void scalar_gemm_nt(const float* a, const float* b, float* c, int m, int k,
                    int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      c[static_cast<std::size_t>(i) * n + j] = acc;
    }
  }
}

void scalar_add_row_bias(float* x, const float* bias, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    float* row = x + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) row[j] += bias[j];
  }
}

void scalar_axpy(float* y, const float* x, float alpha, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scalar_scale(float* x, float alpha, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

void scalar_softmax_rows(float* x, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    float* row = x + static_cast<std::size_t>(i) * cols;
    float row_max = row[0];
    for (int j = 1; j < cols; ++j) row_max = std::max(row_max, row[j]);
    float total = 0.0f;
    for (int j = 0; j < cols; ++j) {
      const float e = std::exp(row[j] - row_max);
      row[j] = e;
      total += e;
    }
    const float inv = 1.0f / total;
    for (int j = 0; j < cols; ++j) row[j] *= inv;
  }
}

void scalar_softmax_rows_backward(const float* dy, const float* y, float* dx,
                                  int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    const float* dyr = dy + static_cast<std::size_t>(i) * cols;
    const float* yr = y + static_cast<std::size_t>(i) * cols;
    float* dxr = dx + static_cast<std::size_t>(i) * cols;
    float dot = 0.0f;
    for (int j = 0; j < cols; ++j) dot += dyr[j] * yr[j];
    for (int j = 0; j < cols; ++j) dxr[j] = yr[j] * (dyr[j] - dot);
  }
}

void scalar_layer_norm(const float* x, const float* gamma, const float* beta,
                       float eps, int rows, int cols, float* y,
                       float* normalized, float* inv_std) {
  for (int i = 0; i < rows; ++i) {
    const float* xr = x + static_cast<std::size_t>(i) * cols;
    float* yr = y + static_cast<std::size_t>(i) * cols;
    double mean = 0.0;
    for (int j = 0; j < cols; ++j) mean += xr[j];
    mean /= cols;
    double var = 0.0;
    for (int j = 0; j < cols; ++j) {
      const double d = xr[j] - mean;
      var += d * d;
    }
    var /= cols;
    const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
    if (inv_std) inv_std[i] = istd;
    float* nr = normalized
                    ? normalized + static_cast<std::size_t>(i) * cols
                    : nullptr;
    const float fmean = static_cast<float>(mean);
    for (int j = 0; j < cols; ++j) {
      const float nrm = (xr[j] - fmean) * istd;
      if (nr) nr[j] = nrm;
      yr[j] = nrm * gamma[j] + beta[j];
    }
  }
}

inline float norm_cdf(float x) {
  return 0.5f * (1.0f + std::erf(x * 0.70710678118654752440f));
}
inline float norm_pdf(float x) {
  return 0.39894228040143267794f * std::exp(-0.5f * x * x);
}

void scalar_gelu(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] * norm_cdf(x[i]);
}

void scalar_gelu_backward(const float* dy, const float* x, float* dx,
                          std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float g = norm_cdf(x[i]) + x[i] * norm_pdf(x[i]);
    dx[i] = dy[i] * g;
  }
}

}  // namespace

const KernelTable& scalar_table() {
  static const KernelTable table{
      scalar_gemm,
      scalar_gemm_packed,
      scalar_gemm_tn,
      scalar_gemm_nt,
      scalar_add_row_bias,
      scalar_axpy,
      scalar_scale,
      scalar_softmax_rows,
      scalar_softmax_rows_backward,
      scalar_layer_norm,
      scalar_gelu,
      scalar_gelu_backward,
  };
  return table;
}

}  // namespace rebert::kernels
