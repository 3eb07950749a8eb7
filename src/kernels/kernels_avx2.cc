// AVX2+FMA backend. Compiled with -mavx2 -mfma in this TU only (see
// CMakeLists.txt); the rest of the binary stays plain x86-64 and
// backend.cc only dispatches here after a cpuid probe.
//
// GEMM is packed + register-blocked: B comes in the shared 16-column
// panel layout (kernels.h pack_b) — packed once at model load for
// gemm_packed, or into 64-byte-aligned arena scratch per call for gemm —
// and a 6 x 16 micro-kernel keeps six rows of C in twelve YMM
// accumulators across the full k reduction. Tail columns run through the
// same kernel against a zero-padded panel and land via a staging row;
// tail rows run on a zero-padded A strip and store only their own rows.
// Everything is single-threaded and runs in one fixed order, so results
// are bit-identical run-to-run and across thread counts (the determinism
// contract in backend.h).
//
// Transcendentals (softmax's exp, GELU's erf/pdf) use Cephes-style
// polynomial approximations (~1e-7 relative error, inside the documented
// parity tolerance). Non-finite inputs take the scalar backend's exact
// code path — a softmax row containing NaN/Inf, or a NaN/Inf GELU lane,
// is recomputed with std::exp/std::erf — so NaN/Inf poisoning is
// bit-compatible with the scalar backend and the graphcheck tripwire
// fires identically under both.
#include <cmath>
#include <cstring>

#include "kernels/arena.h"
#include "kernels/kernels.h"

#if defined(REBERT_HAVE_AVX2_BUILD)

#include <immintrin.h>

namespace rebert::kernels {

namespace {

constexpr int kNR = kPanelWidth;  // two YMM vectors
static_assert(kNR == 16, "gemm_kernel holds one panel row in two YMMs");
constexpr int kMR = 6;   // rows per micro-kernel: 12 accumulators

// ---- small helpers ---------------------------------------------------------

inline float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

/// Lane mask: 1-bits where the value is finite (not NaN, not +-Inf).
/// (x - x) == 0 exactly for finite x and is NaN otherwise.
inline int finite_mask8(__m256 v) {
  const __m256 diff = _mm256_sub_ps(v, v);
  const __m256 ok = _mm256_cmp_ps(diff, _mm256_setzero_ps(), _CMP_EQ_OQ);
  return _mm256_movemask_ps(ok);
}

inline bool all_finite(const float* x, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8)
    if (finite_mask8(_mm256_loadu_ps(x + i)) != 0xFF) return false;
  for (; i < n; ++i)
    if (!std::isfinite(x[i])) return false;
  return true;
}

/// Cephes-style expf on 8 lanes. Valid for finite inputs (callers route
/// non-finite data to the scalar path); ~1 ulp of error over the clamped
/// range [-88.37, 88.37].
inline __m256 exp8(__m256 x) {
  const __m256 hi = _mm256_set1_ps(88.3762626647949f);
  const __m256 lo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 c1 = _mm256_set1_ps(0.693359375f);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 one = _mm256_set1_ps(1.0f);

  x = _mm256_min_ps(x, hi);
  x = _mm256_max_ps(x, lo);

  __m256 fx = _mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);

  x = _mm256_fnmadd_ps(fx, c1, x);
  x = _mm256_fnmadd_ps(fx, c2, x);
  const __m256 xx = _mm256_mul_ps(x, x);

  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, xx, x);
  y = _mm256_add_ps(y, one);

  // y * 2^fx via the exponent field.
  const __m256i n = _mm256_cvttps_epi32(fx);
  const __m256i pow2 =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(0x7f)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2));
}

// ---- GEMM ------------------------------------------------------------------

/// A rows [i0, i0+h) packed kk-major, zero-padded to kMR rows:
/// ap[kk*kMR + r] = A[i0+r, kk]. The inner kernel then broadcasts from
/// one sequential stream instead of six strided row pointers — the
/// latter costs six extra address registers and spills the accumulators.
void pack_a_strip(const float* a, int lda, int h, int k, float* ap) {
  for (int kk = 0; kk < k; ++kk) {
    float* dst = ap + static_cast<std::size_t>(kk) * kMR;
    for (int r = 0; r < h; ++r)
      dst[r] = a[static_cast<std::size_t>(r) * lda + kk];
    for (int r = h; r < kMR; ++r) dst[r] = 0.0f;
  }
}

/// 6 x 16 register-blocked inner kernel: C[0..h, 0..w) = packed A strip *
/// panel. Always computes the full 6 rows (tail strips are zero-padded)
/// and stores only `h` of them. The twelve accumulators are individually
/// named — an `__m256 acc[6]` array defeats GCC's scalar replacement and
/// spills every accumulator to the stack each iteration, which costs
/// roughly half the kernel's throughput.
void gemm_kernel(const float* ap, const float* panel, float* c, int ldc,
                 int h, int k, int w) {
  __m256 c0a = _mm256_setzero_ps(), c0b = _mm256_setzero_ps();
  __m256 c1a = _mm256_setzero_ps(), c1b = _mm256_setzero_ps();
  __m256 c2a = _mm256_setzero_ps(), c2b = _mm256_setzero_ps();
  __m256 c3a = _mm256_setzero_ps(), c3b = _mm256_setzero_ps();
  __m256 c4a = _mm256_setzero_ps(), c4b = _mm256_setzero_ps();
  __m256 c5a = _mm256_setzero_ps(), c5b = _mm256_setzero_ps();
  const float* prow = panel;
  const float* arow = ap;
  for (int kk = 0; kk < k; ++kk, prow += kNR, arow += kMR) {
    const __m256 b0 = _mm256_load_ps(prow);
    const __m256 b1 = _mm256_load_ps(prow + 8);
    __m256 av = _mm256_broadcast_ss(arow + 0);
    c0a = _mm256_fmadd_ps(av, b0, c0a);
    c0b = _mm256_fmadd_ps(av, b1, c0b);
    av = _mm256_broadcast_ss(arow + 1);
    c1a = _mm256_fmadd_ps(av, b0, c1a);
    c1b = _mm256_fmadd_ps(av, b1, c1b);
    av = _mm256_broadcast_ss(arow + 2);
    c2a = _mm256_fmadd_ps(av, b0, c2a);
    c2b = _mm256_fmadd_ps(av, b1, c2b);
    av = _mm256_broadcast_ss(arow + 3);
    c3a = _mm256_fmadd_ps(av, b0, c3a);
    c3b = _mm256_fmadd_ps(av, b1, c3b);
    av = _mm256_broadcast_ss(arow + 4);
    c4a = _mm256_fmadd_ps(av, b0, c4a);
    c4b = _mm256_fmadd_ps(av, b1, c4b);
    av = _mm256_broadcast_ss(arow + 5);
    c5a = _mm256_fmadd_ps(av, b0, c5a);
    c5b = _mm256_fmadd_ps(av, b1, c5b);
  }
  const __m256 acc0[kMR] = {c0a, c1a, c2a, c3a, c4a, c5a};
  const __m256 acc1[kMR] = {c0b, c1b, c2b, c3b, c4b, c5b};
  if (w == kNR) {
    for (int r = 0; r < h; ++r) {
      float* crow = c + static_cast<std::size_t>(r) * ldc;
      _mm256_storeu_ps(crow, acc0[r]);
      _mm256_storeu_ps(crow + 8, acc1[r]);
    }
  } else {
    alignas(32) float stage[kNR];
    for (int r = 0; r < h; ++r) {
      _mm256_store_ps(stage, acc0[r]);
      _mm256_store_ps(stage + 8, acc1[r]);
      std::memcpy(c + static_cast<std::size_t>(r) * ldc, stage,
                  static_cast<std::size_t>(w) * sizeof(float));
    }
  }
}

void avx2_gemm_packed(const float* a, const float* packed_b, float* c,
                      int m, int k, int n) {
  ArenaScope scratch;
  // A packed once into kMR-row strips, reused across every B panel.
  const int strips = (m + kMR - 1) / kMR;
  const std::size_t strip_floats = static_cast<std::size_t>(k) * kMR;
  float* apack = scratch.floats(static_cast<std::size_t>(strips) *
                                strip_floats);
  for (int s = 0; s < strips; ++s)
    pack_a_strip(a + static_cast<std::size_t>(s) * kMR * k, k,
                 std::min(kMR, m - s * kMR), k, apack + s * strip_floats);
  const float* panel = packed_b;
  for (int j0 = 0; j0 < n; j0 += kNR) {
    const int w = std::min(kNR, n - j0);
    for (int s = 0; s < strips; ++s)
      gemm_kernel(apack + s * strip_floats, panel,
                  c + static_cast<std::size_t>(s) * kMR * n + j0, n,
                  std::min(kMR, m - s * kMR), k, w);
    panel += static_cast<std::size_t>(k) * kNR;
  }
}

void avx2_gemm(const float* a, const float* b, float* c, int m, int k,
               int n) {
  // Unpacked B (activations, training weights): pack it into arena
  // scratch, then run the packed path.
  ArenaScope scratch;
  float* packed = scratch.floats(packed_b_floats(k, n));
  pack_b(b, k, n, packed);
  avx2_gemm_packed(a, packed, c, m, k, n);
}

void avx2_gemm_tn(const float* a, const float* b, float* c, int m, int k,
                  int n) {
  // C[k,n] = A^T B as a sum of rank-1 updates, with the row axpy
  // vectorized: crow += a[i,kk] * brow. Same accumulation order as the
  // scalar backend, so parity is pure FMA-contraction noise.
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(k) * n; ++i)
    c[i] = 0.0f;
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    const float* brow = b + static_cast<std::size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      const __m256 av = _mm256_broadcast_ss(arow + kk);
      float* crow = c + static_cast<std::size_t>(kk) * n;
      int j = 0;
      for (; j + 8 <= n; j += 8) {
        const __m256 cv = _mm256_loadu_ps(crow + j);
        _mm256_storeu_ps(crow + j,
                         _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + j), cv));
      }
      const float afs = arow[kk];
      for (; j < n; ++j) crow[j] += afs * brow[j];
    }
  }
}

void avx2_gemm_nt(const float* a, const float* b, float* c, int m, int k,
                  int n) {
  // Dot-product form; 4 output columns at a time share one load of the A
  // chunk.
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + static_cast<std::size_t>(j) * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
      int kk = 0;
      for (; kk + 8 <= k; kk += 8) {
        const __m256 av = _mm256_loadu_ps(arow + kk);
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + kk), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + kk), acc1);
        acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + kk), acc2);
        acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + kk), acc3);
      }
      float s0 = hsum8(acc0), s1 = hsum8(acc1);
      float s2 = hsum8(acc2), s3 = hsum8(acc3);
      for (; kk < k; ++kk) {
        const float av = arow[kk];
        s0 += av * b0[kk];
        s1 += av * b1[kk];
        s2 += av * b2[kk];
        s3 += av * b3[kk];
      }
      crow[j] = s0;
      crow[j + 1] = s1;
      crow[j + 2] = s2;
      crow[j + 3] = s3;
    }
    for (; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      __m256 acc = _mm256_setzero_ps();
      int kk = 0;
      for (; kk + 8 <= k; kk += 8)
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk),
                              _mm256_loadu_ps(brow + kk), acc);
      float s = hsum8(acc);
      for (; kk < k; ++kk) s += arow[kk] * brow[kk];
      crow[j] = s;
    }
  }
}

// ---- elementwise -----------------------------------------------------------

void avx2_add_row_bias(float* x, const float* bias, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    float* row = x + static_cast<std::size_t>(i) * cols;
    int j = 0;
    for (; j + 8 <= cols; j += 8)
      _mm256_storeu_ps(row + j, _mm256_add_ps(_mm256_loadu_ps(row + j),
                                              _mm256_loadu_ps(bias + j)));
    for (; j < cols; ++j) row[j] += bias[j];
  }
}

void avx2_axpy(float* y, const float* x, float alpha, std::int64_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                                            _mm256_loadu_ps(y + i)));
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void avx2_scale(float* x, float alpha, std::int64_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(x + i, _mm256_mul_ps(av, _mm256_loadu_ps(x + i)));
  for (; i < n; ++i) x[i] *= alpha;
}

// ---- softmax ---------------------------------------------------------------

/// Exact scalar-backend row softmax, for rows with non-finite entries.
void softmax_row_scalar(float* row, int cols) {
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

void avx2_softmax_rows(float* x, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    float* row = x + static_cast<std::size_t>(i) * cols;
    if (!all_finite(row, cols)) {
      // NaN / +-Inf rows poison exactly like the scalar backend.
      softmax_row_scalar(row, cols);
      continue;
    }
    // Fused pass structure: vector max, then exp+accumulate, then scale.
    __m256 vmax = _mm256_set1_ps(row[0]);
    int j = 0;
    for (; j + 8 <= cols; j += 8)
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row + j));
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, vmax);
    float row_max = lanes[0];
    for (int l = 1; l < 8; ++l) row_max = std::max(row_max, lanes[l]);
    for (; j < cols; ++j) row_max = std::max(row_max, row[j]);

    const __m256 vm = _mm256_set1_ps(row_max);
    j = 0;
    for (; j + 8 <= cols; j += 8)
      _mm256_storeu_ps(row + j,
                       exp8(_mm256_sub_ps(_mm256_loadu_ps(row + j), vm)));
    for (; j < cols; ++j) row[j] = std::exp(row[j] - row_max);
    // The total accumulates scalar, left to right, NOT as a vector
    // reduction: in-order summation makes the result independent of how
    // the row length falls against the vector width, which preserves the
    // masking invariant (a padded row whose masked tail underflows to ~0
    // sums to the same total as the unpadded row) that the bert masking
    // tests pin down. exp dominates this loop; the scalar sum is noise.
    float total = 0.0f;
    for (int jj = 0; jj < cols; ++jj) total += row[jj];
    const float inv = 1.0f / total;
    avx2_scale(row, inv, cols);
  }
}

void avx2_softmax_rows_backward(const float* dy, const float* y, float* dx,
                                int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    const float* dyr = dy + static_cast<std::size_t>(i) * cols;
    const float* yr = y + static_cast<std::size_t>(i) * cols;
    float* dxr = dx + static_cast<std::size_t>(i) * cols;
    __m256 vdot = _mm256_setzero_ps();
    int j = 0;
    for (; j + 8 <= cols; j += 8)
      vdot = _mm256_fmadd_ps(_mm256_loadu_ps(dyr + j),
                             _mm256_loadu_ps(yr + j), vdot);
    float dot = hsum8(vdot);
    for (; j < cols; ++j) dot += dyr[j] * yr[j];
    const __m256 vd = _mm256_set1_ps(dot);
    j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(dyr + j), vd);
      _mm256_storeu_ps(dxr + j, _mm256_mul_ps(_mm256_loadu_ps(yr + j), d));
    }
    for (; j < cols; ++j) dxr[j] = yr[j] * (dyr[j] - dot);
  }
}

// ---- LayerNorm -------------------------------------------------------------

void avx2_layer_norm(const float* x, const float* gamma, const float* beta,
                     float eps, int rows, int cols, float* y,
                     float* normalized, float* inv_std) {
  for (int i = 0; i < rows; ++i) {
    const float* xr = x + static_cast<std::size_t>(i) * cols;
    float* yr = y + static_cast<std::size_t>(i) * cols;
    // Pass 1: mean (vector accumulate + tail). NaN/Inf propagate through
    // the adds and poison the whole row, matching the scalar backend.
    __m256 vsum = _mm256_setzero_ps();
    int j = 0;
    for (; j + 8 <= cols; j += 8)
      vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(xr + j));
    float sum = hsum8(vsum);
    for (; j < cols; ++j) sum += xr[j];
    const float mean = sum / static_cast<float>(cols);

    // Pass 2: variance of (x - mean).
    const __m256 vmean = _mm256_set1_ps(mean);
    __m256 vvar = _mm256_setzero_ps();
    j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(xr + j), vmean);
      vvar = _mm256_fmadd_ps(d, d, vvar);
    }
    float var = hsum8(vvar);
    for (; j < cols; ++j) {
      const float d = xr[j] - mean;
      var += d * d;
    }
    var /= static_cast<float>(cols);
    const float istd = 1.0f / std::sqrt(var + eps);
    if (inv_std) inv_std[i] = istd;

    // Pass 3: y = (x - mean) * istd * gamma + beta (and the normalized
    // intermediate when the caller needs it for backward).
    float* nr = normalized
                    ? normalized + static_cast<std::size_t>(i) * cols
                    : nullptr;
    const __m256 vistd = _mm256_set1_ps(istd);
    j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256 nrm = _mm256_mul_ps(
          _mm256_sub_ps(_mm256_loadu_ps(xr + j), vmean), vistd);
      if (nr) _mm256_storeu_ps(nr + j, nrm);
      _mm256_storeu_ps(
          yr + j, _mm256_fmadd_ps(nrm, _mm256_loadu_ps(gamma + j),
                                  _mm256_loadu_ps(beta + j)));
    }
    for (; j < cols; ++j) {
      const float nrm = (xr[j] - mean) * istd;
      if (nr) nr[j] = nrm;
      yr[j] = nrm * gamma[j] + beta[j];
    }
  }
}

// ---- GELU ------------------------------------------------------------------

inline float scalar_norm_cdf(float x) {
  return 0.5f * (1.0f + std::erf(x * 0.70710678118654752440f));
}
inline float scalar_norm_pdf(float x) {
  return 0.39894228040143267794f * std::exp(-0.5f * x * x);
}

/// Vector Phi(x) via the Abramowitz & Stegun 7.1.26 erf polynomial
/// (|error| < 1.5e-7, well inside kParityAtol). Finite lanes only.
inline __m256 norm_cdf8(__m256 x) {
  const __m256 inv_sqrt2 = _mm256_set1_ps(0.70710678118654752440f);
  const __m256 z = _mm256_mul_ps(x, inv_sqrt2);
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  const __m256 az = _mm256_andnot_ps(sign_bit, z);  // |z|
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 t = _mm256_div_ps(
      one, _mm256_fmadd_ps(_mm256_set1_ps(0.3275911f), az, one));
  __m256 poly = _mm256_set1_ps(1.061405429f);
  poly = _mm256_fmadd_ps(poly, t, _mm256_set1_ps(-1.453152027f));
  poly = _mm256_fmadd_ps(poly, t, _mm256_set1_ps(1.421413741f));
  poly = _mm256_fmadd_ps(poly, t, _mm256_set1_ps(-0.284496736f));
  poly = _mm256_fmadd_ps(poly, t, _mm256_set1_ps(0.254829592f));
  poly = _mm256_mul_ps(poly, t);
  const __m256 e =
      exp8(_mm256_sub_ps(_mm256_setzero_ps(), _mm256_mul_ps(az, az)));
  const __m256 erf_abs = _mm256_fnmadd_ps(poly, e, one);  // 1 - poly*e
  // Restore sign: erf(-z) = -erf(z).
  const __m256 zsign = _mm256_and_ps(z, sign_bit);
  const __m256 erf = _mm256_or_ps(erf_abs, zsign);
  return _mm256_mul_ps(_mm256_set1_ps(0.5f), _mm256_add_ps(one, erf));
}

void avx2_gelu(const float* x, float* y, std::int64_t n) {
  // Strictly per element, whatever vector a value lands in: finite lanes
  // take the polynomial (a tail runs zero-padded through it) and only
  // non-finite lanes the scalar backend's exact formula. So a row's GELU
  // is the same alone or inside a longer buffer.
  for (std::int64_t i = 0; i < n; i += 8) {
    const int w = static_cast<int>(std::min<std::int64_t>(8, n - i));
    const float* in = x + i;
    alignas(32) float tail[8] = {};
    if (w < 8) {
      std::memcpy(tail, in, static_cast<std::size_t>(w) * sizeof(float));
      in = tail;
    }
    const __m256 xv = _mm256_loadu_ps(in);
    const __m256 yv = _mm256_mul_ps(xv, norm_cdf8(xv));
    const int finite = finite_mask8(xv);
    if (w == 8 && finite == 0xFF) {
      _mm256_storeu_ps(y + i, yv);
      continue;
    }
    alignas(32) float out[8];
    _mm256_store_ps(out, yv);
    for (int l = 0; l < w; ++l)
      y[i + l] = (finite >> l & 1) ? out[l] : in[l] * scalar_norm_cdf(in[l]);
  }
}

void avx2_gelu_backward(const float* dy, const float* x, float* dx,
                        std::int64_t n) {
  const __m256 neg_half = _mm256_set1_ps(-0.5f);
  const __m256 inv_sqrt_2pi = _mm256_set1_ps(0.39894228040143267794f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    if (finite_mask8(xv) != 0xFF) {
      for (int l = 0; l < 8; ++l) {
        const float g = scalar_norm_cdf(x[i + l]) +
                        x[i + l] * scalar_norm_pdf(x[i + l]);
        dx[i + l] = dy[i + l] * g;
      }
      continue;
    }
    const __m256 cdf = norm_cdf8(xv);
    const __m256 pdf = _mm256_mul_ps(
        inv_sqrt_2pi,
        exp8(_mm256_mul_ps(neg_half, _mm256_mul_ps(xv, xv))));
    const __m256 g = _mm256_fmadd_ps(xv, pdf, cdf);
    _mm256_storeu_ps(dx + i, _mm256_mul_ps(_mm256_loadu_ps(dy + i), g));
  }
  for (; i < n; ++i) {
    const float g =
        scalar_norm_cdf(x[i]) + x[i] * scalar_norm_pdf(x[i]);
    dx[i] = dy[i] * g;
  }
}

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable table{
      avx2_gemm,
      avx2_gemm_packed,
      avx2_gemm_tn,
      avx2_gemm_nt,
      avx2_add_row_bias,
      avx2_axpy,
      avx2_scale,
      avx2_softmax_rows,
      avx2_softmax_rows_backward,
      avx2_layer_norm,
      avx2_gelu,
      avx2_gelu_backward,
  };
  return table;
}

}  // namespace rebert::kernels

#endif  // REBERT_HAVE_AVX2_BUILD
