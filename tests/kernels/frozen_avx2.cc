// The avx2 backend's gemm_nt and softmax_rows as they were before the
// column-lane gemm_nt and the eight-row interleaved softmax sums replaced
// them, kept verbatim so parity_test.cc can check that the replacements
// compute the same bits. Compiled with the kernels_avx2.cc flags (see
// tests/CMakeLists.txt), so the compiler contracts the scalar tails into
// fused multiply-adds, or not, exactly as it does there.
#include <algorithm>
#include <cmath>
#include <cstdint>

#if defined(REBERT_HAVE_AVX2_BUILD)

#include <immintrin.h>

namespace rebert::kernels::frozen_avx2 {

namespace {

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

void avx2_scale(float* x, float alpha, std::int64_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(x + i, _mm256_mul_ps(av, _mm256_loadu_ps(x + i)));
  for (; i < n; ++i) x[i] *= alpha;
}

// ---- softmax ---------------------------------------------------------------

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

}  // namespace

void gemm_nt(const float* a, const float* b, float* c, int m, int k,
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

void softmax_rows(float* x, int rows, int cols) {
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

}  // namespace rebert::kernels::frozen_avx2

#endif  // REBERT_HAVE_AVX2_BUILD
