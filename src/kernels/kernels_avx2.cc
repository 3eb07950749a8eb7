// AVX2+FMA backend. Compiled with -mavx2 -mfma in this TU only (see
// CMakeLists.txt); the rest of the binary stays plain x86-64 and
// backend.cc only dispatches here after a cpuid probe. On CPUs with
// AVX-512F the same backend runs its GEMM 512 bits wide
// (kernels_avx2_wide.cc, the avx2_wide_table() below): every output
// element is still computed by the same chain of IEEE operations, so the
// bits, the backend name and the model fingerprint are those of the
// 256-bit table.
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
#include "kernels/avx2_wide.h"
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

/// In-place 8 x 8 transpose: afterwards lane r of t[c] is what lane c of
/// t[r] was. Pure data movement, so it changes no bits.
inline void transpose8(__m256 (&t)[8]) {
  const __m256 a0 = _mm256_unpacklo_ps(t[0], t[1]);
  const __m256 a1 = _mm256_unpackhi_ps(t[0], t[1]);
  const __m256 a2 = _mm256_unpacklo_ps(t[2], t[3]);
  const __m256 a3 = _mm256_unpackhi_ps(t[2], t[3]);
  const __m256 a4 = _mm256_unpacklo_ps(t[4], t[5]);
  const __m256 a5 = _mm256_unpackhi_ps(t[4], t[5]);
  const __m256 a6 = _mm256_unpacklo_ps(t[6], t[7]);
  const __m256 a7 = _mm256_unpackhi_ps(t[6], t[7]);
  const __m256 b0 = _mm256_shuffle_ps(a0, a2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 b1 = _mm256_shuffle_ps(a0, a2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 b2 = _mm256_shuffle_ps(a1, a3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 b3 = _mm256_shuffle_ps(a1, a3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 b4 = _mm256_shuffle_ps(a4, a6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 b5 = _mm256_shuffle_ps(a4, a6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 b6 = _mm256_shuffle_ps(a5, a7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 b7 = _mm256_shuffle_ps(a5, a7, _MM_SHUFFLE(3, 2, 3, 2));
  t[0] = _mm256_permute2f128_ps(b0, b4, 0x20);
  t[1] = _mm256_permute2f128_ps(b1, b5, 0x20);
  t[2] = _mm256_permute2f128_ps(b2, b6, 0x20);
  t[3] = _mm256_permute2f128_ps(b3, b7, 0x20);
  t[4] = _mm256_permute2f128_ps(b0, b4, 0x31);
  t[5] = _mm256_permute2f128_ps(b1, b5, 0x31);
  t[6] = _mm256_permute2f128_ps(b2, b6, 0x31);
  t[7] = _mm256_permute2f128_ps(b3, b7, 0x31);
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
/// Full strips move 8 columns at a time through an 8 x 8 transpose (rows
/// 6 and 7 zero, and masked off at the store); the rest go one float at
/// a time.
void pack_a_strip(const float* a, int lda, int h, int k, float* ap) {
  int kk = 0;
  if (h == kMR) {
    const __m256i six = _mm256_setr_epi32(-1, -1, -1, -1, -1, -1, 0, 0);
    for (; kk + 8 <= k; kk += 8) {
      __m256 t[8];
      for (int r = 0; r < kMR; ++r)
        t[r] = _mm256_loadu_ps(a + static_cast<std::size_t>(r) * lda + kk);
      t[6] = t[7] = _mm256_setzero_ps();
      transpose8(t);
      for (int c = 0; c < 8; ++c)
        _mm256_maskstore_ps(ap + static_cast<std::size_t>(kk + c) * kMR, six,
                            t[c]);
    }
  }
  for (; kk < k; ++kk) {
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

/// C = packed A strips * packed B, every strip against every panel: the
/// 256-bit panel loop (wide::gemm_panels is the 512-bit one).
void gemm_panels8(const float* apack, const float* packed_b, float* c,
                  int m, int k, int n) {
  const int strips = (m + kMR - 1) / kMR;
  const std::size_t strip_floats = static_cast<std::size_t>(k) * kMR;
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

using PanelLoop = void (*)(const float* apack, const float* packed_b,
                           float* c, int m, int k, int n);

template <PanelLoop kPanels>
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
  kPanels(apack, packed_b, c, m, k, n);
}

template <PanelLoop kPanels>
void avx2_gemm(const float* a, const float* b, float* c, int m, int k,
               int n) {
  // Unpacked B (activations, training weights): pack it into arena
  // scratch, then run the packed path.
  ArenaScope scratch;
  float* packed = scratch.floats(packed_b_floats(k, n));
  pack_b(b, k, n, packed);
  avx2_gemm_packed<kPanels>(a, packed, c, m, k, n);
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
  // Output columns in the lanes. B's first k8 columns are transposed
  // into arena panels of 8 output columns (panel row kk holds B[j, kk]
  // for the panel's j), and each A row keeps one accumulator per kk % 8,
  // which it then adds in hsum8's tree. Lane j of accumulator l is thus
  // exactly what lane l of a dot-product accumulator over (A row, B row
  // j) would hold, so every output is the chain of operations of the
  // one-output-at-a-time dot product: fused k8 chunks, hsum8's tree,
  // then the k % 8 tail added in the same scalar statement.
  ArenaScope scratch;
  const int k8 = k - k % 8;
  const int panels = (n + 7) / 8;
  const std::size_t panel_floats = static_cast<std::size_t>(k8) * 8;
  float* bt = scratch.floats(static_cast<std::size_t>(panels) * panel_floats);
  for (int p = 0; p < panels; ++p) {
    const int w = std::min(8, n - p * 8);
    const float* b0 = b + static_cast<std::size_t>(p) * 8 * k;
    float* dst = bt + p * panel_floats;
    for (int kk = 0; kk < k8; kk += 8) {
      __m256 t[8];
      for (int l = 0; l < 8; ++l)
        t[l] = l < w ? _mm256_loadu_ps(b0 + static_cast<std::size_t>(l) * k +
                                       kk)
                     : _mm256_setzero_ps();
      transpose8(t);
      for (int l = 0; l < 8; ++l)
        _mm256_store_ps(dst + static_cast<std::size_t>(kk + l) * 8, t[l]);
    }
  }
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int p = 0; p < panels; ++p) {
      const float* panel = bt + p * panel_floats;
      __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
      __m256 acc4 = _mm256_setzero_ps(), acc5 = _mm256_setzero_ps();
      __m256 acc6 = _mm256_setzero_ps(), acc7 = _mm256_setzero_ps();
      for (int kk = 0; kk < k8; kk += 8, panel += 64) {
        const float* av = arow + kk;
        acc0 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 0),
                               _mm256_load_ps(panel + 0), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 1),
                               _mm256_load_ps(panel + 8), acc1);
        acc2 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 2),
                               _mm256_load_ps(panel + 16), acc2);
        acc3 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 3),
                               _mm256_load_ps(panel + 24), acc3);
        acc4 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 4),
                               _mm256_load_ps(panel + 32), acc4);
        acc5 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 5),
                               _mm256_load_ps(panel + 40), acc5);
        acc6 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 6),
                               _mm256_load_ps(panel + 48), acc6);
        acc7 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 7),
                               _mm256_load_ps(panel + 56), acc7);
      }
      // hsum8(v) = ((v0 + v4) + (v2 + v6)) + ((v1 + v5) + (v3 + v7)).
      const __m256 sum = _mm256_add_ps(
          _mm256_add_ps(_mm256_add_ps(acc0, acc4), _mm256_add_ps(acc2, acc6)),
          _mm256_add_ps(_mm256_add_ps(acc1, acc5), _mm256_add_ps(acc3, acc7)));
      const int j0 = p * 8;
      const int w = std::min(8, n - j0);
      if (w == 8 && k8 == k) {
        _mm256_storeu_ps(crow + j0, sum);
        continue;
      }
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, sum);
      for (int l = 0; l < w; ++l) {
        const float* brow = b + static_cast<std::size_t>(j0 + l) * k;
        float s = lanes[l];
        for (int kk = k8; kk < k; ++kk) s += arow[kk] * brow[kk];
        crow[j0 + l] = s;
      }
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

/// total[r] = row[r][0] + row[r][1] + ... + row[r][cols - 1], added from
/// 0 left to right in each lane: eight rows' in-order scalar sums run as
/// eight interleaved chains, so no add waits on its row's last one.
void row_totals8(float* const (&row)[8], int cols, float* total) {
  __m256 acc = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= cols; j += 8) {
    __m256 t[8];
    for (int r = 0; r < 8; ++r) t[r] = _mm256_loadu_ps(row[r] + j);
    transpose8(t);
    for (int c = 0; c < 8; ++c) acc = _mm256_add_ps(acc, t[c]);
  }
  for (; j < cols; ++j)
    acc = _mm256_add_ps(
        acc, _mm256_setr_ps(row[0][j], row[1][j], row[2][j], row[3][j],
                            row[4][j], row[5][j], row[6][j], row[7][j]));
  _mm256_store_ps(total, acc);
}

void avx2_softmax_rows(float* x, int rows, int cols) {
  const int vector_cols = cols - cols % 8;
  for (int i0 = 0; i0 < rows; i0 += 8) {
    // Lanes past the last row re-read it; their totals go unused.
    const int h = std::min(8, rows - i0);
    float* row[8];
    int finite = 0;
    for (int r = 0; r < 8; ++r) {
      row[r] = x + static_cast<std::size_t>(i0 + std::min(r, h - 1)) * cols;
      if (r >= h) continue;
      if (!all_finite(row[r], cols)) {
        // NaN / +-Inf rows poison exactly like the scalar backend.
        softmax_row_scalar(row[r], cols);
        continue;
      }
      finite |= 1 << r;
      // Vector max, then exp: vector lanes, then a std::exp tail.
      __m256 vmax = _mm256_set1_ps(row[r][0]);
      for (int j = 0; j < vector_cols; j += 8)
        vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row[r] + j));
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, vmax);
      float row_max = lanes[0];
      for (int l = 1; l < 8; ++l) row_max = std::max(row_max, lanes[l]);
      for (int j = vector_cols; j < cols; ++j)
        row_max = std::max(row_max, row[r][j]);
      const __m256 vm = _mm256_set1_ps(row_max);
      for (int j = 0; j < vector_cols; j += 8)
        _mm256_storeu_ps(row[r] + j,
                         exp8(_mm256_sub_ps(_mm256_loadu_ps(row[r] + j), vm)));
      for (int j = vector_cols; j < cols; ++j)
        row[r][j] = std::exp(row[r][j] - row_max);
    }
    if (finite == 0) continue;
    // Each total adds its row left to right from 0, NOT as a vector
    // reduction: in-order summation makes the result independent of how
    // the row length falls against the vector width, which preserves the
    // masking invariant (a padded row whose masked tail underflows to ~0
    // sums to the same total as the unpadded row) that the bert masking
    // tests pin down.
    alignas(32) float total[8];
    row_totals8(row, cols, total);
    for (int r = 0; r < h; ++r)
      if (finite >> r & 1) avx2_scale(row[r], 1.0f / total[r], cols);
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
      avx2_gemm<gemm_panels8>,
      avx2_gemm_packed<gemm_panels8>,
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

#if defined(REBERT_HAVE_AVX512_BUILD)
const KernelTable& avx2_wide_table() {
  static const KernelTable table = [] {
    KernelTable wide_table = avx2_table();
    wide_table.gemm = avx2_gemm<wide::gemm_panels>;
    wide_table.gemm_packed = avx2_gemm_packed<wide::gemm_panels>;
    return wide_table;
  }();
  return table;
}
#endif

}  // namespace rebert::kernels

#endif  // REBERT_HAVE_AVX2_BUILD
