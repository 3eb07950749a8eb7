// The avx2 backend's 512-bit kernels (avx2_wide.h). Compiled with
// -mavx512f in this TU only (see CMakeLists.txt), and dispatched to only
// after backend.cc's cpuid probe finds AVX-512F.
//
// Every function here mirrors a 256-bit one in kernels_avx2.cc lane for
// lane: a ZMM lane runs the same IEEE operations, in the same order, as
// the YMM lane it replaces, and a tail that the 256-bit code runs through
// a zero-padded vector runs here through a masked one. Nothing here may
// contract, reorder or re-associate differently, or the avx2 checksums
// move. The code also keeps clear of inline library functions (std::min
// and friends): an out-of-line copy compiled with -mavx512f could be the
// one the linker keeps for the whole binary.
#include "kernels/avx2_wide.h"

#if defined(REBERT_HAVE_AVX512_BUILD)

#include <immintrin.h>

#include "kernels/kernels.h"

namespace rebert::kernels::wide {

namespace {

constexpr int kNR = kPanelWidth;  // one ZMM vector
static_assert(kNR == 16, "the micro-kernels hold one panel row in a ZMM");
constexpr int kMR = 6;  // rows per strip, as in kernels_avx2.cc

inline __mmask16 first_lanes(int w) {
  return static_cast<__mmask16>((1u << w) - 1u);
}

/// 6 x 32 inner kernel: C[0..h, 0..16 + w1) = packed A strip * (panel p0,
/// panel p1), p0 full and p1's first w1 columns stored. Each element is
/// one fused multiply-add chain over kk ascending from 0, as in
/// kernels_avx2.cc's 6 x 16 kernel. Twelve named accumulators, for the
/// same scalar-replacement reason as there.
void kernel_6x32(const float* ap, const float* p0, const float* p1, float* c,
                 int ldc, int h, int k, int w1) {
  __m512 c0a = _mm512_setzero_ps(), c0b = _mm512_setzero_ps();
  __m512 c1a = _mm512_setzero_ps(), c1b = _mm512_setzero_ps();
  __m512 c2a = _mm512_setzero_ps(), c2b = _mm512_setzero_ps();
  __m512 c3a = _mm512_setzero_ps(), c3b = _mm512_setzero_ps();
  __m512 c4a = _mm512_setzero_ps(), c4b = _mm512_setzero_ps();
  __m512 c5a = _mm512_setzero_ps(), c5b = _mm512_setzero_ps();
  for (int kk = 0; kk < k; ++kk, p0 += kNR, p1 += kNR, ap += kMR) {
    const __m512 b0 = _mm512_load_ps(p0);
    const __m512 b1 = _mm512_load_ps(p1);
    __m512 av = _mm512_set1_ps(ap[0]);
    c0a = _mm512_fmadd_ps(av, b0, c0a);
    c0b = _mm512_fmadd_ps(av, b1, c0b);
    av = _mm512_set1_ps(ap[1]);
    c1a = _mm512_fmadd_ps(av, b0, c1a);
    c1b = _mm512_fmadd_ps(av, b1, c1b);
    av = _mm512_set1_ps(ap[2]);
    c2a = _mm512_fmadd_ps(av, b0, c2a);
    c2b = _mm512_fmadd_ps(av, b1, c2b);
    av = _mm512_set1_ps(ap[3]);
    c3a = _mm512_fmadd_ps(av, b0, c3a);
    c3b = _mm512_fmadd_ps(av, b1, c3b);
    av = _mm512_set1_ps(ap[4]);
    c4a = _mm512_fmadd_ps(av, b0, c4a);
    c4b = _mm512_fmadd_ps(av, b1, c4b);
    av = _mm512_set1_ps(ap[5]);
    c5a = _mm512_fmadd_ps(av, b0, c5a);
    c5b = _mm512_fmadd_ps(av, b1, c5b);
  }
  const __m512 acc0[kMR] = {c0a, c1a, c2a, c3a, c4a, c5a};
  const __m512 acc1[kMR] = {c0b, c1b, c2b, c3b, c4b, c5b};
  const __mmask16 tail = first_lanes(w1);
  for (int r = 0; r < h; ++r) {
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    _mm512_storeu_ps(crow, acc0[r]);
    _mm512_mask_storeu_ps(crow + kNR, tail, acc1[r]);
  }
}

/// The one-panel form of kernel_6x32, for an odd last panel.
void kernel_6x16(const float* ap, const float* p0, float* c, int ldc, int h,
                 int k, int w) {
  __m512 c0 = _mm512_setzero_ps(), c1 = _mm512_setzero_ps();
  __m512 c2 = _mm512_setzero_ps(), c3 = _mm512_setzero_ps();
  __m512 c4 = _mm512_setzero_ps(), c5 = _mm512_setzero_ps();
  for (int kk = 0; kk < k; ++kk, p0 += kNR, ap += kMR) {
    const __m512 b0 = _mm512_load_ps(p0);
    c0 = _mm512_fmadd_ps(_mm512_set1_ps(ap[0]), b0, c0);
    c1 = _mm512_fmadd_ps(_mm512_set1_ps(ap[1]), b0, c1);
    c2 = _mm512_fmadd_ps(_mm512_set1_ps(ap[2]), b0, c2);
    c3 = _mm512_fmadd_ps(_mm512_set1_ps(ap[3]), b0, c3);
    c4 = _mm512_fmadd_ps(_mm512_set1_ps(ap[4]), b0, c4);
    c5 = _mm512_fmadd_ps(_mm512_set1_ps(ap[5]), b0, c5);
  }
  const __m512 acc[kMR] = {c0, c1, c2, c3, c4, c5};
  const __mmask16 live = first_lanes(w);
  for (int r = 0; r < h; ++r)
    _mm512_mask_storeu_ps(c + static_cast<std::size_t>(r) * ldc, live,
                          acc[r]);
}

}  // namespace

void gemm_panels(const float* apack, const float* packed_b, float* c, int m,
                 int k, int n) {
  const int strips = (m + kMR - 1) / kMR;
  const std::size_t strip_floats = static_cast<std::size_t>(k) * kMR;
  const std::size_t panel_floats = static_cast<std::size_t>(k) * kNR;
  const float* panel = packed_b;
  int j0 = 0;
  for (; j0 + kNR < n; j0 += 2 * kNR, panel += 2 * panel_floats) {
    const int w1 = n - j0 - kNR < kNR ? n - j0 - kNR : kNR;
    for (int s = 0; s < strips; ++s) {
      const int h = m - s * kMR < kMR ? m - s * kMR : kMR;
      kernel_6x32(apack + s * strip_floats, panel, panel + panel_floats,
                  c + static_cast<std::size_t>(s) * kMR * n + j0, n, h, k,
                  w1);
    }
  }
  if (j0 < n) {
    for (int s = 0; s < strips; ++s) {
      const int h = m - s * kMR < kMR ? m - s * kMR : kMR;
      kernel_6x16(apack + s * strip_floats, panel,
                  c + static_cast<std::size_t>(s) * kMR * n + j0, n, h, k,
                  n - j0);
    }
  }
}

}  // namespace rebert::kernels::wide

#endif  // REBERT_HAVE_AVX512_BUILD
