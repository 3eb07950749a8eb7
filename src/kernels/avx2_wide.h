// The 512-bit pieces of the avx2 backend, compiled with -mavx512f in
// kernels_avx2_wide.cc and reached only through avx2_wide_table()
// (kernels_avx2.cc), which backend.cc hands out for Backend::kAvx2 when
// the CPU has AVX-512F. Each computes every output element by the same
// chain of IEEE operations as its 256-bit counterpart in kernels_avx2.cc,
// so the two tables are bitwise equal (tests/kernels/parity_test.cc).
#pragma once

namespace rebert::kernels::wide {

/// C[m, n] = A * B from A packed by kernels_avx2.cc's pack_a_strip —
/// ceil(m / 6) strips of k * 6 floats, strip s holding A rows
/// [6s, 6s + 6) kk-major and zero-padded — and B in the pack_b layout.
/// A 6 x 32 micro-kernel covers two panels at a time.
void gemm_panels(const float* apack, const float* packed_b, float* c, int m,
                 int k, int n);

}  // namespace rebert::kernels::wide
