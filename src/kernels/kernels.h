// The dispatched compute-kernel API — raw aligned-float-pointer kernels
// behind tensor/ops.cc and the BERT layers.
//
// Everything here is a free function forwarding through the active
// backend's KernelTable (backend.h), except the B-panel packer, whose
// layout every backend shares. The API is deliberately below the
// Tensor abstraction: callers hand in bare pointers plus dimensions, so
// the same entry points serve Tensor-valued ops, arena-backed attention
// temporaries, and the microbenchmarks without copies. All matrices are
// row-major. No kernel allocates from the heap — scratch (GEMM packing
// buffers) comes from the per-thread Arena (arena.h), so the hot path
// performs zero malloc/free regardless of backend.
//
// The avx2 backend runs its GEMM 512 bits wide where the CPU has
// AVX-512F, with the 256-bit table's bits (avx2_wide_table() below); it
// is one backend, reported and fingerprinted as "avx2".
//
// Aliasing rules: output buffers must not overlap inputs unless the
// kernel is documented in-place (softmax_rows, add_row_bias, scale,
// axpy). gemm* require c to be disjoint from a and b.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/backend.h"

namespace rebert::kernels {

/// Packed-B layout read by every backend's gemm_packed: B[k, n] split into
/// ceil(n / kPanelWidth) column panels, each k rows of kPanelWidth floats
/// (columns past n zero-filled), panels stored back to back. A panel is
/// k * 64 bytes, so every panel starts 64-byte aligned when the buffer
/// does. One layout for all backends means weights packed once stay valid
/// across set_backend().
inline constexpr int kPanelWidth = 16;

/// Floats pack_b writes for a [k, n] matrix.
std::size_t packed_b_floats(int k, int n);

/// Pack row-major B[k, n] into `packed` (packed_b_floats(k, n) floats,
/// 64-byte aligned).
void pack_b(const float* b, int k, int n, float* packed);

/// One backend's implementation of every kernel. Tests and per-backend
/// benchmarks call through table_for(backend) directly; production code
/// uses the dispatched free functions below.
struct KernelTable {
  // C[m,n] = A[m,k] * B[k,n]; C is overwritten.
  void (*gemm)(const float* a, const float* b, float* c, int m, int k,
               int n);
  // gemm with B already in the pack_b layout. Each C element is reduced
  // in the same order as gemm, so the two are bitwise equal per backend.
  void (*gemm_packed)(const float* a, const float* packed_b, float* c,
                      int m, int k, int n);
  // C[k,n] = A^T * B with A[m,k], B[m,n]; C is overwritten.
  void (*gemm_tn)(const float* a, const float* b, float* c, int m, int k,
                  int n);
  // C[m,n] = A * B^T with A[m,k], B[n,k]; C is overwritten.
  void (*gemm_nt)(const float* a, const float* b, float* c, int m, int k,
                  int n);
  // x[i,j] += bias[j], in place.
  void (*add_row_bias)(float* x, const float* bias, int rows, int cols);
  // y += alpha * x.
  void (*axpy)(float* y, const float* x, float alpha, std::int64_t n);
  // x *= alpha, in place.
  void (*scale)(float* x, float alpha, std::int64_t n);
  // Row-wise fused softmax with max-subtraction, in place.
  void (*softmax_rows)(float* x, int rows, int cols);
  // dx_i = y_i * (dy_i - sum_j dy_j y_j) per row; dx may alias dy.
  void (*softmax_rows_backward)(const float* dy, const float* y, float* dx,
                                int rows, int cols);
  // Fused LayerNorm over rows: y = (x - mean) * istd * gamma + beta.
  // `normalized` (the (x-mean)*istd intermediate) and `inv_std` (per-row
  // istd) are written only when non-null — inference passes null and the
  // kernel materializes nothing but y.
  void (*layer_norm)(const float* x, const float* gamma, const float* beta,
                     float eps, int rows, int cols, float* y,
                     float* normalized, float* inv_std);
  // Exact-GELU forward y = x * Phi(x) and backward dx = dy * gelu'(x).
  void (*gelu)(const float* x, float* y, std::int64_t n);
  void (*gelu_backward)(const float* dy, const float* x, float* dx,
                        std::int64_t n);
};

/// The table implementing `backend`. Asking for an unavailable backend
/// returns the scalar table (mirrors set_backend's fallback).
const KernelTable& table_for(Backend backend);

/// The active backend's table (one relaxed atomic load after first use).
const KernelTable& active_table();

// ---- dispatched entry points ----------------------------------------------

inline void gemm(const float* a, const float* b, float* c, int m, int k,
                 int n) {
  active_table().gemm(a, b, c, m, k, n);
}
inline void gemm_packed(const float* a, const float* packed_b, float* c,
                        int m, int k, int n) {
  active_table().gemm_packed(a, packed_b, c, m, k, n);
}
inline void gemm_tn(const float* a, const float* b, float* c, int m, int k,
                    int n) {
  active_table().gemm_tn(a, b, c, m, k, n);
}
inline void gemm_nt(const float* a, const float* b, float* c, int m, int k,
                    int n) {
  active_table().gemm_nt(a, b, c, m, k, n);
}
inline void add_row_bias(float* x, const float* bias, int rows, int cols) {
  active_table().add_row_bias(x, bias, rows, cols);
}
inline void axpy(float* y, const float* x, float alpha, std::int64_t n) {
  active_table().axpy(y, x, alpha, n);
}
inline void scale(float* x, float alpha, std::int64_t n) {
  active_table().scale(x, alpha, n);
}
inline void softmax_rows(float* x, int rows, int cols) {
  active_table().softmax_rows(x, rows, cols);
}
inline void softmax_rows_backward(const float* dy, const float* y, float* dx,
                                  int rows, int cols) {
  active_table().softmax_rows_backward(dy, y, dx, rows, cols);
}
inline void layer_norm(const float* x, const float* gamma, const float* beta,
                       float eps, int rows, int cols, float* y,
                       float* normalized, float* inv_std) {
  active_table().layer_norm(x, gamma, beta, eps, rows, cols, y, normalized,
                            inv_std);
}
inline void gelu(const float* x, float* y, std::int64_t n) {
  active_table().gelu(x, y, n);
}
inline void gelu_backward(const float* dy, const float* x, float* dx,
                          std::int64_t n) {
  active_table().gelu_backward(dy, x, dx, n);
}

// Implemented in kernels_scalar.cc (always) and kernels_avx2.cc (x86-64
// builds only; backend.cc falls back when the TU is absent).
const KernelTable& scalar_table();
#if defined(REBERT_HAVE_AVX2_BUILD)
const KernelTable& avx2_table();
#endif
#if defined(REBERT_HAVE_AVX512_BUILD)
/// The avx2 table with 512-bit gemm and gemm_packed, bitwise equal to
/// avx2_table(); call only when avx2_runs_wide().
const KernelTable& avx2_wide_table();
#endif

/// True when table_for(Backend::kAvx2) is the wide table: the build has
/// the 512-bit TU and cpuid reports AVX2, FMA and AVX-512F. Nothing
/// outside the tests needs the 256-bit table on such a CPU, so there is
/// no switch back to it.
bool avx2_runs_wide();

}  // namespace rebert::kernels
