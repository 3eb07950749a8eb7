// Runtime CPU-feature dispatch for the compute-kernel library.
//
// Two backends implement the same kernel table (kernels.h): a portable
// scalar fallback that preserves the pre-kernel numerics bit-for-bit, and
// an AVX2+FMA path compiled into its own translation unit with -mavx2
// -mfma and selected only after a cpuid probe, so the binary stays legal
// on any x86-64 (and non-x86 builds simply never compile the SIMD TU).
// Where cpuid also reports AVX-512F, the avx2 backend runs its GEMM from
// a 512-bit TU that computes the same bits (kernels.h
// avx2_wide_table()); the name stays "avx2".
//
// Selection, in priority order:
//   1. set_backend() / apply_backend_spec() — the `--kernels` CLI flag.
//   2. The REBERT_KERNELS environment variable: auto | scalar | avx2.
//   3. "auto": the fastest backend the CPU supports.
// An explicit "avx2" on a machine without AVX2+FMA logs a warning and
// falls back to scalar rather than crashing the daemon — the serving
// fleet is heterogeneous and a bad flag must degrade, not kill.
//
// Determinism contract (verified by tests/kernels/parity_test.cc and
// documented in DESIGN.md "Kernel dispatch & scratch arenas"):
//   * a given backend is bit-identical run-to-run and across thread
//     counts — kernels are single-threaded and allocate no shared state;
//   * scalar vs AVX2 results agree within kParityAtol/kParityRtol on
//     every shape class (FMA contraction and vectorized exp/erf
//     approximations reorder float arithmetic, they do not change it
//     beyond that bound);
//   * NaN/Inf inputs poison outputs identically in both backends, so the
//     graphcheck tripwire fires regardless of dispatch.
#pragma once

#include <string>

namespace rebert::kernels {

enum class Backend {
  kScalar = 0,
  kAvx2 = 1,
};

/// Scalar-vs-SIMD parity bound, checked as |a-b| <= atol + rtol*|b|.
/// Sized for the worst case in the tree: k<=1024 GEMM reductions over
/// N(0,1) data plus the vectorized exp/erf polynomial error (~1.5e-7).
inline constexpr float kParityAtol = 1e-4f;
inline constexpr float kParityRtol = 1e-3f;

/// "scalar" / "avx2" — what stats/health report as kernels=<name>.
const char* backend_name(Backend backend);

/// True when this binary carries the AVX2 TU *and* cpuid reports AVX2+FMA.
bool avx2_available();

/// True when `backend` can be selected on this machine.
bool backend_available(Backend backend);

/// The backend all dispatched kernels currently run on. First call
/// resolves REBERT_KERNELS (then "auto"); later calls are one relaxed
/// atomic load.
Backend active_backend();

/// Force the backend (CLI flag, tests, per-backend benches). Requests for
/// an unavailable backend log a warning and select scalar. Thread-safe,
/// but callers racing in-flight kernels get a mix of backends — set it at
/// startup (the CLI does) or around quiesced regions (the tests do).
void set_backend(Backend backend);

/// Parse "auto" / "" / "scalar" / "avx2" into the backend it selects on
/// this machine. Unknown tokens return false and set *error; an
/// unavailable-but-valid request ("avx2" without the CPU) succeeds with
/// the scalar fallback and a warning, matching set_backend().
bool parse_backend_spec(const std::string& spec, Backend* out,
                        std::string* error);

/// parse + set in one step for the `--kernels` flag. False (with *error)
/// only on an unknown token.
bool apply_backend_spec(const std::string& spec, std::string* error);

}  // namespace rebert::kernels
