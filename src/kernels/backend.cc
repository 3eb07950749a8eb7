#include "kernels/backend.h"

#include <atomic>

#include "kernels/kernels.h"
#include "util/env.h"
#include "util/logging.h"

namespace rebert::kernels {

namespace {

/// The dispatch state: the active backend enum (for reporting) and the
/// table pointer every dispatched call loads. Written together by
/// set_backend; readers only need each value individually, so two relaxed
/// atomics are enough (a racing reader sees one backend or the other,
/// both valid tables).
std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<Backend> g_backend{Backend::kScalar};

bool cpu_has_avx2_fma() {
#if defined(REBERT_HAVE_AVX2_BUILD) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_avx512f() {
#if defined(REBERT_HAVE_AVX512_BUILD) && defined(__GNUC__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

Backend best_available() {
  return cpu_has_avx2_fma() ? Backend::kAvx2 : Backend::kScalar;
}

void store_backend(Backend backend) {
  g_backend.store(backend, std::memory_order_relaxed);
  g_table.store(&table_for(backend), std::memory_order_release);
}

/// One-time resolution of REBERT_KERNELS on first dispatch. Not
/// std::call_once: a benign race here just resolves the same environment
/// twice to the same answer.
const KernelTable* init_from_env() {
  const std::string spec = util::env_string("REBERT_KERNELS", "auto");
  Backend backend = best_available();
  std::string error;
  if (!parse_backend_spec(spec, &backend, &error)) {
    LOG_WARN << "REBERT_KERNELS=" << spec << " is invalid (" << error
             << "); using " << backend_name(best_available());
    backend = best_available();
  }
  store_backend(backend);
  return g_table.load(std::memory_order_acquire);
}

}  // namespace

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
  }
  return "unknown";
}

bool avx2_available() { return cpu_has_avx2_fma(); }

bool backend_available(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return true;
    case Backend::kAvx2: return avx2_available();
  }
  return false;
}

bool avx2_runs_wide() { return avx2_available() && cpu_has_avx512f(); }

const KernelTable& table_for(Backend backend) {
#if defined(REBERT_HAVE_AVX2_BUILD)
  if (backend == Backend::kAvx2 && avx2_available()) {
#if defined(REBERT_HAVE_AVX512_BUILD)
    if (avx2_runs_wide()) return avx2_wide_table();
#endif
    return avx2_table();
  }
#else
  (void)backend;
#endif
  return scalar_table();
}

const KernelTable& active_table() {
  const KernelTable* table = g_table.load(std::memory_order_acquire);
  if (table == nullptr) table = init_from_env();
  return *table;
}

Backend active_backend() {
  // Force first-use resolution so the reported name matches dispatch.
  (void)active_table();
  return g_backend.load(std::memory_order_relaxed);
}

void set_backend(Backend backend) {
  if (!backend_available(backend)) {
    LOG_WARN << "kernels backend " << backend_name(backend)
             << " unavailable on this CPU; falling back to scalar";
    backend = Backend::kScalar;
  }
  store_backend(backend);
}

bool parse_backend_spec(const std::string& spec, Backend* out,
                        std::string* error) {
  if (spec.empty() || spec == "auto") {
    *out = best_available();
    return true;
  }
  if (spec == "scalar") {
    *out = Backend::kScalar;
    return true;
  }
  if (spec == "avx2") {
    if (avx2_available()) {
      *out = Backend::kAvx2;
    } else {
      LOG_WARN << "kernels backend avx2 unavailable on this CPU; "
                  "falling back to scalar";
      *out = Backend::kScalar;
    }
    return true;
  }
  if (error) *error = "expected auto, scalar, or avx2";
  return false;
}

bool apply_backend_spec(const std::string& spec, std::string* error) {
  Backend backend = Backend::kScalar;
  if (!parse_backend_spec(spec, &backend, error)) return false;
  store_backend(backend);
  return true;
}

}  // namespace rebert::kernels
