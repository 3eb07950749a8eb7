// Backend selection: spec parsing, availability probing, runtime
// switching, and graceful fallback when a requested backend is missing.
#include "kernels/backend.h"

#include <gtest/gtest.h>

#include "kernels/kernels.h"

namespace rebert::kernels {
namespace {

TEST(BackendSpecTest, AutoPicksAnAvailableBackend) {
  Backend backend = Backend::kScalar;
  std::string error;
  ASSERT_TRUE(parse_backend_spec("auto", &backend, &error)) << error;
  EXPECT_TRUE(backend_available(backend));
  // Auto must pick the best available backend, not just any.
  if (avx2_available()) EXPECT_EQ(backend, Backend::kAvx2);
}

TEST(BackendSpecTest, EmptySpecBehavesLikeAuto) {
  Backend from_empty = Backend::kScalar;
  Backend from_auto = Backend::kAvx2;
  ASSERT_TRUE(parse_backend_spec("", &from_empty, nullptr));
  ASSERT_TRUE(parse_backend_spec("auto", &from_auto, nullptr));
  EXPECT_EQ(from_empty, from_auto);
}

TEST(BackendSpecTest, ScalarAlwaysParsesAndIsAvailable) {
  Backend backend = Backend::kAvx2;
  ASSERT_TRUE(parse_backend_spec("scalar", &backend, nullptr));
  EXPECT_EQ(backend, Backend::kScalar);
  EXPECT_TRUE(backend_available(Backend::kScalar));
}

TEST(BackendSpecTest, Avx2SpecFallsBackInsteadOfFailing) {
  // On an AVX2 host this selects AVX2; elsewhere it degrades to scalar
  // with a warning. Either way the spec is accepted: a fleet-wide config
  // must not crash the one pre-AVX2 box.
  Backend backend = Backend::kScalar;
  ASSERT_TRUE(parse_backend_spec("avx2", &backend, nullptr));
  EXPECT_EQ(backend,
            avx2_available() ? Backend::kAvx2 : Backend::kScalar);
}

TEST(BackendSpecTest, UnknownSpecIsRejectedWithMessage) {
  Backend backend = Backend::kScalar;
  std::string error;
  EXPECT_FALSE(parse_backend_spec("sse9", &backend, &error));
  EXPECT_NE(error.find("auto, scalar, or avx2"), std::string::npos);
}

TEST(BackendTest, NamesRoundTrip) {
  EXPECT_STREQ(backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(backend_name(Backend::kAvx2), "avx2");
}

TEST(BackendTest, SetBackendIsObservable) {
  set_backend(Backend::kScalar);
  EXPECT_EQ(active_backend(), Backend::kScalar);
  EXPECT_EQ(&active_table(), &table_for(Backend::kScalar));
  if (avx2_available()) {
    set_backend(Backend::kAvx2);
    EXPECT_EQ(active_backend(), Backend::kAvx2);
    EXPECT_EQ(&active_table(), &table_for(Backend::kAvx2));
    EXPECT_NE(&table_for(Backend::kAvx2), &table_for(Backend::kScalar));
  }
  set_backend(Backend::kScalar);
}

TEST(BackendTest, ApplyBackendSpecSwitchesTheActiveTable) {
  std::string error;
  ASSERT_TRUE(apply_backend_spec("scalar", &error)) << error;
  EXPECT_EQ(active_backend(), Backend::kScalar);
  ASSERT_TRUE(apply_backend_spec("auto", &error)) << error;
  EXPECT_TRUE(backend_available(active_backend()));
  EXPECT_FALSE(apply_backend_spec("bogus", &error));
  ASSERT_TRUE(apply_backend_spec("scalar", &error)) << error;
}

TEST(BackendTest, EveryTableEntryIsPopulated) {
  for (Backend backend : {Backend::kScalar, Backend::kAvx2}) {
    if (!backend_available(backend)) continue;
    const KernelTable& table = table_for(backend);
    EXPECT_NE(table.gemm, nullptr);
    EXPECT_NE(table.gemm_packed, nullptr);
    EXPECT_NE(table.gemm_tn, nullptr);
    EXPECT_NE(table.gemm_nt, nullptr);
    EXPECT_NE(table.add_row_bias, nullptr);
    EXPECT_NE(table.axpy, nullptr);
    EXPECT_NE(table.scale, nullptr);
    EXPECT_NE(table.softmax_rows, nullptr);
    EXPECT_NE(table.softmax_rows_backward, nullptr);
    EXPECT_NE(table.layer_norm, nullptr);
    EXPECT_NE(table.gelu, nullptr);
    EXPECT_NE(table.gelu_backward, nullptr);
  }
}

}  // namespace
}  // namespace rebert::kernels
