// gemm_packed over pack_b panels against gemm on the same backend: the
// two reduce every element in the same order, so they must agree bit for
// bit on every shape — including N = 2 (the classifier head), N not a
// multiple of the panel width, and M not a multiple of the AVX2 kernel's
// six-row strip.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "kernels/aligned.h"
#include "kernels/backend.h"
#include "kernels/kernels.h"
#include "util/rng.h"

namespace rebert::kernels {
namespace {

AlignedFloatVector random_matrix(int rows, int cols, util::Rng& rng) {
  AlignedFloatVector m(static_cast<std::size_t>(rows) * cols);
  for (float& v : m) v = static_cast<float>(rng.gaussian());
  return m;
}

class PackedGemmTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (!backend_available(GetParam()))
      GTEST_SKIP() << "backend " << backend_name(GetParam())
                   << " unavailable on this host";
  }
};

TEST_P(PackedGemmTest, BitwiseEqualToGemm) {
  const KernelTable& table = table_for(GetParam());
  util::Rng rng(17);
  for (const int k : {16, 64, 256}) {
    for (const int n : {2, 64, 192, 256}) {
      const AlignedFloatVector b = random_matrix(k, n, rng);
      AlignedFloatVector packed(packed_b_floats(k, n));
      pack_b(b.data(), k, n, packed.data());
      for (int m = 1; m <= 50; ++m) {
        const AlignedFloatVector a = random_matrix(m, k, rng);
        AlignedFloatVector want(static_cast<std::size_t>(m) * n);
        AlignedFloatVector got(want.size());
        table.gemm(a.data(), b.data(), want.data(), m, k, n);
        table.gemm_packed(a.data(), packed.data(), got.data(), m, k, n);
        for (std::size_t i = 0; i < want.size(); ++i)
          ASSERT_EQ(want[i], got[i]) << "m=" << m << " k=" << k << " n=" << n
                                     << " flat index " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, PackedGemmTest,
    ::testing::Values(Backend::kScalar, Backend::kAvx2),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return backend_name(info.param);
    });

TEST(PackBTest, PanelsAreZeroPaddedToTheWidth) {
  // 3 x 18: one full panel and one panel holding 2 real columns.
  const int k = 3, n = 18;
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(i + 1);
  ASSERT_EQ(packed_b_floats(k, n),
            static_cast<std::size_t>(2 * k * kPanelWidth));
  AlignedFloatVector packed(packed_b_floats(k, n), -1.0f);
  pack_b(b.data(), k, n, packed.data());
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < kPanelWidth; ++j)
      EXPECT_EQ(packed[static_cast<std::size_t>(kk * kPanelWidth + j)],
                b[static_cast<std::size_t>(kk * n + j)]);
    const float* tail = packed.data() + (k + kk) * kPanelWidth;
    EXPECT_EQ(tail[0], b[static_cast<std::size_t>(kk * n + 16)]);
    EXPECT_EQ(tail[1], b[static_cast<std::size_t>(kk * n + 17)]);
    for (int j = 2; j < kPanelWidth; ++j) EXPECT_EQ(tail[j], 0.0f);
  }
}

}  // namespace
}  // namespace rebert::kernels
