// Scalar-vs-AVX2 parity: every kernel, over a randomized shape sweep that
// deliberately hits the ragged cases (odd rows/cols, 1xN, Nx1, tails
// shorter than the vector width, exact multiples of the register-block
// sizes). Tolerance is the documented policy from kernels/backend.h:
// |simd - scalar| <= kParityAtol + kParityRtol * |scalar|.
//
// Also pinned here: NaN/Inf propagation matches across backends (so the
// graphcheck tripwire fires identically), and each backend is
// bit-deterministic (identical output for identical input, run to run).
// And bitwise, not within a tolerance: the avx2 backend's gemm_nt and
// softmax equal the 256-bit code they replaced (frozen_avx2.cc), and on
// AVX-512F hosts its 512-bit table equals its 256-bit one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "kernels/aligned.h"
#include "kernels/backend.h"
#include "kernels/kernels.h"
#include "util/rng.h"

namespace rebert::kernels {

#if defined(REBERT_HAVE_AVX2_BUILD)
// The dot-product gemm_nt and the one-row-at-a-time softmax that the
// column-lane gemm_nt and the interleaved softmax sums replaced, frozen in
// frozen_avx2.cc.
namespace frozen_avx2 {
void gemm_nt(const float* a, const float* b, float* c, int m, int k, int n);
void softmax_rows(float* x, int rows, int cols);
}  // namespace frozen_avx2
#endif

namespace {

bool near(float simd, float ref) {
  if (std::isnan(simd) || std::isnan(ref)) {
    return std::isnan(simd) == std::isnan(ref);
  }
  if (simd == ref) return true;  // covers +-Inf, where simd - ref is NaN
  return std::abs(simd - ref) <= kParityAtol + kParityRtol * std::abs(ref);
}

void expect_allclose(const std::vector<float>& simd,
                     const std::vector<float>& ref,
                     const std::string& what) {
  ASSERT_EQ(simd.size(), ref.size()) << what;
  for (std::size_t i = 0; i < simd.size(); ++i) {
    ASSERT_TRUE(near(simd[i], ref[i]))
        << what << " diverges at flat index " << i << ": simd=" << simd[i]
        << " scalar=" << ref[i];
  }
}

std::vector<float> randn(std::size_t n, util::Rng& rng, float stddev = 1.0f) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.gaussian(0.0, stddev));
  return v;
}

// The sweep: every ragged-tail class the register blocking can mishandle.
// {m, k, n} triples; elementwise/row kernels reuse m x n or m * n.
struct Shape {
  int m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},     // degenerate
    {1, 7, 1},     // Nx1 outputs
    {1, 64, 17},   // 1xN row, odd col tail
    {5, 3, 2},     // everything under the vector width
    {6, 16, 16},   // exact MR x NR block, vector-width k
    {7, 16, 16},   // one tail row
    {12, 8, 32},   // exact blocks all around
    {13, 9, 31},   // odd everything
    {17, 33, 5},   // tail columns under one vector
    {23, 1, 19},   // k=1 rank-1
    {64, 48, 64},  // bigger, block-aligned
    {61, 47, 63},  // bigger, fully ragged
};

class ParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!avx2_available()) GTEST_SKIP() << "no AVX2+FMA on this host";
  }
  const KernelTable& scalar = table_for(Backend::kScalar);
  const KernelTable& avx2 = table_for(Backend::kAvx2);
};

TEST_F(ParityTest, GemmSweep) {
  util::Rng rng(101);
  for (const Shape& s : kShapes) {
    const auto a = randn(static_cast<std::size_t>(s.m) * s.k, rng);
    const auto b = randn(static_cast<std::size_t>(s.k) * s.n, rng);
    std::vector<float> ref(static_cast<std::size_t>(s.m) * s.n);
    std::vector<float> got(ref.size());
    scalar.gemm(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
    avx2.gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n);
    expect_allclose(got, ref, "gemm " + std::to_string(s.m) + "x" +
                                  std::to_string(s.k) + "x" +
                                  std::to_string(s.n));
  }
}

TEST_F(ParityTest, GemmTnSweep) {
  util::Rng rng(102);
  for (const Shape& s : kShapes) {
    const auto a = randn(static_cast<std::size_t>(s.m) * s.k, rng);
    const auto b = randn(static_cast<std::size_t>(s.m) * s.n, rng);
    std::vector<float> ref(static_cast<std::size_t>(s.k) * s.n);
    std::vector<float> got(ref.size());
    scalar.gemm_tn(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
    avx2.gemm_tn(a.data(), b.data(), got.data(), s.m, s.k, s.n);
    expect_allclose(got, ref, "gemm_tn");
  }
}

TEST_F(ParityTest, GemmNtSweep) {
  util::Rng rng(103);
  for (const Shape& s : kShapes) {
    const auto a = randn(static_cast<std::size_t>(s.m) * s.k, rng);
    const auto b = randn(static_cast<std::size_t>(s.n) * s.k, rng);
    std::vector<float> ref(static_cast<std::size_t>(s.m) * s.n);
    std::vector<float> got(ref.size());
    scalar.gemm_nt(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
    avx2.gemm_nt(a.data(), b.data(), got.data(), s.m, s.k, s.n);
    expect_allclose(got, ref, "gemm_nt");
  }
}

TEST_F(ParityTest, ElementwiseSweep) {
  util::Rng rng(104);
  for (const Shape& s : kShapes) {
    const std::size_t total = static_cast<std::size_t>(s.m) * s.n;
    const auto x = randn(total, rng, 2.0f);
    const auto bias = randn(static_cast<std::size_t>(s.n), rng);

    auto ref = x;
    auto got = x;
    scalar.add_row_bias(ref.data(), bias.data(), s.m, s.n);
    avx2.add_row_bias(got.data(), bias.data(), s.m, s.n);
    expect_allclose(got, ref, "add_row_bias");

    ref = x;
    got = x;
    const auto other = randn(total, rng);
    scalar.axpy(ref.data(), other.data(), 0.37f,
                static_cast<std::int64_t>(total));
    avx2.axpy(got.data(), other.data(), 0.37f,
              static_cast<std::int64_t>(total));
    expect_allclose(got, ref, "axpy");

    ref = x;
    got = x;
    scalar.scale(ref.data(), -1.25f, static_cast<std::int64_t>(total));
    avx2.scale(got.data(), -1.25f, static_cast<std::int64_t>(total));
    expect_allclose(got, ref, "scale");
  }
}

TEST_F(ParityTest, SoftmaxSweep) {
  util::Rng rng(105);
  for (const Shape& s : kShapes) {
    const std::size_t total = static_cast<std::size_t>(s.m) * s.n;
    // Wide logits exercise the exp clamp; softmax must stay normalized.
    const auto x = randn(total, rng, 4.0f);
    auto ref = x;
    auto got = x;
    scalar.softmax_rows(ref.data(), s.m, s.n);
    avx2.softmax_rows(got.data(), s.m, s.n);
    expect_allclose(got, ref, "softmax_rows");

    std::vector<float> dref(total), dgot(total);
    const auto dy = randn(total, rng);
    scalar.softmax_rows_backward(dy.data(), ref.data(), dref.data(), s.m,
                                 s.n);
    avx2.softmax_rows_backward(dy.data(), got.data(), dgot.data(), s.m,
                               s.n);
    expect_allclose(dgot, dref, "softmax_rows_backward");
  }
}

TEST_F(ParityTest, LayerNormSweep) {
  util::Rng rng(106);
  for (const Shape& s : kShapes) {
    const std::size_t total = static_cast<std::size_t>(s.m) * s.n;
    const auto x = randn(total, rng, 3.0f);
    const auto gamma = randn(static_cast<std::size_t>(s.n), rng);
    const auto beta = randn(static_cast<std::size_t>(s.n), rng);
    std::vector<float> yref(total), ygot(total);
    std::vector<float> nref(total), ngot(total);
    std::vector<float> iref(static_cast<std::size_t>(s.m));
    std::vector<float> igot(static_cast<std::size_t>(s.m));
    scalar.layer_norm(x.data(), gamma.data(), beta.data(), 1e-5f, s.m, s.n,
                      yref.data(), nref.data(), iref.data());
    avx2.layer_norm(x.data(), gamma.data(), beta.data(), 1e-5f, s.m, s.n,
                    ygot.data(), ngot.data(), igot.data());
    expect_allclose(ygot, yref, "layer_norm y");
    expect_allclose(ngot, nref, "layer_norm normalized");
    expect_allclose(igot, iref, "layer_norm inv_std");

    // Null side outputs (the inference path) must produce the same y.
    std::vector<float> yonly(total);
    avx2.layer_norm(x.data(), gamma.data(), beta.data(), 1e-5f, s.m, s.n,
                    yonly.data(), nullptr, nullptr);
    EXPECT_EQ(std::memcmp(yonly.data(), ygot.data(),
                          total * sizeof(float)),
              0);
  }
}

TEST_F(ParityTest, GeluSweep) {
  util::Rng rng(107);
  for (const Shape& s : kShapes) {
    const std::size_t total = static_cast<std::size_t>(s.m) * s.n;
    const auto x = randn(total, rng, 3.0f);
    const auto dy = randn(total, rng);
    std::vector<float> ref(total), got(total);
    scalar.gelu(x.data(), ref.data(), static_cast<std::int64_t>(total));
    avx2.gelu(x.data(), got.data(), static_cast<std::int64_t>(total));
    expect_allclose(got, ref, "gelu");

    scalar.gelu_backward(dy.data(), x.data(), ref.data(),
                         static_cast<std::int64_t>(total));
    avx2.gelu_backward(dy.data(), x.data(), got.data(),
                       static_cast<std::int64_t>(total));
    expect_allclose(got, ref, "gelu_backward");
  }
}

// ---- NaN / Inf propagation --------------------------------------------

TEST_F(ParityTest, GemmPropagatesNaNIdentically) {
  util::Rng rng(108);
  const int m = 7, k = 19, n = 21;
  auto a = randn(static_cast<std::size_t>(m) * k, rng);
  const auto b = randn(static_cast<std::size_t>(k) * n, rng);
  a[5] = std::numeric_limits<float>::quiet_NaN();
  a[20] = 0.0f;  // a zero A entry must NOT suppress propagation
  std::vector<float> ref(static_cast<std::size_t>(m) * n);
  std::vector<float> got(ref.size());
  scalar.gemm(a.data(), b.data(), ref.data(), m, k, n);
  avx2.gemm(a.data(), b.data(), got.data(), m, k, n);
  int ref_nans = 0, got_nans = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref_nans += std::isnan(ref[i]);
    got_nans += std::isnan(got[i]);
    EXPECT_EQ(std::isnan(ref[i]), std::isnan(got[i])) << i;
  }
  // The NaN in A row 0 poisons that whole C row on both backends.
  EXPECT_EQ(ref_nans, n);
  EXPECT_EQ(got_nans, n);
}

TEST_F(ParityTest, SoftmaxPoisonsNaNAndPlusInfRows) {
  util::Rng rng(109);
  const int rows = 4, cols = 21;
  auto x = randn(static_cast<std::size_t>(rows) * cols, rng);
  x[3] = std::numeric_limits<float>::quiet_NaN();             // row 0
  x[static_cast<std::size_t>(cols) + 7] =
      std::numeric_limits<float>::infinity();                 // row 1
  x[static_cast<std::size_t>(2) * cols + 1] =
      -std::numeric_limits<float>::infinity();                // row 2
  auto ref = x;
  auto got = x;
  scalar.softmax_rows(ref.data(), rows, cols);
  avx2.softmax_rows(got.data(), rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i) * cols + j;
      EXPECT_EQ(std::isnan(ref[idx]), std::isnan(got[idx]))
          << "row " << i << " col " << j;
    }
  }
  // Rows with NaN or +Inf poison entirely; a -Inf entry just gets weight
  // ~0 and the rest of the row stays a valid distribution.
  EXPECT_TRUE(std::isnan(ref[0]) && std::isnan(got[0]));
  EXPECT_TRUE(std::isnan(ref[cols]) && std::isnan(got[cols]));
  EXPECT_FALSE(std::isnan(ref[2 * cols]) || std::isnan(got[2 * cols]));
}

TEST_F(ParityTest, GeluPropagatesNonFiniteLanes) {
  std::vector<float> x = {-2.0f, -1.0f, 0.0f, 1.0f,
                          std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(), 2.0f,
                          0.5f};  // 9 elements: one full vector + tail
  std::vector<float> ref(x.size()), got(x.size());
  scalar.gelu(x.data(), ref.data(), static_cast<std::int64_t>(x.size()));
  avx2.gelu(x.data(), got.data(), static_cast<std::int64_t>(x.size()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(std::isnan(ref[i]), std::isnan(got[i])) << i;
    if (!std::isnan(ref[i])) {
      EXPECT_TRUE(near(got[i], ref[i])) << i;
    }
  }
}

TEST_F(ParityTest, GeluIsPerElementOnEachBackend) {
  // Each output depends on its input alone, not on where the value falls
  // against the vector width: any slice equals the same slice of a longer
  // call, bitwise, NaN/Inf neighbours included. (The inference forward
  // runs GELU on the [CLS] row alone and must match the full-row run.)
  util::Rng rng(111);
  std::vector<float> x = randn(45, rng, 3.0f);
  x[13] = std::numeric_limits<float>::quiet_NaN();
  x[30] = std::numeric_limits<float>::infinity();
  for (const KernelTable* table : {&scalar, &avx2}) {
    std::vector<float> whole(x.size());
    table->gelu(x.data(), whole.data(), static_cast<std::int64_t>(x.size()));
    for (const int begin : {0, 3, 9, 28}) {
      for (const int length : {1, 4, 7, 12, 17}) {
        std::vector<float> part(static_cast<std::size_t>(length));
        table->gelu(x.data() + begin, part.data(), length);
        ASSERT_EQ(std::memcmp(part.data(), whole.data() + begin,
                              part.size() * sizeof(float)),
                  0)
            << "begin=" << begin << " length=" << length;
      }
    }
  }
}

// ---- determinism -------------------------------------------------------

TEST_F(ParityTest, EachBackendIsBitDeterministic) {
  util::Rng rng(110);
  const int m = 13, k = 37, n = 29;
  const auto a = randn(static_cast<std::size_t>(m) * k, rng);
  const auto b = randn(static_cast<std::size_t>(k) * n, rng);
  for (const KernelTable* table : {&scalar, &avx2}) {
    std::vector<float> first(static_cast<std::size_t>(m) * n);
    std::vector<float> second(first.size());
    table->gemm(a.data(), b.data(), first.data(), m, k, n);
    table->gemm(a.data(), b.data(), second.data(), m, k, n);
    EXPECT_EQ(std::memcmp(first.data(), second.data(),
                          first.size() * sizeof(float)),
              0);

    auto s1 = a, s2 = a;
    table->softmax_rows(s1.data(), m, k);
    table->softmax_rows(s2.data(), m, k);
    EXPECT_EQ(
        std::memcmp(s1.data(), s2.data(), s1.size() * sizeof(float)), 0);
  }
}

// ---- the avx2 backend's rewrites and wide table compute the same bits ----

void expect_bitwise(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
        << what << " differs at flat index " << i << ": " << got[i]
        << " vs " << want[i];
}

/// Rows of scaled Gaussians with non-finite rows mixed in: row 2 holds a
/// NaN, row 9 a +Inf and row 13 a -Inf, so with 8-row blocks a poisoned
/// row sits inside the first two blocks, not only at the edges.
std::vector<float> softmax_input(int rows, int cols, util::Rng& rng) {
  std::vector<float> x =
      randn(static_cast<std::size_t>(rows) * cols, rng, 4.0f);
  const auto poison = [&](int row, float value) {
    if (row < rows) x[static_cast<std::size_t>(row) * cols + cols / 2] = value;
  };
  poison(2, std::numeric_limits<float>::quiet_NaN());
  poison(9, std::numeric_limits<float>::infinity());
  poison(13, -std::numeric_limits<float>::infinity());
  return x;
}

/// The avx2 tables against the frozen 256-bit code: every table the
/// avx2 backend can run (the wide one too, where the CPU has it).
class FrozenAvx2Test : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(REBERT_HAVE_AVX2_BUILD)
    if (!avx2_available()) GTEST_SKIP() << "no AVX2+FMA on this host";
    tables = {&avx2_table(), &table_for(Backend::kAvx2)};
#else
    GTEST_SKIP() << "built without the AVX2 TU";
#endif
  }
  std::vector<const KernelTable*> tables;
};

TEST_F(FrozenAvx2Test, GemmNtMatchesTheDotProductForm) {
#if defined(REBERT_HAVE_AVX2_BUILD)
  util::Rng rng(120);
  // k % 8 != 0 exercises the scalar tail after the vector chunks.
  const Shape shapes[] = {{1, 1, 1},   {3, 7, 5},    {5, 8, 9},
                          {7, 16, 28}, {4, 17, 13},  {9, 23, 54},
                          {6, 16, 160}, {2, 64, 33}, {11, 45, 8}};
  for (const Shape& s : shapes) {
    const auto a = randn(static_cast<std::size_t>(s.m) * s.k, rng);
    const auto b = randn(static_cast<std::size_t>(s.n) * s.k, rng);
    std::vector<float> want(static_cast<std::size_t>(s.m) * s.n);
    frozen_avx2::gemm_nt(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    for (const KernelTable* table : tables) {
      std::vector<float> got(want.size());
      table->gemm_nt(a.data(), b.data(), got.data(), s.m, s.k, s.n);
      expect_bitwise(got, want,
                     "gemm_nt " + std::to_string(s.m) + "x" +
                         std::to_string(s.k) + "x" + std::to_string(s.n));
    }
  }
#endif
}

TEST_F(FrozenAvx2Test, SoftmaxMatchesTheOneRowAtATimeForm) {
#if defined(REBERT_HAVE_AVX2_BUILD)
  util::Rng rng(121);
  for (const int rows : {1, 3, 8, 9, 16, 19}) {
    for (const int cols : {1, 5, 8, 15, 16, 17, 24, 28, 33, 54}) {
      const auto x = softmax_input(rows, cols, rng);
      auto want = x;
      frozen_avx2::softmax_rows(want.data(), rows, cols);
      for (const KernelTable* table : tables) {
        auto got = x;
        table->softmax_rows(got.data(), rows, cols);
        expect_bitwise(got, want,
                       "softmax " + std::to_string(rows) + "x" +
                           std::to_string(cols));
      }
    }
  }
#endif
}

/// The 512-bit table against the 256-bit one.
class WideAvx2Test : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(REBERT_HAVE_AVX512_BUILD)
    if (!avx2_runs_wide())
      GTEST_SKIP() << "no AVX-512F on this host: the avx2 backend runs "
                      "256 bits wide only, so there is no wide table to "
                      "compare";
    narrow = &avx2_table();
    wide = &avx2_wide_table();
#else
    GTEST_SKIP() << "built without the 512-bit avx2 TU";
#endif
  }
  const KernelTable* narrow = nullptr;
  const KernelTable* wide = nullptr;
};

TEST_F(WideAvx2Test, WideTableIsWhatTheAvx2BackendRuns) {
  EXPECT_EQ(&table_for(Backend::kAvx2), wide);
  EXPECT_STREQ(backend_name(Backend::kAvx2), "avx2");
}

TEST_F(WideAvx2Test, GemmIsBitwiseEqual) {
  util::Rng rng(122);
  // m, k, n off the 6-row strips, 8-lane vectors and 16/32-column panels.
  std::vector<Shape> shapes(std::begin(kShapes), std::end(kShapes));
  shapes.insert(shapes.end(), {{7, 5, 33}, {11, 13, 47}, {25, 31, 50},
                               {6, 16, 32}, {13, 64, 79}, {45, 64, 192}});
  for (const Shape& s : shapes) {
    const auto a = randn(static_cast<std::size_t>(s.m) * s.k, rng);
    const auto b = randn(static_cast<std::size_t>(s.k) * s.n, rng);
    AlignedFloatVector packed(packed_b_floats(s.k, s.n));
    pack_b(b.data(), s.k, s.n, packed.data());
    const std::string what = std::to_string(s.m) + "x" +
                             std::to_string(s.k) + "x" + std::to_string(s.n);
    std::vector<float> want(static_cast<std::size_t>(s.m) * s.n);
    std::vector<float> got(want.size());
    narrow->gemm(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    wide->gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n);
    expect_bitwise(got, want, "gemm " + what);
    wide->gemm_packed(a.data(), packed.data(), got.data(), s.m, s.k, s.n);
    expect_bitwise(got, want, "gemm_packed " + what);
  }
}

}  // namespace
}  // namespace rebert::kernels
