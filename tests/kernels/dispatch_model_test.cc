// Model-level behavior under the dispatched kernel subsystem: gradients
// stay finite-difference-correct on every backend, the scoring hot path
// stays bit-identical across thread counts per backend, and scalar vs
// AVX2 agree within the documented parity tolerance end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "bert/attention.h"
#include "bert/config.h"
#include "circuitgen/suite.h"
#include "kernels/backend.h"
#include "rebert/pipeline.h"
#include "rebert/scoring.h"
#include "rebert/vocab.h"
#include "tensor/gradcheck.h"
#include "tensor/layers.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace rebert {
namespace {

using core::ScoreMatrix;
using tensor::Tensor;

/// Runs the test body once per available backend, restoring the previous
/// backend afterwards so test order never matters.
class DispatchModelTest
    : public ::testing::TestWithParam<kernels::Backend> {
 protected:
  void SetUp() override {
    if (!kernels::backend_available(GetParam()))
      GTEST_SKIP() << "backend " << kernels::backend_name(GetParam())
                   << " unavailable on this host";
    previous_ = kernels::active_backend();
    kernels::set_backend(GetParam());
  }
  void TearDown() override {
    if (!IsSkipped()) kernels::set_backend(previous_);
  }

 private:
  kernels::Backend previous_ = kernels::Backend::kScalar;
};

TEST_P(DispatchModelTest, LinearGradcheckPasses) {
  util::Rng rng(21);
  tensor::Linear linear("lin", 9, 11, rng);
  const Tensor x = Tensor::randn({5, 9}, rng);
  tensor::Linear::Cache cache;
  linear.forward(x, cache);
  const Tensor dy = Tensor::full({5, 11}, 1.0f);
  linear.backward(dy, cache);
  const auto loss = [&] {
    tensor::Linear::Cache scratch;
    return linear.forward(x, scratch).sum();
  };
  const auto weight_result =
      tensor::check_gradient(&linear.weight.value, linear.weight.grad, loss);
  EXPECT_TRUE(weight_result.ok)
      << "weight max_rel_error=" << weight_result.max_rel_error;
  const auto bias_result =
      tensor::check_gradient(&linear.bias.value, linear.bias.grad, loss);
  EXPECT_TRUE(bias_result.ok)
      << "bias max_rel_error=" << bias_result.max_rel_error;
}

TEST_P(DispatchModelTest, LayerNormGradcheckPasses) {
  util::Rng rng(22);
  tensor::LayerNorm norm("ln", 13);
  const Tensor x = Tensor::randn({4, 13}, rng, 2.0f);
  tensor::LayerNorm::Cache cache;
  norm.forward(x, cache);
  const Tensor dy = Tensor::full({4, 13}, 1.0f);
  norm.backward(dy, cache);
  const auto loss = [&] {
    tensor::LayerNorm::Cache scratch;
    return norm.forward(x, scratch).sum();
  };
  const auto result =
      tensor::check_gradient(&norm.gamma.value, norm.gamma.grad, loss);
  EXPECT_TRUE(result.ok) << "gamma max_rel_error=" << result.max_rel_error;
}

TEST_P(DispatchModelTest, GeluGradientMatchesFiniteDifferences) {
  util::Rng rng(23);
  Tensor x = Tensor::randn({3, 17}, rng, 2.0f);
  const Tensor dy = Tensor::full({3, 17}, 1.0f);
  const Tensor analytic = tensor::gelu_backward(dy, x);
  const auto loss = [&] { return tensor::gelu(x).sum(); };
  const auto result = tensor::check_gradient(&x, analytic, loss);
  EXPECT_TRUE(result.ok) << "gelu max_rel_error=" << result.max_rel_error;
}

TEST_P(DispatchModelTest, AttentionCachedAndUncachedForwardsAgree) {
  // The training attention projects Q, K and V separately and caches the
  // head probabilities; the inference forward reads them from one fused
  // [n, 3H] buffer through the same head core and caches nothing. Same
  // math, so the head outputs must match exactly.
  util::Rng rng(24);
  bert::BertConfig config;
  config.hidden = 24;
  config.num_heads = 3;
  bert::MultiHeadSelfAttention attention("attn", config, rng);
  const int n = 7, hidden = 24;
  const Tensor x = Tensor::randn({n, hidden}, rng);
  bert::MultiHeadSelfAttention::Cache cache;
  attention.forward(x, cache, /*valid_len=*/5);

  Tensor qkv({n, 3 * hidden});
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < hidden; ++j) {
      qkv.at(i, j) = cache.q.at(i, j);
      qkv.at(i, hidden + j) = cache.k.at(i, j);
      qkv.at(i, 2 * hidden + j) = cache.v.at(i, j);
    }
  Tensor uncached({n, hidden});
  bert::attend_heads(qkv.data(), qkv.data() + hidden,
                     qkv.data() + 2 * hidden, 3 * hidden, n, n,
                     config.num_heads, config.head_dim(), /*valid_len=*/5,
                     uncached.data(), nullptr);
  for (std::int64_t i = 0; i < uncached.numel(); ++i)
    ASSERT_EQ(cache.concat[i], uncached[i]) << "flat index " << i;
}

TEST_P(DispatchModelTest, AttentionOnTheFirstRowMatchesItsRowOfAllRows) {
  // The inference forward's last layer attends for the [CLS] query only.
  // Row 0 against all n keys must equal row 0 of the all-rows call
  // bitwise, masked or not.
  util::Rng rng(26);
  const int n = 9, heads = 3, head_dim = 8, hidden = heads * head_dim;
  const Tensor qkv = Tensor::randn({n, 3 * hidden}, rng);
  for (const int valid_len : {0, 6}) {
    const auto attend = [&](int rows, Tensor* out,
                            std::vector<Tensor>* probs) {
      bert::attend_heads(qkv.data(), qkv.data() + hidden,
                         qkv.data() + 2 * hidden, 3 * hidden, rows, n, heads,
                         head_dim, valid_len, out->data(), probs);
    };
    Tensor all_rows({n, hidden});
    Tensor first_row({1, hidden});
    std::vector<Tensor> all_probs, first_probs;
    attend(n, &all_rows, &all_probs);
    attend(1, &first_row, &first_probs);
    for (int j = 0; j < hidden; ++j)
      ASSERT_EQ(first_row.at(0, j), all_rows.at(0, j))
          << "valid_len=" << valid_len << " column " << j;
    ASSERT_EQ(first_probs.size(), all_probs.size());
    for (std::size_t h = 0; h < first_probs.size(); ++h)
      for (int j = 0; j < n; ++j)
        ASSERT_EQ(first_probs[h].at(0, j), all_probs[h].at(0, j))
            << "valid_len=" << valid_len << " head " << h << " key " << j;
  }
}

TEST_P(DispatchModelTest, AttentionPropagatesNaNInput) {
  // A NaN smuggled into the activations must surface in the output (the
  // graphcheck tripwire contract), whatever backend is dispatched.
  util::Rng rng(25);
  bert::BertConfig config;
  config.hidden = 16;
  config.num_heads = 2;
  bert::MultiHeadSelfAttention attention("attn", config, rng);
  Tensor x = Tensor::randn({5, 16}, rng);
  x.at(2, 3) = std::numeric_limits<float>::quiet_NaN();
  bert::MultiHeadSelfAttention::Cache cache;
  const Tensor y = attention.forward(x, cache);
  bool any_nan = false;
  for (std::int64_t i = 0; i < y.numel(); ++i)
    any_nan = any_nan || std::isnan(y[i]);
  EXPECT_TRUE(any_nan);
}

// ---- scoring hot path --------------------------------------------------

struct ScoringFixture {
  ScoringFixture()
      : generated(gen::generate_benchmark("b03", 0.5)),
        tokenizer({.backtrace_depth = 4, .tree_code_dim = 8,
                   .max_seq_len = 128}),
        bits(tokenizer.tokenize_bits(generated.netlist)),
        model(make_config()) {}

  static bert::BertConfig make_config() {
    bert::BertConfig config = bert::eval_config(
        static_cast<int>(core::vocabulary().size()), 128);
    config.tree_code_dim = 8;
    config.hidden = 32;
    config.num_layers = 1;
    config.num_heads = 2;
    config.intermediate = 64;
    return config;
  }

  ScoreMatrix score(int threads) {
    core::ScoringOptions options;
    options.num_threads = threads;
    return core::score_all_pairs(bits, tokenizer, core::FilterOptions{},
                                 model, nullptr, options);
  }

  gen::GeneratedCircuit generated;
  core::Tokenizer tokenizer;
  std::vector<core::BitSequence> bits;
  bert::BertPairClassifier model;
};

TEST_P(DispatchModelTest, ScoringIsBitIdenticalAcrossThreadCounts) {
  ScoringFixture f;
  const ScoreMatrix serial = f.score(1);
  for (int threads : {2, 8}) {
    const ScoreMatrix parallel = f.score(threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (int i = 0; i < serial.size(); ++i)
      for (int j = 0; j < serial.size(); ++j)
        ASSERT_EQ(serial.at(i, j), parallel.at(i, j))
            << "threads=" << threads << " cell (" << i << "," << j << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, DispatchModelTest,
    ::testing::Values(kernels::Backend::kScalar, kernels::Backend::kAvx2),
    [](const ::testing::TestParamInfo<kernels::Backend>& info) {
      return kernels::backend_name(info.param);
    });

TEST(BackendAgreementTest, ScalarAndAvx2ScoresAgreeWithinTolerance) {
  if (!kernels::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  const kernels::Backend previous = kernels::active_backend();
  ScoringFixture f;
  kernels::set_backend(kernels::Backend::kScalar);
  const ScoreMatrix scalar_scores = f.score(1);
  kernels::set_backend(kernels::Backend::kAvx2);
  const ScoreMatrix avx2_scores = f.score(1);
  kernels::set_backend(previous);
  ASSERT_EQ(scalar_scores.size(), avx2_scores.size());
  for (int i = 0; i < scalar_scores.size(); ++i) {
    for (int j = 0; j < scalar_scores.size(); ++j) {
      // Scores are sigmoid outputs in [0, 1]; after a 1-layer model the
      // kernel-level tolerance comfortably bounds the drift.
      EXPECT_NEAR(scalar_scores.at(i, j), avx2_scores.at(i, j), 5e-3)
          << "cell (" << i << "," << j << ")";
    }
  }
}

}  // namespace
}  // namespace rebert
