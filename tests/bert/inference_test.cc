// The inference forward (BertPairClassifier::predict_same_word_probability
// / eval_loss) against the training forward, and the lifecycle of the
// weights it packs: a pack is never stale, survives a backend switch, and
// matches a checkpoint reloaded after training. Runs once per kernel
// backend.
#include <gtest/gtest.h>

#include <cstdio>
#include <utility>
#include <vector>

#include "bert/model.h"
#include "bert/trainer.h"
#include "kernels/backend.h"
#include "util/check.h"
#include "util/rng.h"

namespace rebert::bert {
namespace {

using tensor::Tensor;

BertConfig small_config() {
  BertConfig c;
  c.vocab_size = 12;
  c.hidden = 16;
  c.num_heads = 2;
  c.num_layers = 2;
  c.intermediate = 40;  // 40 columns: two full panels and a tail of 8
  c.max_seq_len = 24;
  c.tree_code_dim = 6;
  c.dropout = 0.0f;
  c.seed = 404;
  return c;
}

/// `n` random tokens; with `valid_len` in (0, n) the tail is [PAD] (id 0)
/// with all-zero tree codes, as Tokenizer::encode_pair pads.
EncodedSequence random_sequence(int n, int valid_len, const BertConfig& c,
                                util::Rng& rng) {
  EncodedSequence s;
  s.valid_len = valid_len;
  s.tree_codes = Tensor({n, c.tree_code_dim});
  for (int i = 0; i < n; ++i) {
    const bool pad = valid_len > 0 && i >= valid_len;
    s.token_ids.push_back(pad ? 0 : rng.uniform_int(1, c.vocab_size - 1));
    s.position_ids.push_back(i);
    for (int j = 0; !pad && j < c.tree_code_dim; ++j)
      s.tree_codes.at(i, j) = rng.bernoulli(0.5) ? 1.0f : 0.0f;
  }
  return s;
}

std::vector<double> scores(const BertPairClassifier& model,
                           const std::vector<EncodedSequence>& inputs) {
  std::vector<double> out;
  for (const EncodedSequence& s : inputs)
    out.push_back(model.predict_same_word_probability(s));
  return out;
}

class InferenceTest : public ::testing::TestWithParam<kernels::Backend> {
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

TEST_P(InferenceTest, MatchesTrainingForwardBitwise) {
  // With dropout 0 the training forward computes the same logits; the
  // cross-entropy for both labels pins both class probabilities. The
  // inference forward runs its last layer on the [CLS] row only, so it is
  // checked at every depth: at 1 layer the embeddings feed that layer
  // directly. Intermediate 36 leaves a row tail of 4, which is not a
  // whole vector, so GELU must be per element for the row to match.
  for (const int num_layers : {1, 2, 3}) {
    for (const int intermediate : {40, 36}) {
      BertConfig c = small_config();
      c.num_layers = num_layers;
      c.intermediate = intermediate;
      BertPairClassifier model(c);
      util::Rng rng(1);
      for (int n = 1; n <= c.max_seq_len; ++n) {
        for (const int valid_len : {0, (n + 1) / 2}) {
          if (valid_len == n) continue;
          const EncodedSequence s = random_sequence(n, valid_len, c, rng);
          for (const int label : {0, 1}) {
            const double inference = model.eval_loss(s, label);
            const double training = model.train_step_accumulate(s, label);
            ASSERT_EQ(inference, training)
                << "layers=" << num_layers
                << " intermediate=" << intermediate << " n=" << n
                << " valid_len=" << valid_len << " label=" << label;
          }
        }
      }
    }
  }
}

TEST_P(InferenceTest, DropoutNeverRunsAtInference) {
  // A model configured with dropout scores exactly like its dropout-free
  // twin (same seed, so same weights), call after call.
  BertConfig with_dropout = small_config();
  with_dropout.dropout = 0.5f;
  const BertPairClassifier noisy(with_dropout);
  const BertPairClassifier plain(small_config());
  util::Rng rng(2);
  for (int n : {1, 5, 17}) {
    const EncodedSequence s = random_sequence(n, 0, small_config(), rng);
    const double first = noisy.predict_same_word_probability(s);
    EXPECT_EQ(first, noisy.predict_same_word_probability(s));
    EXPECT_EQ(first, plain.predict_same_word_probability(s));
  }
}

TEST_P(InferenceTest, StaleWeightsThrowUntilRepacked) {
  const BertConfig c = small_config();
  BertPairClassifier model(c);
  util::Rng rng(3);
  const EncodedSequence s = random_sequence(6, 0, c, rng);
  const double before = model.predict_same_word_probability(s);

  // Read-only access keeps the pack valid.
  EXPECT_GT(std::as_const(model).parameters().size(), 0u);
  EXPECT_EQ(model.predict_same_word_probability(s), before);

  // classifier.bias is the last parameter; shift the class-1 logit.
  tensor::Parameter* bias = model.parameters().back();
  ASSERT_EQ(bias->name, "classifier.bias");
  bias->value[1] += 1.0f;
  EXPECT_THROW(model.predict_same_word_probability(s), util::CheckError);
  EXPECT_THROW(model.eval_loss(s, 1), util::CheckError);

  model.pack_weights();
  const double after = model.predict_same_word_probability(s);
  EXPECT_GT(after, before);
}

TEST_P(InferenceTest, TrainedScoresMatchReloadedCheckpoint) {
  // bert::train repacks after every step and after restoring the best
  // epoch, so the trained model scores exactly like a fresh model that
  // loads its saved checkpoint.
  const BertConfig c = small_config();
  BertPairClassifier model(c);
  util::Rng rng(4);
  std::vector<LabeledExample> examples;
  for (int i = 0; i < 24; ++i)
    examples.push_back({random_sequence(3 + i % 7, 0, c, rng), i % 2});
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 4;
  options.eval_fraction = 0.25;
  options.learning_rate = 3e-3;
  train(model, examples, options);

  // One file per backend: ctest runs the instantiations concurrently.
  const std::string path = ::testing::TempDir() + "/rebert_inference_" +
                           kernels::backend_name(GetParam()) + ".bin";
  model.save(path);
  BertConfig other = c;
  other.seed = 9;  // different init; load must overwrite all of it
  BertPairClassifier reloaded(other);
  reloaded.load(path);
  std::remove(path.c_str());

  std::vector<EncodedSequence> probes;
  for (int n = 1; n <= 12; ++n) probes.push_back(random_sequence(n, 0, c, rng));
  EXPECT_EQ(scores(model, probes), scores(reloaded, probes));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, InferenceTest,
    ::testing::Values(kernels::Backend::kScalar, kernels::Backend::kAvx2),
    [](const ::testing::TestParamInfo<kernels::Backend>& info) {
      return kernels::backend_name(info.param);
    });

TEST(InferenceBackendSwitchTest, MidProcessSwitchMatchesScalarOnlyRun) {
  // The pack layout is backend-independent: a model packed under AVX2 and
  // switched to scalar mid-process scores exactly like a model that only
  // ever ran scalar.
  if (!kernels::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  const kernels::Backend previous = kernels::active_backend();
  const BertConfig c = small_config();
  util::Rng rng(5);
  std::vector<EncodedSequence> probes;
  for (int n = 1; n <= 10; ++n)
    probes.push_back(random_sequence(n, n > 2 ? n - 2 : 0, c, rng));

  kernels::set_backend(kernels::Backend::kAvx2);
  const BertPairClassifier switched(c);
  (void)scores(switched, probes);
  kernels::set_backend(kernels::Backend::kScalar);
  const std::vector<double> after_switch = scores(switched, probes);

  const BertPairClassifier scalar_only(c);
  const std::vector<double> scalar_run = scores(scalar_only, probes);
  kernels::set_backend(previous);
  EXPECT_EQ(after_switch, scalar_run);
}

}  // namespace
}  // namespace rebert::bert
