#include "bert/model.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "bert/trainer.h"
#include "kernels/backend.h"
#include "tensor/gradcheck.h"
#include "util/check.h"

namespace rebert::bert {
namespace {

using tensor::Tensor;

BertConfig tiny_config() {
  BertConfig c;
  c.vocab_size = 12;
  c.hidden = 16;
  c.num_heads = 2;
  c.num_layers = 2;
  c.intermediate = 32;
  c.max_seq_len = 24;
  c.tree_code_dim = 6;
  c.dropout = 0.0f;
  c.seed = 31;
  return c;
}

EncodedSequence make_sequence(const std::vector<int>& tokens,
                              const BertConfig& c) {
  EncodedSequence s;
  s.token_ids = tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i)
    s.position_ids.push_back(static_cast<int>(i));
  s.tree_codes = Tensor({static_cast<int>(tokens.size()), c.tree_code_dim});
  for (std::size_t i = 0; i < tokens.size(); ++i)
    s.tree_codes.at(static_cast<int>(i), tokens[i] % c.tree_code_dim) = 1.0f;
  return s;
}

TEST(ModelTest, PredictionIsProbability) {
  BertPairClassifier model(tiny_config());
  const EncodedSequence s = make_sequence({1, 2, 3, 4, 5}, tiny_config());
  const double p = model.predict_same_word_probability(s);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
}

TEST(ModelTest, DeterministicInference) {
  BertPairClassifier model(tiny_config());
  const EncodedSequence s = make_sequence({3, 1, 4, 1, 5}, tiny_config());
  EXPECT_DOUBLE_EQ(model.predict_same_word_probability(s),
                   model.predict_same_word_probability(s));
}

TEST(ModelTest, SameSeedSameInit) {
  BertPairClassifier a(tiny_config()), b(tiny_config());
  const EncodedSequence s = make_sequence({2, 7, 2}, tiny_config());
  EXPECT_DOUBLE_EQ(a.predict_same_word_probability(s),
                   b.predict_same_word_probability(s));
}

TEST(ModelTest, ParameterCountIsPlausible) {
  BertPairClassifier model(tiny_config());
  const std::int64_t n = model.num_parameters();
  // vocab*h + seq*h + tree*h ... two encoder layers ... pooler+classifier.
  EXPECT_GT(n, 5000);
  EXPECT_LT(n, 100000);
  // Parameter names unique.
  std::vector<std::string> names;
  for (auto* p : model.parameters()) names.push_back(p->name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(ModelTest, PaperConfigConstructsWithBertBaseScale) {
  BertPairClassifier model(paper_config(32, 64));
  // BERT-base encoder is ~85M parameters at vocab 30k; with our tiny gate
  // vocabulary the total is dominated by the 12 encoder layers (~7.1M each
  // in attention+FFN terms at H=768... verify order of magnitude).
  const std::int64_t n = model.num_parameters();
  EXPECT_GT(n, 50'000'000);
  EXPECT_LT(n, 150'000'000);
  // One forward pass runs and produces a probability.
  const EncodedSequence s = make_sequence({1, 2, 3}, paper_config(32, 64));
  const double p = model.predict_same_word_probability(s);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
}

TEST(ModelTest, TrainStepReducesLossOnOneExample) {
  BertPairClassifier model(tiny_config());
  const EncodedSequence s = make_sequence({1, 2, 3, 4}, tiny_config());
  const double initial = model.eval_loss(s, 1);
  tensor::Adam opt(model.parameters());
  for (int i = 0; i < 30; ++i) {
    model.train_step_accumulate(s, 1);
    opt.step(1e-3);
  }
  model.pack_weights();
  EXPECT_LT(model.eval_loss(s, 1), initial);
}

TEST(ModelTest, LearnsSeparableToyTask) {
  // Class 1: sequences starting with token 5; class 0: token 6.
  const BertConfig c = tiny_config();
  BertPairClassifier model(c);
  std::vector<LabeledExample> examples;
  util::Rng rng(8);
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2;
    std::vector<int> tokens{label == 1 ? 5 : 6};
    for (int j = 0; j < 6; ++j) tokens.push_back(rng.uniform_int(0, 4));
    examples.push_back({make_sequence(tokens, c), label});
  }
  TrainOptions options;
  options.epochs = 12;
  options.batch_size = 8;
  options.learning_rate = 1e-3;
  const TrainResult result = train(model, examples, options);
  EXPECT_GT(result.final_train_accuracy, 0.9)
      << "loss " << result.epochs.back().mean_loss;
}

TEST(ModelTest, SaveLoadRoundTripPreservesPredictions) {
  const BertConfig c = tiny_config();
  BertPairClassifier model(c);
  const EncodedSequence s = make_sequence({1, 9, 2, 8}, c);
  // Perturb away from init so the test is meaningful.
  tensor::Adam opt(model.parameters());
  model.train_step_accumulate(s, 1);
  opt.step(1e-3);
  model.pack_weights();
  const double p_before = model.predict_same_word_probability(s);

  const std::string path = ::testing::TempDir() + "/rebert_model.bin";
  model.save(path);

  BertConfig c2 = c;
  c2.seed = 12345;  // different init; load must overwrite it
  BertPairClassifier loaded(c2);
  loaded.load(path);
  EXPECT_NEAR(loaded.predict_same_word_probability(s), p_before, 1e-6);
  std::remove(path.c_str());
}

TEST(ModelTest, FingerprintNamesWeightsConfigAndBackend) {
  const BertConfig c = tiny_config();
  BertPairClassifier model(c);
  const std::uint64_t fresh = model.fingerprint();
  // Derived from content, not from the instance.
  EXPECT_EQ(BertPairClassifier(c).fingerprint(), fresh);

  BertConfig wider = c;
  wider.max_seq_len = 32;
  EXPECT_NE(BertPairClassifier(wider).fingerprint(), fresh);

  // Stale weights have no fingerprint, like they have no scores.
  model.parameters().front()->value.data()[0] += 0.25f;
  EXPECT_THROW(model.fingerprint(), util::CheckError);
  model.pack_weights();
  const std::uint64_t changed = model.fingerprint();
  EXPECT_NE(changed, fresh);

  // A checkpoint loaded into another init seed is the same scorer.
  const std::string path = ::testing::TempDir() + "/rebert_fingerprint.bin";
  model.save(path);
  BertConfig reseeded = c;
  reseeded.seed = 12345;
  BertPairClassifier loaded(reseeded);
  loaded.load(path);
  EXPECT_EQ(loaded.fingerprint(), changed);
  std::remove(path.c_str());

  if (kernels::avx2_available()) {
    const kernels::Backend previous = kernels::active_backend();
    kernels::set_backend(kernels::Backend::kScalar);
    const std::uint64_t scalar = model.fingerprint();
    kernels::set_backend(kernels::Backend::kAvx2);
    EXPECT_NE(model.fingerprint(), scalar);
    kernels::set_backend(previous);
  }
}

TEST(ModelTest, GradcheckEndToEnd) {
  // Full model loss vs finite differences on a few sampled parameters of
  // each kind — the strongest correctness statement in the NN stack.
  BertConfig c = tiny_config();
  c.num_layers = 1;
  BertPairClassifier model(c);
  const EncodedSequence s = make_sequence({1, 2, 3}, c);
  auto loss = [&]() {
    model.pack_weights();  // check_gradient perturbs weights in place
    return model.eval_loss(s, 1);
  };

  for (auto* p : model.parameters()) p->zero_grad();
  model.train_step_accumulate(s, 1);

  int checked = 0;
  for (auto* p : model.parameters()) {
    const auto res =
        tensor::check_gradient(&p->value, p->grad, loss, 1e-2, 8e-2, 6);
    EXPECT_TRUE(res.ok) << p->name << " rel err " << res.max_rel_error;
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

TEST(TrainerTest, EvaluateAccuracyAndLoss) {
  const BertConfig c = tiny_config();
  BertPairClassifier model(c);
  std::vector<LabeledExample> examples{
      {make_sequence({1, 2}, c), 0},
      {make_sequence({3, 4}, c), 1},
  };
  const double acc = evaluate_accuracy(model, examples);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
  EXPECT_GT(evaluate_loss(model, examples), 0.0);
}

TEST(TrainerTest, RejectsEmptyDataset) {
  BertPairClassifier model(tiny_config());
  EXPECT_THROW(train(model, {}, TrainOptions{}), util::CheckError);
  EXPECT_THROW(evaluate_accuracy(model, {}), util::CheckError);
}

}  // namespace
}  // namespace rebert::bert
