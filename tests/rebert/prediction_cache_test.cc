#include "rebert/prediction_cache.h"

#include <gtest/gtest.h>

#include <memory>

#include "circuitgen/suite.h"
#include "rebert/pipeline.h"
#include "rebert/scoring.h"

namespace rebert::core {
namespace {

BitSequence make_sequence(std::vector<int> tokens) {
  BitSequence seq;
  seq.token_ids = std::move(tokens);
  seq.tree_codes.assign(seq.token_ids.size(),
                        std::vector<std::uint8_t>(8, 0));
  return seq;
}

TEST(PredictionCacheTest, HitAfterInsert) {
  ShardedPredictionCache cache;
  const BitSequence a = make_sequence({1, 2, 3});
  const BitSequence b = make_sequence({4, 5});
  const std::uint64_t key = PredictionCache::key_of(a, b);
  double score = 0.0;
  EXPECT_FALSE(cache.lookup(key, &score));
  cache.insert(key, 0.42);
  ASSERT_TRUE(cache.lookup(key, &score));
  EXPECT_DOUBLE_EQ(score, 0.42);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(PredictionCacheTest, KeyIsOrderSensitive) {
  // encode_pair(a,b) and encode_pair(b,a) are different model inputs.
  const BitSequence a = make_sequence({1, 2, 3});
  const BitSequence b = make_sequence({4, 5});
  EXPECT_NE(PredictionCache::key_of(a, b), PredictionCache::key_of(b, a));
}

TEST(PredictionCacheTest, KeyDependsOnTokensAndCodes) {
  const BitSequence a = make_sequence({1, 2, 3});
  BitSequence a2 = make_sequence({1, 2, 3});
  EXPECT_EQ(PredictionCache::key_of(a, a), PredictionCache::key_of(a2, a2));
  a2.token_ids[2] = 9;
  EXPECT_NE(PredictionCache::key_of(a, a), PredictionCache::key_of(a2, a2));
  BitSequence a3 = make_sequence({1, 2, 3});
  a3.tree_codes[1][0] = 1;  // same tokens, different tree position
  EXPECT_NE(PredictionCache::key_of(a, a), PredictionCache::key_of(a3, a3));
}

TEST(PredictionCacheTest, ClearResetsEverything) {
  ShardedPredictionCache cache;
  cache.insert(7, 0.5);
  double score;
  cache.lookup(7, &score);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_FALSE(cache.lookup(7, &score));
}

TEST(PredictionCacheTest, CachedScoringIsBitIdentical) {
  // The headline property: caching must not change the score matrix.
  gen::GeneratedCircuit g = gen::generate_benchmark("b03", 0.5);
  const Tokenizer tokenizer({.backtrace_depth = 4, .tree_code_dim = 8,
                             .max_seq_len = 128});
  const auto bits = tokenizer.tokenize_bits(g.netlist);

  bert::BertConfig config = bert::eval_config(32, 128);
  config.tree_code_dim = 8;
  config.hidden = 32;
  config.num_layers = 1;
  config.num_heads = 2;
  config.intermediate = 64;
  bert::BertPairClassifier model(config);

  const ScoreMatrix uncached =
      score_all_pairs(bits, tokenizer, FilterOptions{}, model, nullptr);
  ShardedPredictionCache cache;
  const ScoreMatrix cold =
      score_all_pairs(bits, tokenizer, FilterOptions{}, model, &cache);
  const ScoreMatrix warm =
      score_all_pairs(bits, tokenizer, FilterOptions{}, model, &cache);

  ASSERT_EQ(uncached.size(), cold.size());
  for (int i = 0; i < uncached.size(); ++i)
    for (int j = 0; j < uncached.size(); ++j) {
      EXPECT_DOUBLE_EQ(uncached.at(i, j), cold.at(i, j));
      EXPECT_DOUBLE_EQ(uncached.at(i, j), warm.at(i, j));
    }
  // A second pass over the same circuit is answered from the cache.
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(cache.hits(), cache.misses());
}

TEST(PredictionCacheTest, PipelineReportsHitRate) {
  // recover_words memoizes only through the caller's cache: one recover
  // asks each class-pair key once, so the hits come from a second recover
  // through the same cache, and a recover without one reports none.
  gen::GeneratedCircuit g = gen::generate_benchmark("b03", 0.5);
  PipelineOptions options;
  options.tokenizer.backtrace_depth = 4;
  options.tokenizer.tree_code_dim = 8;
  options.tokenizer.max_seq_len = 128;

  bert::BertConfig config = bert::eval_config(32, 128);
  config.tree_code_dim = 8;
  bert::BertPairClassifier model(config);

  ShardedPredictionCache cache;
  options.external_cache = &cache;
  const RecoveryResult cold = recover_words(g.netlist, model, options);
  ASSERT_GT(cold.scored_class_pairs, 0u);
  EXPECT_EQ(cache.misses(), cold.scored_class_pairs);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_DOUBLE_EQ(cold.cache_hit_rate, 0.0);

  const std::uint64_t misses = cache.misses();
  const RecoveryResult warm = recover_words(g.netlist, model, options);
  EXPECT_DOUBLE_EQ(warm.cache_hit_rate, 1.0);
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_EQ(warm.labels, cold.labels);

  const std::uint64_t lookups = cache.hits() + cache.misses();
  options.use_prediction_cache = false;
  const RecoveryResult bypassed = recover_words(g.netlist, model, options);
  EXPECT_EQ(cache.hits() + cache.misses(), lookups);
  EXPECT_DOUBLE_EQ(bypassed.cache_hit_rate, 0.0);
  EXPECT_EQ(bypassed.labels, cold.labels);

  options.use_prediction_cache = true;
  options.external_cache = nullptr;
  const RecoveryResult uncached = recover_words(g.netlist, model, options);
  EXPECT_DOUBLE_EQ(uncached.cache_hit_rate, 0.0);
  EXPECT_EQ(uncached.labels, cold.labels);
}

/// A warm tier of fixed records written by `fingerprint`.
class FakeTier final : public ScoreTier {
 public:
  FakeTier(std::uint64_t fingerprint, std::uint64_t key, double score)
      : fingerprint_(fingerprint), key_(key), score_(score) {}
  bool lookup(std::uint64_t key, double* score) const override {
    if (key != key_) return false;
    if (score) *score = score_;
    return true;
  }
  std::size_t size() const override { return 1; }
  std::uint64_t fingerprint() const override { return fingerprint_; }
  void append_entries(
      std::vector<std::pair<std::uint64_t, double>>* out) const override {
    out->emplace_back(key_, score_);
  }

 private:
  std::uint64_t fingerprint_;
  std::uint64_t key_;
  double score_;
};

TEST(PredictionCacheTest, BindDropsAnotherScorersTierAndEntries) {
  ShardedPredictionCache cache;
  cache.insert(1, 0.1);  // before any binding: adopted by the first bind
  cache.bind(11);
  EXPECT_EQ(cache.fingerprint(), 11u);
  EXPECT_TRUE(cache.lookup(1, nullptr));

  EXPECT_FALSE(cache.attach_warm_tier(std::make_shared<FakeTier>(22, 2, 0.2)));
  EXPECT_EQ(cache.warm_tier(), nullptr);
  EXPECT_EQ(cache.warm_rejected(), 1u);
  EXPECT_TRUE(cache.attach_warm_tier(std::make_shared<FakeTier>(11, 2, 0.2)));
  cache.bind(11);  // same scorer: keeps everything
  EXPECT_NE(cache.warm_tier(), nullptr);
  EXPECT_EQ(cache.size(), 2u);

  cache.bind(33);  // another scorer: nothing of 11's survives
  EXPECT_EQ(cache.fingerprint(), 33u);
  EXPECT_EQ(cache.warm_tier(), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.warm_rejected(), 2u);
  EXPECT_FALSE(cache.lookup(1, nullptr));
  EXPECT_FALSE(cache.lookup(2, nullptr));

  cache.clear();  // drops contents and counts, keeps the binding
  EXPECT_EQ(cache.fingerprint(), 33u);
  EXPECT_EQ(cache.warm_rejected(), 0u);
}

TEST(PredictionCacheTest, RecoverUnderAnotherModelNeverReadsTheCache) {
  gen::GeneratedCircuit g = gen::generate_benchmark("b03", 0.5);
  PipelineOptions options;
  options.tokenizer.backtrace_depth = 4;
  options.tokenizer.tree_code_dim = 8;
  options.tokenizer.max_seq_len = 128;
  bert::BertConfig config = bert::eval_config(32, 128);
  config.tree_code_dim = 8;
  bert::BertPairClassifier first(config);
  config.seed ^= 1;  // another init: another model
  bert::BertPairClassifier second(config);
  ASSERT_NE(first.fingerprint(), second.fingerprint());

  const RecoveryArtifacts expected =
      recover_words_detailed(g.netlist, second, options);
  ShardedPredictionCache cache;
  options.external_cache = &cache;
  (void)recover_words(g.netlist, first, options);
  ASSERT_GT(cache.size(), 0u);
  const RecoveryArtifacts got =
      recover_words_detailed(g.netlist, second, options);
  EXPECT_DOUBLE_EQ(got.result.cache_hit_rate, 0.0);
  EXPECT_EQ(cache.fingerprint(),
            scorer_fingerprint(second, options.tokenizer));
  EXPECT_EQ(got.result.labels, expected.result.labels);
  ASSERT_EQ(got.scores.num_edges(), expected.scores.num_edges());
  for (int i = 0; i < got.scores.size(); ++i)
    for (int j = 0; j < got.scores.size(); ++j)
      ASSERT_EQ(got.scores.at(i, j), expected.scores.at(i, j));
}

}  // namespace
}  // namespace rebert::core
