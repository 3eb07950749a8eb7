// ModelRegistry — manifest grammar, size-rule selection, unhealthy-entry
// behaviour, and the engine integration: model= requests against a
// multi-model engine, per-model caches, and degradation when a named
// model's checkpoint never loaded.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "bert/config.h"
#include "serve/engine.h"
#include "serve/model_registry.h"
#include "util/check.h"
#include "util/string_utils.h"

namespace rebert::serve {
namespace {

bert::BertConfig tiny_config() {
  bert::BertConfig config;
  config.hidden = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.intermediate = 32;
  config.max_seq_len = 64;
  config.tree_code_dim = 8;
  return config;
}

core::TokenizerOptions tiny_tokenizer() {
  return {.tree_code_dim = 8, .max_seq_len = 64};
}

std::string write_file(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return path;
}

TEST(ModelManifestTest, ParsesModelsDefaultAndComments) {
  const ModelManifest manifest = parse_model_manifest_text(
      "# fleet manifest\n"
      "\n"
      "model small - max_bits=64\n"
      "model large -\n"
      "default large\n",
      "test");
  ASSERT_EQ(manifest.models.size(), 2u);
  EXPECT_EQ(manifest.models[0].name, "small");
  EXPECT_EQ(manifest.models[0].path, "-");
  EXPECT_EQ(manifest.models[0].max_bits, 64);
  EXPECT_EQ(manifest.models[1].name, "large");
  EXPECT_EQ(manifest.models[1].max_bits, 0);
  EXPECT_EQ(manifest.default_model, "large");
}

TEST(ModelManifestTest, DefaultFallsBackToFirstListed) {
  const ModelManifest manifest =
      parse_model_manifest_text("model only -\n", "test");
  EXPECT_EQ(manifest.default_model, "only");
  ASSERT_EQ(manifest.models.size(), 1u);
}

TEST(ModelManifestTest, RejectsMalformedInput) {
  EXPECT_THROW(parse_model_manifest_text("model\n", "t"), util::CheckError);
  EXPECT_THROW(parse_model_manifest_text("model a - max_bits=zero\n", "t"),
               util::CheckError);
  EXPECT_THROW(parse_model_manifest_text("model a - max_bits=0\n", "t"),
               util::CheckError);
  EXPECT_THROW(parse_model_manifest_text("model a -\nmodel a -\n", "t"),
               util::CheckError);
  EXPECT_THROW(parse_model_manifest_text("model a -\ndefault ghost\n", "t"),
               util::CheckError);
  EXPECT_THROW(parse_model_manifest_text("frobnicate a\n", "t"),
               util::CheckError);
  EXPECT_THROW(parse_model_manifest_text("# only comments\n", "t"),
               util::CheckError);
}

TEST(ModelManifestTest, ReadsFromFileAndReportsMissingFile) {
  const std::string path = write_file(
      "registry_manifest.txt", "model a - max_bits=32\ndefault a\n");
  const ModelManifest manifest = parse_model_manifest(path);
  ASSERT_EQ(manifest.models.size(), 1u);
  EXPECT_EQ(manifest.default_model, "a");
  EXPECT_THROW(parse_model_manifest("/nonexistent/manifest.txt"),
               util::CheckError);
}

TEST(ModelRegistryTest, SizeRulePicksSmallestCoveringBound) {
  ModelManifest manifest;
  manifest.models = {{"small", "-", 32},
                     {"medium", "-", 128},
                     {"big", "-", 0}};
  manifest.default_model = "big";
  core::ShardedPredictionCache cache(4);
  ModelRegistry registry(manifest, tiny_config(), tiny_tokenizer(), &cache);
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.unhealthy_count(), 0);

  EXPECT_EQ(registry.select("", 10).spec.name, "small");
  EXPECT_EQ(registry.select("", 32).spec.name, "small");  // inclusive bound
  EXPECT_EQ(registry.select("", 33).spec.name, "medium");
  // Bigger than every bound: the default, never an unbounded non-default.
  EXPECT_EQ(registry.select("", 4000).spec.name, "big");
  // Explicit names beat the size rule.
  EXPECT_EQ(registry.select("medium", 10).spec.name, "medium");
  EXPECT_THROW(registry.select("ghost", 10), util::CheckError);
}

TEST(ModelRegistryTest, CacheOwnershipSeparatesModels) {
  ModelManifest manifest;
  manifest.models = {{"a", "-", 0}, {"b", "-", 0}};
  manifest.default_model = "a";
  core::ShardedPredictionCache shared(4);
  ModelRegistry registry(manifest, tiny_config(), tiny_tokenizer(), &shared);
  ModelRegistry::Entry* a = registry.find("a");
  ModelRegistry::Entry* b = registry.find("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(registry.find("c"), nullptr);
  // The default aliases the engine's persisted cache; others own theirs.
  EXPECT_EQ(a->cache, &shared);
  EXPECT_EQ(a->owned_cache, nullptr);
  EXPECT_EQ(b->cache, b->owned_cache.get());
  EXPECT_NE(b->cache, a->cache);
  EXPECT_EQ(&registry.default_entry(), a);
}

TEST(ModelRegistryTest, UnloadableCheckpointIsKeptButUnhealthy) {
  const std::string bogus =
      write_file("registry_bogus.ckpt", "not a checkpoint");
  ModelManifest manifest;
  manifest.models = {{"good", "-", 0}, {"bad", bogus, 0}};
  manifest.default_model = "good";
  core::ShardedPredictionCache cache(4);
  ModelRegistry registry(manifest, tiny_config(), tiny_tokenizer(), &cache);
  ModelRegistry::Entry* bad = registry.find("bad");
  ASSERT_NE(bad, nullptr);
  EXPECT_FALSE(bad->load_ok);
  EXPECT_FALSE(bad->healthy.load());
  EXPECT_EQ(registry.unhealthy_count(), 1);
  // The size rule and the unnamed path never pick it...
  EXPECT_EQ(registry.select("", 10).spec.name, "good");
  // ...but an explicit name still resolves (the engine decides whether
  // that is an error or a structural fallback).
  EXPECT_EQ(registry.select("bad", 10).spec.name, "bad");
}

// --- engine integration -------------------------------------------------

EngineOptions engine_options_with_manifest(const std::string& manifest) {
  EngineOptions options;
  options.num_threads = 2;
  options.suite_scale = 0.25;
  options.experiment.pipeline.tokenizer.backtrace_depth = 4;
  options.experiment.pipeline.tokenizer.tree_code_dim = 8;
  options.experiment.pipeline.tokenizer.max_seq_len = 128;
  options.experiment.model_hidden = 32;
  options.experiment.model_layers = 1;
  options.experiment.model_heads = 2;
  options.manifest_path = manifest;
  return options;
}

TEST(ModelRegistryEngineTest, ScoresThroughNamedModels) {
  const std::string manifest_path = write_file(
      "registry_engine_manifest.txt",
      "model tiny - max_bits=4\n"
      "model main -\n"
      "default main\n");
  InferenceEngine engine(engine_options_with_manifest(manifest_path));
  const EngineStats boot = engine.stats();
  EXPECT_EQ(boot.models, 2);
  EXPECT_EQ(boot.unhealthy_models, 0);

  const std::vector<std::string> bits = engine.bit_names("b03");
  ASSERT_GE(bits.size(), 2u);
  const double unnamed = engine.score("b03", bits[0], bits[1]);
  const double named = engine.score("b03", bits[0], bits[1], nullptr, "main");
  EXPECT_GE(unnamed, 0.0);
  EXPECT_LE(unnamed, 1.0);
  // b03 exceeds tiny's 4-bit bound, so the unnamed request size-routes to
  // main — same entry, same cache, identical score.
  EXPECT_DOUBLE_EQ(unnamed, named);
  // The two entries hold independently initialised weights; the explicit
  // tiny answer is a different model's opinion.
  const double tiny = engine.score("b03", bits[0], bits[1], nullptr, "tiny");
  EXPECT_GE(tiny, 0.0);
  EXPECT_LE(tiny, 1.0);

  EXPECT_THROW(engine.score("b03", bits[0], bits[1], nullptr, "ghost"),
               util::CheckError);

  ModelRegistry::Entry* main_entry = engine.registry().find("main");
  ModelRegistry::Entry* tiny_entry = engine.registry().find("tiny");
  ASSERT_NE(main_entry, nullptr);
  ASSERT_NE(tiny_entry, nullptr);
  EXPECT_GE(main_entry->requests.load(), 2u);
  EXPECT_GE(tiny_entry->requests.load(), 1u);
}

TEST(ModelRegistryEngineTest, UnhealthyNamedModelDegradesRecover) {
  const std::string bogus =
      write_file("registry_engine_bogus.ckpt", "zzz not weights zzz");
  const std::string manifest_path = write_file(
      "registry_engine_bad_manifest.txt",
      "model good -\n"
      "model broken " + bogus + "\n"
      "default good\n");
  InferenceEngine engine(engine_options_with_manifest(manifest_path));
  EXPECT_EQ(engine.stats().unhealthy_models, 1);

  const std::vector<std::string> bits = engine.bit_names("b03");
  ASSERT_GE(bits.size(), 2u);
  // score on the broken model is a request error...
  EXPECT_THROW(engine.score("b03", bits[0], bits[1], nullptr, "broken"),
               util::CheckError);
  // ...recover degrades to the structural baseline instead of failing.
  const RecoverSummary degraded = engine.recover("b03", nullptr, "broken");
  EXPECT_TRUE(degraded.degraded);
  const EngineStats after = engine.stats();
  EXPECT_GE(after.degraded_recoveries, 1u);
  // The healthy default still serves the model path.
  const RecoverSummary healthy = engine.recover("b03");
  EXPECT_FALSE(healthy.degraded);
}

}  // namespace
}  // namespace rebert::serve
