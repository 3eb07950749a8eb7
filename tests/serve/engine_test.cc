// InferenceEngine + ServeLoop behaviour: batched scoring, the cache score
// shares with recover, concurrent request safety, and the stdio transport.
#include "serve/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bert/model.h"
#include "circuitgen/suite.h"
#include "rebert/scoring.h"
#include "serve/serve_loop.h"
#include "util/check.h"
#include "util/string_utils.h"

namespace rebert::serve {
namespace {

EngineOptions small_options(int threads) {
  EngineOptions options;
  options.num_threads = threads;
  options.suite_scale = 0.25;
  options.experiment.pipeline.tokenizer.backtrace_depth = 4;
  options.experiment.pipeline.tokenizer.tree_code_dim = 8;
  options.experiment.pipeline.tokenizer.max_seq_len = 128;
  options.experiment.model_hidden = 32;
  options.experiment.model_layers = 1;
  options.experiment.model_heads = 2;
  return options;
}

TEST(InferenceEngineTest, ScoreIsAProbabilityAndCacheable) {
  InferenceEngine engine(small_options(2));
  const std::vector<std::string> bits = engine.bit_names("b03");
  ASSERT_GE(bits.size(), 2u);

  const double first = engine.score("b03", bits[0], bits[1]);
  EXPECT_GE(first, 0.0);
  EXPECT_LE(first, 1.0);
  const double second = engine.score("b03", bits[0], bits[1]);
  EXPECT_EQ(first, second);  // bit-identical via the cache
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.score_requests, 2u);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.benches_loaded, 1u);
}

TEST(InferenceEngineTest, BatchMatchesIndividualScores) {
  InferenceEngine engine(small_options(2));
  const std::vector<std::string> bits = engine.bit_names("b04");
  std::vector<std::pair<std::string, std::string>> pairs;
  for (std::size_t i = 0; i < bits.size(); ++i)
    for (std::size_t j = 0; j < bits.size(); ++j)
      pairs.emplace_back(bits[i], bits[j]);
  // Several scheduling chunks, so the pool and the request thread share
  // the batch.
  ASSERT_GT(pairs.size(), 4u * core::ScoringOptions{}.grain);
  const std::vector<double> batched = engine.score_batch("b04", pairs);
  ASSERT_EQ(batched.size(), pairs.size());

  InferenceEngine reference(small_options(1));
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_EQ(batched[p],
              reference.score("b04", pairs[p].first, pairs[p].second))
        << pairs[p].first << " / " << pairs[p].second;
  }
}

TEST(InferenceEngineTest, RepeatedPairIsForwardedOncePerRequest) {
  // 64 copies of one pair span two scheduling chunks on four threads; the
  // request collapses them by cache key, so racing chunks cannot both miss.
  InferenceEngine engine(small_options(4));
  const std::vector<std::string> bits = engine.bit_names("b03");
  ASSERT_GE(bits.size(), 2u);
  const std::vector<std::pair<std::string, std::string>> pairs(
      64, {bits[0], bits[1]});
  ASSERT_GT(pairs.size(), static_cast<std::size_t>(
                              core::ScoringOptions{}.grain));
  const std::vector<double> scores = engine.score_batch("b03", pairs);
  ASSERT_EQ(scores.size(), pairs.size());
  for (const double score : scores) EXPECT_EQ(score, scores.front());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.score_requests, pairs.size());
}

TEST(InferenceEngineTest, ScoreAnswersRecoversPairsFromItsCache) {
  // recover and score share one scoring routine and one key: after a
  // recover, scoring any bit pair it scored is a cache hit with its score.
  const EngineOptions options = small_options(2);
  InferenceEngine engine(options);
  const std::vector<std::string> bits = engine.bit_names("b03");
  engine.recover("b03");

  // The matrix recover computed, rebuilt from the same bits and weights.
  const nl::Netlist netlist =
      gen::generate_benchmark("b03", options.suite_scale).netlist;
  const core::PipelineOptions& pipeline = options.experiment.pipeline;
  const core::Tokenizer tokenizer(pipeline.tokenizer);
  const bert::BertPairClassifier model(
      core::make_model_config(options.experiment));
  const core::ScoreMatrix matrix = core::score_all_pairs(
      tokenizer.tokenize_bits(netlist), tokenizer, pipeline.filter, model);
  ASSERT_EQ(matrix.size(), static_cast<int>(bits.size()));

  const std::uint64_t misses = engine.stats().cache_misses;
  int scored = 0;
  for (int i = 0; i < matrix.size(); ++i)
    for (int j = i + 1; j < matrix.size(); ++j) {
      const double expected = matrix.at(i, j);
      if (expected == core::ScoreMatrix::kFiltered) continue;
      ++scored;
      EXPECT_EQ(engine.score("b03", bits[static_cast<std::size_t>(i)],
                             bits[static_cast<std::size_t>(j)]),
                expected)
          << i << " / " << j;
    }
  EXPECT_GT(scored, 0);
  EXPECT_EQ(engine.stats().cache_misses, misses);
}

TEST(InferenceEngineTest, UnknownBenchAndBitThrow) {
  InferenceEngine engine(small_options(1));
  EXPECT_THROW(engine.score("no_such_bench_or_file", "a", "b"),
               std::exception);
  const std::vector<std::string> bits = engine.bit_names("b03");
  EXPECT_THROW(engine.score("b03", bits[0], "definitely_not_a_bit"),
               util::CheckError);
}

TEST(InferenceEngineTest, RecoverReportsPlausibleSummary) {
  InferenceEngine engine(small_options(2));
  const RecoverSummary summary = engine.recover("b03");
  EXPECT_GT(summary.num_bits, 0);
  EXPECT_GT(summary.num_words, 0);
  EXPECT_LE(summary.num_words, summary.num_bits);
  EXPECT_EQ(engine.stats().recover_requests, 1u);
}

TEST(InferenceEngineTest, ConcurrentScoresAgreeWithSerialReference) {
  // The headline thread-safety property: many client threads hammering one
  // engine get exactly the scores a serial engine computes.
  InferenceEngine engine(small_options(4));
  const std::vector<std::string> bits = engine.bit_names("b03");
  const std::size_t n = bits.size();
  ASSERT_GE(n, 2u);

  InferenceEngine reference(small_options(1));
  std::vector<double> expected(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      expected[i * n + j] = reference.score("b03", bits[i], bits[j]);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t j = (i + static_cast<std::size_t>(c)) % n;
          if (engine.score("b03", bits[i], bits[j]) != expected[i * n + j])
            mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServeLoopTest, StdioSessionAnswersInOrder) {
  InferenceEngine engine(small_options(2));
  ServeLoop loop(engine);
  const std::vector<std::string> bits = engine.bit_names("b03");

  std::istringstream in("help\n\n# comment\nscore b03 " + bits[0] + " " +
                        bits[1] + "\nbogus\nstats\nquit\nscore after quit\n");
  std::ostringstream out;
  const std::size_t answered = loop.run(in, out);
  EXPECT_EQ(answered, 5u);  // help, score, bogus, stats, quit

  const std::vector<std::string> lines = util::split_ws(out.str());
  ASSERT_FALSE(lines.empty());
  std::istringstream reparse(out.str());
  std::string line;
  std::vector<std::string> responses;
  while (std::getline(reparse, line)) responses.push_back(line);
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_TRUE(util::starts_with(responses[0], "ok commands:"));
  EXPECT_TRUE(util::starts_with(responses[1], "ok 0."));
  EXPECT_TRUE(util::starts_with(responses[2], "err "));
  EXPECT_TRUE(util::starts_with(responses[3], "ok threads="));
  EXPECT_EQ(responses[4], "ok bye");
}

TEST(ServeLoopTest, EngineErrorsBecomeErrResponses) {
  InferenceEngine engine(small_options(1));
  ServeLoop loop(engine);
  bool quit = false;
  const std::string response =
      loop.handle_line("recover not_a_bench", &quit);
  EXPECT_TRUE(util::starts_with(response, "err "));
  EXPECT_EQ(response.find('\n'), std::string::npos);
  EXPECT_FALSE(quit);
}

}  // namespace
}  // namespace rebert::serve
