// Warm-start serving: an engine restarted onto a cache snapshot answers
// the same workload bit-identically without recomputing, corrupt snapshots
// and snapshots of another model degrade to a counted cold start, and
// ServeLoop's periodic snapshotting writes a loadable file at the
// configured cadence.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bert/model.h"
#include "rebert/pipeline.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/serve_loop.h"
#include "util/string_utils.h"

namespace rebert::serve {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

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

std::vector<std::pair<std::string, std::string>> all_pairs(
    const std::vector<std::string>& bits) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const std::string& a : bits)
    for (const std::string& b : bits) pairs.emplace_back(a, b);
  return pairs;
}

TEST(ServePersistTest, WarmStartIsBitIdenticalAndAllHits) {
  const std::string path = temp_path("warm_engine.rbpc");

  InferenceEngine cold(small_options(2));
  const std::vector<std::string> bits = cold.bit_names("b03");
  const auto pairs = all_pairs(bits);
  const std::vector<double> cold_scores = cold.score_batch("b03", pairs);
  cold.save_cache(path);
  ASSERT_GT(cold.stats().cache_entries, 0u);

  InferenceEngine warm(small_options(2));
  const std::size_t warmed = warm.load_cache(path);
  EXPECT_EQ(warmed, cold.stats().cache_entries);
  EXPECT_EQ(warm.stats().warm_entries, warmed);

  const std::vector<double> warm_scores = warm.score_batch("b03", pairs);
  ASSERT_EQ(warm_scores.size(), cold_scores.size());
  for (std::size_t i = 0; i < warm_scores.size(); ++i)
    EXPECT_EQ(warm_scores[i], cold_scores[i]) << "pair " << i;

  // Every request hit the snapshot: the warm engine never ran the model.
  const EngineStats stats = warm.stats();
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
  std::remove(path.c_str());
}

TEST(ServePersistTest, CorruptSnapshotStartsColdWithoutCrashing) {
  const std::string path = temp_path("warm_corrupt.rbpc");
  {
    std::ofstream out(path, std::ios::binary);
    out << "RBPC but then garbage that is definitely not records";
  }
  InferenceEngine engine(small_options(1));
  EXPECT_EQ(engine.load_cache(path), 0u);
  EXPECT_EQ(engine.stats().warm_entries, 0u);
  EXPECT_EQ(engine.stats().warm_rejected, 1u);
  // Still serves.
  const std::vector<std::string> bits = engine.bit_names("b03");
  const double score = engine.score("b03", bits[0], bits[1]);
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
  std::remove(path.c_str());
}

TEST(ServePersistTest, MissingSnapshotStartsCold) {
  InferenceEngine engine(small_options(1));
  EXPECT_EQ(engine.load_cache(temp_path("never_saved.rbpc")), 0u);
  EXPECT_EQ(engine.stats().warm_rejected, 0u);
}

TEST(ServePersistTest, SnapshotOfAnotherModelStartsColdAndCounted) {
  const std::string path = temp_path("warm_foreign_model.rbpc");
  const std::string weights = temp_path("warm_foreign_model.bin");
  InferenceEngine untrained(small_options(1));
  const std::vector<std::string> bits = untrained.bit_names("b03");
  const auto pairs = all_pairs(bits);
  (void)untrained.score_batch("b03", pairs);
  untrained.save_cache(path);
  {
    // The same architecture with one weight changed: another model.
    bert::BertPairClassifier model(
        core::make_model_config(small_options(1).experiment));
    model.parameters().front()->value.data()[0] += 0.5f;
    model.pack_weights();
    model.save(weights);
  }
  EngineOptions options = small_options(1);
  options.model_path = weights;
  InferenceEngine reference(options);
  InferenceEngine restarted(options);
  EXPECT_EQ(restarted.load_cache(path), 0u);
  EXPECT_EQ(restarted.stats().warm_rejected, 1u);
  EXPECT_EQ(restarted.score_batch("b03", pairs),
            reference.score_batch("b03", pairs));
  EXPECT_GT(restarted.stats().cache_misses, 0u);

  ServeLoop loop(restarted);
  bool quit = false;
  const std::string response = loop.handle_line("stats", &quit);
  EXPECT_NE(response.find(" warm_entries=0 warm_rejected=1 "),
            std::string::npos)
      << response;
  std::remove(path.c_str());
  std::remove(weights.c_str());
}

TEST(ServePersistTest, ServeLoopSnapshotsAtCadenceAndOnExit) {
  const std::string path = temp_path("loop_snapshot.rbpc");
  std::remove(path.c_str());

  InferenceEngine engine(small_options(2));
  ServeLoop loop(engine);
  loop.enable_snapshots(path, /*every_n=*/2);
  const std::vector<std::string> bits = engine.bit_names("b03");

  // Two answered requests trigger the first cadence snapshot even though
  // the session is still open.
  std::istringstream in("score b03 " + bits[0] + " " + bits[1] +
                        "\nscore b03 " + bits[1] + " " + bits[0] + "\n" +
                        "score b03 " + bits[0] + " " + bits[0] + "\nquit\n");
  std::ostringstream out;
  const std::size_t answered = loop.run(in, out);
  EXPECT_EQ(answered, 4u);

  InferenceEngine warm(small_options(1));
  const std::size_t warmed = warm.load_cache(path);
  EXPECT_EQ(warmed, engine.stats().cache_entries);
  EXPECT_GT(warmed, 0u);
  std::remove(path.c_str());
}

TEST(ServePersistTest, EveryNBelowOneSavesOnlyOnShutdown) {
  // every_n < 1 disables cadence snapshots entirely: no matter how many
  // requests are answered, the only save is the forced one at shutdown.
  const std::string path = temp_path("shutdown_only.rbpc");
  std::remove(path.c_str());

  InferenceEngine engine(small_options(2));
  ServeLoop loop(engine);
  loop.enable_snapshots(path, /*every_n=*/0);
  const std::vector<std::string> bits = engine.bit_names("b03");

  std::ostringstream script;
  for (int i = 0; i < 6; ++i)
    script << "score b03 " << bits[0] << " "
           << bits[static_cast<std::size_t>(1 + i % 2)] << "\n";
  std::istringstream in(script.str());
  std::ostringstream out;

  // run() answers all requests without ever writing the snapshot...
  std::ifstream probe_before(path);
  EXPECT_FALSE(probe_before.good());
  const std::size_t answered = loop.run(in, out);
  EXPECT_EQ(answered, 6u);

  // ...and the shutdown path (end of run()) writes exactly one, loadable.
  InferenceEngine warm(small_options(1));
  const std::size_t warmed = warm.load_cache(path);
  EXPECT_EQ(warmed, engine.stats().cache_entries);
  EXPECT_GT(warmed, 0u);
  std::remove(path.c_str());
}

TEST(ServePersistTest, ConcurrentCadenceSavesCoalesceWithoutCorruption) {
  // Cadence 1 means every answered request wants a snapshot; with several
  // connections answering concurrently the try-lock coalesces the writes.
  // The invariants: no request fails, the daemon survives, and the final
  // snapshot is complete and loadable.
  const std::string path = temp_path("coalesce.rbpc");
  std::remove(path.c_str());

  InferenceEngine engine(small_options(2));
  const std::vector<std::string> bits = engine.bit_names("b03");
  ServeLoop loop(engine);
  loop.enable_snapshots(path, /*every_n=*/1);
  const std::string socket_path = temp_path("coalesce.sock");
  std::thread server([&] { loop.run_unix_socket(socket_path); });

  constexpr int kClients = 4;
  constexpr int kRequests = 20;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(socket_path);
      if (!client.connect()) {
        failures.fetch_add(kRequests);
        return;
      }
      for (int r = 0; r < kRequests; ++r) {
        const std::string& a = bits[static_cast<std::size_t>(
            (c + r) % static_cast<int>(bits.size()))];
        const std::string& b = bits[static_cast<std::size_t>(
            (c * 3 + r) % static_cast<int>(bits.size()))];
        const std::string response =
            client.request("score b03 " + a + " " + b);
        if (!util::starts_with(response, "ok ")) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);

  loop.stop();
  server.join();
  std::remove(socket_path.c_str());

  InferenceEngine warm(small_options(1));
  const std::size_t warmed = warm.load_cache(path);
  EXPECT_EQ(warmed, engine.stats().cache_entries);
  EXPECT_GT(warmed, 0u);
  std::remove(path.c_str());
}

TEST(ServePersistTest, StatsLineReportsWarmEntries) {
  const std::string path = temp_path("stats_warm.rbpc");
  {
    InferenceEngine engine(small_options(1));
    const std::vector<std::string> bits = engine.bit_names("b03");
    (void)engine.score("b03", bits[0], bits[1]);
    engine.save_cache(path);
  }
  InferenceEngine engine(small_options(1));
  engine.load_cache(path);
  ServeLoop loop(engine);
  bool quit = false;
  const std::string response = loop.handle_line("stats", &quit);
  EXPECT_TRUE(util::starts_with(response, "ok threads=")) << response;
  EXPECT_NE(response.find(" warm_entries=1 warm_rejected=0 "),
            std::string::npos)
      << response;
  std::remove(path.c_str());
}

TEST(ServePersistTest, RoundTripSurvivesRepeatedRestarts) {
  // The acceptance loop: run -> snapshot -> restart -> run, three times;
  // entries accumulate monotonically and scores never change.
  const std::string path = temp_path("restart_cycle.rbpc");
  std::remove(path.c_str());
  std::vector<double> reference;
  std::size_t last_entries = 0;
  for (int run = 0; run < 3; ++run) {
    InferenceEngine engine(small_options(2));
    (void)engine.load_cache(path);
    const std::vector<std::string> bits = engine.bit_names("b03");
    const std::vector<double> scores =
        engine.score_batch("b03", all_pairs(bits));
    if (reference.empty()) {
      reference = scores;
    } else {
      ASSERT_EQ(scores, reference) << "run " << run;
      EXPECT_EQ(engine.stats().cache_misses, 0u) << "run " << run;
    }
    EXPECT_GE(engine.stats().cache_entries, last_entries);
    last_entries = engine.stats().cache_entries;
    engine.save_cache(path);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rebert::serve
