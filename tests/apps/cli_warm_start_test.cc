// `rebert_cli recover|score --cache-file` warm starts: the first run
// scores cold and writes an RBPC snapshot, the second maps it and answers
// every pair from it — and leaves the file alone — while a snapshot
// of another kernel backend or another model starts cold, counted as
// warm_rejected, and answers exactly what a run without a cache answers.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <regex>
#include <sstream>
#include <string>

#include "cli_run.h"
#include "kernels/backend.h"
#include "persist/mmap_snapshot.h"

namespace {

/// The recovered words (and report lines): every output line but the
/// timing summary and the cache notes.
std::string words_of(const std::string& out) {
  std::istringstream lines(out);
  std::string line, words;
  while (std::getline(lines, line))
    if (line.rfind("ReBERT: ", 0) != 0 && line.rfind("cache: ", 0) != 0)
      words += line + "\n";
  return words;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

struct timespec mtime_of(const std::string& path) {
  struct stat info {};
  EXPECT_EQ(::stat(path.c_str(), &info), 0) << path;
  return info.st_mtim;
}

/// The `scores checksum : <hex>` of a `score` run.
std::string checksum_of(const std::string& out) {
  std::smatch match;
  EXPECT_TRUE(std::regex_search(
      out, match, std::regex(R"(scores checksum : ([0-9a-f]+))")))
      << out;
  return match.size() > 1 ? match[1].str() : "";
}

/// The count a `score` run prints before `label` (a regex) on its cache
/// line.
long count_of(const std::string& out, const std::string& label) {
  std::smatch match;
  EXPECT_TRUE(std::regex_search(out, match, std::regex("([0-9]+) " + label)))
      << out;
  return match.size() > 1 ? std::stol(match[1].str()) : -1;
}

TEST(CliWarmStartTest, SecondRecoverIsServedFromTheSnapshot) {
  const std::string cli = REBERT_CLI_PATH;
  const std::string dir = ::testing::TempDir();
  const std::string bench = dir + "/rebert_cli_warm.bench";
  const std::string cache = dir + "/rebert_cli_warm.rbpc";
  std::remove(cache.c_str());
  run(cli + " gen --bench b12 --out " + bench + " > /dev/null");
  const std::string recover =
      cli + " recover --in " + bench + " --cache-file " + cache +
      " 2> /dev/null";
  const std::string cold = run(recover);
  const std::string bytes = slurp(cache);
  const struct timespec written = mtime_of(cache);
  const std::string warm = run(recover);
  std::remove(bench.c_str());

  EXPECT_NE(cold.find("warm-started 0 entries"), std::string::npos) << cold;
  std::smatch match;
  ASSERT_TRUE(std::regex_search(warm, match,
                                std::regex(R"(warm-started ([0-9]+) entries)")))
      << warm;
  EXPECT_GT(std::stoul(match[1].str()), 0u) << warm;
  EXPECT_NE(warm.find("(warm_rejected=0)"), std::string::npos) << warm;
  EXPECT_NE(warm.find("100% cache hits"), std::string::npos) << warm;
  EXPECT_FALSE(words_of(cold).empty()) << cold;
  EXPECT_EQ(words_of(warm), words_of(cold));

  // A warm run with no misses has nothing to add: the snapshot is left
  // byte-for-byte and untouched on disk.
  EXPECT_NE(warm.find("unchanged"), std::string::npos) << warm;
  EXPECT_EQ(slurp(cache), bytes);
  const struct timespec after = mtime_of(cache);
  EXPECT_EQ(after.tv_sec, written.tv_sec);
  EXPECT_EQ(after.tv_nsec, written.tv_nsec);

  const rebert::persist::MmapSnapshot::OpenResult mapped =
      rebert::persist::MmapSnapshot::open(cache);
  EXPECT_TRUE(mapped.loaded()) << mapped.message;
  std::remove(cache.c_str());
}

TEST(CliWarmStartTest, SecondScoreLeavesTheSnapshotUnchanged) {
  const std::string cli = REBERT_CLI_PATH;
  const std::string cache =
      ::testing::TempDir() + "/rebert_cli_score_warm.rbpc";
  std::remove(cache.c_str());
  const std::string score = cli +
                            " score --bench b07 --pairs 40 --cache-file " +
                            cache + " 2> /dev/null";
  const std::string cold = run(score);
  const std::string bytes = slurp(cache);
  const struct timespec written = mtime_of(cache);
  const std::string warm = run(score);

  EXPECT_NE(cold.find("saved"), std::string::npos) << cold;
  EXPECT_EQ(checksum_of(warm), checksum_of(cold));
  EXPECT_NE(warm.find(" 0 miss(es)"), std::string::npos) << warm;
  // An accepted snapshot that answered every pair is not rewritten.
  EXPECT_NE(warm.find("snapshot " + cache + " unchanged"), std::string::npos)
      << warm;
  EXPECT_EQ(slurp(cache), bytes);
  const struct timespec after = mtime_of(cache);
  EXPECT_EQ(after.tv_sec, written.tv_sec);
  EXPECT_EQ(after.tv_nsec, written.tv_nsec);
  std::remove(cache.c_str());
}

TEST(CliWarmStartTest, SnapshotOfAnotherBackendStartsCold) {
  // Scores are bit-identical per kernel backend only, so an avx2 snapshot
  // must not answer a scalar run.
  if (!rebert::kernels::avx2_available())
    GTEST_SKIP() << "needs a second kernel backend (AVX2+FMA)";
  const std::string cli = REBERT_CLI_PATH;
  const std::string cache =
      ::testing::TempDir() + "/rebert_cli_backend_skew.rbpc";
  std::remove(cache.c_str());
  const std::string score = cli + " score --bench b07 --pairs 40 --kernels ";
  const std::string avx2 = run(score + "avx2 --cache-file " + cache +
                               " 2> /dev/null");
  const std::string scalar = run(score + "scalar 2> /dev/null");
  const std::string skewed = run(score + "scalar --cache-file " + cache +
                                 " 2> /dev/null");
  const std::string rewarmed = run(score + "scalar --cache-file " + cache +
                                   " 2> /dev/null");
  std::remove(cache.c_str());

  EXPECT_NE(checksum_of(avx2), checksum_of(scalar));
  EXPECT_EQ(checksum_of(skewed), checksum_of(scalar));
  EXPECT_NE(skewed.find("0 warm-loaded, warm_rejected=1"), std::string::npos)
      << skewed;
  // Nothing came from the snapshot: every distinct pair was forwarded
  // exactly once.
  EXPECT_EQ(count_of(skewed, "miss\\(es\\)"), count_of(scalar, "entries"))
      << skewed;
  // The rejected file was rewritten under scalar's fingerprint.
  EXPECT_EQ(checksum_of(rewarmed), checksum_of(scalar));
  EXPECT_NE(rewarmed.find("100.0% hit rate"), std::string::npos) << rewarmed;
  EXPECT_NE(rewarmed.find("warm_rejected=0"), std::string::npos) << rewarmed;
}

TEST(CliWarmStartTest, SnapshotOfAnotherModelStartsCold) {
  const std::string cli = REBERT_CLI_PATH;
  const std::string dir = ::testing::TempDir();
  const std::string bench = dir + "/rebert_cli_model_skew.bench";
  const std::string model = dir + "/rebert_cli_model_skew.bin";
  const std::string cache = dir + "/rebert_cli_model_skew.rbpc";
  std::remove(cache.c_str());
  run(cli + " gen --bench b07 --scale 0.25 --out " + bench + " > /dev/null");
  run(cli + " train --out " + model + " --benchmarks b07 --scale 0.25 " +
      "--epochs 1 --max-samples 60 > /dev/null 2>&1");
  const std::string recover = cli + " recover --report --in " + bench;
  const std::string untrained =
      run(recover + " --cache-file " + cache + " 2> /dev/null");
  const std::string trained = run(recover + " --model " + model +
                                  " 2> /dev/null");
  const std::string skewed = run(recover + " --model " + model +
                                 " --cache-file " + cache + " 2> /dev/null");
  std::remove(bench.c_str());
  std::remove(model.c_str());
  std::remove(cache.c_str());

  // The report's cohesion scores tell the two models apart.
  ASSERT_NE(words_of(trained), words_of(untrained)) << trained;
  EXPECT_EQ(words_of(skewed), words_of(trained));
  EXPECT_NE(skewed.find("warm-started 0 entries"), std::string::npos)
      << skewed;
  EXPECT_NE(skewed.find("(warm_rejected=1)"), std::string::npos) << skewed;
  EXPECT_NE(skewed.find(" 0% cache hits"), std::string::npos) << skewed;
}

}  // namespace
