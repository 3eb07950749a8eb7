// `rebert_cli recover --cache-file` warm-start round trip: the first run
// scores cold and writes an RBPC snapshot, the second maps it and answers
// every class pair from it, and both runs print the same words.
#include <gtest/gtest.h>

#include <cstdio>
#include <regex>
#include <sstream>
#include <string>

#include "cli_run.h"
#include "persist/mmap_snapshot.h"

namespace {

/// The recovered words: every output line but the timing summary and the
/// cache notes.
std::string words_of(const std::string& out) {
  std::istringstream lines(out);
  std::string line, words;
  while (std::getline(lines, line))
    if (line.rfind("ReBERT: ", 0) != 0 && line.rfind("cache: ", 0) != 0)
      words += line + "\n";
  return words;
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
  const std::string warm = run(recover);
  std::remove(bench.c_str());

  EXPECT_NE(cold.find("warm-started 0 entries"), std::string::npos) << cold;
  std::smatch match;
  ASSERT_TRUE(std::regex_search(warm, match,
                                std::regex(R"(warm-started ([0-9]+) entries)")))
      << warm;
  EXPECT_GT(std::stoul(match[1].str()), 0u) << warm;
  EXPECT_NE(warm.find("100% cache hits"), std::string::npos) << warm;
  EXPECT_FALSE(words_of(cold).empty()) << cold;
  EXPECT_EQ(words_of(warm), words_of(cold));

  const rebert::persist::MmapSnapshot::OpenResult mapped =
      rebert::persist::MmapSnapshot::open(cache);
  EXPECT_TRUE(mapped.loaded()) << mapped.message;
  std::remove(cache.c_str());
}

}  // namespace
