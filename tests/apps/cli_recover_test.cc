// `rebert_cli recover` end to end on a small generated bench: the summary
// line and the --json object both carry the tokenize / score / group phase
// split and the sequence-class counts, and the phases fit inside the total.
#include <gtest/gtest.h>

#include <cstdio>
#include <regex>
#include <string>

#include "cli_run.h"

namespace {

/// The number right after `key` in `text` (keys here hold no regex
/// metacharacters); -1 when absent.
double field(const std::string& text, const std::string& key) {
  const std::regex pattern(key + R"(([0-9]+(\.[0-9]+)?))");
  std::smatch match;
  if (!std::regex_search(text, match, pattern)) return -1.0;
  return std::stod(match[1].str());
}

TEST(CliRecoverTest, ReportsPhaseSplitInSummaryAndJson) {
  const std::string cli = REBERT_CLI_PATH;
  const std::string bench = ::testing::TempDir() + "/rebert_cli_recover.bench";
  run(cli + " gen --bench b12 --out " + bench + " > /dev/null");
  const std::string out =
      run(cli + " recover --in " + bench + " --json 2> /dev/null");
  std::remove(bench.c_str());

  const std::size_t summary_at = out.find("ReBERT: ");
  ASSERT_NE(summary_at, std::string::npos) << out;
  const std::string summary =
      out.substr(summary_at, out.find('\n', summary_at) - summary_at);
  const double total = field(summary, " in ");
  const double tokenize = field(summary, "tokenize=");
  const double score = field(summary, "score=");
  const double group = field(summary, "group=");
  ASSERT_GE(tokenize, 0.0) << summary;
  ASSERT_GE(score, 0.0) << summary;
  ASSERT_GE(group, 0.0) << summary;
  // Each figure is rounded to 1 ms on print.
  EXPECT_LE(tokenize + score + group, total + 0.002) << summary;
  const double classes = field(summary, "sequence_classes=");
  const double class_pairs = field(summary, "scored_class_pairs=");
  EXPECT_GE(classes, 1.0) << summary;
  EXPECT_GE(class_pairs, 0.0) << summary;

  const std::size_t json_at = out.find("{\"tokenize_seconds\":");
  ASSERT_NE(json_at, std::string::npos) << out;
  const std::string json = out.substr(json_at);
  const double j_total = field(json, "\"total_seconds\":");
  const double j_tokenize = field(json, "\"tokenize_seconds\":");
  const double j_score = field(json, "\"score_seconds\":");
  const double j_group = field(json, "\"group_seconds\":");
  ASSERT_GE(j_tokenize, 0.0) << json;
  ASSERT_GE(j_score, 0.0) << json;
  ASSERT_GE(j_group, 0.0) << json;
  ASSERT_GT(j_total, 0.0) << json;
  // Printed to 1 us.
  EXPECT_LE(j_tokenize + j_score + j_group, j_total + 2e-6) << json;
  EXPECT_EQ(field(json, "\"sequence_classes\":"), classes) << json;
  EXPECT_EQ(field(json, "\"scored_class_pairs\":"), class_pairs) << json;
  // Still the word report's object, now led by the phase fields.
  EXPECT_NE(json.find("\"num_singletons\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"words\":["), std::string::npos) << json;
}

}  // namespace
