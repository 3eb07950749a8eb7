#include "nl/export_dot.h"

#include <gtest/gtest.h>

#include "circuitgen/suite.h"
#include "nl/parser.h"
#include "util/check.h"

namespace rebert::nl {
namespace {

Netlist small() {
  return parse_bench_string(R"(
INPUT(a)
INPUT(b)
x = AND(a, b)
q0 = DFF(x)
q1 = DFF(x)
OUTPUT(x)
)");
}

TEST(DotExportTest, ContainsNodesAndEdges) {
  const Netlist n = small();
  const std::string dot = dot_string(n, WordMap{});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"x\" [shape=ellipse"), std::string::npos);
  EXPECT_NE(dot.find("\"a\" -> \"x\""), std::string::npos);
  EXPECT_NE(dot.find("\"x\" -> \"q0\""), std::string::npos);
  // Outputs get a double border.
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
  // DFFs are boxes.
  EXPECT_NE(dot.find("\"q0\" [shape=box"), std::string::npos);
}

TEST(DotExportTest, WordsBecomeClusters) {
  const Netlist n = small();
  WordMap words;
  words.add_word("reg", {"q0", "q1"});
  const std::string dot = dot_string(n, words);
  EXPECT_NE(dot.find("subgraph cluster_0"), std::string::npos);
  EXPECT_NE(dot.find("label=\"reg\""), std::string::npos);
  DotOptions no_clusters;
  no_clusters.cluster_words = false;
  EXPECT_EQ(dot_string(n, words, no_clusters).find("subgraph"),
            std::string::npos);
}

TEST(DotExportTest, EscapesSpecialCharacters) {
  Netlist n;
  n.add_input("a\"b");
  const std::string dot = dot_string(n, WordMap{});
  EXPECT_NE(dot.find("\"a\\\"b\""), std::string::npos);
}

TEST(DotExportTest, SizeLimitEnforced) {
  const gen::GeneratedCircuit big = gen::generate_benchmark("b12");
  DotOptions tiny;
  tiny.max_gates = 10;
  EXPECT_THROW(dot_string(big.netlist, big.words, tiny), util::CheckError);
  // Default limit renders b03 fine.
  const gen::GeneratedCircuit okay = gen::generate_benchmark("b03");
  EXPECT_FALSE(dot_string(okay.netlist, okay.words).empty());
}

}  // namespace
}  // namespace rebert::nl
