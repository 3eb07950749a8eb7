#include "nl/gate.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <ostream>
#include <vector>

#include "util/check.h"

namespace rebert::nl {
namespace {

TEST(GateTypeTest, NameRoundTrip) {
  for (int i = 0; i < kNumGateTypes; ++i) {
    const GateType t = static_cast<GateType>(i);
    EXPECT_EQ(gate_type_from_name(gate_type_name(t)), t);
  }
}

TEST(GateTypeTest, NameParsingIsCaseInsensitiveWithAliases) {
  EXPECT_EQ(gate_type_from_name("nand"), GateType::kNand);
  EXPECT_EQ(gate_type_from_name("Inv"), GateType::kNot);
  EXPECT_EQ(gate_type_from_name("BUFF"), GateType::kBuf);
  EXPECT_THROW(gate_type_from_name("FOO"), util::CheckError);
}

TEST(GateTypeTest, Classification) {
  EXPECT_TRUE(is_source(GateType::kInput));
  EXPECT_TRUE(is_source(GateType::kConst0));
  EXPECT_TRUE(is_source(GateType::kConst1));
  EXPECT_FALSE(is_source(GateType::kAnd));
  EXPECT_TRUE(is_sequential(GateType::kDff));
  EXPECT_FALSE(is_sequential(GateType::kNot));
  EXPECT_TRUE(is_combinational(GateType::kXor));
  EXPECT_FALSE(is_combinational(GateType::kDff));
  EXPECT_FALSE(is_combinational(GateType::kInput));
  EXPECT_TRUE(is_decomposable(GateType::kNor));
  EXPECT_FALSE(is_decomposable(GateType::kMux));
  EXPECT_FALSE(is_decomposable(GateType::kNot));
}

struct TruthCase {
  GateType type;
  std::vector<bool> inputs;
  bool expected;
};

// Prints a case as e.g. "AND(1,0)=0". Without this gtest dumps the raw
// object bytes, which include heap addresses, so the parameterized test
// names would change from run to run.
void PrintTo(const TruthCase& c, std::ostream* os) {
  *os << gate_type_name(c.type) << '(';
  for (std::size_t i = 0; i < c.inputs.size(); ++i) {
    *os << (i > 0 ? "," : "") << (c.inputs[i] ? '1' : '0');
  }
  *os << ")=" << (c.expected ? '1' : '0');
}

class GateEvalTest : public ::testing::TestWithParam<TruthCase> {};

TEST_P(GateEvalTest, MatchesTruthTable) {
  const TruthCase& c = GetParam();
  EXPECT_EQ(eval_gate(c.type, c.inputs), c.expected)
      << gate_type_name(c.type) << " arity " << c.inputs.size();
}

INSTANTIATE_TEST_SUITE_P(
    TwoInput, GateEvalTest,
    ::testing::Values(
        TruthCase{GateType::kAnd, {false, false}, false},
        TruthCase{GateType::kAnd, {true, false}, false},
        TruthCase{GateType::kAnd, {true, true}, true},
        TruthCase{GateType::kOr, {false, false}, false},
        TruthCase{GateType::kOr, {false, true}, true},
        TruthCase{GateType::kNand, {true, true}, false},
        TruthCase{GateType::kNand, {true, false}, true},
        TruthCase{GateType::kNor, {false, false}, true},
        TruthCase{GateType::kNor, {false, true}, false},
        TruthCase{GateType::kXor, {true, true}, false},
        TruthCase{GateType::kXor, {true, false}, true},
        TruthCase{GateType::kXnor, {true, true}, true},
        TruthCase{GateType::kXnor, {false, true}, false},
        TruthCase{GateType::kNot, {true}, false},
        TruthCase{GateType::kNot, {false}, true},
        TruthCase{GateType::kBuf, {true}, true},
        TruthCase{GateType::kConst0, {}, false},
        TruthCase{GateType::kConst1, {}, true}));

INSTANTIATE_TEST_SUITE_P(
    WideAndMux, GateEvalTest,
    ::testing::Values(
        TruthCase{GateType::kAnd, {true, true, true}, true},
        TruthCase{GateType::kAnd, {true, true, false}, false},
        TruthCase{GateType::kOr, {false, false, false}, false},
        TruthCase{GateType::kOr, {false, false, true}, true},
        TruthCase{GateType::kNand, {true, true, true}, false},
        TruthCase{GateType::kNor, {false, false, false}, true},
        // XOR is odd parity, XNOR even parity for arity > 2.
        TruthCase{GateType::kXor, {true, true, true}, true},
        TruthCase{GateType::kXor, {true, true, false}, false},
        TruthCase{GateType::kXnor, {true, true, true}, false},
        TruthCase{GateType::kXnor, {true, true, false}, true},
        // MUX(sel, a, b): sel=0 -> a, sel=1 -> b.
        TruthCase{GateType::kMux, {false, true, false}, true},
        TruthCase{GateType::kMux, {true, true, false}, false},
        TruthCase{GateType::kMux, {true, false, true}, true}));

TEST(GateEvalErrorTest, RejectsBadArity) {
  EXPECT_THROW(eval_gate(GateType::kAnd, std::vector<bool>{true}),
               util::CheckError);
  EXPECT_THROW(eval_gate(GateType::kNot, std::vector<bool>{true, false}),
               util::CheckError);
  EXPECT_THROW(eval_gate(GateType::kMux, std::vector<bool>{true, false}),
               util::CheckError);
}

TEST(GateEvalErrorTest, RejectsNonCombinational) {
  EXPECT_THROW(eval_gate(GateType::kDff, std::vector<bool>{true}),
               util::CheckError);
}

TEST(GateArityTest, Ranges) {
  EXPECT_EQ(gate_arity(GateType::kInput).max, 0);
  EXPECT_EQ(gate_arity(GateType::kNot).min, 1);
  EXPECT_EQ(gate_arity(GateType::kNot).max, 1);
  EXPECT_EQ(gate_arity(GateType::kAnd).min, 2);
  EXPECT_EQ(gate_arity(GateType::kAnd).max, -1);
  EXPECT_EQ(gate_arity(GateType::kMux).min, 3);
  EXPECT_EQ(gate_arity(GateType::kMux).max, 3);
  EXPECT_EQ(gate_arity(GateType::kDff).min, 1);
}

}  // namespace
}  // namespace rebert::nl
