// Coverage for util/check.h: message formatting, catchability, and the
// hot-path REBERT_DCHECK variant's compile-out semantics.
#include "util/check.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace rebert::util {
namespace {

TEST(CheckTest, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(REBERT_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(REBERT_CHECK_MSG(true, "never rendered"));
}

TEST(CheckTest, FailingCheckThrowsCheckError) {
  EXPECT_THROW(REBERT_CHECK(1 == 2), CheckError);
  EXPECT_THROW(REBERT_CHECK_MSG(false, "boom"), CheckError);
}

TEST(CheckTest, CheckErrorIsARuntimeError) {
  // Callers that only know std::exception / std::runtime_error still catch.
  try {
    REBERT_CHECK(false);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("check failed"), std::string::npos);
  }
}

TEST(CheckTest, MessageContainsConditionFileAndLine) {
  try {
    REBERT_CHECK(2 + 2 == 5);
    FAIL() << "expected a throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
    EXPECT_NE(what.find("check_test.cc"), std::string::npos) << what;
    // A line number follows the file name ("file:line").
    EXPECT_NE(what.find("check_test.cc:"), std::string::npos) << what;
    // message() is the same failure without the location.
    EXPECT_EQ(e.message(), "check failed: 2 + 2 == 5");
  }
}

TEST(CheckTest, MsgVariantStreamsValues) {
  const int gates = 7;
  const std::string name = "b03";
  try {
    REBERT_CHECK_MSG(gates == 8, "netlist '" << name << "' has " << gates
                                             << " gates");
    FAIL() << "expected a throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("netlist 'b03' has 7 gates"), std::string::npos)
        << what;
    EXPECT_NE(what.find("gates == 8"), std::string::npos) << what;
    EXPECT_EQ(e.message(), "netlist 'b03' has 7 gates");
  }
  // An error thrown directly has no location to drop.
  try {
    throw CheckError("unix socket path too long at 120 bytes");
  } catch (const CheckError& e) {
    EXPECT_EQ(e.message(), "unix socket path too long at 120 bytes");
  }
}

TEST(CheckTest, ConditionEvaluatedExactlyOnce) {
  int evaluations = 0;
  REBERT_CHECK([&] {
    ++evaluations;
    return true;
  }());
  EXPECT_EQ(evaluations, 1);
}

TEST(CheckTest, DcheckMatchesBuildConfiguration) {
  int evaluations = 0;
  auto probe = [&] {
    ++evaluations;
    return true;
  };
#ifdef REBERT_ENABLE_DCHECKS
  REBERT_DCHECK(probe());
  EXPECT_EQ(evaluations, 1);
  EXPECT_THROW(REBERT_DCHECK(false), CheckError);
  EXPECT_THROW(REBERT_DCHECK_MSG(false, "msg"), CheckError);
#else
  // Compiled out: the condition must not be evaluated at run time.
  REBERT_DCHECK(probe());
  EXPECT_EQ(evaluations, 0);
  EXPECT_NO_THROW(REBERT_DCHECK(false));
  EXPECT_NO_THROW(REBERT_DCHECK_MSG(false, "msg"));
#endif
}

}  // namespace
}  // namespace rebert::util
