#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/check.h"

namespace rebert::serve {
namespace {

TEST(ParseRequestTest, Score) {
  const Request request = parse_request("score b03 q0 q1");
  EXPECT_EQ(request.type, RequestType::kScore);
  EXPECT_EQ(request.bench, "b03");
  EXPECT_EQ(request.bit_a, "q0");
  EXPECT_EQ(request.bit_b, "q1");
}

TEST(ParseRequestTest, ScoreArityChecked) {
  EXPECT_EQ(parse_request("score b03 q0").type, RequestType::kInvalid);
  EXPECT_EQ(parse_request("score b03 q0 q1 q2").type, RequestType::kInvalid);
  EXPECT_NE(parse_request("score b03 q0").error, "");
  // The engine serves one model, so a trailing model= is an extra token.
  for (const char* line : {"score b03 q0 q1 model=x",
                           "score b03 q0 q1 model=x deadline_ms=5"}) {
    const Request request = parse_request(line);
    EXPECT_EQ(request.type, RequestType::kInvalid) << line;
    EXPECT_EQ(request.error.rfind("usage: score", 0), 0u) << request.error;
  }
}

TEST(ParseRequestTest, Recover) {
  const Request request = parse_request("recover /tmp/c.bench");
  EXPECT_EQ(request.type, RequestType::kRecover);
  EXPECT_EQ(request.bench, "/tmp/c.bench");
  EXPECT_EQ(parse_request("recover").type, RequestType::kInvalid);
  EXPECT_EQ(parse_request("recover a b").type, RequestType::kInvalid);
  const Request named = parse_request("recover b03 model=x");
  EXPECT_EQ(named.type, RequestType::kInvalid);
  EXPECT_EQ(named.error.rfind("usage: recover", 0), 0u) << named.error;
}

TEST(ParseRequestTest, StatsHelpQuit) {
  EXPECT_EQ(parse_request("stats").type, RequestType::kStats);
  EXPECT_EQ(parse_request("stats now").type, RequestType::kInvalid);
  EXPECT_EQ(parse_request("help").type, RequestType::kHelp);
  EXPECT_EQ(parse_request("quit").type, RequestType::kQuit);
  EXPECT_EQ(parse_request("exit").type, RequestType::kQuit);
  // deadline_ms= belongs to score and recover only: anywhere else it is an
  // argument like any other, and these verbs take none.
  for (const char* line : {"stats deadline_ms=5", "health deadline_ms=5",
                           "help me please", "quit now", "exit now"}) {
    const Request request = parse_request(line);
    EXPECT_EQ(request.type, RequestType::kInvalid) << line;
    EXPECT_EQ(format_error(request.error).rfind("err usage: ", 0), 0u)
        << request.error;
  }
  EXPECT_EQ(parse_request("stats deadline_ms=5").error, "usage: stats");
  EXPECT_EQ(parse_request("help me please").error, "usage: help");
  EXPECT_EQ(parse_request("quit now").error, "usage: quit");
}

TEST(ParseRequestTest, WhitespaceTolerant) {
  const Request request = parse_request("  score   b05  a   b  ");
  EXPECT_EQ(request.type, RequestType::kScore);
  EXPECT_EQ(request.bench, "b05");
}

TEST(ParseRequestTest, BlankAndCommentLinesAreSilent) {
  EXPECT_TRUE(is_blank_request(parse_request("")));
  EXPECT_TRUE(is_blank_request(parse_request("   ")));
  EXPECT_TRUE(is_blank_request(parse_request("# a comment")));
  EXPECT_FALSE(is_blank_request(parse_request("bogus")));
  EXPECT_FALSE(is_blank_request(parse_request("stats")));
}

TEST(ParseRequestTest, UnknownVerbNamesItself) {
  const Request request = parse_request("frobnicate x");
  EXPECT_EQ(request.type, RequestType::kInvalid);
  EXPECT_NE(request.error.find("frobnicate"), std::string::npos);
}

TEST(ParseRequestTest, DeadlineSuffixParsed) {
  Request request = parse_request("score b03 q0 q1 deadline_ms=25");
  EXPECT_EQ(request.type, RequestType::kScore);
  EXPECT_EQ(request.deadline_ms, 25);
  request = parse_request("recover b05 deadline_ms=1000");
  EXPECT_EQ(request.type, RequestType::kRecover);
  EXPECT_EQ(request.bench, "b05");
  EXPECT_EQ(request.deadline_ms, 1000);
  // Absent -> 0, meaning "no deadline from this request".
  EXPECT_EQ(parse_request("recover b05").deadline_ms, 0);
  request = parse_request("score b03 q0 q1 deadline_ms=0");
  EXPECT_EQ(request.type, RequestType::kScore);
  EXPECT_EQ(request.bit_b, "q1");
  EXPECT_EQ(request.deadline_ms, 0);
}

TEST(ParseRequestTest, MalformedDeadlineRejected) {
  EXPECT_EQ(parse_request("score b03 q0 q1 deadline_ms=abc").type,
            RequestType::kInvalid);
  EXPECT_EQ(parse_request("recover b03 deadline_ms=-5").type,
            RequestType::kInvalid);
  EXPECT_EQ(parse_request("recover b03 deadline_ms=").type,
            RequestType::kInvalid);
  const Request request = parse_request("recover b03 deadline_ms=oops");
  EXPECT_NE(request.error.find("deadline_ms"), std::string::npos);
}

TEST(ParseRequestTest, DeadlineOnlyStripsTrailingToken) {
  // deadline_ms must be the LAST token; elsewhere it is an ordinary
  // argument and trips the arity check instead of silently vanishing.
  EXPECT_EQ(parse_request("score b03 deadline_ms=5 q0 q1").type,
            RequestType::kInvalid);
}

TEST(ParseRequestTest, Health) {
  EXPECT_EQ(parse_request("health").type, RequestType::kHealth);
  EXPECT_EQ(parse_request("health now").type, RequestType::kInvalid);
  EXPECT_NE(help_text().find("health"), std::string::npos);
}

TEST(ParseRequestTest, HugeUnknownVerbIsEchoedSanitized) {
  // A multi-kilobyte garbage verb must come back as a short error that
  // contains no control bytes — the daemon echoes at most a capped prefix.
  std::string line(4096, 'Z');
  line[10] = '\x01';
  const Request request = parse_request(line);
  EXPECT_EQ(request.type, RequestType::kInvalid);
  EXPECT_LT(request.error.size(), 120u);
  for (char c : request.error) {
    EXPECT_GE(c, 0x20);
    EXPECT_LT(c, 0x7f);
  }
  EXPECT_NE(request.error.find('?'), std::string::npos);
}

TEST(FormatTest, OverloadedRoundTrips) {
  const std::string shed = format_overloaded(50);
  EXPECT_EQ(shed, "err overloaded retry_after_ms=50");
  EXPECT_EQ(parse_retry_after_ms(shed), 50);
  EXPECT_EQ(parse_retry_after_ms(format_overloaded(0)), 0);
  EXPECT_EQ(parse_retry_after_ms("ok 0.5"), -1);
  EXPECT_EQ(parse_retry_after_ms("err overloaded retry_after_ms="), -1);
  EXPECT_EQ(parse_retry_after_ms("err deadline_exceeded"), -1);
}

TEST(FormatTest, NoBackendRoundTrips) {
  const std::string refusal = format_no_backend(40);
  EXPECT_EQ(refusal, "err no_backend retry_after_ms=40");
  EXPECT_EQ(parse_retry_after_ms(refusal), 40);
}

TEST(FormatTest, OnlyTheTwoAdvisoriesCarryARetryDelay) {
  // An error that echoes request text containing the token is not a shed:
  // treating it as one made `call --retry retry_after_ms=40` back off
  // through every attempt.
  EXPECT_EQ(parse_retry_after_ms(
                "err unknown request 'retry_after_ms=40' (try: help)"),
            -1);
  EXPECT_EQ(parse_retry_after_ms("err retry_after_ms=40"), -1);
  EXPECT_EQ(parse_retry_after_ms("ok words=3 retry_after_ms=40"), -1);
  EXPECT_EQ(parse_retry_after_ms("err overloaded retry_after_ms=-5"), -1);
  EXPECT_EQ(parse_retry_after_ms("err overloaded retry_after_ms=5x"), -1);
  EXPECT_EQ(parse_retry_after_ms(format_overloaded(12)), 12);
  EXPECT_EQ(parse_retry_after_ms(format_no_backend(13)), 13);
}

TEST(FormatTest, OkAndError) {
  EXPECT_EQ(format_ok(""), "ok");
  EXPECT_EQ(format_ok("0.5"), "ok 0.5");
  EXPECT_EQ(format_error("boom"), "err boom");
  // An exception answers on one line; a failed check without its location.
  EXPECT_EQ(format_exception(std::runtime_error("bad\nbench")),
            "err bad bench");
  EXPECT_EQ(format_exception(util::CheckError(
                "check failed: ok at /src/engine.cc:9 — boom")),
            "err boom");
}

TEST(FormatTest, HelpIsSingleLine) {
  EXPECT_EQ(help_text().find('\n'), std::string::npos);
  EXPECT_NE(help_text().find("score"), std::string::npos);
  EXPECT_NE(help_text().find("recover"), std::string::npos);
}

}  // namespace
}  // namespace rebert::serve
