// Newline-delimited request/response protocol of the serving runtime.
//
// Requests (one per line, whitespace-tokenized):
//   score <bench> <bitA> <bitB> [deadline_ms=<n>]
//                                 P(same word) for two bits of a benchmark
//   recover <bench> [deadline_ms=<n>]
//                                 full word recovery, summary line back
//   stats                         engine / cache / request counters
//   health                        ready | degraded | overloaded + gauges
//   help                          protocol summary
//   quit                          close the connection (stdio: end the loop)
//
// Responses (one per request, in order):
//   ok [<payload>]                success; payload is request-specific
//   err <message>                 parse or execution failure
//
// Distinguished error payloads (machine-parseable prefixes):
//   err overloaded retry_after_ms=<n>   admission control shed the request;
//                                       retry after the advisory delay
//   err deadline_exceeded               the request's deadline_ms elapsed
//                                       before the result was ready
//   err no_backend retry_after_ms=<n>   (router only) no backend could
//                                       take the request; retry later
//
// A recover that had to fall back to the structural baseline (model
// failure, numerics tripwire, a checkpoint that never loaded) succeeds
// with `degraded=structural` appended to its payload.
//
// `deadline_ms=<n>` is recognised only as the last token of score and
// recover; anywhere else it is an ordinary argument and fails the arity
// check. stats, health, help and quit (or exit) take no arguments.
//
// <bench> is either a generated-suite name ("b03".."b18", circuitgen
// scale set by the engine) or a path to a .bench netlist file. Responses
// never contain newlines, so the protocol stays trivially framable over
// both stdio and a Unix socket. Text lines are the only encoding: every
// transport (stdio, the socket reactor, the router) speaks them.
#pragma once

#include <cstddef>
#include <exception>
#include <string>

namespace rebert::serve {

/// Upper bound on one text-protocol request line. Valid requests are a
/// few hundred bytes at most; a longer line is a hostile or broken client
/// and is answered with a protocol error instead of growing the read
/// buffer unboundedly (socket connections are additionally closed).
inline constexpr std::size_t kMaxRequestLineBytes = 8192;

/// Upper bound on one response line a client will buffer. The longest
/// legitimate responses (stats, a router's `backends` listing) are well
/// under 1 KiB; a peer that streams past this without a newline is broken
/// or hostile, and serve::Client refuses it instead of growing without
/// bound.
inline constexpr std::size_t kMaxResponseLineBytes = 64 * 1024;

enum class RequestType {
  kScore,
  kRecover,
  kStats,
  kHealth,
  kHelp,
  kQuit,
  kInvalid,
};

struct Request {
  RequestType type = RequestType::kInvalid;
  std::string bench;   // score / recover
  std::string bit_a;   // score
  std::string bit_b;   // score
  int deadline_ms = 0; // score / recover: 0 = caller imposes no deadline
  std::string error;   // kInvalid: human-readable parse diagnosis
};

/// Parse one request line. Never throws; malformed input yields kInvalid
/// with `error` set. Blank/comment ('#') lines also come back kInvalid
/// with an empty error — callers should skip those silently.
Request parse_request(const std::string& line);

/// True for lines the loop should skip without responding (blank, comment).
bool is_blank_request(const Request& request);

std::string format_ok(const std::string& payload);
std::string format_error(const std::string& message);

/// The shed response: `err overloaded retry_after_ms=<n>`.
std::string format_overloaded(int retry_after_ms);

/// The router's refusal when no backend could take a request:
/// `err no_backend retry_after_ms=<n>`.
std::string format_no_backend(int retry_after_ms);

/// Extract retry_after_ms from one of the two retryable advisories —
/// format_overloaded / format_no_backend — and -1 for any other response,
/// including an error that merely echoes `retry_after_ms=` from the
/// request text.
int parse_retry_after_ms(const std::string& response);

/// The `help` response payload (single line).
std::string help_text();

/// The `err` answer for an exception a request raised, on one line. A
/// util::CheckError answers with its message() and leaves its source
/// location to a LOG_WARN of the full text.
std::string format_exception(const std::exception& error);

/// The refusal for an over-length request line (format_error payload
/// included), shared by every transport that enforces the cap.
std::string format_line_too_long();

}  // namespace rebert::serve
