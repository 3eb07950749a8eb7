#include "serve/protocol.h"

#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace rebert::serve {

namespace {

Request invalid(std::string message) {
  Request request;
  request.type = RequestType::kInvalid;
  request.error = std::move(message);
  return request;
}

/// Echoing attacker-controlled request text back must not let a multi-MB
/// line or embedded control bytes reach the response: cap the length and
/// replace non-printables so the reply stays one short, clean line.
std::string sanitize_token(const std::string& token) {
  constexpr std::size_t kMaxEcho = 48;
  std::string safe;
  safe.reserve(std::min(token.size(), kMaxEcho));
  for (char c : token) {
    if (safe.size() >= kMaxEcho) {
      safe += "...";
      break;
    }
    safe += (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return safe;
}

/// Strip a trailing `deadline_ms=<n>` token. Returns false (with *error
/// set) when it is present but malformed.
bool take_deadline(std::vector<std::string>* tokens, Request* request,
                   std::string* error) {
  request->deadline_ms = 0;
  const std::string& last = tokens->back();
  if (!util::starts_with(last, "deadline_ms=")) return true;
  int value = 0;
  if (!util::parse_int(last.substr(12), &value) || value < 0) {
    *error = "bad deadline_ms in '" + sanitize_token(last) + "'";
    return false;
  }
  request->deadline_ms = value;
  tokens->pop_back();
  return true;
}

}  // namespace

Request parse_request(const std::string& line) {
  const std::string trimmed = util::trim(line);
  if (trimmed.empty() || trimmed[0] == '#') return invalid("");

  std::vector<std::string> tokens = util::split_ws(trimmed);
  const std::string verb = tokens[0];
  Request request;
  if (verb == "score" || verb == "recover") {
    std::string deadline_error;
    if (!take_deadline(&tokens, &request, &deadline_error))
      return invalid(deadline_error);
    if (verb == "score") {
      if (tokens.size() != 4)
        return invalid("usage: score <bench> <bitA> <bitB> [deadline_ms=<n>]");
      request.type = RequestType::kScore;
      request.bit_a = tokens[2];
      request.bit_b = tokens[3];
    } else {
      if (tokens.size() != 2)
        return invalid("usage: recover <bench> [deadline_ms=<n>]");
      request.type = RequestType::kRecover;
    }
    request.bench = tokens[1];
    return request;
  }
  if (verb == "stats") {
    request.type = RequestType::kStats;
  } else if (verb == "health") {
    request.type = RequestType::kHealth;
  } else if (verb == "help") {
    request.type = RequestType::kHelp;
  } else if (verb == "quit" || verb == "exit") {
    request.type = RequestType::kQuit;
  } else {
    return invalid("unknown request '" + sanitize_token(verb) +
                   "' (try: help)");
  }
  // The remaining verbs take no arguments, deadline_ms= included.
  if (tokens.size() != 1) return invalid("usage: " + verb);
  return request;
}

bool is_blank_request(const Request& request) {
  return request.type == RequestType::kInvalid && request.error.empty();
}

std::string format_ok(const std::string& payload) {
  return payload.empty() ? "ok" : "ok " + payload;
}

std::string format_error(const std::string& message) {
  return "err " + message;
}

std::string format_exception(const std::exception& error) {
  std::string message = error.what();
  if (const auto* check = dynamic_cast<const util::CheckError*>(&error)) {
    LOG_WARN << "request failed: " << message;
    message = check->message();
  }
  for (char& c : message)
    if (c == '\n' || c == '\r') c = ' ';
  return format_error(message);
}

std::string format_overloaded(int retry_after_ms) {
  return "err overloaded retry_after_ms=" + std::to_string(retry_after_ms);
}

std::string format_no_backend(int retry_after_ms) {
  return "err no_backend retry_after_ms=" + std::to_string(retry_after_ms);
}

int parse_retry_after_ms(const std::string& response) {
  // Only the two advisories the protocol defines; searching the whole line
  // would let an error that echoes user text read as a shed.
  for (const std::string_view prefix : {"err overloaded retry_after_ms=",
                                        "err no_backend retry_after_ms="}) {
    if (!util::starts_with(response, prefix)) continue;
    const std::string_view digits =
        std::string_view(response).substr(prefix.size());
    int value = 0;
    if (!util::parse_int(digits, &value) || value < 0) return -1;
    return value;
  }
  return -1;
}

std::string help_text() {
  return "commands: score <bench> <bitA> <bitB> [deadline_ms=<n>] | "
         "recover <bench> [deadline_ms=<n>] | stats | health | help | quit; "
         "<bench> = b03..b18 or a .bench file path";
}

std::string format_line_too_long() {
  return format_error("request line exceeds " +
                      std::to_string(kMaxRequestLineBytes) + " bytes");
}

}  // namespace rebert::serve
