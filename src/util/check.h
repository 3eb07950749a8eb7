// Lightweight runtime checking macros.
//
// REBERT_CHECK is always on (including release builds): it guards invariants
// whose violation would corrupt results silently (netlist graph consistency,
// tensor shape mismatches, ...). Failures throw util::CheckError so callers
// and tests can observe them; nothing in this codebase aborts the process.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace rebert::util {

/// Thrown when a REBERT_CHECK condition fails.
class CheckError : public std::runtime_error {
 public:
  explicit CheckError(const std::string& what) : std::runtime_error(what) {}

  /// The failure without the source location a failed check's what()
  /// carries: its REBERT_CHECK_MSG message, else `check failed: <cond>`.
  /// Parsed back out of what() so a check site costs no more code.
  std::string message() const {
    const std::string text = what();
    if (text.rfind(kPrefix, 0) != 0) return text;  // thrown directly
    const std::size_t msg = text.find(kSeparator);
    if (msg != std::string::npos)
      return text.substr(msg + std::char_traits<char>::length(kSeparator));
    return text.substr(0, text.rfind(" at "));
  }

  static constexpr const char* kPrefix = "check failed: ";
  static constexpr const char* kSeparator = " — ";
};

namespace detail {
[[noreturn]] inline void check_failed(const char* cond, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << CheckError::kPrefix << cond << " at " << file << ":" << line;
  if (!msg.empty()) os << CheckError::kSeparator << msg;
  throw CheckError(os.str());
}
}  // namespace detail

}  // namespace rebert::util

#define REBERT_CHECK(cond)                                                  \
  do {                                                                      \
    if (!(cond))                                                            \
      ::rebert::util::detail::check_failed(#cond, __FILE__, __LINE__, ""); \
  } while (0)

#define REBERT_CHECK_MSG(cond, msg)                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::ostringstream rebert_check_os_;                                 \
      rebert_check_os_ << msg;                                             \
      ::rebert::util::detail::check_failed(#cond, __FILE__, __LINE__,      \
                                           rebert_check_os_.str());        \
    }                                                                      \
  } while (0)

// Hot-path variant: same semantics as REBERT_CHECK when REBERT_ENABLE_DCHECKS
// is defined (CMake option REBERT_DCHECKS, forced on by sanitizer builds),
// compiled to nothing otherwise. Use only for conditions that a cold-path
// pass already proves (e.g. layer shapes validated once at model build by
// check_model_graph); data-dependent invariants stay on REBERT_CHECK.
#ifdef REBERT_ENABLE_DCHECKS
#define REBERT_DCHECK(cond) REBERT_CHECK(cond)
#define REBERT_DCHECK_MSG(cond, msg) REBERT_CHECK_MSG(cond, msg)
#else
// `false && (cond)` keeps the expression type-checked (and its operands
// "used") without evaluating it at run time.
#define REBERT_DCHECK(cond) \
  do {                      \
    if (false && (cond)) {  \
    }                       \
  } while (0)
#define REBERT_DCHECK_MSG(cond, msg) REBERT_DCHECK(cond)
#endif
