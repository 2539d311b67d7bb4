// Contract-checking macros for the fedcons library.
//
// Following the C++ Core Guidelines (I.6/I.8, "Prefer Expects()/Ensures() for
// expressing preconditions/postconditions"), API-boundary contract violations
// throw fedcons::ContractViolation so that callers (tests, experiment
// harnesses) can observe and recover from misuse deterministically.
#pragma once

#include <stdexcept>
#include <string>

namespace fedcons {

/// Thrown when a precondition, postcondition, or internal invariant of the
/// library is violated. Carries the failing expression and source location.
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(const char* kind, const char* expr, const char* file,
                    int line, const std::string& msg = {})
      : ContractViolation(std::string(kind) + " failed: " + expr,
                          " at " + std::string(file) + ":" +
                              std::to_string(line),
                          msg.empty() ? std::string() : " — " + msg) {}

  /// what() without its " at <file>:<line>" part: the failed condition and
  /// its message, which do not depend on where the library was built — the
  /// form a service shows its clients (what() keeps the location for logs).
  [[nodiscard]] std::string message() const {
    std::string text = what();
    text.erase(location_begin_, location_size_);
    return text;
  }

 private:
  ContractViolation(const std::string& condition, const std::string& location,
                    const std::string& detail)
      : std::logic_error(condition + location + detail),
        location_begin_(condition.size()),
        location_size_(location.size()) {}

  std::size_t location_begin_;
  std::size_t location_size_;
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line,
                                       const std::string& msg = {}) {
  throw ContractViolation(kind, expr, file, line, msg);
}
}  // namespace detail

}  // namespace fedcons

/// Precondition check: validates caller-supplied arguments at API boundaries.
#define FEDCONS_EXPECTS(cond)                                              \
  do {                                                                     \
    if (!(cond))                                                           \
      ::fedcons::detail::contract_fail("precondition", #cond, __FILE__,    \
                                       __LINE__);                          \
  } while (0)

/// Precondition check with an explanatory message.
#define FEDCONS_EXPECTS_MSG(cond, msg)                                     \
  do {                                                                     \
    if (!(cond))                                                           \
      ::fedcons::detail::contract_fail("precondition", #cond, __FILE__,    \
                                       __LINE__, (msg));                   \
  } while (0)

/// Postcondition check: validates results the implementation promises.
#define FEDCONS_ENSURES(cond)                                              \
  do {                                                                     \
    if (!(cond))                                                           \
      ::fedcons::detail::contract_fail("postcondition", #cond, __FILE__,   \
                                       __LINE__);                          \
  } while (0)

/// Internal invariant check (never expected to fire; indicates a library bug).
#define FEDCONS_ASSERT(cond)                                               \
  do {                                                                     \
    if (!(cond))                                                           \
      ::fedcons::detail::contract_fail("invariant", #cond, __FILE__,       \
                                       __LINE__);                          \
  } while (0)
