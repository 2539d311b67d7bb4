// Minimal command-line flag parsing for the tools, experiments and examples.
//
// Syntax: --key=value; bare --key is a boolean true. There is deliberately
// no "--key value" two-token form: it made any bare token after a boolean
// flag ("fedcons_cli --json file.json") silently become that flag's value
// instead of a positional argument. Non-flag tokens are always collected as
// positionals for the caller (every tool rejects strays with usage + exit 2).
//
// Range contract: Flags is the only place a numeric flag is checked, so a
// caller stores what a getter returns without a cast or a check of its own.
// get_int returns the integer type of its default. A value given on the
// command line must parse in full and lie in [lo, hi], which default to that
// type's range (a value beyond int64 never parses). get_double does the
// same over the finite doubles: nan, ±inf, hex floats and values that
// overflow (1e999) never pass. Any failure throws ContractViolation, which
// every binary turns into exit 2. An absent flag returns its default
// unchecked.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace fedcons {

/// The integer types get_int can return (bool has get_bool).
template <typename T>
concept FlagInteger = std::integral<T> && !std::same_as<T, bool>;

/// Parsed command-line flags with typed, defaulted, range-checked getters.
class Flags {
 public:
  Flags() = default;

  /// Parse argv (skips argv[0]). Throws ContractViolation on malformed input
  /// such as "--" with no key.
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& def) const;

  /// --key as a T in [lo, hi]; `def` when absent (see the range contract).
  template <FlagInteger T>
  [[nodiscard]] T get_int(
      const std::string& key, T def,
      std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
      std::type_identity_t<T> hi = std::numeric_limits<T>::max()) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    // Values parse as int64, so a bound past its range bounds nothing more.
    constexpr auto to_int64 = [](T bound) {
      return std::cmp_less_equal(bound, INT64_MAX)
                 ? static_cast<std::int64_t>(bound)
                 : INT64_MAX;
    };
    return static_cast<T>(
        parse_int(key, it->second, to_int64(lo), to_int64(hi)));
  }

  /// --key as a finite double in [lo, hi]; `def` when absent.
  [[nodiscard]] double get_double(
      const std::string& key, double def,
      double lo = std::numeric_limits<double>::lowest(),
      double hi = std::numeric_limits<double>::max()) const;

  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// One message per flag absent from `allowed` and per positional — the
  /// tool error path: every tool prints them with usage and exits 2, so a
  /// typo like --tirals=500 never runs with the default.
  [[nodiscard]] std::vector<std::string> usage_errors(
      std::span<const std::string_view> allowed) const;

 private:
  /// The full-token integer value of --key, checked against [lo, hi].
  static std::int64_t parse_int(const std::string& key,
                                const std::string& raw, std::int64_t lo,
                                std::int64_t hi);

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace fedcons
