#include "fedcons/util/flags.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fedcons/util/check.h"
#include "fedcons/util/mini_json.h"

namespace fedcons {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    FEDCONS_EXPECTS_MSG(!body.empty(), "bare '--' argument");
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else {
      values_[body] = "true";
    }
  }
}

bool Flags::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::vector<std::string> Flags::usage_errors(
    std::span<const std::string_view> allowed) const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      out.push_back("unknown flag --" + key);
    }
  }
  for (const std::string& arg : positional_) {
    out.push_back("unexpected argument '" + arg + "'");
  }
  return out;
}

std::string Flags::get_string(const std::string& key,
                              const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

namespace {

/// The value with surrounding whitespace removed. stoll/stod skip leading
/// whitespace themselves; stripping up front lets the full-token check below
/// treat "8 " and " 8" uniformly instead of rejecting one and not the other.
std::string strip(const std::string& s) {
  const auto first = s.find_first_not_of(" \t");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t");
  return s.substr(first, last - first + 1);
}

/// `convert` (stoll or stod) of the whole stripped value of --key. Both
/// stop at the first bad character and return the prefix, so --threads=8x
/// would run with 8 threads; stod also reads hex floats. Either way the
/// value is not `what`, and ContractViolation says so.
template <typename Convert>
auto parse_token(const std::string& key, const std::string& raw,
                 const char* what, Convert convert) {
  const std::string value = strip(raw);
  decltype(convert(value, nullptr)) parsed{};
  bool whole = false;
  try {
    std::size_t pos = 0;
    parsed = convert(value, &pos);
    whole = pos == value.size() &&
            value.find_first_of("xX") == std::string::npos;
  } catch (const std::exception&) {
    // Garbage or a value beyond the type: reported below.
  }
  FEDCONS_EXPECTS_MSG(whole, "flag --" + key + " is not " + what + ": " + raw);
  return parsed;
}

}  // namespace

std::int64_t Flags::parse_int(const std::string& key, const std::string& raw,
                              std::int64_t lo, std::int64_t hi) {
  const std::int64_t parsed =
      parse_token(key, raw, "an integer",
                  [](const std::string& s, std::size_t* pos) {
                    return std::stoll(s, pos);
                  });
  FEDCONS_EXPECTS_MSG(lo <= parsed && parsed <= hi,
                      "flag --" + key + " is outside [" + std::to_string(lo) +
                          ", " + std::to_string(hi) + "]: " + raw);
  return parsed;
}

double Flags::get_double(const std::string& key, double def, double lo,
                         double hi) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  const double parsed =
      parse_token(key, it->second, "a number",
                  [](const std::string& s, std::size_t* pos) {
                    return std::stod(s, pos);
                  });
  FEDCONS_EXPECTS_MSG(std::isfinite(parsed),
                      "flag --" + key + " is not finite: " + it->second);
  FEDCONS_EXPECTS_MSG(lo <= parsed && parsed <= hi,
                      "flag --" + key + " is outside [" + format_double(lo) +
                          ", " + format_double(hi) + "]: " + it->second);
  return parsed;
}

bool Flags::get_bool(const std::string& key, bool def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  FEDCONS_EXPECTS_MSG(false, "flag --" + key + " is not a boolean: " + v);
  return def;  // unreachable
}

}  // namespace fedcons
