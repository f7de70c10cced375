// Strict field parsing, shared by every text format the tools read: the
// trace CSV, the key=value formats (util/spec.h), shard partials and CLI
// numbers. The whole field — minus surrounding whitespace — must be
// consumed, so "1e-3x" or "soon" never half-parses, and an integer field
// is checked integral and in range BEFORE any cast (a double outside the
// target type is undefined behavior at the conversion, not a garbage
// value).
#pragma once

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "util/check.h"

namespace ehdnn {

namespace detail {
inline bool only_space(const char* p) {
  for (; *p != '\0'; ++p) {
    if (!std::isspace(static_cast<unsigned char>(*p))) return false;
  }
  return true;
}
}  // namespace detail

inline std::optional<double> parse_double(const std::string& field) {
  const char* s = field.c_str();
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || !detail::only_space(end)) return std::nullopt;
  return v;
}

// An integral number in [lo, hi]. Integer literals parse exactly; any
// other number ("1e5", "8.0") is accepted when its value is integral.
inline std::optional<long long> parse_integer(const std::string& field, long long lo,
                                              long long hi) {
  const char* s = field.c_str();
  char* end = nullptr;
  errno = 0;
  long long n = std::strtoll(s, &end, 10);
  if (end == s || errno != 0 || !detail::only_space(end)) {
    const auto d = parse_double(field);
    // [-2^63, 2^63) is exactly the range of doubles a long long holds.
    if (!d || !(*d >= -0x1p63 && *d < 0x1p63) || *d != std::floor(*d)) return std::nullopt;
    n = static_cast<long long>(*d);
  }
  if (n < lo || n > hi) return std::nullopt;
  return n;
}

// A 64-bit seed: decimal, 0x-hex or 0-octal (strtoull base 0), unsigned
// and unpadded — "-1" would otherwise wrap to 2^64-1.
inline std::optional<std::uint64_t> parse_seed(const std::string& field) {
  if (field.empty() || !std::isdigit(static_cast<unsigned char>(field[0]))) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(field.c_str(), &end, 0);
  if (errno != 0 || *end != '\0') return std::nullopt;
  return n;
}

// Splits at every `sep`, keeping empty pieces ("a,,b" -> a, "", b).
inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (std::size_t at; (at = s.find(sep, pos)) != std::string::npos; pos = at + 1) {
    out.push_back(s.substr(pos, at - pos));
  }
  out.push_back(s.substr(pos));
  return out;
}

// Whitespace-separated tokens (config and contract-world lines).
inline std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) ++pos;
    if (pos == s.size()) return out;
    const std::size_t start = pos;
    while (pos < s.size() && !std::isspace(static_cast<unsigned char>(s[pos]))) ++pos;
    out.push_back(s.substr(start, pos - start));
  }
}

// A comma-separated list of non-negative ids ("0,8,12"), as taken by
// --trace-devices and --trace-cells. Throws Error naming `flag`.
inline std::vector<int> parse_id_list(const std::string& list, const std::string& flag) {
  std::vector<int> ids;
  for (const std::string& item : split(list, ',')) {
    const auto id = parse_integer(item, 0, INT_MAX);
    check(id.has_value(), flag + " needs comma-separated ids, got \"" + item + "\"");
    ids.push_back(static_cast<int>(*id));
  }
  return ids;
}

}  // namespace ehdnn
