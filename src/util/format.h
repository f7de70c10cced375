// Deterministic text formatting shared by every writer of committed bytes
// (fleet and scenario JSON, trace exports, contract reports, sketches).
#pragma once

#include <cstdio>
#include <string>

namespace ehdnn {

// Quoted JSON string: quotes and backslashes are escaped, control
// characters become spaces.
inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Shortest decimal form that round-trips a double exactly (%.17g), so a
// parsed-back value is bit-identical to the one written.
inline std::string g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace ehdnn
