// The one key=value reader. Every text format the tools read that names
// its fields — harvest-source specs ("rf:base=0.2e-3,burst=5e-3"),
// forecaster, adaptive-scheduler and tile specs, fleet config lines,
// scenario options and contract world lines — hands its items here, each
// caller splitting at its own separator (',' for specs, ';' for scenario
// options, whitespace for config and world lines). The rules are shared:
// an item splits at its FIRST '=' (values may be specs themselves); a
// missing '=', an empty key and a duplicate key are errors; every key
// must be consumed, so a typo'd key is an error instead of a silently
// applied default; integer fields are integral and in range (util/parse.h).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/parse.h"

namespace ehdnn {

// The ','-separated items of a "kind:key=value,..." spec (none when the
// spec has no ':').
inline std::vector<std::string> spec_items(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  return colon == std::string::npos ? std::vector<std::string>{}
                                    : split(spec.substr(colon + 1), ',');
}

class SpecArgs {
 public:
  // `where` names the input in every diagnostic ("harvest spec \"rf:...\"",
  // "fleet config line 3"). Empty items are skipped.
  SpecArgs(std::string where, const std::vector<std::string>& items)
      : where_(std::move(where)) {
    for (const std::string& item : items) {
      if (item.empty()) continue;
      const std::size_t eq = item.find('=');
      check(eq != std::string::npos && eq > 0,
            where_ + ": expected key=value, got \"" + item + "\"");
      const std::string key = item.substr(0, eq);
      check(kv_.find(key) == kv_.end(), where_ + ": duplicate key \"" + key + "\"");
      kv_[key] = {item.substr(eq + 1), false};
    }
  }

  bool has(const std::string& key) const { return kv_.find(key) != kv_.end(); }

  // Required accessors throw when the key is absent; the fallback forms
  // return `fallback` instead.
  std::string str(const std::string& key) { return take(key); }
  std::string str(const std::string& key, const std::string& fallback) {
    return has(key) ? take(key) : fallback;
  }

  double num(const std::string& key) {
    const std::string v = take(key);
    const auto d = parse_double(v);
    check(d.has_value(), where_ + ": bad number for " + key + ": \"" + v + "\"");
    return *d;
  }
  double num(const std::string& key, double fallback) {
    return has(key) ? num(key) : fallback;
  }

  long long integer(const std::string& key, long long lo, long long hi) {
    const std::string v = take(key);
    const auto n = parse_integer(v, lo, hi);
    check(n.has_value(), where_ + ": " + key + " must be an integer in [" +
                             std::to_string(lo) + ", " + std::to_string(hi) + "], got \"" +
                             v + "\"");
    return *n;
  }
  long long integer(const std::string& key, long long fallback, long long lo, long long hi) {
    return has(key) ? integer(key, lo, hi) : fallback;
  }

  // Call after the accessors: every provided key must have been consumed.
  void finish() const {
    for (const auto& [k, v] : kv_) {
      check(v.second, where_ + ": unknown key \"" + k + "\"");
    }
  }

 private:
  std::string take(const std::string& key) {
    const auto it = kv_.find(key);
    check(it != kv_.end(), where_ + ": missing key \"" + key + "\"");
    it->second.second = true;
    return it->second.first;
  }

  std::string where_;
  std::map<std::string, std::pair<std::string, bool>> kv_;  // key -> (value, consumed)
};

}  // namespace ehdnn
