#include "power/factory.h"

#include <climits>

#include "power/trace.h"
#include "util/check.h"
#include "util/spec.h"

namespace ehdnn::power {

namespace {

std::unique_ptr<HarvestSource> make_const(const std::string&, SpecArgs& a) {
  return std::make_unique<ConstantSource>(a.num("w", 1e-3));
}

std::unique_ptr<HarvestSource> make_square(const std::string&, SpecArgs& a) {
  return std::make_unique<SquareSource>(a.num("hi", 4e-3), a.num("lo", 0.0),
                                        a.num("period", 0.02), a.num("duty", 0.5));
}

std::unique_ptr<HarvestSource> make_sine(const std::string&, SpecArgs& a) {
  return std::make_unique<SineSource>(a.num("mean", 2e-3), a.num("amp", 2e-3),
                                      a.num("period", 0.02));
}

std::unique_ptr<HarvestSource> make_rf(const std::string&, SpecArgs& a) {
  return std::make_unique<PoissonBurstSource>(
      a.num("base", 0.2e-3), a.num("burst", 5e-3), a.num("rate", 30.0), a.num("dur", 5e-3),
      static_cast<std::uint64_t>(a.integer("seed", 1, 0, LLONG_MAX)), a.num("horizon", 10.0));
}

std::unique_ptr<HarvestSource> make_solar(const std::string&, SpecArgs& a) {
  return std::make_unique<SolarDaySource>(a.num("peak", 5e-3), a.num("day", 1.0),
                                          a.num("daylight", 0.5), a.num("floor", 0.0));
}

std::unique_ptr<HarvestSource> make_trace(const std::string& spec, SpecArgs& a) {
  const std::string path = a.str("path");
  const std::string interp_s = a.str("interp", "linear");
  TraceInterp interp;
  if (interp_s == "linear") {
    interp = TraceInterp::kLinear;
  } else if (interp_s == "zoh") {
    interp = TraceInterp::kZeroOrderHold;
  } else {
    fail("harvest spec \"" + spec + "\": interp must be linear or zoh");
  }
  return std::make_unique<TraceHarvestSource>(load_trace_csv(path), interp,
                                              a.num("loop", 1.0) != 0.0, a.num("scale", 1.0));
}

// THE source-kind table: the factory dispatch and harvest_source_kinds()
// (what `--list-sources` prints) both derive from it, so the CLI listing
// cannot drift from what make_harvest_source accepts.
struct KindEntry {
  const char* kind;
  std::unique_ptr<HarvestSource> (*make)(const std::string& spec, SpecArgs& a);
};

constexpr KindEntry kKindTable[] = {
    {"const", make_const}, {"square", make_square}, {"sine", make_sine},
    {"rf", make_rf},       {"solar", make_solar},   {"trace", make_trace},
};

}  // namespace

const std::vector<std::string>& harvest_source_kinds() {
  static const std::vector<std::string> kinds = [] {
    std::vector<std::string> v;
    for (const auto& k : kKindTable) v.emplace_back(k.kind);
    return v;
  }();
  return kinds;
}

std::unique_ptr<HarvestSource> make_harvest_source(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  SpecArgs a("harvest spec \"" + spec + "\"", spec_items(spec));
  for (const auto& k : kKindTable) {
    if (kind == k.kind) {
      auto src = k.make(spec, a);
      a.finish();
      return src;
    }
  }
  fail("harvest spec \"" + spec + "\": unknown kind \"" + kind + "\"");
}

}  // namespace ehdnn::power
