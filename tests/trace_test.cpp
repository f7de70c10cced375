// Coverage for the power-trace CSV parser, the TraceHarvestSource replay
// semantics (interpolation, looping, wrap-around), the harvest-source
// spec factory, and the scenario-spec argument grammar.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "power/factory.h"
#include "power/trace.h"
#include "sim/scenario.h"
#include "util/check.h"
#include "util/rng.h"

namespace ehdnn::power {
namespace {

PowerTrace parse(const std::string& csv) {
  std::istringstream in(csv);
  return parse_trace_csv(in, "<test>");
}

TEST(TraceCsv, ParsesRowsHeaderAndComments) {
  const auto tr = parse(
      "# a comment\n"
      "time_s,power_w\n"
      "\n"
      "0.0,1e-3\n"
      "  0.5 , 2e-3 \n"  // whitespace around fields is fine
      "1.0,0\n");
  ASSERT_EQ(tr.points.size(), 3u);
  EXPECT_DOUBLE_EQ(tr.points[0].watts, 1e-3);
  EXPECT_DOUBLE_EQ(tr.points[1].t, 0.5);
  EXPECT_DOUBLE_EQ(tr.span_s(), 1.0);
}

TEST(TraceCsv, EmptyFileThrows) {
  EXPECT_THROW(parse(""), Error);
  EXPECT_THROW(parse("# only comments\n\n"), Error);
  EXPECT_THROW(parse("time_s,power_w\n"), Error);  // header, no samples
}

TEST(TraceCsv, MalformedRowsThrow) {
  EXPECT_THROW(parse("0.0,1e-3\nbogus,2e-3\n"), Error);      // bad time
  EXPECT_THROW(parse("0.0,1e-3\n0.5,watts\n"), Error);       // bad power
  EXPECT_THROW(parse("0.0,1e-3\n0.5\n"), Error);             // missing field
  EXPECT_THROW(parse("0.0,1e-3\n0.5,2e-3 trailing\n"), Error);
  EXPECT_THROW(parse("0.0,1e-3\n0.5,-2e-3\n"), Error);       // negative power
  EXPECT_THROW(parse("0.0,1e-3\n0.5,inf\n"), Error);         // non-finite
  // A second header mid-file is a malformed row, not a header.
  EXPECT_THROW(parse("0.0,1e-3\ntime_s,power_w\n"), Error);
  // Only ONE leading non-numeric row is tolerated (the header): a file
  // with a systematically wrong delimiter must throw, not silently
  // degrade to whatever rows happen to contain a comma.
  EXPECT_THROW(parse("0.0;1e-3\n0.5;2e-3\n1.0,5e-3\n"), Error);
  EXPECT_THROW(parse("time_s,power_w\nunits,mw\n0.0,1e-3\n"), Error);
  // A row that starts numerically is data, never a header: a typo in the
  // FIRST sample of a headerless trace must throw, not drop the sample.
  EXPECT_THROW(parse("0.0,1e-3x\n0.5,2e-3\n"), Error);
  EXPECT_THROW(parse("0.0;1e-3\n0.5,2e-3\n"), Error);
}

TEST(TraceCsv, NonMonotonicTimestampsThrow) {
  EXPECT_THROW(parse("0.0,1e-3\n0.5,2e-3\n0.4,3e-3\n"), Error);  // decreasing
  EXPECT_THROW(parse("0.0,1e-3\n0.0,2e-3\n"), Error);            // duplicate
}

TEST(TraceCsv, MissingFileThrows) {
  EXPECT_THROW(load_trace_csv("/nonexistent/definitely_not_here.csv"), Error);
}

TEST(TraceSourceReplay, LinearInterpolation) {
  TraceHarvestSource s(parse("0.0,0\n1.0,4e-3\n"), TraceInterp::kLinear, /*loop=*/false);
  EXPECT_DOUBLE_EQ(s.power_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.power_at(0.25), 1e-3);
  EXPECT_DOUBLE_EQ(s.power_at(0.5), 2e-3);
  EXPECT_DOUBLE_EQ(s.power_at(1.0), 4e-3);
  EXPECT_DOUBLE_EQ(s.power_at(5.0), 4e-3);  // no loop: holds the last sample
  EXPECT_DOUBLE_EQ(s.power_at(-1.0), 0.0);  // before start: first sample
}

TEST(TraceSourceReplay, ZeroOrderHold) {
  TraceHarvestSource s(parse("0.0,1e-3\n0.5,3e-3\n1.0,0\n"),
                       TraceInterp::kZeroOrderHold, /*loop=*/false);
  EXPECT_DOUBLE_EQ(s.power_at(0.2), 1e-3);   // holds the 0.0 sample
  EXPECT_DOUBLE_EQ(s.power_at(0.499), 1e-3);
  EXPECT_DOUBLE_EQ(s.power_at(0.5), 3e-3);
  EXPECT_DOUBLE_EQ(s.power_at(0.7), 3e-3);
  EXPECT_DOUBLE_EQ(s.power_at(2.0), 0.0);
}

TEST(TraceSourceReplay, LoopWrapAround) {
  // Span 1.0 s: power_at(t) must equal power_at(t + k * span) for any k,
  // including far past the recording and for negative t.
  TraceHarvestSource s(parse("0.0,1e-3\n0.5,3e-3\n1.0,1e-3\n"), TraceInterp::kLinear,
                       /*loop=*/true);
  for (double t : {0.0, 0.1, 0.25, 0.49, 0.5, 0.75, 0.999}) {
    // fmod introduces ~1 ulp of phase error on wrapped times.
    EXPECT_NEAR(s.power_at(t), s.power_at(t + 1.0), 1e-12) << t;
    EXPECT_NEAR(s.power_at(t), s.power_at(t + 7.0), 1e-12) << t;
    EXPECT_NEAR(s.power_at(t), s.power_at(t - 3.0), 1e-12) << t;
  }
  // Interpolation still works inside a wrapped period.
  EXPECT_DOUBLE_EQ(s.power_at(4.25), 2e-3);
}

TEST(TraceSourceReplay, NonZeroStartTimeIsNormalized) {
  // Trace recorded from t=10: replay still starts at its first sample.
  TraceHarvestSource s(parse("10.0,1e-3\n10.5,3e-3\n11.0,1e-3\n"), TraceInterp::kLinear,
                       /*loop=*/true);
  EXPECT_DOUBLE_EQ(s.power_at(0.0), 1e-3);
  EXPECT_DOUBLE_EQ(s.power_at(0.5), 3e-3);
  EXPECT_DOUBLE_EQ(s.power_at(1.25), 2e-3);  // wrapped + interpolated
}

TEST(TraceSourceReplay, SinglePointTraceIsConstant) {
  TraceHarvestSource s(parse("0.0,2e-3\n"), TraceInterp::kLinear, /*loop=*/true);
  EXPECT_DOUBLE_EQ(s.power_at(0.0), 2e-3);
  EXPECT_DOUBLE_EQ(s.power_at(123.0), 2e-3);
}

TEST(TraceSourceReplay, ScaleMultipliesPower) {
  TraceHarvestSource s(parse("0.0,1e-3\n1.0,3e-3\n"), TraceInterp::kLinear,
                       /*loop=*/false, /*scale=*/2.0);
  EXPECT_DOUBLE_EQ(s.power_at(0.5), 4e-3);
}

// power_run is power_at over a run, bit for bit: every interpolation and
// loop mode, spans that are no exact multiple of anything (rf_office's
// 0.9869 s), runs starting at negative t or crossing hundreds of seams,
// offset views up to 1e7 s, and dt from 1e-9 to 1e-1.
TEST(Trace, PowerRunMatchesPowerAt) {
  Rng rng(20261019);
  // A 57-point trace shaped like traces/rf_office.csv: jittered sample
  // times on a 1e-4 s grid, spanning 0.9869 s.
  PowerTrace rf;
  for (int i = 0; i <= 56; ++i) {
    const double jitter = i == 0 || i == 56 ? 0.0 : rng.uniform(-0.005, 0.005);
    rf.points.push_back({std::round((i * 0.9869 / 56 + jitter) * 1e4) / 1e4,
                         rng.uniform(1e-4, 7e-3)});
  }
  PowerTrace late = parse("10.0,1e-3\n10.3,3e-3\n10.7,0\n11.1,1e-3\n");

  std::vector<std::unique_ptr<HarvestSource>> sources;
  for (const PowerTrace* tr : {&rf, &late}) {
    for (TraceInterp interp : {TraceInterp::kLinear, TraceInterp::kZeroOrderHold}) {
      for (bool loop : {true, false}) {
        sources.push_back(std::make_unique<TraceHarvestSource>(*tr, interp, loop, 1.5));
      }
    }
  }
  const std::size_t n_traces = sources.size();
  for (std::size_t i = 0; i < n_traces; ++i) {
    for (double off : {0.37, 12345.678, 9999999.25}) {
      sources.push_back(std::make_unique<TimeOffsetSource>(*sources[i], off));
    }
  }

  constexpr std::size_t kRun = 1500;
  std::vector<double> ts(kRun), run(kRun), oracle(kRun);
  for (const auto& src : sources) {
    for (int r = 0; r < 40; ++r) {
      // Starts: negative, on a seam (a product of the span), or anywhere
      // up to 1e6 s; dt log-uniform in [1e-9, 1e-1], jittered per event.
      const double scale = std::pow(10.0, rng.uniform(-9.0, -1.0));
      double tk = r % 4 == 0   ? rng.uniform(-3.0, 0.0)
                  : r % 4 == 1 ? rng.range(0, 5000) * 0.9869
                               : rng.uniform(0.0, 1e6);
      for (std::size_t k = 0; k < kRun; ++k) {
        ts[k] = tk;
        tk += scale * rng.uniform(0.5, 1.5);
      }
      for (std::size_t k = 0; k < kRun; ++k) oracle[k] = src->power_at(ts[k]);
      src->power_run(ts.data(), run.data(), kRun);
      ASSERT_EQ(std::memcmp(run.data(), oracle.data(), kRun * sizeof(double)), 0)
          << "run " << r << " from t=" << ts[0] << " dt~" << scale;
      src->power_run(ts.data(), ts.data(), kRun);  // in place
      ASSERT_EQ(std::memcmp(ts.data(), oracle.data(), kRun * sizeof(double)), 0);
    }
  }
}

TEST(Factory, BuildsEveryKind) {
  EXPECT_DOUBLE_EQ(make_harvest_source("const:w=2e-3")->power_at(1.0), 2e-3);
  EXPECT_DOUBLE_EQ(make_harvest_source("square:hi=4e-3,lo=0,period=1,duty=0.5")
                       ->power_at(0.25),
                   4e-3);
  EXPECT_GT(make_harvest_source("sine:mean=2e-3,amp=1e-3,period=1")->power_at(0.25), 2e-3);
  EXPECT_GE(make_harvest_source("rf:base=0.1e-3,burst=5e-3,rate=30,dur=5e-3,seed=9")
                ->power_at(0.5),
            0.1e-3);
  EXPECT_NEAR(make_harvest_source("solar:peak=4e-3,day=1,daylight=0.5")->power_at(0.25),
              4e-3, 1e-9);
  EXPECT_DOUBLE_EQ(make_harvest_source("const")->power_at(0.0), 1e-3);  // defaults
}

TEST(Factory, RejectsBadSpecs) {
  EXPECT_THROW(make_harvest_source("warp:w=1"), Error);          // unknown kind
  EXPECT_THROW(make_harvest_source("const:watts=1e-3"), Error);  // unknown key
  EXPECT_THROW(make_harvest_source("const:w=soon"), Error);      // bad number
  EXPECT_THROW(make_harvest_source("const:w"), Error);           // missing '='
  EXPECT_THROW(make_harvest_source("trace"), Error);             // missing path
  EXPECT_THROW(make_harvest_source("trace:path=/no/such.csv"), Error);
  EXPECT_THROW(make_harvest_source("trace:path=/no/such.csv,interp=cubic"), Error);
}

TEST(Factory, RejectsDuplicateKeysAndOutOfRangeSeeds) {
  EXPECT_THROW(make_harvest_source("const:w=1,w=2"), Error);  // duplicate key
  EXPECT_THROW(make_harvest_source("rf:seed=-1"), Error);     // negative seed (UB cast)
  EXPECT_THROW(make_harvest_source("rf:seed=1e30"), Error);
  EXPECT_THROW(make_harvest_source("rf:seed=2.5"), Error);
}

TEST(ScenarioArg, ParsesNameSourceAndOptions) {
  const auto sc = sim::parse_scenario_arg(
      "office=trace:path=traces/rf_office.csv;cap=4.7e-5;max_off=2;reboots=500");
  EXPECT_EQ(sc.name, "office");
  EXPECT_EQ(sc.source, "trace:path=traces/rf_office.csv");
  EXPECT_DOUBLE_EQ(sc.capacitance_f, 4.7e-5);
  EXPECT_DOUBLE_EQ(sc.max_off_s, 2.0);
  EXPECT_EQ(sc.max_reboots, 500);
}

TEST(ScenarioArg, RejectsMalformed) {
  EXPECT_THROW(sim::parse_scenario_arg("noequals"), Error);
  EXPECT_THROW(sim::parse_scenario_arg("name="), Error);
  EXPECT_THROW(sim::parse_scenario_arg("n=const:w=1;volts=3"), Error);  // unknown option
  EXPECT_THROW(sim::parse_scenario_arg("n=const:w=1;cap=tiny"), Error);
  EXPECT_THROW(sim::parse_scenario_arg("n=const:w=1;cap=inf"), Error);  // JSON has no inf
  EXPECT_THROW(sim::parse_scenario_arg("n=const:w=1;cap=nan"), Error);
  EXPECT_THROW(sim::parse_scenario_arg("n=const:w=1;max_off=inf"), Error);
}

TEST(ScenarioArg, RejectsNonIntegralAndDuplicateOptions) {
  EXPECT_THROW(sim::parse_scenario_arg("n=const:w=1;reboots=1e30"), Error);  // UB cast
  EXPECT_THROW(sim::parse_scenario_arg("n=const:w=1;reboots=2.5"), Error);   // truncated
  EXPECT_THROW(sim::parse_scenario_arg("n=const:w=1;cap=1e-6;cap=2e-6"), Error);
}

}  // namespace
}  // namespace ehdnn::power
