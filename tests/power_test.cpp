#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <vector>

#include "power/capacitor.h"
#include "power/continuous.h"
#include "power/harvest.h"
#include "power/monitor.h"
#include "power/trace.h"
#include "util/rng.h"

namespace ehdnn::power {
namespace {

TEST(Harvest, ConstantSource) {
  ConstantSource s(2.5e-3);
  EXPECT_DOUBLE_EQ(s.power_at(0.0), 2.5e-3);
  EXPECT_DOUBLE_EQ(s.power_at(100.0), 2.5e-3);
}

TEST(Harvest, SquareSourceDutyCycle) {
  SquareSource s(5e-3, 0.0, /*period=*/1.0, /*duty=*/0.25);
  EXPECT_DOUBLE_EQ(s.power_at(0.1), 5e-3);
  EXPECT_DOUBLE_EQ(s.power_at(0.3), 0.0);
  EXPECT_DOUBLE_EQ(s.power_at(1.1), 5e-3);  // periodic
}

TEST(Harvest, SineSourceNonNegative) {
  SineSource s(1e-3, 3e-3, 1.0);
  for (double t = 0.0; t < 2.0; t += 0.01) EXPECT_GE(s.power_at(t), 0.0);
}

TEST(Harvest, TraceSourceLoops) {
  TraceSource s({1.0, 2.0, 3.0}, 0.5);
  EXPECT_DOUBLE_EQ(s.power_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.power_at(0.6), 2.0);
  EXPECT_DOUBLE_EQ(s.power_at(1.6), 1.0);  // wrapped
}

TEST(Harvest, PoissonBurstSourceIsDeterministicAndBursty) {
  PoissonBurstSource a(0.1e-3, 5e-3, /*rate=*/20.0, /*mean_burst=*/5e-3, /*seed=*/42,
                       /*horizon=*/2.0);
  PoissonBurstSource b(0.1e-3, 5e-3, 20.0, 5e-3, 42, 2.0);
  EXPECT_GT(a.burst_count(), 0u);
  double hi_time = 0.0, lo_time = 0.0;
  for (double t = 0.0; t < 2.0; t += 1e-3) {
    EXPECT_DOUBLE_EQ(a.power_at(t), b.power_at(t));  // same seed, same schedule
    (a.power_at(t) > 1e-3 ? hi_time : lo_time) += 1e-3;
  }
  EXPECT_GT(hi_time, 0.0);
  EXPECT_GT(lo_time, hi_time);  // bursts are sparse at these parameters
  EXPECT_DOUBLE_EQ(a.power_at(0.3), a.power_at(2.3));  // loops past the horizon
}

TEST(Harvest, SolarDayRampShape) {
  SolarDaySource s(/*peak=*/5e-3, /*day=*/1.0, /*daylight=*/0.5, /*floor=*/0.1e-3);
  EXPECT_NEAR(s.power_at(0.25), 5e-3 + 0.1e-3, 1e-9);  // solar noon
  EXPECT_NEAR(s.power_at(0.75), 0.1e-3, 1e-12);        // night: floor only
  EXPECT_GT(s.power_at(0.1), s.power_at(0.02));        // morning ramp rises
  EXPECT_NEAR(s.power_at(0.25), s.power_at(1.25), 1e-12);  // periodic
}

TEST(Capacitor, BurstEnergyMatchesFormula) {
  ConstantSource src(0.0);
  CapacitorConfig cfg;  // 100uF, 3.3/2.2 V
  CapacitorSupply cap(src, cfg);
  const double expect = 0.5 * 100e-6 * (3.3 * 3.3 - 2.2 * 2.2);
  EXPECT_NEAR(cap.burst_energy(), expect, 1e-9);
  EXPECT_NEAR(cap.burst_energy(), 3.03e-4, 5e-6);  // ~0.30 mJ (BENCHMARKS.md "Paper claims")
}

TEST(Capacitor, StartsChargedAndDrains) {
  ConstantSource src(0.0);
  CapacitorSupply cap(src);
  EXPECT_NEAR(cap.voltage(), 3.3, 1e-9);
  EXPECT_TRUE(cap.consume(1e-5, 1e-3));
  EXPECT_LT(cap.voltage(), 3.3);
}

TEST(Capacitor, BrownsOutBelowVoff) {
  ConstantSource src(0.0);
  CapacitorSupply cap(src);
  bool failed = false;
  for (int i = 0; i < 1000 && !failed; ++i) failed = !cap.consume(5e-5, 1e-3);
  EXPECT_TRUE(failed);
  EXPECT_FALSE(cap.on());
  EXPECT_LE(cap.voltage(), 2.2 + 1e-6);
  EXPECT_EQ(cap.failures(), 1);
}

TEST(Capacitor, RechargeReachesVonAndTracksTime) {
  ConstantSource src(2e-3);
  CapacitorSupply cap(src);
  while (cap.consume(5e-5, 1e-3)) {
  }
  const double off = cap.recharge_to_on();
  EXPECT_TRUE(cap.on());
  EXPECT_NEAR(cap.voltage(), 3.3, 0.01);
  // Recharge energy / harvest power, within integration slack.
  const double expect = cap.burst_energy() / 2e-3;
  EXPECT_NEAR(off, expect, 0.2 * expect);
  EXPECT_NEAR(cap.off_time(), off, 1e-12);
}

TEST(Capacitor, HarvestIncomeExtendsRuntime) {
  ConstantSource none(0.0);
  ConstantSource some(3e-3);
  CapacitorSupply a(none), b(some);
  auto drain_steps = [](CapacitorSupply& c) {
    int steps = 0;
    while (c.consume(4e-6, 1e-3)) ++steps;  // 4 mW load
    return steps;
  };
  EXPECT_GT(drain_steps(b), drain_steps(a));
}

TEST(Capacitor, ClampsAtVmax) {
  ConstantSource src(1.0);  // absurdly strong harvester
  CapacitorSupply cap(src);
  cap.consume(0.0, 1.0);  // long idle: would overshoot without clamp
  EXPECT_LE(cap.voltage(), 3.6 + 1e-9);
}

TEST(Capacitor, StarvationSurfacesInsteadOfThrowing) {
  // The max_off_s guard is an outcome, not an exception: recharge gives up
  // after max_off_s with on() still false and starved() set, so runtimes
  // can report RunStats outcome "starved" distinctly from "completed".
  ConstantSource src(0.0);
  CapacitorConfig cfg;
  cfg.max_off_s = 0.05;
  CapacitorSupply cap(src, cfg);
  while (cap.consume(5e-5, 1e-3)) {
  }
  const double off = cap.recharge_to_on();
  EXPECT_FALSE(cap.on());
  EXPECT_TRUE(cap.starved());
  EXPECT_NEAR(off, 0.05, 1e-3);
  EXPECT_NEAR(cap.off_time(), off, 1e-12);
}

TEST(Capacitor, StarvedFlagClearsOnceHarvestReturns) {
  // Square wave with a long dead phase: one recharge starves, but once
  // income returns a later recharge succeeds and clears starved().
  SquareSource src(20e-3, 0.0, /*period=*/0.4, /*duty=*/0.5);
  CapacitorConfig cfg;
  cfg.max_off_s = 0.01;  // shorter than the 0.2 s dead phase
  CapacitorSupply cap(src, cfg);
  // Drain into the dead phase: at 5 mW average draw the charge from the
  // active phase runs out shortly after t = 0.2 s.
  while (cap.consume(5e-6, 1e-3)) {
  }
  bool starved_once = false;
  for (int i = 0; i < 100 && !cap.on(); ++i) {
    cap.recharge_to_on();
    starved_once = starved_once || cap.starved();
  }
  EXPECT_TRUE(starved_once);
  EXPECT_TRUE(cap.on());
  EXPECT_FALSE(cap.starved());
}

TEST(Capacitor, SquareWaveProducesBursts) {
  SquareSource src(10e-3, 0.0, 0.2, 0.5);
  CapacitorSupply cap(src);
  int failures = 0;
  for (int burst = 0; burst < 5; ++burst) {
    while (cap.consume(6e-6, 1e-3)) {  // ~6 mW active load
    }
    ++failures;
    cap.recharge_to_on();
  }
  EXPECT_EQ(cap.failures(), failures);
  EXPECT_GT(cap.off_time(), 0.0);
  EXPECT_GT(cap.on_time(), 0.0);
}

// consume_batch is consume() per event in order, bit for bit: over
// constant-segment sources (segment cache) and opted-out ones (power_run),
// across windows that straddle segment ends, and through a window that
// browns out midway.
TEST(Capacitor, BatchMatchesPerEventConsume) {
  std::istringstream csv(
      "0.0,2e-4\n0.0281,5.9e-3\n0.0376,1.9e-4\n0.0679,6e-3\n0.1110,2.2e-4\n"
      "0.1818,6.5e-3\n0.3535,6.8e-3\n0.4910,1.7e-4\n0.9358,2.2e-4\n0.9869,4.8e-3\n");
  const TraceHarvestSource trace(parse_trace_csv(csv));
  const ConstantSource constant(2e-3);
  const SquareSource square(8e-3, 0.0, 0.013, 0.4);
  const TimeOffsetSource offset(trace, 12345.678);
  const SineSource sine(3e-3, 2e-3, 0.05);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  for (const HarvestSource* src :
       std::initializer_list<const HarvestSource*>{&constant, &square, &trace, &offset, &sine}) {
    CapacitorSupply batch(*src), single(*src);
    Rng rng(7);
    bool browned_out = false;
    for (int w = 0; w < 12; ++w) {
      // Every fourth window draws ~10x harder and empties the capacitor.
      const double load_w = w % 4 == 3 ? 0.1 : 5e-3;
      std::vector<dev::SpendEvent> ev(4096);
      for (auto& e : ev) {
        e.dt = std::pow(10.0, rng.uniform(-7.0, -4.0));
        e.joules = load_w * e.dt * rng.uniform(0.5, 1.5);
      }
      const std::size_t got = batch.consume_batch(ev.data(), ev.size());
      std::size_t want = 0;
      while (want < ev.size() && single.consume(ev[want].joules, ev[want].dt)) ++want;
      ASSERT_EQ(got, want) << "window " << w;
      ASSERT_EQ(bits(batch.headroom()), bits(single.headroom())) << "window " << w;
      ASSERT_EQ(bits(batch.now()), bits(single.now())) << "window " << w;
      ASSERT_EQ(bits(batch.on_time()), bits(single.on_time())) << "window " << w;
      ASSERT_EQ(batch.failures(), single.failures()) << "window " << w;
      if (got < ev.size()) {
        browned_out = browned_out || got > 0;
        batch.recharge_to_on();
        single.recharge_to_on();
      }
    }
    EXPECT_TRUE(browned_out);  // some window failed midway, not at event 0
  }
}

TEST(Continuous, NeverFails) {
  ContinuousPower p;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(p.consume(1.0, 1.0));
  EXPECT_TRUE(p.on());
  EXPECT_DOUBLE_EQ(p.recharge_to_on(), 0.0);
  EXPECT_DOUBLE_EQ(p.voltage(), 3.3);
  EXPECT_DOUBLE_EQ(p.energy_drawn(), 1000.0);
}

TEST(Monitor, WarnVoltageCoversCheckpointBudget) {
  CapacitorConfig cfg;
  const double budget = 33e-6;  // the paper's 0.033 mJ worst case
  const double v_warn = warn_voltage_for(cfg, budget, 2.0);
  EXPECT_GT(v_warn, cfg.v_off);
  EXPECT_LT(v_warn, cfg.v_on);
  // Energy between v_warn and v_off is at least the budgeted amount.
  const double margin = 0.5 * cfg.capacitance_f * (v_warn * v_warn - cfg.v_off * cfg.v_off);
  EXPECT_GE(margin, 2.0 * budget - 1e-12);
}

TEST(Monitor, BiggerBudgetRaisesThreshold) {
  CapacitorConfig cfg;
  EXPECT_GT(warn_voltage_for(cfg, 100e-6), warn_voltage_for(cfg, 10e-6));
}

}  // namespace
}  // namespace ehdnn::power
