// The correctness property at the heart of intermittent computing
// (paper SSIII-C): for ANY power-failure schedule, an intermittent
// runtime's final output must be bit-identical to its own continuous-power
// output. These tests sweep runtimes x capacitor sizes x harvest profiles
// (each combination produces a different failure schedule) and verify the
// property, plus the FLEX-specific claims: on-demand checkpoints are rare
// and cheap, progress setbacks are smaller than TAILS', and unwarned
// failures (voltage margin too thin) still recover correctly through the
// two-slot checkpoint fallback.

#include <gtest/gtest.h>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/simple_layers.h"
#include "power/capacitor.h"
#include "power/continuous.h"
#include "quant/quantize.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace ehdnn::flex {
namespace {

using fx::q15_t;

nn::Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng) {
  nn::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-0.9, 0.9));
  }
  return t;
}

// Small models that still exercise every kernel kind.
quant::QuantModel mixed_model(Rng& rng) {
  nn::Model m;
  m.add<nn::Conv2D>(1, 2, 3, 3)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::MaxPool2D>();
  m.add<nn::Flatten>();
  m.add<nn::BcmDense>(2 * 4 * 4, 16, 16)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::Dense>(16, 4)->init(rng);
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(random_tensor({1, 10, 10}, rng));
  return quant::quantize(m, calib, {1, 10, 10});
}

quant::QuantModel dense_model(Rng& rng) {
  nn::Model m;
  m.add<nn::Conv2D>(1, 2, 3, 3)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::MaxPool2D>();
  m.add<nn::Flatten>();
  m.add<nn::Dense>(2 * 4 * 4, 16)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::Dense>(16, 4)->init(rng);
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(random_tensor({1, 10, 10}, rng));
  return quant::quantize(m, calib, {1, 10, 10});
}

std::vector<q15_t> quant_input(const quant::QuantModel& qm, Rng& rng) {
  std::vector<std::size_t> shape = qm.layers.front().in_shape;
  return quant::quantize_input(qm, random_tensor(shape, rng));
}

RunStats run_continuous(RuntimePolicy& policy, const quant::QuantModel& qm,
                        std::span<const q15_t> input, const RunOptions& opts = {}) {
  dev::Device dev;
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);
  return IntermittentExecutor(policy).run(dev, cm, input, opts);
}

RunStats run_intermittent(RuntimePolicy& policy, const quant::QuantModel& qm,
                          std::span<const q15_t> input, double cap_f, double harvest_w,
                          RunOptions opts = {}) {
  dev::Device dev;
  power::ConstantSource src(harvest_w);
  power::CapacitorConfig cfg;
  cfg.capacitance_f = cap_f;
  power::CapacitorSupply supply(src, cfg);
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);
  return IntermittentExecutor(policy).run(dev, cm, input, opts);
}

struct Scenario {
  const char* runtime;
  bool bcm_model;     // mixed (BCM) vs dense twin
  double cap_f;
  double harvest_w;
};

class IntermittentProperty : public ::testing::TestWithParam<Scenario> {};

TEST_P(IntermittentProperty, OutputBitExactUnderFailures) {
  const Scenario sc = GetParam();
  Rng rng(1234);
  const auto qm = sc.bcm_model ? mixed_model(rng) : dense_model(rng);
  const auto input = quant_input(qm, rng);
  auto policy = sim::make_policy(sc.runtime);

  const RunStats cont = run_continuous(*policy, qm, input);
  ASSERT_TRUE(cont.completed());
  ASSERT_EQ(cont.reboots, 0);

  const RunStats inter = run_intermittent(*policy, qm, input, sc.cap_f, sc.harvest_w);
  ASSERT_TRUE(inter.completed()) << sc.runtime;
  EXPECT_GT(inter.reboots, 0) << "scenario did not produce any power failure";
  EXPECT_EQ(inter.output, cont.output) << sc.runtime << " diverged under failures";
  EXPECT_GT(inter.off_seconds, 0.0);
}

// Capacitors are deliberately tiny (0.33-1 uF) so the miniature test
// models span many power cycles; the paper-scale 100 uF runs live in the
// benches, where the models are the real Table II networks.
INSTANTIATE_TEST_SUITE_P(
    Schedules, IntermittentProperty,
    ::testing::Values(
        Scenario{"sonic", false, 1.0e-6, 1.0e-3},  Scenario{"sonic", false, 0.68e-6, 2.0e-3},
        Scenario{"sonic", false, 0.33e-6, 0.5e-3}, Scenario{"tails", false, 1.0e-6, 1.0e-3},
        Scenario{"tails", false, 0.68e-6, 2.0e-3}, Scenario{"tails", false, 0.33e-6, 0.5e-3},
        Scenario{"tails", true, 1.0e-6, 1.0e-3},   Scenario{"tails", true, 0.33e-6, 0.5e-3},
        Scenario{"flex", true, 1.0e-6, 1.0e-3},    Scenario{"flex", true, 0.68e-6, 2.0e-3},
        Scenario{"flex", true, 0.33e-6, 0.5e-3},   Scenario{"flex", false, 1.0e-6, 1.0e-3},
        Scenario{"flex", false, 0.33e-6, 0.5e-3}));

TEST(Flex, ContinuousMatchesPlainAce) {
  // Under continuous power FLEX never takes a warning checkpoint, and its
  // output must equal plain ACE's bit for bit.
  Rng rng(5);
  const auto qm = mixed_model(rng);
  const auto input = quant_input(qm, rng);
  auto ace_policy = make_ace_policy();
  auto flex_policy = make_flex_policy();
  const auto a = run_continuous(*ace_policy, qm, input);
  const auto f = run_continuous(*flex_policy, qm, input);
  EXPECT_EQ(a.output, f.output);
  // FLEX's continuous overhead is the per-layer header checkpoints only.
  EXPECT_LT(f.on_seconds, a.on_seconds * 1.05);
}

TEST(Flex, UnwarnedFailureStillCorrect) {
  // v_warn glued to v_off: the monitor fires too late (or never), failures
  // arrive unwarned, and recovery must fall back to the last mandatory
  // layer-transition checkpoint — correctness may not depend on warnings.
  Rng rng(6);
  const auto qm = mixed_model(rng);
  const auto input = quant_input(qm, rng);
  auto policy = make_flex_policy();
  RunOptions opts;
  opts.flex_v_warn = 2.2001;  // essentially no margin
  const auto cont = run_continuous(*policy, qm, input, opts);
  const auto inter = run_intermittent(*policy, qm, input, 0.68e-6, 1.0e-3, opts);
  ASSERT_TRUE(inter.completed());
  EXPECT_GT(inter.reboots, 0);
  EXPECT_EQ(inter.output, cont.output);
}

TEST(Flex, EagerWarningStillCorrect) {
  // v_warn above v_on: the monitor screams immediately, a checkpoint fires
  // at the first boundary of every power cycle, and resume paths through
  // restored BCM intermediates are exercised heavily.
  Rng rng(7);
  const auto qm = mixed_model(rng);
  const auto input = quant_input(qm, rng);
  auto policy = make_flex_policy();
  RunOptions opts;
  opts.flex_v_warn = 3.5;
  const auto cont = run_continuous(*policy, qm, input, opts);
  const auto inter = run_intermittent(*policy, qm, input, 0.68e-6, 1.0e-3, opts);
  ASSERT_TRUE(inter.completed());
  EXPECT_GT(inter.checkpoints, 0);
  EXPECT_EQ(inter.output, cont.output);
}

TEST(Flex, CheckpointCostWithinBudget) {
  Rng rng(8);
  const auto qm = mixed_model(rng);
  const auto input = quant_input(qm, rng);

  dev::Device dev;
  power::ConstantSource src(1.0e-3);
  power::CapacitorConfig cfg;
  cfg.capacitance_f = 1.0e-6;
  power::CapacitorSupply supply(src, cfg);
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);
  const double budget = worst_checkpoint_energy(cm, dev.cost());

  auto policy = make_flex_policy();
  const auto st = IntermittentExecutor(*policy).run(dev, cm, input);
  ASSERT_TRUE(st.completed());
  ASSERT_GT(st.checkpoints, 0);
  EXPECT_LE(st.checkpoint_energy_j / static_cast<double>(st.checkpoints), budget * 1.05);
  // And the paper's absolute bound: each checkpoint/restore <= 0.033 mJ.
  EXPECT_LE(st.checkpoint_energy_j / static_cast<double>(st.checkpoints), 33e-6);
}

TEST(Flex, OnDemandBeatsTailsOnSteadyCommits) {
  // TAILS commits progress continuously; FLEX only at layer transitions
  // and warnings. Same model, same schedule.
  Rng rng(9);
  const auto qm = mixed_model(rng);
  const auto input = quant_input(qm, rng);
  auto tails = make_tails_policy();
  auto flex = make_flex_policy();
  const auto t = run_intermittent(*tails, qm, input, 1.0e-6, 1.0e-3);
  const auto f = run_intermittent(*flex, qm, input, 1.0e-6, 1.0e-3);
  ASSERT_TRUE(t.completed());
  ASSERT_TRUE(f.completed());
  EXPECT_GT(t.progress_commits, f.checkpoints + f.reboots);
}

TEST(Flex, FasterThanSonicAndTailsOnSameModel) {
  // Checkpoint-strategy ordering isolated on the SAME dense model: SONIC
  // (element-wise CPU, per-tile commits) slowest; TAILS (LEA + steady
  // commits) in between; FLEX (LEA + on-demand only) fastest. At paper
  // scale BCM compression widens FLEX's lead further (PAPER_CLAIMS.json); at
  // this miniature scale the FFT's fixed overhead would mask it, which is
  // exactly the small-block regime of Fig. 8.
  Rng rng(10);
  const auto qdense = dense_model(rng);
  Rng irng(77);
  const auto input = quant_input(qdense, irng);

  auto sonic = make_sonic_policy();
  auto tails = make_tails_policy();
  auto flex = make_flex_policy();
  const auto s = run_intermittent(*sonic, qdense, input, 1.0e-6, 2.0e-3);
  const auto t = run_intermittent(*tails, qdense, input, 1.0e-6, 2.0e-3);
  const auto f = run_intermittent(*flex, qdense, input, 1.0e-6, 2.0e-3);
  ASSERT_TRUE(s.completed() && t.completed() && f.completed());
  // At this miniature scale FLEX and TAILS are within noise of each other
  // (TAILS' steady commits are only a handful of words); SONIC's
  // element-wise CPU execution is decisively slower. The paper-scale
  // separation is the fig7b claims in PAPER_CLAIMS.json.
  EXPECT_LT(f.on_seconds, t.on_seconds * 1.02);
  EXPECT_LT(t.on_seconds, s.on_seconds);
  EXPECT_LT(f.energy_j, s.energy_j);
}

TEST(Base, CannotCompleteUnderSmallCapacitor) {
  // Fig. 7b's "X": no intermittence support means no completion when the
  // inference needs more than one burst.
  Rng rng(11);
  const auto qm = dense_model(rng);
  const auto input = quant_input(qm, rng);
  auto policy = make_ace_policy();
  RunOptions opts;
  opts.max_reboots = 3000;
  const auto st = run_intermittent(*policy, qm, input, 1.0e-6, 0.5e-3, opts);
  EXPECT_FALSE(st.completed());
  EXPECT_GT(st.reboots, 0);
}

TEST(Base, CompletesWhenBurstIsBigEnough) {
  Rng rng(12);
  const auto qm = dense_model(rng);
  const auto input = quant_input(qm, rng);
  auto policy = make_ace_policy();
  // A large capacitor funds the whole inference in one burst.
  const auto st = run_intermittent(*policy, qm, input, 1.0e-3, 1.0e-3);
  EXPECT_TRUE(st.completed());
}

TEST(Sonic, ProgressCommitsAreFrequent) {
  Rng rng(13);
  const auto qm = dense_model(rng);
  const auto input = quant_input(qm, rng);
  auto policy = make_sonic_policy();
  const auto st = run_continuous(*policy, qm, input);
  ASSERT_TRUE(st.completed());
  // Loop continuation: at least one commit per output element.
  EXPECT_GT(st.progress_commits, static_cast<long>(qm.layers.front().out_size()));
}

TEST(Sonic, RejectsBcmModel) {
  Rng rng(14);
  const auto qm = mixed_model(rng);
  const auto input = quant_input(qm, rng);
  auto policy = make_sonic_policy();
  dev::Device dev;
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);
  EXPECT_THROW(IntermittentExecutor(*policy).run(dev, cm, input), Error);
}

TEST(Runtimes, StatsAreCoherent) {
  Rng rng(15);
  const auto qm = mixed_model(rng);
  const auto input = quant_input(qm, rng);
  auto policy = make_flex_policy();
  const auto st = run_intermittent(*policy, qm, input, 2.2e-6, 1.0e-3);
  ASSERT_TRUE(st.completed());
  EXPECT_GT(st.energy_j, 0.0);
  EXPECT_GT(st.on_seconds, 0.0);
  EXPECT_GE(st.units_executed, st.units_total);  // re-execution only adds
  double rail_sum = 0.0;
  for (double e : st.energy_by_rail) rail_sum += e;
  EXPECT_NEAR(rail_sum, st.energy_j, 1e-15);
}

TEST(Runtimes, RepeatedInferencesOnOneDevice) {
  // FRAM persistence across inferences must not leak state between runs.
  Rng rng(16);
  const auto qm = mixed_model(rng);
  auto policy = make_flex_policy();
  dev::Device dev;
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);
  const auto in1 = quant_input(qm, rng);
  const auto in2 = quant_input(qm, rng);
  IntermittentExecutor ex(*policy);
  const auto a1 = ex.run(dev, cm, in1);
  const auto b = ex.run(dev, cm, in2);
  const auto a2 = ex.run(dev, cm, in1);
  EXPECT_EQ(a1.output, a2.output);
  EXPECT_NE(a1.output, b.output);  // different inputs -> different logits
}

}  // namespace
}  // namespace ehdnn::flex
