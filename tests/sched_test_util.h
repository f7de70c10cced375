// Shared fixtures for the scheduling tests (sched_test.cpp and
// sched_property_test.cpp): tiny co-resident model pairs, continuous
// oracles, and income-sample synthesis for the forecaster tests — so the
// unit suite and the property suite construct their inputs one way.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "device/device.h"
#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/simple_layers.h"
#include "power/continuous.h"
#include "power/harvest.h"
#include "quant/quantize.h"
#include "sched/forecast.h"
#include "util/rng.h"

namespace ehdnn::sched::testutil {

inline nn::Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng) {
  nn::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-0.9, 0.9));
  }
  return t;
}

// Tiny "deployment" pair sharing one input shape: a BCM-compressed model
// and its dense twin — the two variants an adaptive device ships. Small
// enough for thousands of runs, big enough to hit every kernel kind.
inline quant::QuantModel tiny_compressed(Rng& rng) {
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

inline quant::QuantModel tiny_dense(Rng& rng) {
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

// Continuous-power reference output for one model (any runtime: the
// bit-exactness contract makes them all agree per model). Flags a
// failed reference run at the source rather than as a downstream
// output mismatch.
inline std::vector<fx::q15_t> continuous_oracle(const quant::QuantModel& qm,
                                                const std::vector<fx::q15_t>& input) {
  dev::Device dev;
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);
  auto policy = flex::make_flex_policy();
  const flex::RunStats st = flex::IntermittentExecutor(*policy).run(dev, cm, input);
  EXPECT_TRUE(st.completed()) << "continuous oracle run did not complete";
  return st.output;
}

// Income-sample synthesis: what a device whose recharge gaps tick every
// `dt_s` would hand its forecaster when harvesting from `src` — sample i
// is the source's power at t = i * dt_s. The one way both test suites
// build forecaster inputs.
inline std::vector<double> income_samples(const power::HarvestSource& src, double dt_s,
                                          int n) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(src.power_at(static_cast<double>(i) * dt_s));
  return out;
}

// Replays `samples[i]` at t = i * dt_s into the forecaster.
inline void record_samples(HarvestForecaster& fc, const std::vector<double>& samples,
                           double dt_s) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    fc.record_at(samples[i], static_cast<double>(i) * dt_s);
  }
}

// Records the same value n times (the repeated-sample construction the
// forecaster unit tests kept duplicating inline).
inline void record_n(HarvestForecaster& fc, double income_w, int n) {
  for (int i = 0; i < n; ++i) fc.record(income_w);
}

}  // namespace ehdnn::sched::testutil
