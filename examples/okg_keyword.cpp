// Audio scenario: always-on keyword spotting from an RF-harvesting sensor.
// Demonstrates (a) the deepest BCM stack of the paper (256x/128x/64x FCs),
// (b) a trace-driven harvest profile, and (c) a voltage-monitor threshold
// sweep — the knob that trades checkpoint safety margin against wasted
// work (SSIII-C).

#include <cstdio>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "core/rad/pipeline.h"
#include "power/capacitor.h"
#include "power/monitor.h"
#include "quant/quantize.h"
#include "util/table.h"

int main() {
  using namespace ehdnn;
  Rng rng(33);

  rad::RadConfig cfg;
  cfg.task = models::Task::kOkg;
  cfg.train_samples = 450;
  cfg.test_samples = 100;
  cfg.epochs = 6;
  cfg.sgd.lr = 0.005f;  // the deep BCM stack wants a gentle rate
  std::printf("[OKG] training the Table-II keyword model (BCM 256x/128x/64x)...\n");
  rad::RadResult rad_out = rad::run_rad(cfg, rng);
  std::printf("[OKG] float acc %.1f%%, quantized acc %.1f%%\n",
              100.0 * rad_out.float_accuracy, 100.0 * rad_out.quant_accuracy);

  // Bursty RF harvest trace (e.g. a reader passing by), 10 ms samples.
  std::vector<double> trace;
  Rng trng(5);
  for (int i = 0; i < 400; ++i) {
    const bool burst = (i / 40) % 2 == 0;
    trace.push_back(burst ? trng.uniform(4e-3, 9e-3) : trng.uniform(0.0, 1.0e-3));
  }
  power::TraceSource harvest(trace, 10e-3);

  const auto qin = quant::quantize_input(rad_out.qmodel, rad_out.data.test.x[0]);

  std::printf("[OKG] voltage-monitor threshold sweep (trace-driven RF harvest):\n");
  std::printf("  %-10s %-12s %-9s %-12s %-14s %s\n", "v_warn", "on-time", "reboots",
              "checkpoints", "ckpt energy", "wasted units");
  for (double v_warn : {2.25, 2.35, 2.45, 2.60, 2.90}) {
    dev::Device device;
    power::CapacitorConfig ccfg;
    ccfg.capacitance_f = 10e-6;  // scaled buffer; BENCHMARKS.md "Paper claims"
    power::CapacitorSupply cap(harvest, ccfg);
    device.attach_supply(&cap);
    const auto cm = ace::compile(rad_out.qmodel, device);
    flex::RunOptions opts;
    opts.flex_v_warn = v_warn;
    const auto policy = flex::make_flex_policy();
    const auto st = flex::IntermittentExecutor(*policy).run(device, cm, qin, opts);
    std::printf("  %-10.2f %-12s %-9ld %-12ld %-14s %ld\n", v_warn,
                st.completed() ? (Table::num(st.on_seconds * 1e3, 2) + " ms").c_str() : "DNF",
                st.reboots, st.checkpoints,
                (Table::num(st.checkpoint_energy_j * 1e6, 2) + " uJ").c_str(),
                st.wasted_units());
  }
  std::printf("Lower thresholds risk unwarned failures (more wasted work); higher ones\n"
              "checkpoint earlier than necessary. The library default budgets the\n"
              "worst-case checkpoint energy plus margin (power::flex_warn_voltage).\n");
  return 0;
}
