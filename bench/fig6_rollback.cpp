// Fig. 6: TAILS vs FLEX on the FFT-based BCM computation under
// intermittent power. TAILS tracks only loop indices, so a failure during
// the DMA/FFT/MPY/IFFT sequence rolls back to the block's start and its
// accumulator must be parity-committed to FRAM after every block; FLEX
// keeps the b0-b2 stage bits plus the live intermediates in its on-demand
// checkpoint and resumes mid-block.

#include "bench_common.h"
#include "nn/bcm_dense.h"
#include "power/monitor.h"

int main() {
  using namespace ehdnn;
  using namespace ehdnn::bench;
  std::cout << "Fig. 6 - TAILS vs FLEX on a BCM FC layer (intermittent power)\n";

  Rng rng(606);
  nn::Model m;
  m.add<nn::BcmDense>(512, 512, 128)->init(rng);
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 4; ++i) {
    nn::Tensor t({512});
    for (std::size_t j = 0; j < 512; ++j) t[j] = static_cast<float>(rng.uniform(-0.9, 0.9));
    calib.push_back(std::move(t));
  }
  const auto qm = quant::quantize(m, calib, {512});
  std::vector<fx::q15_t> input(512);
  for (auto& v : input) v = static_cast<fx::q15_t>(rng.next_u64());

  Table t({"Runtime", "On-time", "Energy", "Reboots", "Steady commits",
           "On-demand ckpts", "Re-executed units"});
  std::vector<fx::q15_t> outputs[2];
  int row = 0;
  for (const char* key : {"tails", "flex"}) {
    dev::Device dev;
    // A small capacitor makes failures frequent relative to this single
    // layer, accentuating the rollback difference.
    power::ConstantSource src(2e-3);
    power::CapacitorConfig ccfg;
    ccfg.capacitance_f = 4.7e-6;
    power::CapacitorSupply cap(src, ccfg);
    dev.attach_supply(&cap);
    const auto cm = ace::compile(qm, dev);
    flex::RunOptions opts;
    opts.flex_v_warn = power::warn_voltage_for(
        ccfg, flex::worst_checkpoint_energy(cm, dev.cost()) + 2e-6, 3.0);
    const auto policy = sim::make_policy(key);
    const auto st = flex::IntermittentExecutor(*policy).run(dev, cm, input, opts);
    outputs[row] = st.output;
    t.add_row({key, ms(st.on_seconds), mj(st.energy_j), std::to_string(st.reboots),
               std::to_string(st.progress_commits), std::to_string(st.checkpoints),
               std::to_string(st.wasted_units())});
    ++row;
  }
  t.print(std::cout);
  const bool identical = outputs[0] == outputs[1];
  std::cout << "Outputs bit-identical across runtimes: " << (identical ? "yes" : "NO")
            << "\n";
  return identical ? 0 : 1;
}
