// Fig. 8: latency and energy of the first FC layer of the MNIST model
// (256x256) as a function of implementation: element-wise CPU (SONIC
// style), LEA dense rows (TAILS/BASE style), and ACE's FFT-based BCM with
// block sizes 32/64/128. The paper's shape: BCM cuts both latency and
// energy, and larger blocks help more (bounded by accuracy/device limits).

#include "bench_common.h"
#include "nn/bcm_dense.h"
#include "nn/dense.h"

namespace {

using namespace ehdnn;

quant::QuantModel single_fc(std::size_t bcm_block, Rng& rng) {
  nn::Model m;
  if (bcm_block == 0) {
    m.add<nn::Dense>(256, 256)->init(rng);
  } else {
    m.add<nn::BcmDense>(256, 256, bcm_block)->init(rng);
  }
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 4; ++i) {
    nn::Tensor t({256});
    for (std::size_t j = 0; j < 256; ++j) t[j] = static_cast<float>(rng.uniform(-0.9, 0.9));
    calib.push_back(std::move(t));
  }
  return quant::quantize(m, calib, {256});
}

struct Row {
  std::string name;
  double latency_s = 0.0;
  double energy_j = 0.0;
};

Row run_with(const char* runtime, std::size_t block, Rng& rng) {
  const auto qm = single_fc(block, rng);
  dev::Device dev;
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);
  std::vector<fx::q15_t> input(256);
  for (auto& v : input) v = static_cast<fx::q15_t>(rng.next_u64());
  const auto policy = sim::make_policy(runtime);
  const auto st = flex::IntermittentExecutor(*policy).run(dev, cm, input);
  return {"", st.on_seconds, st.energy_j};
}

}  // namespace

int main() {
  using namespace ehdnn;
  using namespace ehdnn::bench;
  std::cout << "Fig. 8 - First FC of MNIST (256x256): latency and energy by implementation\n";

  Rng rng(808);
  std::vector<std::pair<std::string, Row>> rows;
  rows.push_back({"CPU element-wise (SONIC)", run_with("sonic", 0, rng)});
  rows.push_back({"LEA dense rows (BASE/TAILS)", run_with("base", 0, rng)});
  for (std::size_t k : {32u, 64u, 128u}) {
    rows.push_back({"ACE BCM k=" + std::to_string(k), run_with("ace", k, rng)});
  }

  const double base_lat = rows[0].second.latency_s;
  const double base_e = rows[0].second.energy_j;
  Table t({"Implementation", "Latency", "Energy", "Latency vs CPU", "Energy vs CPU",
           "Weights (words)"});
  for (auto& [name, r] : rows) {
    std::size_t words = 256 * 256;
    if (name.find("k=") != std::string::npos) {
      const std::size_t k = std::stoul(name.substr(name.find("k=") + 2));
      words = 256 * 256 / k;
    }
    t.add_row({name, ms(r.latency_s), mj(r.energy_j),
               Table::num(base_lat / r.latency_s, 1) + "x faster",
               Table::num(base_e / r.energy_j, 1) + "x less", std::to_string(words)});
  }
  t.print(std::cout);
  std::cout << "Paper shape: BCM reduces FC latency/energy by tens of times, more with\n"
               "larger blocks (limited by accuracy degradation - see ablation_overflow).\n";
  return 0;
}
