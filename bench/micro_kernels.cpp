// google-benchmark micro suite: the host-side cost of the simulation
// kernels (FFT, circulant mat-vec, device LEA ops). These measure the
// simulator itself — useful when profiling bench turnaround — while the
// *modelled* device costs appear in paper_claims and the fig6/fig8 benches.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/ace/compiled_model.h"
#include "device/device.h"
#include "dsp/circulant.h"
#include "dsp/fft.h"
#include "util/rng.h"

namespace {

using namespace ehdnn;

void BM_FftQ15(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  std::vector<fx::cq15> buf(n);
  for (auto& c : buf) {
    c = {fx::to_q15(rng.uniform(-0.5, 0.5)), fx::to_q15(rng.uniform(-0.5, 0.5))};
  }
  for (auto _ : state) {
    auto copy = buf;
    benchmark::DoNotOptimize(dsp::fft_q15(copy, dsp::FftScaling::kFixedScale));
  }
}
BENCHMARK(BM_FftQ15)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_CirculantMatvecQ15(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  std::vector<fx::q15_t> c(k), x(k);
  for (std::size_t i = 0; i < k; ++i) {
    c[i] = fx::to_q15(rng.uniform(-0.1, 0.1));
    x[i] = fx::to_q15(rng.uniform(-0.5, 0.5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dsp::circulant_matvec_q15(c, x, dsp::FftScaling::kBlockFloat));
  }
}
BENCHMARK(BM_CirculantMatvecQ15)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_DeviceLeaMac(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dev::Device d;
  Rng rng(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.sram().poke(i, fx::to_q15(rng.uniform(-0.2, 0.2)));
    d.sram().poke(1024 + i, fx::to_q15(rng.uniform(-0.2, 0.2)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.mac_block(0, 1024, n));
  }
}
BENCHMARK(BM_DeviceLeaMac)->Arg(25)->Arg(78)->Arg(150);

void BM_DeviceDmaCopy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dev::Device d;
  for (auto _ : state) {
    d.dma_copy(dev::MemKind::kFram, 0, dev::MemKind::kSram, 0, n);
  }
}
BENCHMARK(BM_DeviceDmaCopy)->Arg(64)->Arg(512);

// Full ACE layer kernels through the device model (bulk fast paths on):
// the host-side cost of simulating one conv2d / FC layer inference, on
// the same quantized instances the perf harness measures (bench_common).
void run_layer_bench(benchmark::State& state, const bench::LayerWorkload& w) {
  dev::Device d;
  power::ContinuousPower supply;
  d.attach_supply(&supply);
  const auto cm = ace::compile(w.qm, d);
  const auto policy = flex::make_ace_policy();
  flex::IntermittentExecutor ex(*policy);
  const flex::RunOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.run(d, cm, w.qin, opts).completed());
  }
}

void BM_Conv2dLayer(benchmark::State& state) {
  run_layer_bench(state, bench::conv2d_micro_workload());
}
BENCHMARK(BM_Conv2dLayer);

void BM_DenseLayer(benchmark::State& state) {
  run_layer_bench(state, bench::fc_micro_workload());
}
BENCHMARK(BM_DenseLayer);

void BM_CircConvRef(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  std::vector<double> c(k), x(k), y(k);
  for (std::size_t i = 0; i < k; ++i) {
    c[i] = rng.uniform(-1, 1);
    x[i] = rng.uniform(-1, 1);
  }
  for (auto _ : state) {
    dsp::circ_conv_ref(c, x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_CircConvRef)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
