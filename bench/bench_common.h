// Shared plumbing for the benches: random inputs, the single-layer micro
// workloads and the ms / mJ cell formatters. The paper's Fig. 7 and
// Sec. IV-A.5 claims run through the scenario engine instead
// (paper_claims; BENCHMARKS.md "Paper claims").
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "core/flex/executor.h"
#include "models/zoo.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "quant/quantize.h"
#include "sim/recipe.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "util/table.h"

namespace ehdnn::bench {

// Random tensor in the RAD-normalized activation range.
inline nn::Tensor random_input_tensor(const std::vector<std::size_t>& shape, Rng& rng) {
  nn::Tensor t(shape);
  for (std::size_t j = 0; j < t.size(); ++j) {
    t[j] = static_cast<float>(rng.uniform(-0.9, 0.9));
  }
  return t;
}

// Single-layer micro workload shared by micro_kernels and perf_harness,
// so both measure the same quantized kernel instance (same seeds, same
// calibration) and can't silently drift apart.
struct LayerWorkload {
  quant::QuantModel qm;
  std::vector<fx::q15_t> qin;
};

inline LayerWorkload make_layer_workload(nn::Model m, const std::vector<std::size_t>& shape,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(random_input_tensor(shape, rng));
  LayerWorkload w;
  w.qm = quant::quantize(m, calib, shape);
  w.qin = quant::quantize_input(w.qm, random_input_tensor(shape, rng));
  return w;
}

// The canonical full-size micro workloads (BENCH_micro.json's conv2d/fc).
inline LayerWorkload conv2d_micro_workload() {
  Rng wr(1);
  nn::Model m;
  m.add<nn::Conv2D>(8, 16, 5, 5)->init(wr);
  return make_layer_workload(std::move(m), {8, 16, 16}, 11);
}

inline LayerWorkload fc_micro_workload() {
  Rng wr(2);
  nn::Model m;
  m.add<nn::Dense>(512, 128)->init(wr);
  return make_layer_workload(std::move(m), {512}, 12);
}

inline std::string ms(double seconds) { return Table::num(seconds * 1e3, 2) + " ms"; }
inline std::string mj(double joules) { return Table::num(joules * 1e3, 3) + " mJ"; }

}  // namespace ehdnn::bench
