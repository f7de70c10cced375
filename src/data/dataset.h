// Dataset container and the synthetic task generators.
//
// The paper evaluates on MNIST, UCI-HAR and Google Speech Commands (OKG).
// Those datasets are not available offline, so ehdnn ships deterministic
// synthetic generators with the same tensor shapes and class counts
// (BENCHMARKS.md "Paper claims" records the substitution). Each generator draws
// class-conditional structured patterns (strokes / periodic motions /
// formant tracks) plus controlled noise, producing tasks a LeNet-class
// model can learn into the paper's accuracy bands. All values land in
// [-1, 1], matching RAD's input normalization.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace ehdnn::data {

struct Dataset {
  std::vector<nn::Tensor> x;
  std::vector<int> y;
  std::size_t num_classes = 0;
  std::vector<std::size_t> sample_shape;

  std::size_t size() const { return x.size(); }
};

struct TrainTest {
  Dataset train;
  Dataset test;
};

// MNIST-like: (1,28,28) images, 10 classes of stroke-built digit glyphs
// with random shift and pixel noise.
TrainTest make_mnist_like(Rng& rng, std::size_t n_train, std::size_t n_test);

// HAR-like: (1,121) inertial windows, 6 activity classes of sinusoid
// mixtures (class-specific frequency signatures) with jitter and drift.
// Window length 121 matches the paper's HAR model (121 - 12 + 1 = 110,
// 32 * 110 = 3520 flattened features; BENCHMARKS.md "Paper claims").
TrainTest make_har_like(Rng& rng, std::size_t n_train, std::size_t n_test);

// OKG-like: (1,28,28) MFCC-style spectrograms, 12 keyword classes of
// formant trajectories with time shift and babble noise.
TrainTest make_okg_like(Rng& rng, std::size_t n_train, std::size_t n_test);

}  // namespace ehdnn::data
