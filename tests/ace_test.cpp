#include <gtest/gtest.h>

#include "core/ace/compiled_model.h"
#include "core/ace/kernels.h"
#include "core/flex/executor.h"
#include "models/zoo.h"
#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/simple_layers.h"
#include "power/continuous.h"
#include "quant/qexec.h"
#include "quant/quantize.h"
#include "util/rng.h"

namespace ehdnn::ace {
namespace {

using fx::q15_t;

nn::Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng) {
  nn::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-0.9, 0.9));
  }
  return t;
}

quant::QuantModel quantize_model(nn::Model& m, const std::vector<std::size_t>& shape,
                                 Rng& rng) {
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 6; ++i) calib.push_back(random_tensor(shape, rng));
  return quant::quantize(m, calib, shape);
}

// Device inference must be bit-identical to the software reference
// executor — same kernels, same truncation points (the deployment
// contract in qmodel.h).
void expect_bit_exact(const quant::QuantModel& qm, const nn::Tensor& x,
                      dsp::FftScaling scaling = dsp::FftScaling::kBlockFloat) {
  quant::QExecOptions qopts;
  qopts.fft_scaling = scaling;
  const auto qin = quant::quantize_input(qm, x);
  const auto ref = quant::qforward(qm, qin, qopts);

  dev::Device dev;
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const CompiledModel cm = compile(qm, dev);
  auto policy = flex::make_ace_policy();
  flex::RunOptions ropts;
  ropts.scaling = scaling;
  const auto st = flex::IntermittentExecutor(*policy).run(dev, cm, qin, ropts);
  ASSERT_TRUE(st.completed());
  ASSERT_EQ(st.output.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(st.output[i], ref[i]) << "output word " << i;
  }
}

TEST(Compile, LayoutDisjointAndWithinFram) {
  Rng rng(1);
  nn::Model m = models::make_mnist_model(rng);
  const auto qm = quantize_model(m, {1, 28, 28}, rng);
  dev::Device dev;
  const CompiledModel cm = compile(qm, dev);
  EXPECT_LE(cm.fram_words_used, dev.fram().size_words());
  EXPECT_LE(cm.sram.total_words, dev.sram().size_words());
  // Activation buffers both hold max(L_i) (Fig. 5's two-buffer bound).
  EXPECT_EQ(cm.act_words, qm.max_activation_words());
  EXPECT_NE(cm.act_a, cm.act_b);
  // Segments are disjoint by construction of the bump allocator; verify
  // the weights actually landed in FRAM.
  const auto& l0 = qm.layers[0];
  for (std::size_t i = 0; i < l0.weights.size(); ++i) {
    EXPECT_EQ(dev.fram().peek(cm.images[0].w_base + i), l0.weights[i]);
  }
}

TEST(Compile, CompressedModelsFitTheRealBoard) {
  Rng rng(2);
  for (models::Task t :
       {models::Task::kMnist, models::Task::kHar, models::Task::kOkg}) {
    models::ModelInfo info;
    nn::Model comp = models::make_model(t, rng, &info);
    const auto qm = quantize_model(comp, info.input_shape, rng);
    dev::Device dev;
    EXPECT_NO_THROW(compile(qm, dev)) << models::task_name(t);
  }
}

TEST(Compile, UncompressedHarOkgExceedTheRealBoard) {
  // The dense HAR/OKG weight matrices alone outgrow the 256 KB FRAM —
  // the concrete motivation for RAD's compression. The SONIC/TAILS
  // baselines therefore run on a virtually enlarged FRAM (documented in
  // BENCHMARKS.md "Paper claims") so their time/energy can still be measured.
  Rng rng(22);
  for (models::Task t : {models::Task::kHar, models::Task::kOkg}) {
    const auto info = models::model_info(t);
    nn::Model dense = models::make_dense_model(t, rng);
    const auto qd = quantize_model(dense, info.input_shape, rng);
    dev::Device real_board;
    EXPECT_THROW(compile(qd, real_board), Error) << models::task_name(t);
    dev::DeviceConfig big;
    big.fram_words = 4 * 1024 * 1024;
    dev::Device enlarged(big);
    EXPECT_NO_THROW(compile(qd, enlarged)) << models::task_name(t);
  }
  // The dense MNIST twin still fits the real board.
  nn::Model mnist_dense = models::make_mnist_dense(rng);
  const auto qm = quantize_model(mnist_dense, {1, 28, 28}, rng);
  dev::Device real_board;
  EXPECT_NO_THROW(compile(qm, real_board));
}

TEST(Compile, CircularBufferIsTwoBuffersNotN) {
  Rng rng(3);
  nn::Model m = models::make_mnist_model(rng);
  const auto qm = quantize_model(m, {1, 28, 28}, rng);
  dev::Device dev;
  const CompiledModel cm = compile(qm, dev);
  // N-buffer allocation would need sum(L_i); ACE needs only 2*max(L_i).
  std::size_t sum = 0;
  for (const auto& l : qm.layers) sum += l.out_size();
  EXPECT_LT(2 * cm.act_words, sum);
}

TEST(DataMove, DmaDecisionFollowsCostModel) {
  dev::CostModel cm;
  EXPECT_FALSE(use_dma(cm, 1));   // setup dominates
  EXPECT_TRUE(use_dma(cm, 64));   // bulk wins
  // The crossover exists and is small.
  bool crossed = false;
  for (std::size_t n = 1; n < 32; ++n) crossed |= use_dma(cm, n);
  EXPECT_TRUE(crossed);
}

TEST(DataMove, MoveWordsCopiesEitherWay) {
  dev::Device dev;
  for (dev::Addr i = 0; i < 4; ++i) dev.fram().poke(i, static_cast<q15_t>(i + 1));
  move_words(dev, dev::MemKind::kFram, 0, dev::MemKind::kSram, 0, 2);    // CPU path
  move_words(dev, dev::MemKind::kFram, 0, dev::MemKind::kSram, 100, 4);  // may be DMA
  EXPECT_EQ(dev.sram().peek(0), 1);
  EXPECT_EQ(dev.sram().peek(1), 2);
  EXPECT_EQ(dev.sram().peek(103), 4);
}

// ---- bit-exactness of every kernel ----------------------------------------

TEST(Kernels, DenseBitExact) {
  Rng rng(4);
  nn::Model m;
  m.add<nn::Dense>(40, 12)->init(rng);
  const auto qm = quantize_model(m, {40}, rng);
  expect_bit_exact(qm, random_tensor({40}, rng));
}

TEST(Kernels, DenseChunkedBitExact) {
  // Input wider than kDenseChunk exercises the guarded chunk folding.
  Rng rng(5);
  nn::Model m;
  m.add<nn::Dense>(1200, 8)->init(rng);
  const auto qm = quantize_model(m, {1200}, rng);
  expect_bit_exact(qm, random_tensor({1200}, rng));
}

TEST(Kernels, Conv2DBitExact) {
  Rng rng(6);
  nn::Model m;
  m.add<nn::Conv2D>(2, 3, 3, 3)->init(rng);
  const auto qm = quantize_model(m, {2, 9, 9}, rng);
  expect_bit_exact(qm, random_tensor({2, 9, 9}, rng));
}

TEST(Kernels, Conv2DPrunedBitExact) {
  Rng rng(7);
  nn::Model m;
  auto* c = m.add<nn::Conv2D>(1, 2, 5, 5);
  c->init(rng);
  std::vector<bool> mask(25, false);
  for (std::size_t i : {0u, 2u, 6u, 8u, 12u, 16u, 18u, 20u, 22u, 24u, 11u, 13u, 7u}) {
    mask[i] = true;
  }
  c->set_shape_mask(mask);
  const auto qm = quantize_model(m, {1, 10, 10}, rng);
  EXPECT_EQ(qm.layers[0].live_positions(), 13u);
  expect_bit_exact(qm, random_tensor({1, 10, 10}, rng));
}

TEST(Kernels, Conv1DBitExact) {
  Rng rng(8);
  nn::Model m;
  m.add<nn::Conv1D>(1, 4, 6)->init(rng);
  const auto qm = quantize_model(m, {1, 20}, rng);
  expect_bit_exact(qm, random_tensor({1, 20}, rng));
}

class BcmBitExact : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BcmBitExact, BothScalingModes) {
  const std::size_t k = GetParam();
  Rng rng(9 + k);
  nn::Model m;
  m.add<nn::BcmDense>(2 * k, k, k)->init(rng);
  const auto qm = quantize_model(m, {2 * k}, rng);
  const auto x = random_tensor({2 * k}, rng);
  expect_bit_exact(qm, x, dsp::FftScaling::kBlockFloat);
  expect_bit_exact(qm, x, dsp::FftScaling::kFixedScale);
}

INSTANTIATE_TEST_SUITE_P(Blocks, BcmBitExact, ::testing::Values(8u, 16u, 32u, 64u));

TEST(Kernels, BcmPaddedBitExact) {
  Rng rng(10);
  nn::Model m;
  m.add<nn::BcmDense>(21, 16, 16)->init(rng);  // pads 21 -> 32
  const auto qm = quantize_model(m, {21}, rng);
  expect_bit_exact(qm, random_tensor({21}, rng));
}

TEST(Kernels, FullPipelineBitExact) {
  Rng rng(11);
  nn::Model m;
  m.add<nn::Conv2D>(1, 4, 5, 5)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::MaxPool2D>();
  m.add<nn::Flatten>();
  m.add<nn::BcmDense>(4 * 6 * 6, 32, 32)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::Dense>(32, 5)->init(rng);
  const auto qm = quantize_model(m, {1, 16, 16}, rng);
  expect_bit_exact(qm, random_tensor({1, 16, 16}, rng));
}

TEST(Kernels, MnistModelBitExact) {
  Rng rng(12);
  nn::Model m = models::make_mnist_model(rng);
  const auto qm = quantize_model(m, {1, 28, 28}, rng);
  expect_bit_exact(qm, random_tensor({1, 28, 28}, rng));
}

// ---- resume contract -------------------------------------------------------

TEST(Kernels, ConvResumeFromUnitMatchesFullRun) {
  Rng rng(13);
  nn::Model m;
  m.add<nn::Conv2D>(1, 3, 3, 3)->init(rng);
  const auto qm = quantize_model(m, {1, 8, 8}, rng);
  const auto x = random_tensor({1, 8, 8}, rng);
  const auto qin = quant::quantize_input(qm, x);

  auto run_with_restart = [&](std::size_t restart_unit) {
    dev::Device dev;
    const CompiledModel cm = compile(qm, dev);
    for (std::size_t i = 0; i < qin.size(); ++i) dev.fram().poke(cm.act_a + i, qin[i]);
    ExecCtx ctx{dev, cm, 0, cm.act_in(0), cm.act_out(0), dsp::FftScaling::kBlockFloat,
                nullptr};
    UnitHooks hooks;
    run_layer(ctx, 0, hooks);
    // Simulate losing SRAM and re-running the tail from restart_unit.
    Rng srng(99);
    dev.sram().scramble(srng);
    run_layer(ctx, restart_unit, hooks);
    const auto& l = qm.layers[0];
    std::vector<q15_t> out(l.out_size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = dev.fram().peek(cm.act_out(0) + i);
    return out;
  };

  const auto full = run_with_restart(0);
  for (std::size_t u : {1u, 5u, 17u}) {
    EXPECT_EQ(run_with_restart(u), full) << "restart at " << u;
  }
}

TEST(Kernels, UnitCounts) {
  Rng rng(14);
  nn::Model m = models::make_mnist_model(rng);
  const auto qm = quantize_model(m, {1, 28, 28}, rng);
  EXPECT_EQ(unit_count(qm.layers[0]), 6u * 24u);        // conv rows
  EXPECT_EQ(unit_count(qm.layers[7]), 2u);              // BCM block rows
  EXPECT_EQ(unit_count(qm.layers[9]), 1u);              // dense: one chunk
}

TEST(Acc, RoundTrip32And64) {
  dev::Device dev;
  write_acc32(dev, dev::MemKind::kSram, 0, 3, -123456789);
  EXPECT_EQ(read_acc32(dev, dev::MemKind::kSram, 0, 3), -123456789);
  write_acc64(dev, dev::MemKind::kSram, 100, 2, -1234567890123456789ll);
  EXPECT_EQ(read_acc64(dev, dev::MemKind::kSram, 100, 2), -1234567890123456789ll);
}

}  // namespace
}  // namespace ehdnn::ace
