// Bulk-vs-scalar device-access equivalence: the bulk fast paths
// (read_block / write_block / read_gather / mac_block / cpu_copy /
// dma_copy, and the kernels built on them) must be observationally
// identical to the scalar per-word reference path — same memory contents,
// same modeled cycle and energy totals per rail, and the same
// word-granular FRAM commit behavior across a mid-block brown-out.
// Plus the MAC against its fx::vec_mac reference, the vec_mac
// 32-bit-accumulator edge cases at the exact Q31 boundaries, and FftPlan
// cache thread safety.

#include <gtest/gtest.h>

#include <thread>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "device/device.h"
#include "dsp/fft.h"
#include "fixed/vec.h"
#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/simple_layers.h"
#include "power/continuous.h"
#include "quant/quantize.h"
#include "util/rng.h"

namespace ehdnn::dev {
namespace {

using fx::q15_t;

// Deterministic fixed-budget supply (no harvest income): brown-out occurs
// at an exactly computable word within a block write.
class BudgetSupply : public PowerSupply {
 public:
  explicit BudgetSupply(double joules) : budget_(joules) {}

  bool consume(double joules, double dt) override {
    now_ += dt;
    budget_ -= joules;
    if (budget_ < 0.0) {
      on_ = false;
      return false;
    }
    return true;
  }
  double voltage() const override { return on_ ? 3.3 : 0.0; }
  double headroom() const override { return std::max(budget_, 0.0); }
  bool on() const override { return on_; }
  double recharge_to_on() override {
    budget_ = recharge_to_;
    on_ = true;
    return 1.0;
  }
  double now() const override { return now_; }

  void set_recharge_budget(double joules) { recharge_to_ = joules; }

 private:
  double budget_;
  double recharge_to_ = 0.0;
  bool on_ = true;
  double now_ = 0.0;
};

constexpr double kRelTol = 1e-9;  // n*x vs x+x+...+x FP association slack

void expect_traces_match(const Device& a, const Device& b) {
  for (std::size_t r = 0; r < static_cast<std::size_t>(Rail::kCount); ++r) {
    const auto rail = static_cast<Rail>(r);
    EXPECT_NEAR(a.trace().energy(rail), b.trace().energy(rail),
                kRelTol * (std::abs(b.trace().energy(rail)) + 1e-30))
        << "energy rail " << rail_name(rail);
    EXPECT_NEAR(a.trace().cycles(rail), b.trace().cycles(rail),
                kRelTol * (std::abs(b.trace().cycles(rail)) + 1e-30))
        << "cycle rail " << rail_name(rail);
  }
}

void expect_memory_match(const Device& a, const Device& b, MemKind mem, Addr base,
                         std::size_t n) {
  const MemoryRegion& ra = mem == MemKind::kSram ? a.sram() : a.fram();
  const MemoryRegion& rb = mem == MemKind::kSram ? b.sram() : b.fram();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(ra.peek(base + i), rb.peek(base + i)) << "word " << base + i;
  }
}

// Drives the same access sequence through both devices.
template <typename Fn>
void run_both(Device& bulk, Device& scalar, Fn&& fn) {
  bulk.set_bulk_enabled(true);
  scalar.set_bulk_enabled(false);
  fn(bulk);
  fn(scalar);
}

TEST(BulkAccess, BlockReadWriteGatherMacMatchScalar) {
  Device bulk, scalar;
  Rng rng(42);
  std::vector<q15_t> data(256);
  for (auto& v : data) v = static_cast<q15_t>(rng.next_u64());
  std::vector<std::uint32_t> offsets = {0, 7, 3, 128, 255, 16, 16, 9};

  std::vector<q15_t> out_bulk, out_scalar;
  std::int64_t mac_bulk = 0, mac_scalar = 0;
  auto drive = [&](Device& d, std::vector<q15_t>& out, std::int64_t& mac) {
    d.write_block(MemKind::kFram, 100, data);
    d.cpu_copy(MemKind::kFram, 100, MemKind::kSram, 0, 256);
    d.dma_copy(MemKind::kSram, 0, MemKind::kSram, 512, 256);
    out.assign(256 + offsets.size(), 0);
    d.read_block(MemKind::kSram, 512, std::span<q15_t>(out.data(), 256));
    d.read_gather(MemKind::kSram, 0, offsets, 256,
                  std::span<q15_t>(out.data() + 256, offsets.size()));
    mac = d.mac_block(0, 512, 256);
  };
  bulk.set_bulk_enabled(true);
  scalar.set_bulk_enabled(false);
  drive(bulk, out_bulk, mac_bulk);
  drive(scalar, out_scalar, mac_scalar);

  EXPECT_EQ(out_bulk, out_scalar);
  EXPECT_EQ(mac_bulk, mac_scalar);
  expect_memory_match(bulk, scalar, MemKind::kFram, 100, 256);
  expect_memory_match(bulk, scalar, MemKind::kSram, 0, 768);
  expect_traces_match(bulk, scalar);
}

// The LEA MAC's bulk arm (a widening reduction the compiler vectorizes)
// against its per-word peek arm and the fx::vec_mac reference, over
// lengths around every vector width and at unaligned SRAM addresses.
// The all -32768 operands drive the sum to n * 2^30 (2^42 at n = 4096)
// and the -32768 x 32767 operands to its most negative value, so any
// narrower-than-int64 partial sum in the vector code shows up here.
TEST(BulkAccess, MacBlockMatchesScalarAndVecMac) {
  constexpr std::size_t kMaxN = 4096;
  constexpr Addr kA = 1;              // odd word address: unaligned
  constexpr Addr kB = kA + kMaxN + 2;  // disjoint from a, also unaligned
  DeviceConfig cfg;
  cfg.sram_words = kB + kMaxN + 3;
  enum class Fill { kRandom, kMaxPositive, kMaxNegative };
  Rng rng(0x3ac);
  for (const Fill fill : {Fill::kRandom, Fill::kMaxPositive, Fill::kMaxNegative}) {
    for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 15u, 16u, 17u, 255u, 256u, 512u,
                                4095u, 4096u}) {
      std::vector<q15_t> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        switch (fill) {
          case Fill::kRandom:
            a[i] = static_cast<q15_t>(rng.next_u64());
            b[i] = static_cast<q15_t>(rng.next_u64());
            break;
          case Fill::kMaxPositive:
            a[i] = b[i] = -32768;
            break;
          case Fill::kMaxNegative:
            a[i] = -32768;
            b[i] = 32767;
            break;
        }
      }
      Device bulk(cfg), scalar(cfg);
      std::int64_t acc_bulk = 0, acc_scalar = 0;
      run_both(bulk, scalar, [&](Device& d) {
        for (std::size_t i = 0; i < n; ++i) {
          d.sram().poke(kA + i, a[i]);
          d.sram().poke(kB + i, b[i]);
        }
        (d.bulk_enabled() ? acc_bulk : acc_scalar) = d.mac_block(kA, kB, n);
      });
      const std::int64_t want = fx::vec_mac(a, b).acc_q30;
      EXPECT_EQ(acc_bulk, want) << "n=" << n << " fill=" << static_cast<int>(fill);
      EXPECT_EQ(acc_scalar, want) << "n=" << n << " fill=" << static_cast<int>(fill);
      expect_traces_match(bulk, scalar);
    }
  }
}

// FRAM write accounting across a mid-block reboot: with a supply that can
// only pay for part of the block, the bulk path must fall back to
// word-granular commits and leave exactly the prefix the scalar path
// leaves — then finish identically after the reboot.
TEST(BulkAccess, TornFramWriteAcrossRebootMatchesScalar) {
  constexpr std::size_t kN = 64;
  std::vector<q15_t> data(kN);
  for (std::size_t i = 0; i < kN; ++i) data[i] = static_cast<q15_t>(1000 + i);

  auto torn_run = [&](bool bulk_mode) {
    Device d;
    d.set_bulk_enabled(bulk_mode);
    // Budget for roughly half the block's FRAM writes.
    const CostModel& cm = d.cost();
    const double per_word =
        cm.e_fram_write + cm.p_cpu_active * cm.cycles_fram_word / cm.cpu_hz;
    BudgetSupply supply(per_word * (kN / 2) + per_word * 0.5);
    supply.set_recharge_budget(1.0);  // effectively unlimited after reboot
    d.attach_supply(&supply);
    // Sentinel so untouched words are provably untouched.
    for (std::size_t i = 0; i < kN; ++i) d.fram().poke(i, -7);
    bool failed = false;
    try {
      d.write_block(MemKind::kFram, 0, data);
    } catch (const PowerFailure&) {
      failed = true;
    }
    EXPECT_TRUE(failed);
    // Count the committed prefix.
    std::size_t prefix = 0;
    while (prefix < kN && d.fram().peek(prefix) == data[prefix]) ++prefix;
    for (std::size_t i = prefix; i < kN; ++i) EXPECT_EQ(d.fram().peek(i), -7);
    // Reboot (FRAM retained) and re-issue the whole block.
    supply.recharge_to_on();
    d.reboot();
    d.write_block(MemKind::kFram, 0, data);
    return std::pair<std::size_t, double>(prefix, d.trace().total_energy());
  };

  const auto [prefix_bulk, energy_bulk] = torn_run(true);
  const auto [prefix_scalar, energy_scalar] = torn_run(false);
  EXPECT_GT(prefix_bulk, 0u);
  EXPECT_LT(prefix_bulk, kN);
  EXPECT_EQ(prefix_bulk, prefix_scalar);
  EXPECT_NEAR(energy_bulk, energy_scalar, kRelTol * energy_scalar);
}

// Whole-model equivalence: every layer kind through the real kernels.
TEST(BulkAccess, FullModelBitExactAndCostIdentical) {
  Rng rng(7);
  nn::Model m;
  m.add<nn::Conv2D>(2, 4, 3, 3)->init(rng);
  m.add<nn::MaxPool2D>();
  m.add<nn::ReLU>();
  m.add<nn::Flatten>();
  m.add<nn::BcmDense>(64, 64, 32)->init(rng);
  m.add<nn::ReLU>();
  m.add<nn::Dense>(64, 10)->init(rng);

  const std::vector<std::size_t> shape{2, 10, 10};
  std::vector<nn::Tensor> calib;
  for (int i = 0; i < 4; ++i) {
    nn::Tensor t(shape);
    for (std::size_t j = 0; j < t.size(); ++j) {
      t[j] = static_cast<float>(rng.uniform(-0.9, 0.9));
    }
    calib.push_back(std::move(t));
  }
  const auto qm = quant::quantize(m, calib, shape);
  nn::Tensor x(shape);
  for (std::size_t j = 0; j < x.size(); ++j) {
    x[j] = static_cast<float>(rng.uniform(-0.9, 0.9));
  }
  const auto qin = quant::quantize_input(qm, x);

  auto run = [&](bool bulk_mode) {
    Device d;
    d.set_bulk_enabled(bulk_mode);
    power::ContinuousPower supply;
    d.attach_supply(&supply);
    const auto cm = ace::compile(qm, d);
    auto policy = flex::make_ace_policy();
    auto st = flex::IntermittentExecutor(*policy).run(d, cm, qin, {});
    EXPECT_TRUE(st.completed());
    return std::tuple<std::vector<q15_t>, double, double>(
        st.output, d.trace().total_cycles(), d.trace().total_energy());
  };
  const auto [out_bulk, cyc_bulk, e_bulk] = run(true);
  const auto [out_scalar, cyc_scalar, e_scalar] = run(false);
  EXPECT_EQ(out_bulk, out_scalar);
  EXPECT_NEAR(cyc_bulk, cyc_scalar, kRelTol * cyc_scalar);
  EXPECT_NEAR(e_bulk, e_scalar, kRelTol * e_scalar);
}

}  // namespace
}  // namespace ehdnn::dev

namespace ehdnn::fx {
namespace {

// vec_mac's overflowed_q31 must flip exactly past the ±Q31 boundaries —
// the contract the LEA MAC's 32-bit hardware accumulator imposes.
TEST(VecMacOverflow, ExactQ31MaxIsNotOverflow) {
  // (-2^15)^2 + 1*(-1) + (-2^15)^2 = 2^31 - 1 = INT32_MAX exactly, with
  // every partial sum inside the range (the flag watches partial sums).
  const std::vector<q15_t> a{-32768, 1, -32768};
  const std::vector<q15_t> b{-32768, -1, -32768};
  const MacResult r = vec_mac(a, b);
  EXPECT_EQ(r.acc_q30, std::numeric_limits<q31_t>::max());
  EXPECT_FALSE(r.overflowed_q31);
}

TEST(VecMacOverflow, OnePastQ31MaxOverflows) {
  // 2^30 + 2^30 = 2^31 = INT32_MAX + 1.
  const std::vector<q15_t> a{-32768, -32768};
  const std::vector<q15_t> b{-32768, -32768};
  const MacResult r = vec_mac(a, b);
  EXPECT_EQ(r.acc_q30, std::int64_t{1} << 31);
  EXPECT_TRUE(r.overflowed_q31);
}

TEST(VecMacOverflow, ExactQ31MinIsNotOverflow) {
  // 2 * (-32768 * 32767) + (-32768 * 2) = -2^31 = INT32_MIN exactly.
  const std::vector<q15_t> a{-32768, -32768, -32768};
  const std::vector<q15_t> b{32767, 32767, 2};
  const MacResult r = vec_mac(a, b);
  EXPECT_EQ(r.acc_q30, std::numeric_limits<q31_t>::min());
  EXPECT_FALSE(r.overflowed_q31);
}

TEST(VecMacOverflow, OnePastQ31MinOverflows) {
  const std::vector<q15_t> a{-32768, -32768, -32768, 1};
  const std::vector<q15_t> b{32767, 32767, 2, -1};
  const MacResult r = vec_mac(a, b);
  EXPECT_EQ(r.acc_q30, static_cast<std::int64_t>(std::numeric_limits<q31_t>::min()) - 1);
  EXPECT_TRUE(r.overflowed_q31);
}

TEST(VecMacOverflow, TransientOverflowStaysFlagged) {
  // Exceed +Q31 then fall back inside the range: the flag must stay set,
  // exactly as the wrapped hardware accumulator would have corrupted the
  // sum even though the final value fits.
  const std::vector<q15_t> a{-32768, -32768, -32768, -32768};
  const std::vector<q15_t> b{-32768, -32768, 32767, 32767};
  const MacResult r = vec_mac(a, b);
  EXPECT_EQ(r.acc_q30, 65536);  // back in range
  EXPECT_TRUE(r.overflowed_q31);
}

}  // namespace
}  // namespace ehdnn::fx

namespace ehdnn::dsp {
namespace {

// FftPlan cache: concurrent first-touch from many threads must neither
// race nor invalidate previously returned references.
TEST(FftPlanCache, ThreadSafeFirstTouch) {
  const std::vector<std::size_t> sizes{8, 16, 32, 64, 128, 256, 512};
  const FftPlan* first = &fft_plan(8);
  std::vector<std::thread> threads;
  std::vector<const FftPlan*> got(8 * sizes.size(), nullptr);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t, &sizes, &got] {
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        got[static_cast<std::size_t>(t) * sizes.size() + i] = &fft_plan(sizes[i]);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Same size -> same stable plan object, with coherent contents.
  for (int t = 0; t < 8; ++t) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const FftPlan* p = got[static_cast<std::size_t>(t) * sizes.size() + i];
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(p, &fft_plan(sizes[i]));
      EXPECT_EQ(p->n, sizes[i]);
      EXPECT_EQ(p->twiddles.size(), sizes[i] / 2);
    }
  }
  EXPECT_EQ(first, &fft_plan(8));
  EXPECT_EQ(&twiddles_q15(64), &fft_plan(64).twiddles);
}

}  // namespace
}  // namespace ehdnn::dsp
