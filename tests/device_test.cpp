#include <gtest/gtest.h>

#include "device/device.h"
#include "dsp/fft.h"
#include "fixed/vec.h"
#include "power/capacitor.h"
#include "power/continuous.h"
#include "util/rng.h"

namespace ehdnn::dev {
namespace {

using fx::q15_t;

TEST(MemoryRegion, PeekPokeAndBounds) {
  MemoryRegion m(MemKind::kSram, 16);
  m.poke(3, 1234);
  EXPECT_EQ(m.peek(3), 1234);
  EXPECT_THROW(m.peek(16), Error);
  EXPECT_THROW(m.poke(99, 0), Error);
}

TEST(MemoryRegion, AllocatorTracksSegments) {
  MemoryRegion m(MemKind::kFram, 100);
  const Addr a = m.alloc(30, "a");
  const Addr b = m.alloc(50, "b");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 30u);
  EXPECT_EQ(m.free_words(), 20u);
  EXPECT_THROW(m.alloc(21, "too-big"), Error);
  m.reset_allocator();
  EXPECT_EQ(m.free_words(), 100u);
}

TEST(MemoryRegion, ScrambleChangesContents) {
  MemoryRegion m(MemKind::kSram, 64);
  for (Addr a = 0; a < 64; ++a) m.poke(a, 7);
  Rng rng(1);
  m.scramble(rng);
  int unchanged = 0;
  for (Addr a = 0; a < 64; ++a) unchanged += m.peek(a) == 7 ? 1 : 0;
  EXPECT_LT(unchanged, 8);
}

TEST(Device, GeometryDefaults) {
  Device d;
  EXPECT_EQ(d.sram().size_bytes(), 8u * 1024u);   // 8 KB SRAM
  EXPECT_EQ(d.fram().size_bytes(), 256u * 1024u); // 256 KB FRAM
}

TEST(Device, EnergyAndCyclesAccumulate) {
  Device d;
  const double e0 = d.trace().total_energy();
  d.cpu_ops(100);
  EXPECT_GT(d.trace().total_energy(), e0);
  EXPECT_DOUBLE_EQ(d.trace().total_cycles(), 100.0);
  EXPECT_DOUBLE_EQ(d.elapsed_seconds(), 100.0 / d.cost().cpu_hz);
}

TEST(Device, RailBreakdownSumsToTotal) {
  Device d;
  d.cpu_ops(10);
  d.write(MemKind::kSram, 0, 1);
  d.write(MemKind::kFram, 0, 1);
  d.dma_copy(MemKind::kFram, 0, MemKind::kSram, 1, 4);
  double sum = 0.0;
  for (std::size_t r = 0; r < static_cast<std::size_t>(Rail::kCount); ++r) {
    sum += d.trace().energy(static_cast<Rail>(r));
  }
  EXPECT_NEAR(sum, d.trace().total_energy(), 1e-18);
}

TEST(Device, FramWriteCostsMoreThanSram) {
  Device a, b;
  a.write(MemKind::kSram, 0, 1);
  b.write(MemKind::kFram, 0, 1);
  EXPECT_GT(b.trace().total_energy(), a.trace().total_energy());
}

TEST(Device, DmaCopiesData) {
  Device d;
  for (Addr i = 0; i < 8; ++i) d.fram().poke(i, static_cast<q15_t>(100 + i));
  d.dma_copy(MemKind::kFram, 0, MemKind::kSram, 16, 8);
  for (Addr i = 0; i < 8; ++i) EXPECT_EQ(d.sram().peek(16 + i), 100 + i);
}

TEST(Device, DmaCheaperThanCpuLoopForBulk) {
  Device a, b;
  constexpr std::size_t kWords = 64;
  a.dma_copy(MemKind::kFram, 0, MemKind::kSram, 0, kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    b.cpu_ops(2);
    b.write(MemKind::kSram, i, b.read(MemKind::kFram, i));
  }
  EXPECT_LT(a.trace().total_cycles(), b.trace().total_cycles());
  EXPECT_LT(a.trace().total_energy(), b.trace().total_energy());
}

TEST(Device, LeaMacMatchesVecMac) {
  Device d;
  Rng rng(2);
  constexpr std::size_t kN = 37;
  std::vector<q15_t> a(kN), b(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = fx::to_q15(rng.uniform(-1.0, 1.0));
    b[i] = fx::to_q15(rng.uniform(-1.0, 1.0));
    d.sram().poke(i, a[i]);
    d.sram().poke(100 + i, b[i]);
  }
  const auto ref = fx::vec_mac(a, b);
  EXPECT_EQ(d.mac_block(0, 100, kN), ref.acc_q30);
}

TEST(Device, LeaMacFasterThanCpuMacs) {
  Device lea_dev, cpu_dev;
  constexpr std::size_t kN = 64;
  lea_dev.mac_block(0, 100, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    cpu_dev.read(MemKind::kSram, i);
    cpu_dev.read(MemKind::kSram, 100 + i);
    cpu_dev.cpu_mac_cycles();
  }
  EXPECT_LT(lea_dev.trace().total_cycles(), cpu_dev.trace().total_cycles());
  EXPECT_LT(lea_dev.trace().total_energy(), cpu_dev.trace().total_energy());
}

TEST(Device, LeaFftMatchesDspFft) {
  Device d;
  Rng rng(3);
  constexpr std::size_t kN = 32;
  std::vector<fx::cq15> ref(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ref[i] = {fx::to_q15(rng.uniform(-0.5, 0.5)), fx::to_q15(rng.uniform(-0.5, 0.5))};
    d.sram().poke(2 * i, ref[i].re);
    d.sram().poke(2 * i + 1, ref[i].im);
  }
  const int exp_ref = dsp::fft_q15(ref, dsp::FftScaling::kBlockFloat);
  const int exp_dev = d.lea_fft(0, kN, dsp::FftScaling::kBlockFloat);
  EXPECT_EQ(exp_dev, exp_ref);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(d.sram().peek(2 * i), ref[i].re);
    EXPECT_EQ(d.sram().peek(2 * i + 1), ref[i].im);
  }
}

TEST(Device, LeaElementwiseOps) {
  Device d;
  d.sram().poke(0, fx::to_q15(0.5));
  d.sram().poke(1, fx::to_q15(-0.25));
  d.sram().poke(10, fx::to_q15(0.25));
  d.sram().poke(11, fx::to_q15(0.25));
  d.lea_add(0, 10, 20, 2);
  EXPECT_NEAR(fx::to_double(d.sram().peek(20)), 0.75, 1e-4);
  EXPECT_NEAR(fx::to_double(d.sram().peek(21)), 0.0, 1e-4);
  d.lea_mpy(0, 10, 30, 2);
  EXPECT_NEAR(fx::to_double(d.sram().peek(30)), 0.125, 1e-4);
  d.lea_shift(0, 40, 2, -1);
  EXPECT_NEAR(fx::to_double(d.sram().peek(40)), 0.25, 1e-4);
}

TEST(Device, RebootScramblesSramKeepsFram) {
  Device d;
  d.sram().poke(5, 4321);
  d.fram().poke(5, 8765);
  d.reboot();
  EXPECT_EQ(d.fram().peek(5), 8765);
  // SRAM is scrambled; the probability it kept its value is ~2^-16.
  // Check a batch of addresses to make flakiness negligible.
  d.sram().poke(1, 1111);
  d.sram().poke(2, 2222);
  d.sram().poke(3, 3333);
  d.reboot();
  const bool all_kept = d.sram().peek(1) == 1111 && d.sram().peek(2) == 2222 &&
                        d.sram().peek(3) == 3333;
  EXPECT_FALSE(all_kept);
  EXPECT_EQ(d.reboots(), 2);
}

TEST(Device, PowerFailurePropagatesFromSupply) {
  // A capacitor too small to fund the requested work browns out.
  power::ConstantSource src(0.0);  // no harvest
  power::CapacitorConfig cfg;
  cfg.capacitance_f = 1e-7;  // tiny: ~0.6 uJ usable
  power::CapacitorSupply supply(src, cfg);
  Device d;
  d.attach_supply(&supply);
  EXPECT_THROW(
      {
        for (int i = 0; i < 100000; ++i) d.cpu_ops(100);
      },
      PowerFailure);
  EXPECT_FALSE(supply.on());
}

TEST(Device, DmaTornByPowerFailureLeavesPrefix) {
  power::ConstantSource src(0.0);
  power::CapacitorConfig cfg;
  cfg.capacitance_f = 1e-7;
  power::CapacitorSupply supply(src, cfg);
  Device d;
  for (Addr i = 0; i < 512; ++i) d.sram().poke(i, 77);
  for (Addr i = 0; i < 512; ++i) d.fram().poke(1000 + i, 0);
  d.attach_supply(&supply);
  bool failed = false;
  std::size_t copied = 0;
  try {
    // Repeat transfers until the capacitor dies mid-copy.
    for (int rep = 0; rep < 100000; ++rep) d.dma_copy(MemKind::kSram, 0, MemKind::kFram, 1000, 512);
  } catch (const PowerFailure&) {
    failed = true;
    for (Addr i = 0; i < 512; ++i) copied += d.fram().peek(1000 + i) == 77 ? 1u : 0u;
  }
  EXPECT_TRUE(failed);
  // Some prefix landed; word-granular effects mean no garbage values.
  EXPECT_GT(copied, 0u);
}

TEST(Device, VoltageSampleCostsCycles) {
  power::ContinuousPower supply;
  Device d;
  d.attach_supply(&supply);
  const double c0 = d.trace().total_cycles();
  EXPECT_DOUBLE_EQ(d.sample_voltage(), 3.3);
  EXPECT_GT(d.trace().total_cycles(), c0);
}

TEST(EnergyTrace, SnapshotDelta) {
  EnergyTrace t;
  t.add(Rail::kCpu, 1.0, 10.0);
  const auto s = t.snapshot();
  t.add(Rail::kLea, 2.0, 20.0);
  const auto d = t.delta(s);
  EXPECT_DOUBLE_EQ(d.energy, 2.0);
  EXPECT_DOUBLE_EQ(d.cycles, 20.0);
}

TEST(CostModel, FftCyclesScaleNLogN) {
  Device d;
  Device d2;
  d.lea_fft(0, 64, dsp::FftScaling::kFixedScale);
  d2.lea_fft(0, 128, dsp::FftScaling::kFixedScale);
  const double c64 = d.trace().cycles(Rail::kLea);
  const double c128 = d2.trace().cycles(Rail::kLea);
  // 128 log 128 / 64 log 64 = (64*7)/(32*6) ~ 2.33
  EXPECT_NEAR(c128 / c64, (64.0 * 7.0 * 4.0 + 40.0) / (32.0 * 6.0 * 4.0 + 40.0), 0.01);
}

}  // namespace
}  // namespace ehdnn::dev
