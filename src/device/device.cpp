#include "device/device.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "util/math.h"

namespace ehdnn::dev {

Device::Device(DeviceConfig cfg)
    : cfg_(cfg),
      c_sram_rd_(fixed_cost(cfg.cost.cycles_sram_word, cfg.cost.e_sram_read,
                            cfg.cost.p_cpu_active)),
      c_sram_wr_(fixed_cost(cfg.cost.cycles_sram_word, cfg.cost.e_sram_write,
                            cfg.cost.p_cpu_active)),
      c_fram_rd_(fixed_cost(cfg.cost.cycles_fram_word, cfg.cost.e_fram_read,
                            cfg.cost.p_cpu_active)),
      c_fram_wr_(fixed_cost(cfg.cost.cycles_fram_word, cfg.cost.e_fram_write,
                            cfg.cost.p_cpu_active)),
      c_cpu_mac_(fixed_cost(cfg.cost.cycles_cpu_mac, 0.0, cfg.cost.p_cpu_active)),
      sram_(MemKind::kSram, cfg.sram_words),
      fram_(MemKind::kFram, cfg.fram_words),
      scramble_rng_(cfg.scramble_seed) {}

// The inline fast path in device.h already buffered the draw when the
// open window could take it; this tail sees only window-refused draws:
// settle, then either arm a fresh window or fall back to per-op consume.
void Device::spend_slow(double joules, double dt) {
  if (prepaid_open_) {
    settle_supply();
  }
  if (prepay_supported_) {
    const double budget = supply_->prepaid_budget();
    if (joules <= budget) {
      prepaid_open_ = true;
      prepaid_budget_ = budget - joules;
      prepaid_.push_back({joules, dt});
      return;
    }
  }
  // Near brown-out (or against a supply that opted out): per-op
  // settlement, so the failure lands on exactly the op it would have.
  if (!supply_->consume(joules, dt)) {
    throw PowerFailure{};
  }
}

void Device::settle_supply() {
  if (!prepaid_open_) return;
  prepaid_open_ = false;
  prepaid_budget_ = 0.0;
  const std::size_t n = prepaid_.size();
  const std::size_t done = supply_->consume_batch(prepaid_.data(), n);
  prepaid_.clear();
  if (done != n) {
    // The budget guarantee (prepaid_budget's slack) makes this
    // unreachable; a brown-out here would mean ops whose architectural
    // effects already landed were never paid for.
    fail("prepaid settlement browned out: budget invariant violated");
  }
}

void Device::cpu_ops(double n_ops) {
  const CostModel& cm = cfg_.cost;
  // Kernels batch whole blocks of ALU work into one call; near brown-out,
  // fall back to op-granular spends so a dying burst's trace and supply
  // drain stop where per-op accounting would have stopped them.
  if (n_ops > 1.0 && !can_bulk_spend(spend_joules(n_ops * cm.cycles_cpu_op, 0.0,
                                                  cm.p_cpu_active))) {
    double remaining = n_ops;
    while (remaining > 0.0) {
      const double step = std::min(1.0, remaining);
      spend(Rail::kCpu, step * cm.cycles_cpu_op, 0.0, cm.p_cpu_active);
      remaining -= step;
    }
    return;
  }
  spend(Rail::kCpu, n_ops * cm.cycles_cpu_op, 0.0, cm.p_cpu_active);
}

void Device::cpu_mac_cycles() { spend_fixed(Rail::kCpu, c_cpu_mac_); }

fx::q15_t Device::read(MemKind mem, Addr a) {
  if (mem == MemKind::kSram) {
    spend_fixed(Rail::kSramRead, c_sram_rd_);
    return sram_.peek(a);
  }
  spend_fixed(Rail::kFramRead, c_fram_rd_);
  return fram_.peek(a);
}

void Device::write(MemKind mem, Addr a, fx::q15_t v) {
  if (mem == MemKind::kSram) {
    spend_fixed(Rail::kSramWrite, c_sram_wr_);
    sram_.poke(a, v);
    return;
  }
  spend_fixed(Rail::kFramWrite, c_fram_wr_);
  fram_.poke(a, v);
}

bool Device::can_bulk_spend(double joules) {
  if (supply_ == nullptr) return true;
  // Within the open window's remaining budget the draw provably succeeds
  // (true headroom only exceeds the budget: income adds, every buffered
  // draw was already debited), so no settlement is needed to decide.
  if (prepaid_open_) {
    if (joules <= prepaid_budget_) return true;
    settle_supply();  // decision needs the true, settled headroom
  }
  return joules <= supply_->headroom();
}

namespace {

// Same-region overlapping copies must replay the scalar forward loop:
// its word-by-word self-propagation (read of an already-written word) is
// the architectural behavior, and memmove would diverge from it.
bool ranges_overlap(Addr a, Addr b, std::size_t n) {
  return a < b + n && b < a + n;
}

}  // namespace

void Device::read_block(MemKind mem, Addr a, std::span<fx::q15_t> out) {
  const std::size_t n = out.size();
  if (n == 0) return;
  const CostModel& cm = cfg_.cost;
  const auto dn = static_cast<double>(n);
  const double cycles =
      dn * (mem == MemKind::kSram ? cm.cycles_sram_word : cm.cycles_fram_word);
  const double extra = dn * (mem == MemKind::kSram ? cm.e_sram_read : cm.e_fram_read);
  // Near brown-out, replay the scalar sequence so the dying burst's trace
  // and supply drain stop at exactly the word the scalar path reaches.
  if (!bulk_enabled_ || !can_bulk_spend(spend_joules(cycles, extra, cm.p_cpu_active))) {
    for (std::size_t i = 0; i < n; ++i) out[i] = read(mem, a + i);
    return;
  }
  const auto src = region(mem).view(a, n);
  spend(mem == MemKind::kSram ? Rail::kSramRead : Rail::kFramRead, cycles, extra,
        cm.p_cpu_active);
  std::memcpy(out.data(), src.data(), n * sizeof(fx::q15_t));
}

void Device::write_block(MemKind mem, Addr a, std::span<const fx::q15_t> v) {
  const std::size_t n = v.size();
  if (n == 0) return;
  const CostModel& cm = cfg_.cost;
  const auto dn = static_cast<double>(n);
  const double cycles =
      dn * (mem == MemKind::kSram ? cm.cycles_sram_word : cm.cycles_fram_word);
  const double extra =
      dn * (mem == MemKind::kSram ? cm.e_sram_write : cm.e_fram_write);
  // Near brown-out, replay the scalar sequence: a failure then leaves the
  // same word-granular clean prefix (the FRAM intermittency contract) and
  // the same prefix-only trace/supply accounting.
  const bool word_granular =
      !bulk_enabled_ || !can_bulk_spend(spend_joules(cycles, extra, cm.p_cpu_active));
  if (word_granular) {
    for (std::size_t i = 0; i < n; ++i) write(mem, a + i, v[i]);
    return;
  }
  auto dst = region(mem).mut_view(a, n);
  spend(mem == MemKind::kSram ? Rail::kSramWrite : Rail::kFramWrite, cycles, extra,
        cm.p_cpu_active);
  std::memcpy(dst.data(), v.data(), n * sizeof(fx::q15_t));
}

void Device::read_gather(MemKind mem, Addr base, std::span<const std::uint32_t> offsets,
                         std::size_t span_words, std::span<fx::q15_t> out,
                         bool offsets_in_span) {
  const std::size_t n = offsets.size();
  check(out.size() == n, "read_gather: offsets/out size mismatch");
  if (n == 0) return;
  const CostModel& cm = cfg_.cost;
  const auto dn = static_cast<double>(n);
  const double cycles =
      dn * (mem == MemKind::kSram ? cm.cycles_sram_word : cm.cycles_fram_word);
  const double extra = dn * (mem == MemKind::kSram ? cm.e_sram_read : cm.e_fram_read);
  if (!bulk_enabled_ || !can_bulk_spend(spend_joules(cycles, extra, cm.p_cpu_active))) {
    for (std::size_t i = 0; i < n; ++i) out[i] = read(mem, base + offsets[i]);
    return;
  }
  const auto src = region(mem).view(base, span_words);
  spend(mem == MemKind::kSram ? Rail::kSramRead : Rail::kFramRead, cycles, extra,
        cm.p_cpu_active);
  if (offsets_in_span) {
    // The caller's gather table carries span = max offset + 1 as a
    // construction invariant; the window view above already range-checked
    // [base, base + span), so the per-element guard is pure overhead.
    for (std::size_t i = 0; i < n; ++i) {
      assert(offsets[i] < span_words);
      out[i] = src[offsets[i]];
    }
    return;
  }
  // Bare compare + [[noreturn]] fail keeps the guard out of the hot
  // path's way (check()'s source_location capture is measurably costly
  // per element at this call rate).
  for (std::size_t i = 0; i < n; ++i) {
    if (offsets[i] >= span_words) fail("read_gather: offset outside declared span");
    out[i] = src[offsets[i]];
  }
}

void Device::cpu_copy(MemKind src_mem, Addr src, MemKind dst_mem, Addr dst,
                      std::size_t words) {
  const CostModel& cm = cfg_.cost;
  if (words == 0) return;
  const auto dn = static_cast<double>(words);
  const double rd_cycles =
      dn * (src_mem == MemKind::kSram ? cm.cycles_sram_word : cm.cycles_fram_word);
  const double rd_extra = dn * (src_mem == MemKind::kSram ? cm.e_sram_read : cm.e_fram_read);
  const double wr_cycles =
      dn * (dst_mem == MemKind::kSram ? cm.cycles_sram_word : cm.cycles_fram_word);
  const double wr_extra = dn * (dst_mem == MemKind::kSram ? cm.e_sram_write : cm.e_fram_write);
  const double total_joules =
      spend_joules(2.0 * dn * cm.cycles_cpu_op + rd_cycles + wr_cycles, rd_extra + wr_extra,
                   cm.p_cpu_active);
  const bool word_granular =
      !bulk_enabled_ || (src_mem == dst_mem && ranges_overlap(src, dst, words)) ||
      !can_bulk_spend(total_joules);
  if (word_granular) {
    for (std::size_t i = 0; i < words; ++i) {
      cpu_ops(2);  // address update + loop check
      write(dst_mem, dst + i, read(src_mem, src + i));
    }
    return;
  }
  const auto s = region(src_mem).view(src, words);
  auto d = region(dst_mem).mut_view(dst, words);
  cpu_ops(2.0 * dn);
  spend(src_mem == MemKind::kSram ? Rail::kSramRead : Rail::kFramRead, rd_cycles, rd_extra,
        cm.p_cpu_active);
  spend(dst_mem == MemKind::kSram ? Rail::kSramWrite : Rail::kFramWrite, wr_cycles, wr_extra,
        cm.p_cpu_active);
  std::memcpy(d.data(), s.data(), words * sizeof(fx::q15_t));
}

void Device::dma_copy(MemKind src_mem, Addr src, MemKind dst_mem, Addr dst,
                      std::size_t words) {
  spend(Rail::kDma, cfg_.cost.cycles_dma_setup, 0.0, cfg_.cost.p_dma_active);
  MemoryRegion& s = region(src_mem);
  MemoryRegion& d = region(dst_mem);
  const CostModel& cm = cfg_.cost;
  const double e_rd = src_mem == MemKind::kSram ? cm.e_sram_read : cm.e_fram_read;
  const double e_wr = dst_mem == MemKind::kSram ? cm.e_sram_write : cm.e_fram_write;
  if (bulk_enabled_ && words > 0 &&
      !(src_mem == dst_mem && ranges_overlap(src, dst, words))) {
    const auto dn = static_cast<double>(words);
    const double cycles = dn * cm.cycles_dma_word;
    const double extra = dn * (e_rd + e_wr);
    // Same near-brown-out rule as write_block: word-granular replay keeps
    // both the torn-FRAM prefix and the dying burst's accounting exact.
    if (can_bulk_spend(spend_joules(cycles, extra, cm.p_dma_active))) {
      const auto sv = s.view(src, words);
      auto dv = d.mut_view(dst, words);
      spend(Rail::kDma, cycles, extra, cm.p_dma_active);
      std::memcpy(dv.data(), sv.data(), words * sizeof(fx::q15_t));
      return;
    }
  }
  for (std::size_t i = 0; i < words; ++i) {
    // Word effect applied only after its energy is paid: a brown-out mid
    // transfer leaves a clean prefix.
    spend(Rail::kDma, cm.cycles_dma_word, e_rd + e_wr, cm.p_dma_active);
    d.poke(dst + i, s.peek(src + i));
  }
}

std::int64_t Device::mac_block(Addr a, Addr b, std::size_t n) {
  const CostModel& cm = cfg_.cost;
  const double cycles = cm.lea_setup + cm.lea_mac_per_elem * static_cast<double>(n);
  const double e_mem = static_cast<double>(2 * n) * cm.e_sram_read;
  spend(Rail::kLea, cycles, e_mem, cm.p_lea_active);
  // Each q15 x q15 product fits int32 and n <= SRAM words keeps the int64
  // sum far from wrapping, so integer addition is exact in any order: the
  // bulk loop is a plain widening reduction the compiler vectorizes, and
  // it equals the per-word peek loop bit for bit.
  std::int64_t acc = 0;
  if (bulk_enabled_) {
    const fx::q15_t* va = sram_.view(a, n).data();
    const fx::q15_t* vb = sram_.view(b, n).data();
    for (std::size_t i = 0; i < n; ++i) acc += fx::mul_q30(va[i], vb[i]);
    return acc;
  }
  for (std::size_t i = 0; i < n; ++i) {
    acc += fx::mul_q30(sram_.peek(a + i), sram_.peek(b + i));
  }
  return acc;
}

// The LEA ops charge one aggregated spend in BOTH modes (as the seed
// implementation did), so the scalar arms below differ only in per-word
// bounds-checked peek/poke — kept deliberately: set_bulk_enabled(false)
// is the wall-clock reference the perf harness measures against, and it
// must preserve the original per-word access pattern.
void Device::lea_add(Addr a, Addr b, Addr out, std::size_t n, fx::SatStats* stats) {
  const CostModel& cm = cfg_.cost;
  spend(Rail::kLea, cm.lea_setup + cm.lea_add_per_elem * static_cast<double>(n),
        static_cast<double>(2 * n) * cm.e_sram_read + static_cast<double>(n) * cm.e_sram_write,
        cm.p_lea_active);
  if (bulk_enabled_) {
    const auto va = sram_.view(a, n);
    const auto vb = sram_.view(b, n);
    auto vo = sram_.mut_view(out, n);
    for (std::size_t i = 0; i < n; ++i) vo[i] = fx::add_sat(va[i], vb[i], stats);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    sram_.poke(out + i, fx::add_sat(sram_.peek(a + i), sram_.peek(b + i), stats));
  }
}

void Device::lea_mpy(Addr a, Addr b, Addr out, std::size_t n, fx::SatStats* stats) {
  const CostModel& cm = cfg_.cost;
  spend(Rail::kLea, cm.lea_setup + cm.lea_mpy_per_elem * static_cast<double>(n),
        static_cast<double>(2 * n) * cm.e_sram_read + static_cast<double>(n) * cm.e_sram_write,
        cm.p_lea_active);
  if (bulk_enabled_) {
    const auto va = sram_.view(a, n);
    const auto vb = sram_.view(b, n);
    auto vo = sram_.mut_view(out, n);
    for (std::size_t i = 0; i < n; ++i) vo[i] = fx::mul_q15(va[i], vb[i], stats);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    sram_.poke(out + i, fx::mul_q15(sram_.peek(a + i), sram_.peek(b + i), stats));
  }
}

void Device::lea_shift(Addr a, Addr out, std::size_t n, int left_shift, fx::SatStats* stats) {
  const CostModel& cm = cfg_.cost;
  spend(Rail::kLea, cm.lea_setup + cm.lea_shift_per_elem * static_cast<double>(n),
        static_cast<double>(n) * (cm.e_sram_read + cm.e_sram_write), cm.p_lea_active);
  if (bulk_enabled_) {
    const auto va = sram_.view(a, n);
    auto vo = sram_.mut_view(out, n);
    for (std::size_t i = 0; i < n; ++i) vo[i] = fx::shift_sat(va[i], left_shift, stats);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    sram_.poke(out + i, fx::shift_sat(sram_.peek(a + i), left_shift, stats));
  }
}

void Device::lea_cmul(Addr a, Addr b, Addr out, std::size_t n, fx::SatStats* stats) {
  const CostModel& cm = cfg_.cost;
  spend(Rail::kLea, cm.lea_setup + cm.lea_cmul_per_elem * static_cast<double>(n),
        static_cast<double>(4 * n) * cm.e_sram_read +
            static_cast<double>(2 * n) * cm.e_sram_write,
        cm.p_lea_active);
  if (bulk_enabled_) {
    const auto va = sram_.view(a, 2 * n);
    const auto vb = sram_.view(b, 2 * n);
    auto vo = sram_.mut_view(out, 2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const fx::cq15 r = fx::cmul({va[2 * i], va[2 * i + 1]}, {vb[2 * i], vb[2 * i + 1]}, stats);
      vo[2 * i] = r.re;
      vo[2 * i + 1] = r.im;
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const fx::cq15 av{sram_.peek(a + 2 * i), sram_.peek(a + 2 * i + 1)};
    const fx::cq15 bv{sram_.peek(b + 2 * i), sram_.peek(b + 2 * i + 1)};
    const fx::cq15 r = fx::cmul(av, bv, stats);
    sram_.poke(out + 2 * i, r.re);
    sram_.poke(out + 2 * i + 1, r.im);
  }
}

namespace {

double fft_cycles(const CostModel& cm, std::size_t n) {
  const double butterflies = static_cast<double>(n) / 2.0 * static_cast<double>(ilog2(n));
  return cm.lea_setup + cm.lea_fft_per_butterfly * butterflies;
}

}  // namespace

int Device::lea_fft(Addr a, std::size_t n, dsp::FftScaling scaling, fx::SatStats* stats) {
  const CostModel& cm = cfg_.cost;
  // The LEA streams the working set through its local SRAM bank; model
  // one read + one write per word per pass over log2(n) stages.
  const double passes = static_cast<double>(ilog2(n));
  spend(Rail::kLea, fft_cycles(cm, n),
        static_cast<double>(2 * n) * passes * (cm.e_sram_read + cm.e_sram_write),
        cm.p_lea_active);
  if (bulk_enabled_) {
    if (fft_scratch_.size() < n) fft_scratch_.resize(n);
    const std::span<fx::cq15> buf(fft_scratch_.data(), n);
    const auto words = sram_.mut_view(a, 2 * n);
    std::memcpy(static_cast<void*>(buf.data()), words.data(), 2 * n * sizeof(fx::q15_t));
    const int exp = dsp::fft_q15(buf, scaling, stats);
    std::memcpy(words.data(), static_cast<const void*>(buf.data()), 2 * n * sizeof(fx::q15_t));
    return exp;
  }
  std::vector<fx::cq15> buf(n);
  for (std::size_t i = 0; i < n; ++i) {
    buf[i] = {sram_.peek(a + 2 * i), sram_.peek(a + 2 * i + 1)};
  }
  const int exp = dsp::fft_q15(buf, scaling, stats);
  for (std::size_t i = 0; i < n; ++i) {
    sram_.poke(a + 2 * i, buf[i].re);
    sram_.poke(a + 2 * i + 1, buf[i].im);
  }
  return exp;
}

int Device::lea_ifft(Addr a, std::size_t n, dsp::FftScaling scaling, fx::SatStats* stats) {
  const CostModel& cm = cfg_.cost;
  const double passes = static_cast<double>(ilog2(n));
  spend(Rail::kLea, fft_cycles(cm, n),
        static_cast<double>(2 * n) * passes * (cm.e_sram_read + cm.e_sram_write),
        cm.p_lea_active);
  if (bulk_enabled_) {
    if (fft_scratch_.size() < n) fft_scratch_.resize(n);
    const std::span<fx::cq15> buf(fft_scratch_.data(), n);
    const auto words = sram_.mut_view(a, 2 * n);
    std::memcpy(static_cast<void*>(buf.data()), words.data(), 2 * n * sizeof(fx::q15_t));
    const int exp = dsp::ifft_q15(buf, scaling, stats);
    std::memcpy(words.data(), static_cast<const void*>(buf.data()), 2 * n * sizeof(fx::q15_t));
    return exp;
  }
  std::vector<fx::cq15> buf(n);
  for (std::size_t i = 0; i < n; ++i) {
    buf[i] = {sram_.peek(a + 2 * i), sram_.peek(a + 2 * i + 1)};
  }
  const int exp = dsp::ifft_q15(buf, scaling, stats);
  for (std::size_t i = 0; i < n; ++i) {
    sram_.poke(a + 2 * i, buf[i].re);
    sram_.poke(a + 2 * i + 1, buf[i].im);
  }
  return exp;
}

void Device::reboot() {
  ++reboots_;
  sram_.scramble(scramble_rng_);
  // Boot sequence: clock/FRAM controller init, reset vector dispatch.
  // Charged to the CPU rail once back on.
  spend(Rail::kCpu, 400.0, 0.0, cfg_.cost.p_cpu_active);
  if (supply_ != nullptr) supply_->notify(SupplyEvent::kReboot);
}

double Device::sample_voltage() {
  // Comparator poll: trivial but not free.
  spend(Rail::kCpu, 6.0, 0.0, cfg_.cost.p_cpu_active);
  settle_supply();  // the comparator must read the settled store
  return supply_ != nullptr ? supply_->voltage() : 3.3;
}

}  // namespace ehdnn::dev
