// The MSP430FR5994-class device model: CPU + LEA + DMA + SRAM + FRAM,
// costed by CostModel, powered through PowerSupply.
//
// Every method that represents on-device work (1) computes its cycle and
// energy cost, (2) draws that energy from the supply, throwing
// PowerFailure on brown-out, and (3) applies its architectural effect to
// the real memory contents. Mutating operations that touch non-volatile
// FRAM are word-granular so a power failure can leave a partially written
// FRAM region — exactly the hazard the intermittent runtimes must handle.
// LEA operations read and write SRAM only, so their all-or-nothing
// modelling is unobservable (SRAM is scrambled at reboot anyway).
// mac_block is the one LEA multiply-accumulate entry point (conv, FC and
// BCM kernels all run through it): an exact 64-bit sum that reports no
// overflow; the real block's 32-bit accumulator rule is fx::vec_mac's.
//
// Default geometry matches the evaluation board: 8 KB SRAM (4 K words),
// 256 KB FRAM (128 K words), 16 MHz. The LEA owns no memory of its own; it
// operates on SRAM like the real block (which shares the lower SRAM bank).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "device/cost_model.h"
#include "device/energy_trace.h"
#include "device/memory.h"
#include "device/power_interface.h"
#include "dsp/fft.h"
#include "fixed/cq15.h"

namespace ehdnn::dev {

struct DeviceConfig {
  std::size_t sram_words = 4 * 1024;    // 8 KB
  std::size_t fram_words = 128 * 1024;  // 256 KB
  CostModel cost;
  std::uint64_t scramble_seed = 0xdeadbeef;
};

class Device {
 public:
  explicit Device(DeviceConfig cfg = {});

  // Attach the supply (non-owning). Without one the device is on bench
  // power: nothing ever fails.
  void attach_supply(PowerSupply* supply) {
    supply_ = supply;
    prepay_supported_ = supply != nullptr && supply->prepay_safe();
    // One capacity-sized reservation up front keeps the per-spend
    // push_back growth-free for the window's whole lifetime.
    if (prepay_supported_) prepaid_.reserve(kPrepaidMaxEvents);
  }
  PowerSupply* supply() { return supply_; }
  const PowerSupply* supply() const { return supply_; }

  MemoryRegion& sram() { return sram_; }
  MemoryRegion& fram() { return fram_; }
  const MemoryRegion& sram() const { return sram_; }
  const MemoryRegion& fram() const { return fram_; }
  MemoryRegion& region(MemKind k) { return k == MemKind::kSram ? sram_ : fram_; }

  EnergyTrace& trace() { return trace_; }
  const EnergyTrace& trace() const { return trace_; }
  const CostModel& cost() const { return cfg_.cost; }
  // The construction-time geometry/cost configuration — what a scratch
  // replica of this device must be built from (the scheduler's
  // completion-model calibration runs on such replicas).
  const DeviceConfig& config() const { return cfg_; }

  double elapsed_cycles() const { return trace_.total_cycles(); }
  double elapsed_seconds() const { return cfg_.cost.seconds(trace_.total_cycles()); }
  long reboots() const { return reboots_; }

  // ---- CPU ------------------------------------------------------------
  // n generic ALU cycles (loop control, compares, pointer arithmetic).
  void cpu_ops(double n_ops);
  // One 16x16+32 software MAC through the MPY32 peripheral (operands must
  // already be in registers; memory traffic is charged separately).
  void cpu_mac_cycles();

  // Costed word accesses from the CPU.
  fx::q15_t read(MemKind mem, Addr a);
  void write(MemKind mem, Addr a, fx::q15_t v);

  // ---- bulk CPU accesses ----------------------------------------------
  // Block transfers with the exact cost model of the equivalent scalar
  // read()/write() sequence, charged as ONE bounds check and ONE
  // aggregated cost/energy event per call instead of one per word. When
  // the supply's headroom cannot cover a whole block, every bulk entry
  // point falls back to the scalar per-word sequence, so a brown-out
  // mid-block leaves the same word-granular clean FRAM prefix AND the
  // same prefix-only trace/supply accounting the scalar path would.
  // (Under a *time-varying* harvest source the aggregated draw samples
  // income once per block, so later failure timing may shift vs. the
  // scalar path — see PowerSupply::headroom; outputs and cost totals are
  // unaffected.)
  //
  // set_bulk_enabled(false) forces every bulk entry point through the
  // scalar per-word loops — the reference mode the perf harness and the
  // equivalence tests compare against.
  bool bulk_enabled() const { return bulk_enabled_; }
  void set_bulk_enabled(bool on) { bulk_enabled_ = on; }

  // out[i] = mem[a + i], costed as out.size() scalar reads.
  void read_block(MemKind mem, Addr a, std::span<fx::q15_t> out);
  // mem[a + i] = v[i], costed as v.size() scalar writes.
  void write_block(MemKind mem, Addr a, std::span<const fx::q15_t> v);
  // Gathered read: out[i] = mem[base + offsets[i]]. `span_words` bounds
  // the window [base, base + span_words) that all offsets fall in — the
  // single range check that replaces the per-word ones. A caller whose
  // offsets are in-span BY CONSTRUCTION (the compile-time gather plans:
  // LayerPlan records span = max offset + 1 while building the table)
  // passes offsets_in_span=true to skip the per-element guard; the
  // invariant is still assert()-checked in debug builds.
  void read_gather(MemKind mem, Addr base, std::span<const std::uint32_t> offsets,
                   std::size_t span_words, std::span<fx::q15_t> out,
                   bool offsets_in_span = false);
  // CPU copy loop (the non-DMA arm of ACE's data-movement decision):
  // per word, 2 ALU ops + one read + one write, charged as three
  // aggregated events. Torn-prefix semantics preserved for FRAM
  // destinations as with write_block.
  void cpu_copy(MemKind src_mem, Addr src, MemKind dst_mem, Addr dst, std::size_t words);

  // ---- DMA ------------------------------------------------------------
  // Bulk copy; word-granular effect application so FRAM writes can be
  // torn by a power failure.
  void dma_copy(MemKind src_mem, Addr src, MemKind dst_mem, Addr dst, std::size_t words);

  // ---- LEA vector ops (SRAM operands only) ------------------------------
  // MAC, the one LEA multiply-accumulate entry point: sum of a[i] * b[i]
  // over n q15 SRAM words at `a` and `b`, in Q30 units. The simulation
  // accumulates in 64 bits and reports no overflow; the real block's
  // 32-bit accumulator and its Q31 overflow rule live in fx::vec_mac
  // (fixed/vec.h), the reference the device result is tested against.
  std::int64_t mac_block(Addr a, Addr b, std::size_t n);

  // Element-wise ops.
  void lea_add(Addr a, Addr b, Addr out, std::size_t n, fx::SatStats* stats = nullptr);
  void lea_mpy(Addr a, Addr b, Addr out, std::size_t n, fx::SatStats* stats = nullptr);
  void lea_shift(Addr a, Addr out, std::size_t n, int left_shift,
                 fx::SatStats* stats = nullptr);
  // Complex multiply over interleaved (re,im) buffers of n complex elems.
  void lea_cmul(Addr a, Addr b, Addr out, std::size_t n, fx::SatStats* stats = nullptr);

  // In-place FFT/IFFT over n interleaved complex elements at `a`
  // (2n words). Returns the scaling exponent increment (see dsp/fft.h).
  int lea_fft(Addr a, std::size_t n, dsp::FftScaling scaling, fx::SatStats* stats = nullptr);
  int lea_ifft(Addr a, std::size_t n, dsp::FftScaling scaling, fx::SatStats* stats = nullptr);

  // ---- power ------------------------------------------------------------
  // Reboot after a power failure: SRAM scrambled, FRAM retained.
  // (The runtime decides what to do next; boot-time cost is charged.)
  void reboot();

  // Sample the supply voltage (the FLEX voltage-monitor read; costs a few
  // CPU cycles for the comparator/ADC poll). Settles any open prepaid
  // window first — the comparator reads the true, settled store.
  double sample_voltage();

  // ---- prepaid-headroom settlement --------------------------------------
  // Against a prepay_safe() supply, spend() arms a window from
  // PowerSupply::prepaid_budget() and buffers draws against a local
  // accumulator instead of routing each through virtual consume(). The
  // buffered draws are replayed in order (consume_batch) at settlement
  // points — slice boundaries (the executor calls settle_supply), voltage
  // samples, and any state-dependent query — so supply-side arithmetic,
  // income sampling, and failure instants are bit-identical to per-op
  // settlement. Draws the budget cannot cover settle per-op, which is
  // what keeps brown-out instants (and the fuzzer's schedules) exact.
  void settle_supply();
  bool prepaid_window_open() const { return prepaid_open_; }

 private:
  // Settlement windows are bounded so the supply's budget slack
  // (PowerSupply::prepaid_budget) covers the worst-case replay rounding.
  static constexpr std::size_t kPrepaidMaxEvents = 4096;

  // Every costed op funnels through here, ~10M times per fleet-bench
  // device-second — so the common case (an open prepaid window with
  // budget to spare) is inline: cost arithmetic, trace bookkeeping, and
  // one buffered event. Everything else (settlement, arming a new
  // window, per-op consume near brown-out) is the out-of-line tail.
  void spend(Rail rail, double cycles, double extra_energy_joules,
             double active_power_watts) {
    const double dt = cfg_.cost.seconds(cycles);
    const double joules = active_power_watts * dt + extra_energy_joules;
    trace_.add(rail, joules, cycles);
    if (supply_ == nullptr) return;
    if (prepaid_open_ && joules <= prepaid_budget_ &&
        prepaid_.size() < kPrepaidMaxEvents) {
      prepaid_budget_ -= joules;
      prepaid_.push_back({joules, dt});
      return;
    }
    spend_slow(joules, dt);
  }
  void spend_slow(double joules, double dt);

  // Construction-time image of what spend() computes for a fixed-cycle
  // op — the scalar word accesses and the MPY32 MAC run millions of
  // times with constant cost, so the division and energy arithmetic are
  // done once, with identical rounding (the ctor evaluates the exact
  // spend() expressions).
  struct FixedOpCost {
    double cycles = 0.0, dt = 0.0, joules = 0.0;
  };
  FixedOpCost fixed_cost(double cycles, double extra_energy_joules,
                         double active_power_watts) const {
    const double dt = cfg_.cost.seconds(cycles);
    return {cycles, dt, active_power_watts * dt + extra_energy_joules};
  }
  void spend_fixed(Rail rail, const FixedOpCost& c) {
    trace_.add(rail, c.joules, c.cycles);
    if (supply_ == nullptr) return;
    if (prepaid_open_ && c.joules <= prepaid_budget_ &&
        prepaid_.size() < kPrepaidMaxEvents) {
      prepaid_budget_ -= c.joules;
      prepaid_.push_back({c.joules, c.dt});
      return;
    }
    spend_slow(c.joules, c.dt);
  }

  // True when an aggregated draw of `joules` provably cannot brown out,
  // so per-word accounting can be collapsed without changing which FRAM
  // words commit before a failure. (Non-const: deciding may require
  // settling the prepaid window to read true headroom.)
  bool can_bulk_spend(double joules);
  // Total joules spend() would draw for `cycles` at `watts` plus extras.
  double spend_joules(double cycles, double extra_energy_joules, double watts) const {
    return watts * cfg_.cost.seconds(cycles) + extra_energy_joules;
  }

  DeviceConfig cfg_;
  FixedOpCost c_sram_rd_, c_sram_wr_, c_fram_rd_, c_fram_wr_, c_cpu_mac_;
  MemoryRegion sram_;
  MemoryRegion fram_;
  EnergyTrace trace_;
  PowerSupply* supply_ = nullptr;
  Rng scramble_rng_;
  long reboots_ = 0;
  bool bulk_enabled_ = true;
  bool prepay_supported_ = false;  // cached supply->prepay_safe()
  bool prepaid_open_ = false;
  double prepaid_budget_ = 0.0;    // remaining armed budget (joules)
  std::vector<SpendEvent> prepaid_;
  std::vector<fx::cq15> fft_scratch_;  // reused by lea_fft/lea_ifft
};

}  // namespace ehdnn::dev
