// Cycle and energy cost model for the MSP430FR5994-class target.
//
// Constants are derived from public TI documentation:
//   * MSP430FR5994 datasheet (SLASE54): active-mode supply current
//     ~118 uA/MHz at 3.0 V -> ~5.7 mW at 16 MHz; FRAM reads insert wait
//     states above 8 MHz; FRAM write energy is a few times SRAM's.
//   * LEA application report (SLAA720): LEA completes vector ops in
//     ~1 cycle/element with a fixed command-issue overhead, adding roughly
//     a third of the CPU's active power while running, and the CPU can
//     sleep meanwhile.
//   * DMA: ~2 cycles/word transferred plus a small setup cost.
//
// Absolute joules are NOT claimed to match the authors' EnergyTrace
// measurements; what matters for the reproduction is that the *relative*
// costs (CPU MAC vs LEA MAC, SRAM vs FRAM, CPU copy vs DMA) sit in the
// datasheet-supported ranges, so the paper's ratios emerge from the same
// mechanics. BENCHMARKS.md "Paper claims" records paper-vs-simulated for
// Fig. 7 and Sec. IV-A.5 (PAPER_CLAIMS.json).
#pragma once

namespace ehdnn::dev {

struct CostModel {
  // --- clock ---------------------------------------------------------
  double cpu_hz = 16.0e6;

  // --- active power per rail (watts) ----------------------------------
  double p_cpu_active = 5.7e-3;  // CPU executing
  double p_lea_active = 2.1e-3;  // LEA running (CPU may sleep: not added)
  double p_dma_active = 1.1e-3;  // DMA burst (CPU stalled/sleeping)

  // --- per-word access energy (joules/16-bit word) --------------------
  double e_sram_read = 1.1e-11;
  double e_sram_write = 1.3e-11;
  double e_fram_read = 2.2e-11;   // ~2x SRAM read
  double e_fram_write = 5.5e-11;  // ~4-5x SRAM write

  // --- CPU cycle costs -------------------------------------------------
  double cycles_cpu_op = 1.0;    // register ALU op
  double cycles_cpu_mac = 9.0;   // 16x16+32 MAC through the MPY32 peripheral
  double cycles_sram_word = 2.0; // CPU load/store, SRAM
  double cycles_fram_word = 3.0; // CPU load/store, FRAM (wait states @16MHz)

  // --- DMA -------------------------------------------------------------
  double cycles_dma_setup = 12.0;
  double cycles_dma_word = 2.0;

  // --- LEA kernel cycle models ------------------------------------------
  double lea_setup = 40.0;             // command word + interrupt epilogue
  double lea_mac_per_elem = 1.0;
  double lea_add_per_elem = 1.0;
  double lea_mpy_per_elem = 1.0;
  double lea_cmul_per_elem = 4.0;      // complex multiply = 4 real MACs
  double lea_shift_per_elem = 1.0;
  double lea_fft_per_butterfly = 4.0;  // radix-2 butterfly

  double seconds(double cycles) const { return cycles / cpu_hz; }
};

}  // namespace ehdnn::dev
