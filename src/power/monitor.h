// Voltage-monitor support for FLEX's on-demand checkpointing (SSIII-C):
// "with the help of a voltage monitor system, FLEX predicts a power
// failure and checkpoints the latest intermediate result."
//
// The warn threshold is sized so that the energy left between v_warn and
// v_off covers the worst-case checkpoint plus a safety margin — i.e. once
// the monitor fires, FLEX is guaranteed to get its state into FRAM before
// the brown-out.
#pragma once

#include <cmath>

#include "power/capacitor.h"

namespace ehdnn::power {

// Smallest v_warn such that C/2 (v_warn^2 - v_off^2) >= energy_budget.
inline double warn_voltage_for(const CapacitorConfig& cfg, double energy_budget_j,
                               double safety_factor = 2.0) {
  const double need = energy_budget_j * safety_factor;
  const double v2 = cfg.v_off * cfg.v_off + 2.0 * need / cfg.capacitance_f;
  return std::sqrt(v2);
}

// The warn threshold every FLEX deployment uses: the worst-case
// checkpoint plus a 5 uJ margin, with a 3x safety factor.
inline double flex_warn_voltage(const CapacitorConfig& cfg, double worst_checkpoint_j) {
  return warn_voltage_for(cfg, worst_checkpoint_j + 5e-6, 3.0);
}

}  // namespace ehdnn::power
