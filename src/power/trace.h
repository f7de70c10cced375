// Timestamped power traces: the scenario engine's stand-in for real
// harvested-power recordings (RF energy in an office, a solar cell under
// moving clouds, a piezo harvester on a machine tool).
//
// A trace is a list of (time, watts) samples parsed from CSV; the
// TraceHarvestSource replays it as a HarvestSource with zero-order-hold or
// linear interpolation, optionally looping with period equal to the
// trace's time span. See BENCHMARKS.md "Scenarios" for the file format.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "power/harvest.h"

namespace ehdnn::power {

struct TracePoint {
  double t = 0.0;      // seconds, strictly increasing within a trace
  double watts = 0.0;  // harvested power, >= 0
};

// A parsed trace. Timestamps are kept as read (not shifted); the source
// normalizes to the first sample's time.
struct PowerTrace {
  std::vector<TracePoint> points;

  bool empty() const { return points.empty(); }
  // Time covered from first to last sample (0 for a single-point trace).
  double span_s() const {
    return points.empty() ? 0.0 : points.back().t - points.front().t;
  }
};

// CSV parser. Format, one sample per row: `time_s,power_w` (whitespace
// around fields ignored; `#` starts a comment line; one optional header
// row is skipped). Throws ehdnn::Error on an empty trace, a malformed
// row, a negative power, or non-monotonic timestamps.
PowerTrace parse_trace_csv(std::istream& in, const std::string& origin = "<stream>");
PowerTrace load_trace_csv(const std::string& path);

enum class TraceInterp {
  kZeroOrderHold,  // hold each sample's power until the next sample
  kLinear,         // interpolate linearly between samples
};

// Replays a PowerTrace as power-versus-time. Time is measured from the
// trace's first sample. When looping, the replay period is the trace's
// span and the seam (last sample back to first) is a step — record traces
// that end where they begin if a smooth loop matters. Without looping the
// trace holds its last sample's power forever.
class TraceHarvestSource : public HarvestSource {
 public:
  explicit TraceHarvestSource(PowerTrace trace, TraceInterp interp = TraceInterp::kLinear,
                              bool loop = true, double scale = 1.0);

  double power_at(double t) const override;
  // Piecewise-constant only under zero-order hold: boundaries fall on the
  // trace's sample times (and the loop seam). Linear interpolation varies
  // continuously, so it opts out (returns t) and its draws settle through
  // power_run instead of the supply's segment cache.
  double next_change_s(double t) const override;
  // power_at's arithmetic along a run, with a sample cursor and a cycle
  // base kept on the stack: the binary search runs only when the local
  // time leaves the cursor's interval, and the loop residue fmod(t, span)
  // comes from an exact two-subtraction form until t crosses a seam.
  void power_run(const double* t, double* p, std::size_t n) const override;

  double span_s() const { return trace_.span_s(); }
  bool loops() const { return loop_; }

 private:
  PowerTrace trace_;
  TraceInterp interp_;
  bool loop_;
  double scale_;
};

}  // namespace ehdnn::power
