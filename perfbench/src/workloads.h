// The benchmark's three workloads (continuous, harvest, fleet) and the
// metrics they report. See perfbench/NOTES.md for why each workload
// exists and which end-to-end metric each per-layer metric should move.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;  // continuous | harvest | fleet
  std::uint64_t seed = 1;
  double seconds = 10.0;  // timed-phase length
  bool trace = false;     // per-layer (traced) run instead of end-to-end
  std::string root = ".";  // checkout root: traces/ and configs/ live here
  std::string spans_out;   // traced runs: span CSV destination ("" = none)
};

struct RunResult {
  bool correct = true;
  long attempted = 0;  // inferences (fleet: jobs) checked
  long failed = 0;     // ... of which failed a correctness check
  std::vector<Metric> metrics;
};

const std::vector<std::string>& workload_names();

// Runs one workload end to end: set-up, timed phase, correctness checks.
// Throws ehdnn::Error on an unknown workload or unreadable input files.
RunResult run_benchmark(const RunConfig& cfg);

// One simulated inference (fleet: one job) reduced to
// its modeled outcome; two runs of the same seed must produce equal
// records whether traced or not.
struct InferRecord {
  int unit = 0;     // task x runtime device index (fleet: device id)
  long index = 0;   // inference index on that device
  int outcome = 0;  // flex::Outcome
  bool livelock = false;
  double on_s = 0.0, off_s = 0.0, energy_j = 0.0, ckpt_energy_j = 0.0;
  long reboots = 0, checkpoints = 0, progress_commits = 0;
  long units_executed = 0, units_total = 0;
  std::uint64_t output_hash = 0;
  bool operator==(const InferRecord&) const = default;
};

// The workload's fixed quota (the inferences the sim_* metrics are
// computed over), run once untraced or traced from a fresh set-up.
struct QuotaRun {
  std::vector<InferRecord> records;
  std::vector<Metric> sim;
};
QuotaRun run_quota(const std::string& workload, std::uint64_t seed, const std::string& root,
                   bool traced);

}  // namespace perfbench
