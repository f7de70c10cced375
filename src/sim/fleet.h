// The fleet engine: N independent intermittent devices stepped against
// time-offset views of one harvest environment — the population-scale
// artifact on the road from a single-device reproduction to "millions of
// users".
//
// Since the scheduling subsystem landed, a fleet is heterogeneous and
// duty-cycled: devices are declared in GROUPS (count x {task, runtime,
// capacitor, FRAM geometry, agenda}), each device runs a recurring
// inference agenda (sched::JobQueue) instead of one inference, and
// `adaptive` devices carry both model variants co-resident and let
// sched::AdaptivePolicy pick runtime + variant at every boot. Groups are
// parsed from a fleet config file (see parse_fleet_config), so new
// populations are new configs, no code.
//
// Execution is one loop over device ids (util/parallel.h parallel_for):
// each item builds its device, steps its agenda to completion, distills
// the result and destroys the device, so only one device per worker is
// resident at once — which is what makes 10^5-device populations fit in
// memory. A parked device costs one step: the capacitor idles to the next
// release in closed form. Per-device results stream into FleetSink
// implementations (record/merge/finalize); the built-in aggregation sink
// folds completed-job latencies into mergeable quantile sketches
// (util/qsketch.h) instead of materializing per-job arrays.
//
// Devices are fully independent, so the report — and the bytes of
// FLEET.json, schema ehdnn-fleet-v6 — is identical whether the population
// ran on one thread, a worker pool (FleetRunOptions::jobs), or split
// across processes as shards (run_shard + merge_fleet_shards):
// every aggregation path sorts by device id and sums in id order, and
// sketch merges are bin-wise integer adds, so no floating-point result
// depends on completion order.
//
// Observability (schema v6): every device carries an obs::EventTrace in
// counts-only mode — the per-kind totals stream through the same sorted
// row funnel into the report's `metrics` block — and devices named in
// FleetRunOptions::trace_devices additionally retain their event ring for
// export (Chrome trace_event JSON / deterministic text). Events are
// stamped with the device's own supply clock, so traces are byte-stable
// across --jobs and --shards just like the JSON.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/flex/runtime.h"
#include "models/zoo.h"
#include "obs/export.h"
#include "sched/agenda.h"

namespace ehdnn::power {
class HarvestSource;
}  // namespace ehdnn::power

namespace ehdnn::sim {

// One homogeneous slice of the population.
struct FleetGroup {
  std::string name = "group";
  int count = 1;
  models::Task task = models::Task::kMnist;
  sched::DeviceAgenda agenda;     // runtime key, jobs, period, deadline
  double capacitance_f = 10e-6;   // per-device buffer
  double max_off_s = 30.0;        // starvation guard
  long max_reboots = 100000;
  // Executor futile-boot watchdog (RunOptions::max_futile_boots): N
  // consecutive boots banking nothing end the job as the "livelock"
  // verdict. 0 (default) disables it; micro-capacitor groups set it.
  long max_futile = 0;
  // Adaptive-scheduler spec override ("adaptive:rich=...,demote=...");
  // empty = defaults. Only meaningful when agenda.runtime == "adaptive".
  std::string sched_spec;
  // Per-device FRAM words; 0 = auto-sized to fit this group's compiled
  // image(s) (both variants for adaptive) plus slack (sim::fit_fram_words).
  std::size_t fram_words = 0;
};

struct FleetConfig {
  std::string source = "trace:path=traces/rf_office.csv";
  // Device i's harvest view is shifted by i * offset_spread_s / N.
  double offset_spread_s = 1.0;
  std::uint64_t seed = 0xb0a710ad;  // model weights + per-device/job inputs
  // Per-device reporting depth (fleet line `detail=full|aggregate`):
  // full keeps every device's job records for the per_device JSON block;
  // aggregate keeps only streaming counters and sketches — the mode that
  // lets 100k-device artifacts stay a few KB instead of hundreds of MB.
  bool per_device_detail = true;
  std::vector<FleetGroup> groups;

  int total_devices() const;
};

// Parses the line-oriented fleet config format:
//
//   # comment
//   fleet source=SPEC spread=S seed=N [detail=full|aggregate]
//   group name=ID count=N task=mnist runtime=adaptive cap=10e-6
//         jobs=3 period=0.2 deadline=1.5 [max_off=S] [reboots=N]
//         [max_futile=N] [sched=adaptive:...] [fram=WORDS]
//                                               (one line per group)
//
// Tokens are whitespace-separated key=value pairs; the `fleet` line is
// optional (defaults above) and allowed at most once. Malformed entries —
// negative capacitance, zero-count or duplicate-name groups, zero-period
// agendas, unknown runtime keys or tasks, duplicate/unknown keys — throw
// ehdnn::Error.
FleetConfig parse_fleet_config(std::istream& is);
FleetConfig parse_fleet_config_file(const std::string& path);

// Writes `cfg` back in the config-file format, round-trippable through
// parse_fleet_config (doubles as %.17g). The shard partial format echoes
// the config this way so merge_fleet_shards can verify every shard ran
// the same population and rebuild the report header.
void write_fleet_config(std::ostream& os, const FleetConfig& cfg);

struct FleetRunOptions {
  // Worker threads. Devices are fully independent, so the report is
  // byte-identical for any value; 1 = one device after another, in id
  // order, on the calling thread.
  int jobs = 1;
  bool verbose = false;  // per-device line to stderr
  // At most this many devices are built at once: caps the worker count
  // (each worker holds one device). Bounds peak memory at
  // O(min(jobs, max_resident)), not O(population).
  int max_resident = 1024;
  // Re-run the SAME population with every agenda's runtime forced to
  // each of these fixed keys and record jobs-completed/in-deadline —
  // the "adaptive vs best fixed runtime" comparison in FLEET.json.
  std::vector<std::string> baseline_runtimes;
  // Re-run the SAME population with energy-budgeted admission forced off
  // (admit=all) and record the comparison — the evidence that skipping
  // infeasible releases improves the fleet's deadline rate.
  bool compare_admission = false;
  // Internal (used by the compare_admission rerun): force every adaptive
  // group's admission mode to admit=all regardless of its sched spec.
  bool force_admit_all = false;
  // Host wall-clock phase attribution (--profile): recharge vs kernel vs
  // checkpoint vs engine time. Serial runs only (workers would share
  // one sink unsynchronized); null = no instrumentation. run()/run_shard()
  // THROW when profile is set together with jobs > 1 — the request used
  // to be silently ignored, which read as "the run was profiled" when it
  // was not.
  flex::PhaseProfile* profile = nullptr;
  // Devices whose event ring is retained for export (--trace-devices).
  // Every device always collects counts-only events for the metrics
  // block; listing an id here additionally keeps its most recent
  // `trace_capacity` events as a FleetReport::traces capture. Ids must be
  // in [0, N); baseline/admission reruns never capture.
  std::vector<int> trace_devices;
  long trace_capacity = 65536;
};

// One device's agenda outcome, plus its fleet coordinates. `jobs` is
// populated only while the device's records are in hand (sinks see it at
// record() time); under detail=aggregate nothing retains it afterwards.
struct FleetDeviceResult {
  int device = 0;
  std::string group;
  double offset_s = 0.0;
  std::string task;
  std::string runtime;
  double capacitance_f = 0.0;
  std::vector<sched::JobRecord> jobs;
  int jobs_total = 0;
  int jobs_completed = 0;
  int jobs_in_deadline = 0;
  int jobs_skipped = 0;  // admission-refused releases (skipped_infeasible)
  int jobs_dnf = 0;      // did-not-finish (excluding livelock)
  int jobs_starved = 0;
  int jobs_livelock = 0;  // DNF via the futile-boot watchdog
  long reboots = 0;
  long tier_switches = 0;
  double energy_j = 0.0;
  double energy_reclaimed_j = 0.0;  // admission's estimated savings
  long steps = 0;  // scheduler slices (executor slices + agenda arms)
  // Per-kind lifecycle event totals (counts-only EventTrace; always
  // collected) — what the report's `metrics` block sums.
  long event_counts[obs::kKindCount] = {};
  // Retained ring, only for devices named in trace_devices.
  bool trace_selected = false;
  std::vector<obs::Event> trace_events;
  long trace_dropped = 0;
  long trace_total = 0;
};

// A fixed-runtime rerun of the same population (FleetRunOptions::
// baseline_runtimes).
struct FleetBaseline {
  std::string runtime;
  int jobs_completed = 0;
  int jobs_in_deadline = 0;
};

struct FleetReport {
  FleetConfig config;
  // Per-device results in device-id order; empty under detail=aggregate.
  std::vector<FleetDeviceResult> devices;

  int total_jobs = 0;
  int jobs_completed = 0;
  int jobs_in_deadline = 0;
  int jobs_dnf = 0;
  int jobs_starved = 0;
  int jobs_livelock = 0;
  // Energy-budgeted admission: releases refused as infeasible (counted
  // separately from DNF — the run never started) and the lower-bound
  // energy those skips reclaimed for later releases.
  int jobs_skipped = 0;
  double energy_reclaimed_j = 0.0;
  double completion_rate = 0.0;  // completed / total jobs
  double deadline_rate = 0.0;    // in-deadline / total jobs
  // Nearest-rank percentiles over completed jobs, seconds — estimated
  // from the streaming quantile sketches (relative error sketch_rel_err);
  // min/max are exact.
  double sketch_rel_err = 0.0;
  double latency_p50_s = 0.0, latency_p90_s = 0.0, latency_p99_s = 0.0, latency_max_s = 0.0;
  double staleness_p50_s = 0.0, staleness_p90_s = 0.0, staleness_p99_s = 0.0,
         staleness_max_s = 0.0;
  long total_reboots = 0;
  long total_tier_switches = 0;
  long total_steps = 0;
  double total_energy_j = 0.0;

  std::vector<FleetBaseline> baselines;

  // FleetRunOptions::compare_admission rerun (admit forced to all); the
  // `runtime` field is repurposed as the literal "admit=all".
  std::vector<FleetBaseline> admission_baseline;

  // Lifecycle metrics from the MAIN run only (baseline/admission reruns
  // excluded): "event.<name>" counters summed over every device,
  // "trace.dropped_events" over the captured rings, and the
  // "fleet.max_device_reboots" gauge. Merged bin-wise, so every execution
  // path serializes the same block.
  obs::MetricsRegistry metrics;
  // Retained event rings for FleetRunOptions::trace_devices, sorted by
  // device id — the input to obs::write_chrome_trace / write_text_trace.
  std::vector<obs::TraceCapture> traces;
};

// Observer of per-device results. record() is called once per device as
// agendas complete — the order is unspecified (worker pools and shards
// retire devices differently) and calls are serialized by the engine, so
// implementations need no locking but MUST be order-independent (sort by
// FleetDeviceResult::device at finalize, accumulate only order-free state
// in record). merge() folds another sink of the same concrete type — a
// shard's — into this one; finalize() runs once after every device (or
// merged shard) has been recorded.
class FleetSink {
 public:
  virtual ~FleetSink() = default;
  virtual void record(const FleetDeviceResult& d) = 0;
  virtual void merge(const FleetSink& other) = 0;
  virtual void finalize() = 0;
};

// Builds and runs one fleet population. Construction validates the
// config, builds its harvest source once (the one instance every device's
// offset view and every baseline rerun shares) and throws on unknown
// runtime keys, malformed harvest specs or unreadable trace files (fail
// fast, before any device boots). Each run compiles one image per group
// (sim/recipe.h: FRAM fitted unless the group pins it) and builds each
// device when its turn comes, stamped from its group's image by
// sim::provision.
//
//   FleetReport r = FleetEngine(cfg).add_sink(my_sink).run(opts);
//
// run() drives every device's agenda to completion, feeds each result to
// the attached sinks (plus the engine's internal aggregation sinks) and
// returns the deterministic report. run_shard() runs only the shard's
// contiguous device range and streams a mergeable partial artifact
// (schema ehdnn-fleet-shard-v2: v1 plus per-row event counts and the
// shard's retained trace captures) instead; merge_fleet_shards() folds
// the complete set of partials into the identical FleetReport —
// byte-for-byte the JSON that `--shards 1` produces, traces included.
class FleetEngine {
 public:
  explicit FleetEngine(FleetConfig cfg);

  // Attaches a non-owning sink; must outlive run()/run_shard().
  FleetEngine& add_sink(FleetSink& sink);

  FleetReport run(const FleetRunOptions& opts = {});

  // Runs devices [shard*n/shards, (shard+1)*n/shards) and writes the
  // partial artifact. Baseline/admission reruns are whole-population
  // operations and are rejected here.
  void run_shard(std::ostream& os, int shard, int shards, const FleetRunOptions& opts = {});

 private:
  // A baseline rerun: the same population's source, a rewritten config.
  FleetEngine(FleetConfig cfg, std::shared_ptr<const power::HarvestSource> source);

  FleetConfig cfg_;
  std::shared_ptr<const power::HarvestSource> source_;
  std::vector<FleetSink*> sinks_;
};

// Merges a complete set of shard partials (one per shard, any order)
// into the population's FleetReport. Verifies every partial echoes the
// same config and that the shard ranges tile [0, N) exactly.
FleetReport merge_fleet_shards(const std::vector<std::string>& paths);

// FLEET.json, schema ehdnn-fleet-v6 (see BENCHMARKS.md "Observability"
// for the v5 -> v6 reader notes: the report gains a "metrics" block —
// "event.*" lifecycle counters plus gauges — between "aggregate" and
// "baselines"; every other field is byte-identical to v5. v4 -> v5 made
// percentiles streaming-sketch estimates with exact max, added
// "livelock"/"total_steps" and the "detail" header; v3 -> v4 added the
// per-job "livelock" verdict and the max_futile echo, v2 -> v3 the
// "skipped_infeasible" verdict and the admission block).
void write_fleet_json(std::ostream& os, const FleetReport& r);

}  // namespace ehdnn::sim
