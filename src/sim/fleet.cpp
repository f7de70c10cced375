#include "sim/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "power/factory.h"
#include "sched/adaptive.h"
#include "sim/recipe.h"
#include "sim/scenario.h"
#include "util/check.h"
#include "util/format.h"
#include "util/parallel.h"
#include "util/parse.h"
#include "util/qsketch.h"
#include "util/rng.h"
#include "util/spec.h"

namespace ehdnn::sim {

namespace {

// Accuracy of the streaming latency/staleness percentile sketches — part
// of the v5 schema (echoed as sketch_rel_err) and of the shard-merge
// contract (sketches only merge at equal rel_err).
constexpr double kSketchRelErr = 0.01;

// One simulated device: the provisioned device (stamped from its group's
// shared CompiledImage) plus its per-job inputs and agenda. Pointer-stable
// (held by unique_ptr) because the job queue points into it.
struct FleetDevice {
  std::unique_ptr<ProvisionedDevice> dev;
  std::vector<std::vector<fx::q15_t>> inputs;  // one per job
  std::optional<sched::JobQueue> queue;        // constructed last (borrows the rest)
};

// JSON has no infinity: an unbounded deadline is emitted as -1.
double json_deadline(double v) { return std::isfinite(v) ? v : -1.0; }

void validate(const FleetConfig& cfg) {
  check(!cfg.groups.empty(), "fleet config: need at least one group");
  // JSON has no infinity, and an infinite off-time guard or period never
  // ends a run: only deadline may be unbounded (written as -1).
  check(std::isfinite(cfg.offset_spread_s) && cfg.offset_spread_s >= 0.0,
        "fleet config: spread must be finite and >= 0");
  const auto finite_pos = [](double v) { return std::isfinite(v) && v > 0.0; };
  std::set<std::string> names;
  for (const auto& g : cfg.groups) {
    const std::string where = "fleet group \"" + g.name + "\"";
    check(names.insert(g.name).second, where + ": duplicate group name");
    check(g.count >= 1, where + ": count must be >= 1");
    check(finite_pos(g.capacitance_f), where + ": capacitance must be finite and > 0");
    check(finite_pos(g.max_off_s), where + ": max_off must be finite and > 0");
    check(g.max_reboots >= 1, where + ": reboots must be >= 1");
    check(g.max_futile >= 0, where + ": max_futile must be >= 0");
    check(g.agenda.jobs >= 1, where + ": jobs must be >= 1");
    check(finite_pos(g.agenda.period_s), where + ": agenda period must be finite and > 0");
    check(g.agenda.deadline_s > 0.0, where + ": deadline must be > 0");
    runtime_uses_compressed_model(g.agenda.runtime);  // throws on unknown key
    if (!g.sched_spec.empty()) {
      check(runtime_is_adaptive(g.agenda.runtime),
            where + ": sched= only applies to the adaptive runtime");
      sched::parse_adaptive_spec(g.sched_spec);  // throws on malformed spec
    }
  }
}

// Device id -> group index: groups own consecutive id ranges in config
// order.
std::vector<std::size_t> device_groups(const FleetConfig& cfg) {
  std::vector<std::size_t> out;
  out.reserve(static_cast<std::size_t>(cfg.total_devices()));
  for (std::size_t gi = 0; gi < cfg.groups.size(); ++gi) {
    for (int k = 0; k < cfg.groups[gi].count; ++k) out.push_back(gi);
  }
  return out;
}

// Device d's shift into the harvest recording, of a population of n.
double device_offset_s(const FleetConfig& cfg, int d, int n) {
  return cfg.offset_spread_s * static_cast<double>(d) / static_cast<double>(n);
}

// Population-wide immutable state shared by every device build: the base
// harvest source (owned by the engine), each group's compiled image, and
// the device-id -> group mapping. Building a device needs nothing else,
// which is what lets each loop item build its device alone (and worker
// processes build only their shard).
struct FleetWorld {
  const power::HarvestSource* base_source = nullptr;
  std::vector<CompiledImage> group_image;
  std::vector<std::size_t> device_group;  // device id -> group index
  int n = 0;
};

FleetWorld build_world(const FleetConfig& cfg, const power::HarvestSource& source) {
  FleetWorld w;
  w.base_source = &source;
  w.n = cfg.total_devices();

  // One model instance per (task, variant) for the whole fleet, seeded
  // like the scenario sweep; each device gets its own derived inputs
  // (different users, different samples).
  std::map<std::pair<int, bool>, quant::QuantModel> qms;
  for (const auto& g : cfg.groups) {
    const ShippedVariants v = shipped_variants(g.agenda.runtime);
    for (const bool compressed : {true, false}) {
      const auto key = std::make_pair(static_cast<int>(g.task), compressed);
      if (!v.ships(compressed) || qms.count(key) != 0) continue;
      Rng rng(cfg.seed + static_cast<std::uint64_t>(g.task));
      qms.emplace(key, models::make_deployed_qmodel(g.task, compressed, rng));
    }
  }

  // One compile per group, on FRAM sized to fit unless the config pins it.
  for (const FleetGroup& g : cfg.groups) {
    const ShippedVariants v = shipped_variants(g.agenda.runtime);
    const quant::QuantModel& primary =
        qms.at({static_cast<int>(g.task), v.primary_compressed});
    const quant::QuantModel* dense =
        v.dense_twin ? &qms.at({static_cast<int>(g.task), false}) : nullptr;
    w.group_image.push_back(compile_image(
        primary, dense, g.fram_words != 0 ? g.fram_words : fit_fram_words(primary, dense)));
  }

  w.device_group = device_groups(cfg);
  return w;
}

// Builds device `d` of the population. Depends only on (cfg, world, d),
// never on which devices exist around it or which thread builds it — the
// property every run (any --jobs, any shard) relies on for determinism.
std::unique_ptr<FleetDevice> make_device(const FleetWorld& w, const FleetConfig& cfg, int d,
                                         const FleetRunOptions& opts) {
  const std::size_t gi = w.device_group[static_cast<std::size_t>(d)];
  const FleetGroup& g = cfg.groups[gi];
  const CompiledImage& image = w.group_image[gi];

  DeviceRecipe r;
  r.runtime = g.agenda.runtime;
  r.sched_spec = g.sched_spec;
  r.force_admit_all = opts.force_admit_all;
  r.source = w.base_source;
  r.offset_s = device_offset_s(cfg, d, w.n);
  r.capacitor.capacitance_f = g.capacitance_f;
  r.capacitor.max_off_s = g.max_off_s;
  r.scramble_seed = cfg.seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(d) + 1);
  r.opts.max_reboots = g.max_reboots;
  r.opts.max_futile_boots = g.max_futile;
  r.opts.profile = opts.profile;
  // Ring capture only for the ids in trace_devices (the counts-only
  // trace is unconditional).
  for (const int id : opts.trace_devices) {
    if (id == d) r.trace_capacity = std::max<long>(1, opts.trace_capacity);
  }

  auto fd = std::make_unique<FleetDevice>();
  fd->dev = provision(r, image);
  const std::size_t in_size = image.primary.model.layers.front().in_size();
  fd->inputs.resize(static_cast<std::size_t>(g.agenda.jobs));
  for (int j = 0; j < g.agenda.jobs; ++j) {
    Rng in_rng(cfg.seed ^ (0xf1ee7ull + static_cast<std::uint64_t>(d) * 0x10001ull +
                           static_cast<std::uint64_t>(j) * 0x9e3779b9ull));
    auto& input = fd->inputs[static_cast<std::size_t>(j)];
    input.resize(in_size);
    for (auto& v : input) v = static_cast<fx::q15_t>(in_rng.next_u64());
  }
  fd->queue.emplace(fd->dev->device, *fd->dev->policy, image.primary, fd->dev->opts,
                    g.agenda, &fd->inputs);
  return fd;
}

// Reduces a finished device to its result record: fleet coordinates, the
// job records, and the per-device verdict buckets every aggregation path
// shares. The v5 "dnf" bucket excludes livelocked runs (they get their
// own counter); v4 folded them together.
FleetDeviceResult distill(const FleetWorld& w, const FleetConfig& cfg, int d,
                          const FleetDevice& fd) {
  const FleetGroup& g = cfg.groups[w.device_group[static_cast<std::size_t>(d)]];
  FleetDeviceResult res;
  res.device = d;
  res.group = g.name;
  res.offset_s = device_offset_s(cfg, d, w.n);
  res.task = models::task_name(g.task);
  res.runtime = g.agenda.runtime;
  res.capacitance_f = g.capacitance_f;
  res.jobs = fd.queue->records();
  res.steps = fd.queue->steps();
  const obs::EventTrace& trace = fd.dev->trace;
  for (int k = 0; k < obs::kKindCount; ++k) res.event_counts[k] = trace.counts()[k];
  if (trace.capacity() > 0) {
    res.trace_selected = true;
    res.trace_events = trace.snapshot();
    res.trace_dropped = trace.dropped();
    res.trace_total = trace.total();
  }
  for (const auto& j : res.jobs) {
    ++res.jobs_total;
    res.reboots += j.reboots;
    res.tier_switches += j.tier_switches;
    res.energy_j += j.energy_j;
    if (j.skipped_infeasible) {
      // An admission-refused release never ran: its verdict is its own
      // bucket, not a DNF.
      ++res.jobs_skipped;
      res.energy_reclaimed_j += j.energy_reclaimed_j;
    } else {
      switch (j.outcome) {
        case flex::Outcome::kCompleted:
          ++res.jobs_completed;
          break;
        case flex::Outcome::kDidNotFinish:
          if (j.livelock) {
            ++res.jobs_livelock;
          } else {
            ++res.jobs_dnf;
          }
          break;
        case flex::Outcome::kStarved:
          ++res.jobs_starved;
          break;
      }
    }
    if (j.met_deadline) ++res.jobs_in_deadline;
  }
  return res;
}

// The per-device scalar row the aggregation sink keeps: everything the
// report needs, nothing per-job. ~100 bytes/device is what makes a
// 100k-device population's footprint reporting-side negligible.
struct DeviceRow {
  int device = 0;
  int jobs_total = 0, jobs_completed = 0, jobs_in_deadline = 0, jobs_skipped = 0;
  int jobs_dnf = 0, jobs_starved = 0, jobs_livelock = 0;
  long reboots = 0, tier_switches = 0, steps = 0;
  double energy_j = 0.0, energy_reclaimed_j = 0.0;
  // Per-kind lifecycle event totals — one more block of mergeable
  // integers riding the same row (summed into the metrics block).
  long events[obs::kKindCount] = {};
};

DeviceRow row_of(const FleetDeviceResult& d) {
  DeviceRow r;
  r.device = d.device;
  r.jobs_total = d.jobs_total;
  r.jobs_completed = d.jobs_completed;
  r.jobs_in_deadline = d.jobs_in_deadline;
  r.jobs_skipped = d.jobs_skipped;
  r.jobs_dnf = d.jobs_dnf;
  r.jobs_starved = d.jobs_starved;
  r.jobs_livelock = d.jobs_livelock;
  r.reboots = d.reboots;
  r.tier_switches = d.tier_switches;
  r.steps = d.steps;
  r.energy_j = d.energy_j;
  r.energy_reclaimed_j = d.energy_reclaimed_j;
  for (int k = 0; k < obs::kKindCount; ++k) r.events[k] = d.event_counts[k];
  return r;
}

// The exported track label for a captured device.
std::string trace_label(const FleetDeviceResult& d) {
  return "device " + std::to_string(d.device) + " " + d.group + " " + d.task + "/" +
         d.runtime;
}

// Built-in aggregation sink: per-device scalar rows plus the streaming
// latency/staleness sketches over completed jobs. Order-independent by
// construction — rows sort by id at finalize, sketch merges are bin-wise
// integer adds — so every execution path lands on the same bytes.
class AggregateSink final : public FleetSink {
 public:
  std::vector<DeviceRow> rows;
  QuantileSketch latency{kSketchRelErr};
  QuantileSketch staleness{kSketchRelErr};
  // Retained event rings of trace_devices selections, in record order
  // until finalize sorts them by id (order-independent like rows).
  std::vector<obs::TraceCapture> traces;

  void record(const FleetDeviceResult& d) override {
    rows.push_back(row_of(d));
    for (const auto& j : d.jobs) {
      if (!j.skipped_infeasible && j.outcome == flex::Outcome::kCompleted) {
        latency.add(j.latency_s);
        staleness.add(j.staleness_s);
      }
    }
    if (d.trace_selected) {
      obs::TraceCapture cap;
      cap.id = d.device;
      cap.label = trace_label(d);
      cap.events = d.trace_events;
      cap.dropped = d.trace_dropped;
      cap.total = d.trace_total;
      traces.push_back(std::move(cap));
    }
  }
  void merge(const FleetSink& other) override {
    const auto* o = dynamic_cast<const AggregateSink*>(&other);
    check(o != nullptr, "FleetSink::merge: mismatched sink types");
    rows.insert(rows.end(), o->rows.begin(), o->rows.end());
    latency.merge(o->latency);
    staleness.merge(o->staleness);
    traces.insert(traces.end(), o->traces.begin(), o->traces.end());
  }
  void finalize() override {
    std::sort(rows.begin(), rows.end(),
              [](const DeviceRow& a, const DeviceRow& b) { return a.device < b.device; });
    std::sort(traces.begin(), traces.end(),
              [](const obs::TraceCapture& a, const obs::TraceCapture& b) {
                return a.id < b.id;
              });
  }
};

// Full per-device retention (detail=full): the records behind the
// per_device JSON block. Not attached under detail=aggregate, which is
// how huge populations avoid materializing 10^5 job arrays.
class DetailSink final : public FleetSink {
 public:
  std::vector<FleetDeviceResult> devices;

  void record(const FleetDeviceResult& d) override { devices.push_back(d); }
  void merge(const FleetSink& other) override {
    const auto* o = dynamic_cast<const DetailSink*>(&other);
    check(o != nullptr, "FleetSink::merge: mismatched sink types");
    devices.insert(devices.end(), o->devices.begin(), o->devices.end());
  }
  void finalize() override {
    std::sort(devices.begin(), devices.end(),
              [](const FleetDeviceResult& a, const FleetDeviceResult& b) {
                return a.device < b.device;
              });
  }
};

// The ONE aggregation path every mode funnels through — in-process runs
// and shard merges alike. Rows arrive sorted by device id; integer
// counters and double sums accumulate in that order, percentiles come
// from the sketches. This shared funnel is why `--jobs 8`, `--shards 4`
// and `--jobs 1` cannot disagree on a single byte.
FleetReport finalize_report(const FleetConfig& cfg, AggregateSink& agg,
                            DetailSink* detail) {
  FleetReport r;
  r.config = cfg;
  r.sketch_rel_err = kSketchRelErr;
  // Metrics: rows arrive sorted by id and the registry's cells are plain
  // integer sums/maxes, so this block lands on the same bytes on every
  // execution path, exactly like the counters below it.
  long* ev_cells[obs::kKindCount];
  for (int k = 0; k < obs::kKindCount; ++k) {
    ev_cells[k] = r.metrics.counter(std::string("event.") +
                                    obs::event_name(static_cast<obs::EventKind>(k)));
  }
  long* trace_dropped = r.metrics.counter("trace.dropped_events");
  long* max_reboots = r.metrics.gauge("fleet.max_device_reboots");
  for (const DeviceRow& row : agg.rows) {
    for (int k = 0; k < obs::kKindCount; ++k) *ev_cells[k] += row.events[k];
    if (row.reboots > *max_reboots) *max_reboots = row.reboots;
    r.total_jobs += row.jobs_total;
    r.jobs_completed += row.jobs_completed;
    r.jobs_in_deadline += row.jobs_in_deadline;
    r.jobs_skipped += row.jobs_skipped;
    r.jobs_dnf += row.jobs_dnf;
    r.jobs_starved += row.jobs_starved;
    r.jobs_livelock += row.jobs_livelock;
    r.energy_reclaimed_j += row.energy_reclaimed_j;
    r.total_reboots += row.reboots;
    r.total_tier_switches += row.tier_switches;
    r.total_steps += row.steps;
    r.total_energy_j += row.energy_j;
  }
  if (agg.latency.count() > 0) {
    r.latency_p50_s = agg.latency.quantile(0.50);
    r.latency_p90_s = agg.latency.quantile(0.90);
    r.latency_p99_s = agg.latency.quantile(0.99);
    r.latency_max_s = agg.latency.max();
    r.staleness_p50_s = agg.staleness.quantile(0.50);
    r.staleness_p90_s = agg.staleness.quantile(0.90);
    r.staleness_p99_s = agg.staleness.quantile(0.99);
    r.staleness_max_s = agg.staleness.max();
  }
  r.completion_rate =
      r.total_jobs == 0 ? 0.0
                        : static_cast<double>(r.jobs_completed) / static_cast<double>(r.total_jobs);
  r.deadline_rate =
      r.total_jobs == 0
          ? 0.0
          : static_cast<double>(r.jobs_in_deadline) / static_cast<double>(r.total_jobs);
  for (const obs::TraceCapture& cap : agg.traces) *trace_dropped += cap.dropped;
  r.traces = std::move(agg.traces);
  if (detail != nullptr) r.devices = std::move(detail->devices);
  return r;
}

void print_verbose(const FleetDeviceResult& res) {
  std::fprintf(stderr,
               "fleet dev %3d [%s %s/%s]: %d/%d jobs completed, %d in deadline, "
               "%ld reboots, %ld switches\n",
               res.device, res.group.c_str(), res.task.c_str(), res.runtime.c_str(),
               res.jobs_completed, res.jobs_total, res.jobs_in_deadline, res.reboots,
               res.tier_switches);
}

// Drives devices [begin, end) to completion and feeds each result to the
// sinks. One loop for every run: parallel_for claims whole devices (inline
// and in id order when jobs == 1), and each item builds its device, steps
// its agenda to the end, distills the result and destroys the device, so
// at most min(jobs, max_resident) devices are built at once. A parked
// device costs one step (the closed-form idle to its next release).
void run_range(const FleetWorld& w, const FleetConfig& cfg, int begin, int end,
               const FleetRunOptions& opts, const std::vector<FleetSink*>& sinks) {
  std::mutex mu;
  const int workers = std::min(std::max(opts.jobs, 1), std::max(opts.max_resident, 1));
  parallel_for(static_cast<std::size_t>(end - begin), workers, [&](std::size_t k) {
    const int d = begin + static_cast<int>(k);
    const auto t0 = std::chrono::steady_clock::now();
    auto fd = make_device(w, cfg, d, opts);
    // --profile (serial runs only, see validate_run_options): device
    // construction is build time; the executor attributes its own slices.
    if (opts.profile != nullptr) {
      opts.profile->build_s +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    }
    while (fd->queue->step()) {
    }
    const FleetDeviceResult res = distill(w, cfg, d, *fd);
    fd.reset();
    std::lock_guard<std::mutex> lk(mu);
    for (FleetSink* s : sinks) s->record(res);
    if (opts.verbose) print_verbose(res);
  });
}

flex::Outcome parse_outcome(const std::string& name) {
  if (name == "completed") return flex::Outcome::kCompleted;
  if (name == "dnf") return flex::Outcome::kDidNotFinish;
  if (name == "starved") return flex::Outcome::kStarved;
  fail("fleet shard: unknown outcome \"" + name + "\"");
}

double shard_num(const std::string& field, const std::string& where) {
  const auto v = parse_double(field);
  check(v.has_value(), where + ": bad number \"" + field + "\"");
  return *v;
}

// One parsed shard partial (schema ehdnn-fleet-shard-v2).
struct ShardPartial {
  int shard = 0;
  int shards = 0;
  int begin = 0;
  int end = 0;
  std::string config_text;  // the echoed config, verbatim
  AggregateSink agg;
  DetailSink detail;
  bool has_detail = false;
};

ShardPartial parse_shard_partial(std::istream& is, const std::string& where) {
  ShardPartial p;
  std::string line;
  check(static_cast<bool>(std::getline(is, line)) && line == "ehdnn-fleet-shard-v2",
        where + ": not a fleet shard partial (bad magic; v1 partials predate "
                "event tracing — regenerate with this build)");
  check(static_cast<bool>(std::getline(is, line)), where + ": truncated header");
  {
    std::istringstream hs(line);
    std::string tag;
    hs >> tag >> p.shard >> p.shards >> p.begin >> p.end;
    check(tag == "range" && !hs.fail(), where + ": bad range line \"" + line + "\"");
  }
  check(static_cast<bool>(std::getline(is, line)) && line == "config-begin",
        where + ": missing config echo");
  while (std::getline(is, line) && line != "config-end") p.config_text += line + "\n";
  check(line == "config-end", where + ": unterminated config echo");

  bool saw_end = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "end") {
      saw_end = true;
      break;
    } else if (tag == "sketch") {
      std::string which;
      ls >> which;
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      check(which == "latency" || which == "staleness",
            where + ": unknown sketch \"" + which + "\"");
      try {
        (which == "latency" ? p.agg.latency : p.agg.staleness) =
            QuantileSketch::deserialize(rest);
      } catch (const Error& e) {
        fail(where + ": " + e.what());
      }
    } else if (tag == "row") {
      DeviceRow r;
      std::string energy, reclaimed;
      ls >> r.device >> r.jobs_total >> r.jobs_completed >> r.jobs_in_deadline >>
          r.jobs_skipped >> r.jobs_dnf >> r.jobs_starved >> r.jobs_livelock >> r.reboots >>
          r.tier_switches >> r.steps >> energy >> reclaimed;
      for (int k = 0; k < obs::kKindCount; ++k) ls >> r.events[k];
      check(!ls.fail(), where + ": bad row \"" + line + "\"");
      r.energy_j = shard_num(energy, where);
      r.energy_reclaimed_j = shard_num(reclaimed, where);
      // run_shard writes rows sorted: a repeated, unordered or foreign id
      // would double-count one device and drop another.
      check(r.device >= p.begin && r.device < p.end &&
                (p.agg.rows.empty() || r.device > p.agg.rows.back().device),
            where + ": row for device " + std::to_string(r.device) +
                " is out of order or outside the shard's range");
      p.agg.rows.push_back(r);
    } else if (tag == "trace") {
      obs::TraceCapture cap;
      std::size_t n_events = 0;
      ls >> cap.id >> n_events >> cap.dropped >> cap.total;
      check(!ls.fail(), where + ": bad trace header \"" + line + "\"");
      check(cap.id >= p.begin && cap.id < p.end &&
                (p.agg.traces.empty() || cap.id > p.agg.traces.back().id),
            where + ": trace for device " + std::to_string(cap.id) +
                " is out of order or outside the shard's range");
      std::getline(ls, cap.label);
      if (!cap.label.empty() && cap.label.front() == ' ') cap.label.erase(0, 1);
      // n_events is untrusted: the ev lines, not the header, size the ring.
      for (std::size_t i = 0; i < n_events; ++i) {
        check(static_cast<bool>(std::getline(is, line)), where + ": truncated trace");
        std::istringstream es(line);
        std::string etag, ts;
        int kind = 0;
        obs::Event e;
        es >> etag >> ts >> kind >> e.a >> e.b;
        check(etag == "ev" && !es.fail() && kind >= 0 && kind < obs::kKindCount,
              where + ": bad event line \"" + line + "\"");
        e.t_s = shard_num(ts, where);
        e.kind = static_cast<obs::EventKind>(kind);
        cap.events.push_back(e);
      }
      p.agg.traces.push_back(std::move(cap));
    } else if (tag == "job") {
      p.has_detail = true;
      int device = 0;
      sched::JobRecord j;
      std::string release, start, finish, latency, staleness, outcome, met, lock, skip,
          energy, reclaimed;
      ls >> device >> j.job >> release >> start >> finish >> latency >> staleness >>
          outcome >> met >> lock >> skip >> j.runtime >> j.reboots >> j.checkpoints >>
          j.progress_commits >> j.tier_switches >> energy >> reclaimed;
      check(!ls.fail(), where + ": bad job line \"" + line + "\"");
      // Jobs arrive grouped by device in id order, like rows; a device
      // seen again later would lose its first records at merge.
      check(p.detail.devices.empty() || device >= p.detail.devices.back().device,
            where + ": job for device " + std::to_string(device) + " is out of order");
      j.release_s = shard_num(release, where);
      j.start_s = shard_num(start, where);
      j.finish_s = shard_num(finish, where);
      j.latency_s = shard_num(latency, where);
      j.staleness_s = shard_num(staleness, where);
      j.outcome = parse_outcome(outcome);
      j.met_deadline = met == "1";
      j.livelock = lock == "1";
      j.skipped_infeasible = skip == "1";
      j.energy_j = shard_num(energy, where);
      j.energy_reclaimed_j = shard_num(reclaimed, where);
      if (p.detail.devices.empty() || p.detail.devices.back().device != device) {
        FleetDeviceResult res;
        res.device = device;
        p.detail.devices.push_back(std::move(res));
      }
      p.detail.devices.back().jobs.push_back(std::move(j));
    } else {
      fail(where + ": unknown record \"" + tag + "\"");
    }
  }
  check(saw_end, where + ": truncated partial (no end marker)");
  // Every job belongs to a device this shard reported a row for (so it
  // lies in the shard's range).
  for (const FleetDeviceResult& d : p.detail.devices) {
    const auto it = std::lower_bound(p.agg.rows.begin(), p.agg.rows.end(), d.device,
                                     [](const DeviceRow& r, int id) { return r.device < id; });
    check(it != p.agg.rows.end() && it->device == d.device,
          where + ": job records for device " + std::to_string(d.device) + " without a row");
  }
  return p;
}

}  // namespace

int FleetConfig::total_devices() const {
  int n = 0;
  for (const auto& g : groups) n += g.count;
  return n;
}

FleetConfig parse_fleet_config(std::istream& is) {
  FleetConfig cfg;
  bool saw_fleet_line = false;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string where = "fleet config line " + std::to_string(lineno);
    // Strip comments, tokenize on whitespace.
    const std::vector<std::string> tokens = split_ws(line.substr(0, line.find('#')));
    if (tokens.empty()) continue;
    SpecArgs a(where, {tokens.begin() + 1, tokens.end()});
    if (tokens[0] == "fleet") {
      check(!saw_fleet_line, where + ": duplicate fleet line");
      saw_fleet_line = true;
      cfg.source = a.str("source", cfg.source);
      cfg.offset_spread_s = a.num("spread", cfg.offset_spread_s);
      if (a.has("seed")) {
        const std::string v = a.str("seed");
        const auto seed = parse_seed(v);
        check(seed.has_value(), where + ": bad seed \"" + v + "\"");
        cfg.seed = *seed;
      }
      const std::string detail = a.str("detail", "full");
      check(detail == "full" || detail == "aggregate",
            where + ": detail must be \"full\" or \"aggregate\", got \"" + detail + "\"");
      cfg.per_device_detail = detail == "full";
    } else if (tokens[0] == "group") {
      constexpr long long kMaxCount = 1000000000, kMaxBoots = 1000000000000000;
      FleetGroup g;
      g.name = a.str("name", "group" + std::to_string(cfg.groups.size()));
      g.count = static_cast<int>(a.integer("count", g.count, 0, kMaxCount));
      if (a.has("task")) g.task = models::parse_task(a.str("task"));
      g.agenda.runtime = a.str("runtime", g.agenda.runtime);
      g.capacitance_f = a.num("cap", g.capacitance_f);
      g.max_off_s = a.num("max_off", g.max_off_s);
      g.max_reboots = static_cast<long>(a.integer("reboots", g.max_reboots, 0, kMaxBoots));
      g.max_futile = static_cast<long>(a.integer("max_futile", g.max_futile, 0, kMaxBoots));
      g.agenda.jobs = static_cast<int>(a.integer("jobs", g.agenda.jobs, 0, kMaxCount));
      g.agenda.period_s = a.num("period", g.agenda.period_s);
      g.agenda.deadline_s = a.num("deadline", g.agenda.deadline_s);
      g.sched_spec = a.str("sched", g.sched_spec);
      g.fram_words = static_cast<std::size_t>(a.integer("fram", static_cast<long long>(g.fram_words), 0, 1000000000000));
      cfg.groups.push_back(std::move(g));
    } else {
      fail(where + ": expected \"fleet\" or \"group\", got \"" + tokens[0] + "\"");
    }
    a.finish();
  }
  validate(cfg);
  return cfg;
}

FleetConfig parse_fleet_config_file(const std::string& path) {
  std::ifstream f(path);
  check(f.good(), "fleet config: cannot read " + path);
  return parse_fleet_config(f);
}

// parse_task takes the lowercase key, task_name() returns the display
// name — the writer must emit the key or the round-trip breaks.
static const char* task_key(models::Task t) {
  switch (t) {
    case models::Task::kMnist: return "mnist";
    case models::Task::kHar: return "har";
    case models::Task::kOkg: return "okg";
  }
  return "?";
}

void write_fleet_config(std::ostream& os, const FleetConfig& cfg) {
  os << "fleet source=" << cfg.source << " spread=" << g17(cfg.offset_spread_s)
     << " seed=" << cfg.seed << " detail=" << (cfg.per_device_detail ? "full" : "aggregate")
     << "\n";
  for (const FleetGroup& g : cfg.groups) {
    os << "group name=" << g.name << " count=" << g.count
       << " task=" << task_key(g.task) << " runtime=" << g.agenda.runtime
       << " cap=" << g17(g.capacitance_f) << " max_off=" << g17(g.max_off_s)
       << " reboots=" << g.max_reboots << " max_futile=" << g.max_futile
       << " jobs=" << g.agenda.jobs << " period=" << g17(g.agenda.period_s)
       << " deadline=" << g17(g.agenda.deadline_s);
    if (!g.sched_spec.empty()) os << " sched=" << g.sched_spec;
    if (g.fram_words != 0) os << " fram=" << g.fram_words;
    os << "\n";
  }
}

FleetEngine::FleetEngine(FleetConfig cfg) : FleetEngine(std::move(cfg), nullptr) {}

FleetEngine::FleetEngine(FleetConfig cfg, std::shared_ptr<const power::HarvestSource> source)
    : cfg_(std::move(cfg)), source_(std::move(source)) {
  validate(cfg_);
  // Config text stays file-free (parse, validate and --merge never open
  // a trace); the source is read here, once, where the fleet runs.
  if (source_ == nullptr) source_ = power::make_harvest_source(cfg_.source);
}

FleetEngine& FleetEngine::add_sink(FleetSink& sink) {
  sinks_.push_back(&sink);
  return *this;
}

// Shared FleetRunOptions validation: the profile request must never be
// silently dropped (jobs > 1 has no synchronized sink — satellite of the
// observability PR), and trace selections must name real devices.
static void validate_run_options(const FleetRunOptions& ropts, int n) {
  check(ropts.profile == nullptr || std::max(ropts.jobs, 1) == 1,
        "fleet: --profile needs --jobs 1 (one shared, unsynchronized sink); "
        "the request used to be silently ignored under a worker pool");
  for (const int id : ropts.trace_devices) {
    check(id >= 0 && id < n,
          "fleet: trace device id " + std::to_string(id) + " out of range [0, " +
              std::to_string(n) + ")");
  }
  check(ropts.trace_capacity >= 1, "fleet: trace_capacity must be >= 1");
}

FleetReport FleetEngine::run(const FleetRunOptions& ropts) {
  const auto wall0 = std::chrono::steady_clock::now();
  const FleetWorld w = build_world(cfg_, *source_);
  validate_run_options(ropts, w.n);
  if (ropts.profile != nullptr) {
    // World build (model gen + per-group image compiles) is build
    // time, like device stamping.
    ropts.profile->build_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
  }

  AggregateSink agg;
  DetailSink detail;
  std::vector<FleetSink*> sinks = sinks_;
  sinks.push_back(&agg);
  if (cfg_.per_device_detail) sinks.push_back(&detail);

  run_range(w, cfg_, 0, w.n, ropts, sinks);
  for (FleetSink* s : sinks) s->finalize();

  FleetReport r = finalize_report(cfg_, agg, cfg_.per_device_detail ? &detail : nullptr);
  if (ropts.profile != nullptr) {
    // Whatever the attributed phases did not claim is engine overhead:
    // the device loop, sinks, reporting, and instrumentation slack.
    flex::PhaseProfile& p = *ropts.profile;
    const double total =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
    p.engine_s = std::max(
        0.0, total - p.build_s - p.recharge_s - p.kernel_s - p.checkpoint_s);
  }

  // Fixed-runtime baselines: the same population with every agenda forced
  // to one key — the "adaptive vs best fixed runtime" evidence.
  for (const auto& key : ropts.baseline_runtimes) {
    FleetConfig bc = cfg_;
    for (auto& g : bc.groups) {
      g.agenda.runtime = key;
      g.sched_spec.clear();
      g.fram_words = 0;  // re-auto-size for the forced variant
    }
    FleetRunOptions bo;
    bo.jobs = ropts.jobs;
    bo.max_resident = ropts.max_resident;
    const FleetReport br = FleetEngine(bc, source_).run(bo);
    r.baselines.push_back({key, br.jobs_completed, br.jobs_in_deadline});
    if (ropts.verbose) {
      std::fprintf(stderr, "fleet baseline %-8s: %d jobs completed, %d in deadline\n",
                   key.c_str(), br.jobs_completed, br.jobs_in_deadline);
    }
  }

  // Admission comparison: the same population with energy-budgeted
  // admission forced off — every release runs, doomed or not.
  if (ropts.compare_admission) {
    FleetRunOptions ao;
    ao.jobs = ropts.jobs;
    ao.max_resident = ropts.max_resident;
    ao.force_admit_all = true;
    const FleetReport ar = FleetEngine(cfg_, source_).run(ao);
    r.admission_baseline.push_back({"admit=all", ar.jobs_completed, ar.jobs_in_deadline});
    if (ropts.verbose) {
      std::fprintf(stderr, "fleet admit=all baseline: %d jobs completed, %d in deadline\n",
                   ar.jobs_completed, ar.jobs_in_deadline);
    }
  }
  return r;
}

void FleetEngine::run_shard(std::ostream& os, int shard, int shards,
                            const FleetRunOptions& ropts) {
  check(shards >= 1, "run_shard: shards must be >= 1");
  check(shard >= 0 && shard < shards, "run_shard: shard index out of range");
  check(ropts.baseline_runtimes.empty() && !ropts.compare_admission,
        "run_shard: baseline/admission reruns are whole-population operations");
  const FleetWorld w = build_world(cfg_, *source_);
  validate_run_options(ropts, w.n);
  const int begin = static_cast<int>(static_cast<long long>(w.n) * shard / shards);
  const int end = static_cast<int>(static_cast<long long>(w.n) * (shard + 1) / shards);

  AggregateSink agg;
  DetailSink detail;
  std::vector<FleetSink*> sinks = sinks_;
  sinks.push_back(&agg);
  if (cfg_.per_device_detail) sinks.push_back(&detail);

  run_range(w, cfg_, begin, end, ropts, sinks);
  for (FleetSink* s : sinks) s->finalize();

  os << "ehdnn-fleet-shard-v2\n";
  os << "range " << shard << " " << shards << " " << begin << " " << end << "\n";
  os << "config-begin\n";
  write_fleet_config(os, cfg_);
  os << "config-end\n";
  os << "sketch latency ";
  agg.latency.serialize(os);
  os << "\nsketch staleness ";
  agg.staleness.serialize(os);
  os << "\n";
  for (const DeviceRow& r : agg.rows) {
    os << "row " << r.device << " " << r.jobs_total << " " << r.jobs_completed << " "
       << r.jobs_in_deadline << " " << r.jobs_skipped << " " << r.jobs_dnf << " "
       << r.jobs_starved << " " << r.jobs_livelock << " " << r.reboots << " "
       << r.tier_switches << " " << r.steps << " " << g17(r.energy_j) << " "
       << g17(r.energy_reclaimed_j);
    // v2: the per-kind event totals ride the row as one more mergeable
    // integer block.
    for (int k = 0; k < obs::kKindCount; ++k) os << " " << r.events[k];
    os << "\n";
  }
  // v2: retained event rings of this shard's trace_devices selections.
  // Timestamps round-trip as %.17g, so the merged captures are
  // bit-identical to an unsharded run's.
  for (const obs::TraceCapture& cap : agg.traces) {
    os << "trace " << cap.id << " " << cap.events.size() << " " << cap.dropped << " "
       << cap.total << " " << cap.label << "\n";
    for (const obs::Event& e : cap.events) {
      os << "ev " << g17(e.t_s) << " " << static_cast<int>(e.kind) << " " << e.a << " "
         << e.b << "\n";
    }
  }
  if (cfg_.per_device_detail) {
    for (const FleetDeviceResult& d : detail.devices) {
      for (const sched::JobRecord& j : d.jobs) {
        os << "job " << d.device << " " << j.job << " " << g17(j.release_s) << " "
           << g17(j.start_s) << " " << g17(j.finish_s) << " " << g17(j.latency_s) << " "
           << g17(j.staleness_s) << " " << flex::outcome_name(j.outcome) << " "
           << (j.met_deadline ? 1 : 0) << " " << (j.livelock ? 1 : 0) << " "
           << (j.skipped_infeasible ? 1 : 0) << " " << j.runtime << " " << j.reboots << " "
           << j.checkpoints << " " << j.progress_commits << " " << j.tier_switches << " "
           << g17(j.energy_j) << " " << g17(j.energy_reclaimed_j) << "\n";
      }
    }
  }
  os << "end\n";
}

FleetReport merge_fleet_shards(const std::vector<std::string>& paths) {
  check(!paths.empty(), "merge_fleet_shards: need at least one partial");
  std::vector<ShardPartial> parts;
  parts.reserve(paths.size());
  for (const auto& path : paths) {
    std::ifstream f(path);
    check(f.good(), "merge_fleet_shards: cannot read " + path);
    parts.push_back(parse_shard_partial(f, path));
  }
  const int shards = parts.front().shards;
  check(static_cast<std::size_t>(shards) == parts.size(),
        "merge_fleet_shards: expected " + std::to_string(shards) + " partials, got " +
            std::to_string(parts.size()));
  std::sort(parts.begin(), parts.end(),
            [](const ShardPartial& a, const ShardPartial& b) { return a.shard < b.shard; });

  FleetConfig cfg;
  {
    std::istringstream cs(parts.front().config_text);
    cfg = parse_fleet_config(cs);
  }
  const int n = cfg.total_devices();
  AggregateSink agg;
  DetailSink detail;
  for (int i = 0; i < shards; ++i) {
    const ShardPartial& p = parts[static_cast<std::size_t>(i)];
    check(p.shard == i, "merge_fleet_shards: missing or duplicate shard " + std::to_string(i));
    check(p.shards == shards, "merge_fleet_shards: inconsistent shard counts");
    check(p.config_text == parts.front().config_text,
          "merge_fleet_shards: partials ran different configs");
    const int begin = static_cast<int>(static_cast<long long>(n) * i / shards);
    const int end = static_cast<int>(static_cast<long long>(n) * (i + 1) / shards);
    check(p.begin == begin && p.end == end,
          "merge_fleet_shards: shard " + std::to_string(i) + " covers the wrong range");
    check(static_cast<int>(p.agg.rows.size()) == end - begin,
          "merge_fleet_shards: shard " + std::to_string(i) + " is missing device rows");
    agg.merge(p.agg);
    if (cfg.per_device_detail) detail.merge(p.detail);
  }
  agg.finalize();
  detail.finalize();

  if (cfg.per_device_detail) {
    // Job lines carry only what rows cannot reconstruct; refill each
    // device's coordinates and verdict buckets from the config and its
    // records, exactly as distill() does in-process.
    std::map<int, std::vector<sched::JobRecord>> jobs_by_device;
    for (auto& d : detail.devices) jobs_by_device[d.device] = std::move(d.jobs);
    detail.devices.clear();
    const std::vector<std::size_t> device_group = device_groups(cfg);
    for (const DeviceRow& row : agg.rows) {
      const FleetGroup& g = cfg.groups[device_group[static_cast<std::size_t>(row.device)]];
      FleetDeviceResult res;
      res.device = row.device;
      res.group = g.name;
      res.offset_s = device_offset_s(cfg, row.device, n);
      res.task = models::task_name(g.task);
      res.runtime = g.agenda.runtime;
      res.capacitance_f = g.capacitance_f;
      const auto it = jobs_by_device.find(row.device);
      check(it != jobs_by_device.end(),
            "merge_fleet_shards: no job records for device " + std::to_string(row.device));
      res.jobs = std::move(it->second);
      res.jobs_total = row.jobs_total;
      res.jobs_completed = row.jobs_completed;
      res.jobs_in_deadline = row.jobs_in_deadline;
      res.jobs_skipped = row.jobs_skipped;
      res.jobs_dnf = row.jobs_dnf;
      res.jobs_starved = row.jobs_starved;
      res.jobs_livelock = row.jobs_livelock;
      res.reboots = row.reboots;
      res.tier_switches = row.tier_switches;
      res.steps = row.steps;
      res.energy_j = row.energy_j;
      res.energy_reclaimed_j = row.energy_reclaimed_j;
      detail.devices.push_back(std::move(res));
    }
  }
  return finalize_report(cfg, agg, cfg.per_device_detail ? &detail : nullptr);
}

void write_fleet_json(std::ostream& os, const FleetReport& r) {
  const FleetConfig& c = r.config;
  os << "{\n  \"schema\": \"ehdnn-fleet-v6\",\n";
  os << "  \"seed\": " << c.seed << ",\n";
  os << "  \"source\": " << json_str(c.source) << ",\n";
  os << "  \"offset_spread_s\": " << c.offset_spread_s << ",\n";
  os << "  \"devices\": " << c.total_devices() << ",\n";
  os << "  \"detail\": " << json_str(c.per_device_detail ? "full" : "aggregate") << ",\n";
  os << "  \"groups\": [\n";
  for (std::size_t i = 0; i < c.groups.size(); ++i) {
    const FleetGroup& g = c.groups[i];
    os << "    {\"name\": " << json_str(g.name) << ", \"count\": " << g.count
       << ", \"task\": " << json_str(models::task_name(g.task))
       << ", \"runtime\": " << json_str(g.agenda.runtime)
       << ", \"capacitance_f\": " << g.capacitance_f << ", \"max_off_s\": " << g.max_off_s
       << ", \"max_futile\": " << g.max_futile
       << ",\n     \"jobs\": " << g.agenda.jobs << ", \"period_s\": " << g.agenda.period_s
       << ", \"deadline_s\": " << json_deadline(g.agenda.deadline_s)
       << ", \"sched\": " << json_str(g.sched_spec) << "}"
       << (i + 1 < c.groups.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"aggregate\": {\n";
  os << "    \"total_jobs\": " << r.total_jobs << ", \"completed\": " << r.jobs_completed
     << ", \"in_deadline\": " << r.jobs_in_deadline << ", \"dnf\": " << r.jobs_dnf
     << ", \"starved\": " << r.jobs_starved << ", \"livelock\": " << r.jobs_livelock
     << ",\n";
  os << "    \"admission\": {\"skipped_infeasible\": " << r.jobs_skipped
     << ", \"energy_reclaimed_j\": " << r.energy_reclaimed_j << "},\n";
  os << "    \"completion_rate\": " << r.completion_rate
     << ", \"deadline_rate\": " << r.deadline_rate << ",\n";
  os << "    \"percentiles\": \"qsketch\", \"sketch_rel_err\": " << r.sketch_rel_err << ",\n";
  os << "    \"latency_p50_s\": " << r.latency_p50_s << ", \"latency_p90_s\": "
     << r.latency_p90_s << ", \"latency_p99_s\": " << r.latency_p99_s
     << ", \"latency_max_s\": " << r.latency_max_s << ",\n";
  os << "    \"staleness_p50_s\": " << r.staleness_p50_s << ", \"staleness_p90_s\": "
     << r.staleness_p90_s << ", \"staleness_p99_s\": " << r.staleness_p99_s
     << ", \"staleness_max_s\": " << r.staleness_max_s << ",\n";
  os << "    \"total_reboots\": " << r.total_reboots << ", \"tier_switches\": "
     << r.total_tier_switches << ", \"total_steps\": " << r.total_steps
     << ", \"total_energy_j\": " << r.total_energy_j << "\n  },\n";
  obs::write_metrics_json(os, r.metrics, "  ");
  os << ",\n";
  os << "  \"baselines\": [";
  for (std::size_t i = 0; i < r.baselines.size(); ++i) {
    const FleetBaseline& b = r.baselines[i];
    os << (i == 0 ? "\n" : "") << "    {\"runtime\": " << json_str(b.runtime)
       << ", \"jobs_completed\": " << b.jobs_completed
       << ", \"jobs_in_deadline\": " << b.jobs_in_deadline << "}"
       << (i + 1 < r.baselines.size() ? ",\n" : "\n  ");
  }
  os << "],\n";
  os << "  \"admission_baseline\": [";
  for (std::size_t i = 0; i < r.admission_baseline.size(); ++i) {
    const FleetBaseline& b = r.admission_baseline[i];
    os << (i == 0 ? "\n" : "") << "    {\"mode\": " << json_str(b.runtime)
       << ", \"jobs_completed\": " << b.jobs_completed
       << ", \"jobs_in_deadline\": " << b.jobs_in_deadline << "}"
       << (i + 1 < r.admission_baseline.size() ? ",\n" : "\n  ");
  }
  os << "],\n";
  os << "  \"per_device\": [";
  for (std::size_t i = 0; i < r.devices.size(); ++i) {
    const FleetDeviceResult& d = r.devices[i];
    os << (i == 0 ? "\n" : "") << "    {\"device\": " << d.device
       << ", \"group\": " << json_str(d.group)
       << ", \"offset_s\": " << d.offset_s << ", \"task\": " << json_str(d.task)
       << ", \"runtime\": " << json_str(d.runtime)
       << ", \"capacitance_f\": " << d.capacitance_f << ",\n     \"jobs_completed\": "
       << d.jobs_completed << ", \"jobs_in_deadline\": " << d.jobs_in_deadline
       << ", \"jobs_skipped\": " << d.jobs_skipped
       << ", \"reboots\": " << d.reboots << ", \"tier_switches\": " << d.tier_switches
       << ", \"energy_j\": " << d.energy_j << ", \"steps\": " << d.steps << ",\n";
    os << "     \"jobs\": [\n";
    for (std::size_t j = 0; j < d.jobs.size(); ++j) {
      const sched::JobRecord& jr = d.jobs[j];
      // The per-job verdict: admission skips get their own outcome
      // string (the run never started, so the runtime outcome would lie),
      // and a watchdog-tripped DNF reports as "livelock" (the run was
      // spinning, not merely slow).
      const std::string verdict = jr.skipped_infeasible
                                      ? "skipped_infeasible"
                                      : (jr.livelock ? "livelock"
                                                     : flex::outcome_name(jr.outcome));
      os << "      {\"job\": " << jr.job << ", \"release_s\": " << jr.release_s
         << ", \"start_s\": " << jr.start_s << ", \"finish_s\": " << jr.finish_s
         << ", \"latency_s\": " << jr.latency_s << ", \"staleness_s\": " << jr.staleness_s
         << ",\n       \"outcome\": " << json_str(verdict)
         << ", \"met_deadline\": " << (jr.met_deadline ? "true" : "false")
         << ", \"runtime\": " << json_str(jr.runtime) << ", \"reboots\": " << jr.reboots
         << ", \"checkpoints\": " << jr.checkpoints
         << ", \"progress_commits\": " << jr.progress_commits
         << ", \"tier_switches\": " << jr.tier_switches
         << ", \"energy_j\": " << jr.energy_j
         << ", \"energy_reclaimed_j\": " << jr.energy_reclaimed_j << "}"
         << (j + 1 < d.jobs.size() ? "," : "") << "\n";
    }
    os << "     ]}" << (i + 1 < r.devices.size() ? ",\n" : "\n  ");
  }
  os << "]\n}\n";
}

}  // namespace ehdnn::sim
