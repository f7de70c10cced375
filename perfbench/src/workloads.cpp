#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <functional>
#include <memory>
#include <thread>

#include "core/ace/compiled_model.h"
#include "core/flex/executor.h"
#include "dsp/circulant.h"
#include "dsp/fft.h"
#include "models/zoo.h"
#include "power/capacitor.h"
#include "power/factory.h"
#include "power/monitor.h"
#include "probes.h"
#include "sched/adaptive.h"
#include "sim/fleet.h"
#include "sim/scenario.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace ehdnn;
using fx::q15_t;

// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 11;
// Fleet set-up takes ~20 ms, so it repeats more often to span a similar
// stretch of host time.
constexpr int kFleetSetupReps = 41;
// Worker threads for the untimed correctness checks. The timed phase is
// always one closed-loop caller on one thread.
constexpr int kCheckThreads = 3;
// Modeled cycles/energy against the scalar oracle (aggregated FP sums
// vs per-word sums, as in perf_harness).
constexpr double kCostRelTol = 1e-9;

// harvest: flex/tails inferences per round for every sonic/tile one, so
// the bulk-path and per-word-path halves take similar host time.
constexpr int kBulkPerRound = 60;
// Harvest idle gaps are uniform in [0, kMaxGapS): one span of the looping
// rf_office trace, so inferences start at every phase of it.
constexpr double kMaxGapS = 1.0;

// Rounds in each workload's fixed quota: the sim_* metrics, the
// traced-vs-untraced equality check and the traced per-layer totals all
// cover exactly these rounds, so they do not depend on host speed.
constexpr long kQuotaRounds[] = {200, 3, 1};  // continuous, harvest, fleet
// Host-time quantile that infer_per_s is read from (see host_rate).
constexpr double kFastQuantile = 0.02;

// Fleet population per round: configs/fleet_100k.cfg's three groups,
// scaled down, plus a small adaptive HAR group with the tight deadline of
// configs/fleet_hetero.cfg's har-wearable group, so sim_deadline_rate
// reads the scheduler.
constexpr int kFleetFlex = 24, kFleetSonic = 8, kFleetTile = 5, kFleetAdaptive = 2;
// The engine's resident window for that population. Its 39 devices
// cycle through it ~5 times, as fleet_100k.cfg's 100k cycle through the
// default 1024 ~100 times, so lazy provisioning and slab reuse run; and
// devices retire one by one, so each result marks a short stretch of
// work (see fleet_rate).
constexpr int kFleetResident = 8;

// The paper's ratios as bench/fig7a_continuous.cpp and
// bench/fig7c_energy.cpp quote them, per task (MNIST, HAR, OKG).
// Fig. 7a: ACE+FLEX speedup vs BASE, SONIC, TAILS on continuous power.
constexpr double kPaperSpeedup[3][3] = {{3.0, 4.0, 3.3}, {5.4, 5.7, 2.6}, {1.7, 3.3, 2.1}};
// Fig. 7c: ACE+FLEX energy saving vs SONIC, TAILS on intermittent power.
constexpr double kPaperSaving[3][2] = {{6.1, 4.31}, {10.9, 5.26}, {6.25, 3.05}};

constexpr models::Task kTasks[] = {models::Task::kMnist, models::Task::kHar,
                                   models::Task::kOkg};

enum class Kind { kContinuous = 0, kHarvest = 1, kFleet = 2 };

Kind parse_kind(const std::string& name) {
  if (name == "continuous") return Kind::kContinuous;
  if (name == "harvest") return Kind::kHarvest;
  check(name == "fleet", "perfbench: unknown workload \"" + name + "\"");
  return Kind::kFleet;
}

long quota_rounds(Kind k) { return kQuotaRounds[static_cast<int>(k)]; }

// splitmix64 over the arguments: independent streams from one seed.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0) {
  std::uint64_t z = a;
  for (const std::uint64_t v : {b, c}) {
    z += 0x9e3779b97f4a7c15ull + v;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
  }
  return z;
}

std::uint64_t hash_output(const std::vector<q15_t>& out) {
  std::uint64_t h = 1469598103934665603ull ^ out.size();
  for (const q15_t v : out) {
    h ^= static_cast<std::uint16_t>(v);
    h *= 1099511628211ull;
  }
  return h;
}

double secs_since(std::int64_t t0_ns) { return static_cast<double>(now_ns() - t0_ns) * 1e-9; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

bool close_rel(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  return std::abs(a - b) <= kCostRelTol * scale;
}

// Geometric mean of the relative errors of simulated vs paper ratios.
double geomean_rel_err(const std::vector<std::pair<double, double>>& sim_paper) {
  double log_sum = 0.0;
  for (const auto& [sim, paper] : sim_paper) {
    log_sum += std::log(std::abs(sim - paper) / paper);
  }
  return std::exp(log_sum / static_cast<double>(sim_paper.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

InferRecord to_record(int unit, long index, const flex::RunStats& st) {
  InferRecord r;
  r.unit = unit;
  r.index = index;
  r.outcome = static_cast<int>(st.outcome);
  r.livelock = st.livelock;
  r.on_s = st.on_seconds;
  r.off_s = st.off_seconds;
  r.energy_j = st.energy_j;
  r.ckpt_energy_j = st.checkpoint_energy_j;
  r.reboots = st.reboots;
  r.checkpoints = st.checkpoints;
  r.progress_commits = st.progress_commits;
  r.units_executed = st.units_executed;
  r.units_total = st.units_total;
  r.output_hash = hash_output(st.output);
  return r;
}

bool completed(const InferRecord& r) {
  return r.outcome == static_cast<int>(flex::Outcome::kCompleted);
}

// ---- continuous and harvest: task x runtime devices -------------------

struct UnitSpec {
  models::Task task;
  const char* runtime;
  int per_round;
};

std::vector<UnitSpec> unit_specs(Kind k) {
  std::vector<UnitSpec> s;
  for (const models::Task t : kTasks) {
    if (k == Kind::kContinuous) {
      s.push_back({t, "ace", 1});
      s.push_back({t, "base", 1});
    } else {
      s.push_back({t, "flex", kBulkPerRound});
      s.push_back({t, "tails", kBulkPerRound});
      s.push_back({t, "sonic", 1});
      s.push_back({t, "tile", 1});
    }
  }
  return s;
}

// One task x runtime device. Under harvest its capacitor stays alive
// across all of the unit's inferences.
struct Unit {
  UnitSpec spec;
  bool compressed = false;
  const quant::QuantModel* qm = nullptr;
  std::unique_ptr<dev::Device> dev;
  std::unique_ptr<power::CapacitorSupply> cap;
  std::unique_ptr<TimedSupply> timed_supply;
  std::unique_ptr<flex::RuntimePolicy> policy;
  std::unique_ptr<TimedPolicy> timed_policy;
  ace::CompiledModel cm;
  flex::RunOptions opts;
  std::vector<q15_t> input;
  long next_index = 0;

  flex::RuntimePolicy& driven() { return timed_policy ? *timed_policy : *policy; }
};

struct SetupTimes {
  double total_s = 0.0, qmodel_build_s = 0.0, compile_s = 0.0;
};

struct DeviceWorld {
  Kind kind = Kind::kContinuous;
  std::uint64_t seed = 0;
  std::unique_ptr<power::HarvestSource> source;  // harvest only
  std::map<std::pair<int, bool>, quant::QuantModel> qms;  // (task, compressed)
  std::vector<Unit> units;
  SetupTimes times;
  Tracer* tracer = nullptr;  // null: untraced
  // Traced runs: power cycles, and those that banked a commit or
  // checkpoint or completed the inference.
  long power_cycles = 0, productive_cycles = 0;

  long round_size() const {
    long n = 0;
    for (const Unit& u : units) n += u.spec.per_round;
    return n;
  }
};

// Inference `index` of unit `ui` gets this input, whoever runs it.
void fill_input(std::uint64_t seed, int ui, long index, std::vector<q15_t>& input,
                Rng* rest = nullptr) {
  Rng rng(mix(seed, 0x1a9u + static_cast<std::uint64_t>(ui),
              static_cast<std::uint64_t>(index)));
  for (auto& v : input) v = static_cast<q15_t>(rng.next_u64());
  if (rest != nullptr) *rest = rng;
}

std::unique_ptr<DeviceWorld> build_world(Kind kind, std::uint64_t seed,
                                         const std::string& root, Tracer* tracer) {
  const std::int64_t t0 = now_ns();
  auto w = std::make_unique<DeviceWorld>();
  w->kind = kind;
  w->seed = seed;
  w->tracer = tracer;
  const bool harvest = kind == Kind::kHarvest;
  if (harvest) {
    w->source = power::make_harvest_source("trace:path=" + root + "/traces/rf_office.csv");
  }
  const std::vector<UnitSpec> specs = unit_specs(kind);
  w->units.resize(specs.size());
  for (std::size_t ui = 0; ui < specs.size(); ++ui) {
    Unit& u = w->units[ui];
    u.spec = specs[ui];
    u.compressed = sim::runtime_uses_compressed_model(u.spec.runtime);
    const std::pair<int, bool> key{static_cast<int>(u.spec.task), u.compressed};
    if (w->qms.count(key) == 0) {
      const std::int64_t tq = now_ns();
      Rng rng(mix(seed, 0x5eedu + static_cast<std::uint64_t>(key.first), u.compressed));
      w->qms.emplace(key, models::make_deployed_qmodel(u.spec.task, u.compressed, rng));
      w->times.qmodel_build_s += secs_since(tq);
    }
    u.qm = &w->qms.at(key);

    dev::DeviceConfig dcfg = models::deployment_device_config(u.compressed);
    dcfg.scramble_seed = mix(seed, 0xdee5u, ui);
    u.dev = std::make_unique<dev::Device>(dcfg);
    if (harvest) {
      power::CapacitorConfig ccfg;
      ccfg.capacitance_f = 10e-6;
      ccfg.max_off_s = 30.0;
      u.cap = std::make_unique<power::CapacitorSupply>(*w->source, ccfg);
      if (tracer != nullptr) {
        u.timed_supply = std::make_unique<TimedSupply>(*u.cap, *tracer);
        u.dev->attach_supply(u.timed_supply.get());
      } else {
        u.dev->attach_supply(u.cap.get());
      }
    }
    const std::int64_t tc = now_ns();
    u.cm = ace::compile(*u.qm, *u.dev);
    w->times.compile_s += secs_since(tc);

    u.policy = sim::make_policy(u.spec.runtime);
    const double worst_ck = sched::provision_deployment(
        *u.policy, u.dev->cost(), u.cm, nullptr,
        harvest ? u.cap->burst_energy() : std::numeric_limits<double>::infinity());
    if (harvest) {
      u.opts.flex_v_warn = power::warn_voltage_for(u.cap->config(), worst_ck + 5e-6, 3.0);
    }
    if (tracer != nullptr) {
      u.timed_policy = std::make_unique<TimedPolicy>(*u.policy, *tracer,
                                                     /*attribute_layers=*/!harvest);
    }
    u.input.resize(u.qm->layers.front().in_size());
  }
  w->times.total_s = secs_since(t0);
  return w;
}

InferRecord run_one(DeviceWorld& w, int ui) {
  Unit& u = w.units[static_cast<std::size_t>(ui)];
  const long index = u.next_index++;
  Rng rest;
  fill_input(w.seed, ui, index, u.input, &rest);
  if (u.cap) {
    dev::PowerSupply& supply = *u.dev->supply();
    supply.idle_until(supply.now() + rest.uniform(0.0, kMaxGapS));
  }
  flex::IntermittentExecutor ex(u.driven());
  Tracer* tr = w.tracer;
  if (tr == nullptr) {
    ex.start(*u.dev, u.cm, u.input, u.opts);
    while (ex.step()) {
    }
    return to_record(ui, index, ex.stats());
  }
  tr->open(SpanKind::kInference);
  ex.start(*u.dev, u.cm, u.input, u.opts);
  long banked0 = 0;
  for (;;) {
    const long reboots0 = u.dev->reboots();
    tr->open(SpanKind::kSlice);
    const bool more = ex.step();
    const bool recovered = u.dev->reboots() > reboots0;
    tr->close(recovered ? kSliceRecover : kSliceRun);
    if (recovered || !more) {
      // A power cycle just ended (a reboot, or the end of the run).
      const flex::RunStats& st = ex.stats();
      const long banked = st.progress_commits + st.checkpoints;
      ++w.power_cycles;
      if (banked > banked0 || (!more && st.completed())) ++w.productive_cycles;
      banked0 = banked;
    }
    if (!more) break;
  }
  tr->close(static_cast<std::uint8_t>(ui));
  return to_record(ui, index, ex.stats());
}

struct Phase {
  std::vector<InferRecord> records;
  std::vector<double> host_s;  // host seconds of each record's inference
  long rounds = 0;
};

// Host throughput of a phase: a round's inference count over the host
// time a round takes when every task x runtime unit runs at its
// kFastQuantile per-inference host time. On a host shared with other
// tenants their load can move single-threaded speed by up to 2x for
// seconds at a time; a low quantile of each unit's own samples reads the
// unit's cost in the quiet stretches, which a mean or median over the
// run does not.
double host_rate(const DeviceWorld& w, const Phase& p) {
  std::vector<std::vector<double>> per_unit(w.units.size());
  for (std::size_t i = 0; i < p.records.size(); ++i) {
    per_unit[static_cast<std::size_t>(p.records[i].unit)].push_back(p.host_s[i]);
  }
  double round_s = 0.0;
  for (std::size_t ui = 0; ui < w.units.size(); ++ui) {
    round_s += w.units[ui].spec.per_round * percentile(per_unit[ui], kFastQuantile);
  }
  return static_cast<double>(w.round_size()) / round_s;
}

// Closed loop: whole rounds until at least `min_rounds` ran and
// `min_seconds` passed.
Phase run_rounds(DeviceWorld& w, long min_rounds, double min_seconds) {
  Phase p;
  const std::int64_t t0 = now_ns();
  while (p.rounds < min_rounds || secs_since(t0) < min_seconds) {
    for (std::size_t ui = 0; ui < w.units.size(); ++ui) {
      for (int j = 0; j < w.units[ui].spec.per_round; ++j) {
        const std::int64_t ti = now_ns();
        p.records.push_back(run_one(w, static_cast<int>(ui)));
        p.host_s.push_back(secs_since(ti));
      }
    }
    ++p.rounds;
  }
  return p;
}

// The reference each checked inference is compared against: on
// continuous the scalar per-word device path, on harvest the same
// runtime on bench power.
//
// Continuous also re-checks the bulk/scalar modeled-cost contract. Both
// are measured from a zeroed EnergyTrace: RunStats is a difference of
// the device's lifetime accumulators, and on a device that has already
// run a few hundred inferences that difference carries ~1e-9 relative
// rounding of its own, so the timed record's energy is compared to the
// fresh figure only as the reported drift (device.energy_drift_rel).
struct Oracle {
  int ui = -1;
  std::unique_ptr<dev::Device> dev;
  ace::CompiledModel cm;
  std::unique_ptr<flex::RuntimePolicy> policy;
  std::vector<q15_t> input;
  double drift = 0.0;  // largest relative energy drift of a timed record

  void prepare(const DeviceWorld& w, int unit) {
    if (ui == unit) return;
    dev.reset();
    ui = unit;
    const Unit& u = w.units[static_cast<std::size_t>(unit)];
    dev = std::make_unique<dev::Device>(models::deployment_device_config(u.compressed));
    cm = ace::compile(*u.qm, *dev);
    policy = sim::make_policy(u.spec.runtime);
    input.resize(u.input.size());
  }

  flex::RunStats run(bool bulk) {
    dev->set_bulk_enabled(bulk);
    dev->trace().reset();
    return flex::IntermittentExecutor(*policy).run(*dev, cm, input);
  }

  bool agrees(const DeviceWorld& w, const InferRecord& r) {
    fill_input(w.seed, r.unit, r.index, input);
    if (w.kind != Kind::kContinuous) {
      const flex::RunStats st = run(true);
      return st.completed() && completed(r) && hash_output(st.output) == r.output_hash;
    }
    const flex::RunStats scalar = run(false);
    const flex::RunStats bulk = run(true);
    drift = std::max(drift, std::abs(r.energy_j - bulk.energy_j) / bulk.energy_j);
    return scalar.completed() && completed(r) &&
           hash_output(scalar.output) == r.output_hash &&
           close_rel(scalar.on_seconds, r.on_s) &&
           close_rel(scalar.on_seconds, bulk.on_seconds) &&
           close_rel(scalar.energy_j, bulk.energy_j);
  }
};

struct CheckResult {
  long failed = 0;
  double energy_drift_rel = 0.0;
};

// Checks every record, outside the timed phase, on kCheckThreads
// workers.
CheckResult check_records(const DeviceWorld& w, const std::vector<InferRecord>& recs) {
  // Chunks of one unit's records, so a worker rebuilds its oracle only
  // when it moves to another unit.
  std::vector<std::vector<std::size_t>> by_unit(w.units.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    by_unit[static_cast<std::size_t>(recs[i].unit)].push_back(i);
  }
  constexpr std::size_t kChunk = 32;
  std::vector<std::pair<const std::vector<std::size_t>*, std::size_t>> chunks;
  for (const auto& idx : by_unit) {
    for (std::size_t at = 0; at < idx.size(); at += kChunk) chunks.push_back({&idx, at});
  }
  std::atomic<std::size_t> next{0};
  std::vector<CheckResult> per_thread(kCheckThreads);
  auto worker = [&](CheckResult& out) {
    Oracle oracle;
    for (std::size_t c = next++; c < chunks.size(); c = next++) {
      const auto& [idx, at] = chunks[c];
      for (std::size_t k = at; k < std::min(at + kChunk, idx->size()); ++k) {
        const InferRecord& r = recs[(*idx)[k]];
        oracle.prepare(w, r.unit);
        if (!oracle.agrees(w, r)) ++out.failed;
      }
    }
    out.energy_drift_rel = oracle.drift;
  };
  std::vector<std::thread> pool;
  for (CheckResult& out : per_thread) pool.emplace_back(worker, std::ref(out));
  for (auto& t : pool) t.join();
  CheckResult total;
  for (const CheckResult& c : per_thread) {
    total.failed += c.failed;
    total.energy_drift_rel = std::max(total.energy_drift_rel, c.energy_drift_rel);
  }
  return total;
}

// Fig. 7a inputs: one untimed continuous-power inference of ACE+FLEX
// (compressed model) and of BASE, SONIC and TAILS (dense twin) per task.
double continuous_paper_err(const DeviceWorld& w) {
  std::vector<std::pair<double, double>> sim_paper;
  for (int ti = 0; ti < 3; ++ti) {
    auto latency = [&](const char* key, bool compressed) {
      dev::Device dev(models::deployment_device_config(compressed));
      const auto cm = ace::compile(w.qms.at({static_cast<int>(kTasks[ti]), compressed}), dev);
      std::vector<q15_t> input(cm.model.layers.front().in_size());
      fill_input(w.seed, 1000 + ti, 0, input);  // a stream no timed unit uses
      auto policy = sim::make_policy(key);
      const flex::RunStats st = flex::IntermittentExecutor(*policy).run(dev, cm, input);
      check(st.completed(), "perfbench: paper reference inference did not complete");
      return st.on_seconds;
    };
    const double flex_s = latency("flex", true);
    const char* baselines[] = {"base", "sonic", "tails"};
    for (int b = 0; b < 3; ++b) {
      sim_paper.push_back({latency(baselines[b], false) / flex_s, kPaperSpeedup[ti][b]});
    }
  }
  return geomean_rel_err(sim_paper);
}

// Fig. 7c inputs: energy per completed inference of SONIC and TAILS over
// ACE+FLEX per task, from the quota's own harvested-power inferences.
double harvest_paper_err(const DeviceWorld& w, const std::vector<InferRecord>& quota) {
  std::vector<double> joules(w.units.size(), 0.0), done(w.units.size(), 0.0);
  for (const InferRecord& r : quota) {
    if (!completed(r)) continue;
    joules[static_cast<std::size_t>(r.unit)] += r.energy_j;
    done[static_cast<std::size_t>(r.unit)] += 1.0;
  }
  auto per_infer = [&](models::Task t, const std::string& rt) {
    for (std::size_t ui = 0; ui < w.units.size(); ++ui) {
      if (w.units[ui].spec.task == t && rt == w.units[ui].spec.runtime) {
        check(done[ui] > 0.0, "perfbench: no completed " + rt + " inference in the quota");
        return joules[ui] / done[ui];
      }
    }
    fail("perfbench: no " + rt + " unit");
  };
  std::vector<std::pair<double, double>> sim_paper;
  for (int ti = 0; ti < 3; ++ti) {
    const double flex_j = per_infer(kTasks[ti], "flex");
    sim_paper.push_back({per_infer(kTasks[ti], "sonic") / flex_j, kPaperSaving[ti][0]});
    sim_paper.push_back({per_infer(kTasks[ti], "tails") / flex_j, kPaperSaving[ti][1]});
  }
  return geomean_rel_err(sim_paper);
}

std::vector<Metric> device_sim_metrics(const std::vector<InferRecord>& quota,
                                       double paper_err) {
  std::vector<double> latency_ms;
  double joules = 0.0;
  long done = 0;
  for (const InferRecord& r : quota) {
    latency_ms.push_back((r.on_s + r.off_s) * 1e3);
    joules += r.energy_j;
    done += completed(r) ? 1 : 0;
  }
  const double completion = static_cast<double>(done) / static_cast<double>(quota.size());
  return {
      {"sim_latency_ms_p50", percentile(latency_ms, 0.50), "sim_ms"},
      {"sim_latency_ms_p99", percentile(latency_ms, 0.99), "sim_ms"},
      {"sim_energy_uj_per_infer", joules / static_cast<double>(done) * 1e6, "uJ"},
      {"sim_completion_rate", completion, "ratio"},
      // No deadlines outside the fleet: every completed inference is in time.
      {"sim_deadline_rate", completion, "ratio"},
      {"sim_paper_err", paper_err, "ratio"},
  };
}

std::vector<InferRecord> quota_of(const DeviceWorld& w, const Phase& p) {
  const auto n = static_cast<std::size_t>(quota_rounds(w.kind) * w.round_size());
  return {p.records.begin(), p.records.begin() + static_cast<long>(n)};
}

double paper_err(const DeviceWorld& w, const std::vector<InferRecord>& quota) {
  return w.kind == Kind::kContinuous ? continuous_paper_err(w) : harvest_paper_err(w, quota);
}

// Host cost of single dsp and device operations, timed by direct calls
// (median over batches of per-call nanoseconds).
template <typename F>
double per_call_ns(int reps, F&& body) {
  std::vector<double> batches;
  for (int b = 0; b < 7; ++b) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < reps; ++i) body(i);
    batches.push_back(static_cast<double>(now_ns() - t0) / reps);
  }
  return median(batches);
}

void micro_metrics(std::vector<Metric>& m) {
  constexpr std::size_t kN = 256;
  Rng rng(kN);
  std::vector<fx::cq15> buf(kN), work(kN);
  for (auto& c : buf) {
    c = {fx::to_q15(rng.uniform(-0.5, 0.5)), fx::to_q15(rng.uniform(-0.5, 0.5))};
  }
  dsp::fft_plan(kN);
  m.push_back({"dsp.fft256_ns", per_call_ns(400, [&](int) {
                  work = buf;
                  dsp::fft_q15(work, dsp::FftScaling::kBlockFloat);
                }),
               "ns"});
  std::vector<q15_t> col(kN), x(kN), out(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    col[i] = fx::to_q15(rng.uniform(-0.1, 0.1));
    x[i] = fx::to_q15(rng.uniform(-0.5, 0.5));
  }
  dsp::CirculantScratchQ15 scratch;
  m.push_back({"dsp.circulant256_ns", per_call_ns(200, [&](int) {
                  dsp::circulant_matvec_q15(col, x, dsp::FftScaling::kBlockFloat, scratch,
                                            out);
                }),
               "ns"});

  dev::Device d(models::deployment_device_config(true));
  for (dev::Addr a = 0; a < 2 * kN; ++a) d.sram().poke(a, static_cast<q15_t>(rng.next_u64()));
  constexpr dev::Addr kWords = 4096;
  m.push_back({"device.mac_block_ns",
               per_call_ns(2000, [&](int) { d.mac_block(0, kN, kN); }), "ns"});
  m.push_back({"device.read_word_ns", per_call_ns(20000, [&](int i) {
                  d.read(dev::MemKind::kFram, static_cast<dev::Addr>(i) % kWords);
                }),
               "ns"});
  m.push_back({"device.write_word_ns", per_call_ns(20000, [&](int i) {
                  d.write(dev::MemKind::kFram, static_cast<dev::Addr>(i) % kWords,
                          static_cast<q15_t>(i));
                }),
               "ns"});
  m.push_back({"device.reboot_us", per_call_ns(50, [&](int) { d.reboot(); }) * 1e-3, "us"});
}

// Record-level sums behind the traced per-layer metrics.
struct RecordSums {
  double on_s = 0.0, off_s = 0.0, flex_j = 0.0, flex_ckpt_j = 0.0;
  long reboots = 0, checkpoints = 0, commits = 0, units_total = 0, units_executed = 0;
  long power_cycles = 0, productive_cycles = 0;
};

RecordSums sum_records(const DeviceWorld& w, const std::vector<InferRecord>& recs) {
  RecordSums s;
  for (const InferRecord& r : recs) {
    s.on_s += r.on_s;
    s.off_s += r.off_s;
    s.reboots += r.reboots;
    s.checkpoints += r.checkpoints;
    s.commits += r.progress_commits;
    s.units_total += r.units_total;
    s.units_executed += r.units_executed;
    if (std::string("flex") == w.units[static_cast<std::size_t>(r.unit)].spec.runtime) {
      s.flex_j += r.energy_j;
      s.flex_ckpt_j += r.ckpt_energy_j;
    }
  }
  s.power_cycles = w.power_cycles;
  s.productive_cycles = w.productive_cycles;
  return s;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }
double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Slice and inference time outside every named layer: the executor's
// own work plus the driving loop between slices.
std::int64_t executor_self_ns(const TraceTotals& t) {
  return t.slice_self_ns[kSliceRun] + t.inference_self_ns;
}

// The ace/power/flex layers, measured through the decorators. The fleet
// workload cannot reach them (the engine owns its devices) and reports 0.
void device_layer_metrics(const TraceTotals& t, const RecordSums& s, std::vector<Metric>& m) {
  const char* classes[] = {"conv", "fc", "bcm", "other"};
  for (int c = 0; c < kLayerClasses; ++c) {
    const std::string p = std::string("ace.") + classes[c];
    m.push_back({p + "_ms", ms(t.layer_ns[c]), "ms"});
    m.push_back({p + "_mcycles", t.layer_cycles[c] * 1e-6, "Mcycles"});
    m.push_back({p + "_uj", t.layer_joules[c] * 1e6, "uJ"});
  }
  const auto d = [](long v) { return static_cast<double>(v); };
  m.push_back({"power.settle_ms", ms(t.settle_ns), "ms"});
  m.push_back({"power.settle_calls", d(t.settle_calls), "count"});
  m.push_back({"power.settle_events", d(t.settle_events), "count"});
  m.push_back(
      {"power.events_per_call", ratio(d(t.settle_events), d(t.settle_calls)), "ratio"});
  m.push_back({"power.recharge_ms", ms(t.recharge_ns), "ms"});
  m.push_back({"power.recharges", d(t.recharges), "count"});
  m.push_back({"power.voltage_reads", d(t.voltage_reads), "count"});
  m.push_back({"power.off_frac", ratio(s.off_s, s.on_s + s.off_s), "ratio"});
  m.push_back({"flex.boot_ms", ms(t.policy_self_ns[kPolicyBoot]), "ms"});
  m.push_back({"flex.boots", d(t.policy_calls[kPolicyBoot]), "count"});
  const std::int64_t step_ns = t.policy_self_ns[kPolicyStep] + t.policy_self_ns[kPolicyRetry];
  m.push_back({"flex.step_ms", ms(step_ns), "ms"});
  m.push_back({"flex.steps", d(t.policy_calls[kPolicyStep]), "count"});
  m.push_back({"flex.recover_ms", ms(t.slice_self_ns[kSliceRecover]), "ms"});
  m.push_back({"flex.executor_self_ms", ms(executor_self_ns(t)), "ms"});
  m.push_back({"flex.reboots", d(s.reboots), "count"});
  m.push_back({"flex.checkpoints", d(s.checkpoints), "count"});
  m.push_back({"flex.progress_commits", d(s.commits), "count"});
  m.push_back({"flex.ckpt_energy_frac", ratio(s.flex_ckpt_j, s.flex_j), "ratio"});
  m.push_back(
      {"flex.useful_unit_frac", ratio(d(s.units_total), d(s.units_executed)), "ratio"});
  m.push_back({"flex.productive_boot_frac", ratio(d(s.productive_cycles), d(s.power_cycles)),
               "ratio"});
}

// The sim/sched layers, read through FleetRunOptions::profile and
// FleetReport::metrics. The device workloads run no engine and report 0.
struct FleetLayers {
  double build_s = 0.0, recharge_s = 0.0, kernel_s = 0.0, checkpoint_s = 0.0, engine_s = 0.0;
  long slices = 0, recoveries = 0, checkpoints = 0, total_steps = 0, total_reboots = 0;
  obs::MetricsRegistry events;
};

void fleet_layer_metrics(const FleetLayers& f, std::vector<Metric>& m) {
  const auto d = [](long v) { return static_cast<double>(v); };
  m.push_back({"profile.build_s", f.build_s, "s"});
  m.push_back({"profile.recharge_s", f.recharge_s, "s"});
  m.push_back({"profile.kernel_s", f.kernel_s, "s"});
  m.push_back({"profile.checkpoint_s", f.checkpoint_s, "s"});
  m.push_back({"profile.engine_s", f.engine_s, "s"});
  m.push_back({"profile.slices", d(f.slices), "count"});
  m.push_back({"profile.recoveries", d(f.recoveries), "count"});
  m.push_back({"profile.checkpoints", d(f.checkpoints), "count"});
  m.push_back({"fleet.total_steps", d(f.total_steps), "count"});
  m.push_back({"fleet.total_reboots", d(f.total_reboots), "count"});
  for (const char* kind : {"recovery", "commit", "checkpoint_end", "tier_select",
                           "tier_switch", "forecast_lock", "futile_boot", "park"}) {
    const std::string name = std::string("event.") + kind;
    const auto it = f.events.counters().find(name);
    m.push_back({name, it == f.events.counters().end() ? 0.0 : d(it->second), "count"});
  }
}

// The end-to-end metrics every workload reports before its sim_* ones.
std::vector<Metric> e2e_metrics(const std::vector<SetupTimes>& setups, double infer_per_s,
                                double rss_mb, const RunResult& res) {
  std::vector<double> setup_s;
  for (const SetupTimes& s : setups) setup_s.push_back(s.total_s);
  return {
      {"setup_s", median(setup_s), "s"},
      {"infer_per_s", infer_per_s, "1/s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"check_pass_frac",
       1.0 - static_cast<double>(res.failed) / static_cast<double>(res.attempted), "ratio"},
  };
}

std::vector<Metric> setup_metrics(const std::vector<SetupTimes>& reps) {
  std::vector<double> q, c;
  for (const SetupTimes& s : reps) {
    q.push_back(s.qmodel_build_s);
    c.push_back(s.compile_s);
  }
  return {{"models.qmodel_build_s", median(q), "s"}, {"ace.compile_s", median(c), "s"}};
}

RunResult run_device_benchmark(const RunConfig& cfg, Kind kind) {
  RunResult res;
  std::vector<SetupTimes> setups;
  std::unique_ptr<DeviceWorld> world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world.reset();
    world = build_world(kind, cfg.seed, cfg.root, nullptr);
    setups.push_back(world->times);
  }
  const long quota = quota_rounds(kind);

  if (!cfg.trace) {
    const Phase timed = run_rounds(*world, quota, cfg.seconds);
    const double rss = peak_rss_mb();
    res.attempted = static_cast<long>(timed.records.size());
    res.failed = check_records(*world, timed.records).failed;
    res.metrics = e2e_metrics(setups, host_rate(*world, timed), rss, res);
    const std::vector<InferRecord> q = quota_of(*world, timed);
    for (Metric& s : device_sim_metrics(q, paper_err(*world, q))) res.metrics.push_back(s);
    res.correct = res.failed == 0;
    return res;
  }

  // Traced run: the quota untraced (on the last set-up), then again
  // traced on a fresh set-up; the two must agree exactly.
  const Phase plain = run_rounds(*world, quota, 0.0);
  world.reset();
  Tracer tracer;
  world = build_world(kind, cfg.seed, cfg.root, &tracer);
  const Phase traced = run_rounds(*world, quota, 0.0);
  long mismatched = 0;
  for (std::size_t i = 0; i < traced.records.size(); ++i) {
    if (i >= plain.records.size() || !(traced.records[i] == plain.records[i])) ++mismatched;
  }
  res.attempted = static_cast<long>(traced.records.size());
  const CheckResult checked = check_records(*world, traced.records);
  res.failed = checked.failed + mismatched;
  res.correct = res.failed == 0;

  res.metrics = setup_metrics(setups);
  const TraceTotals& t = tracer.totals();
  device_layer_metrics(t, sum_records(*world, traced.records), res.metrics);
  fleet_layer_metrics(FleetLayers{}, res.metrics);
  micro_metrics(res.metrics);
  res.metrics.push_back({"device.energy_drift_rel", checked.energy_drift_rel, "ratio"});
  // Everything but the executor's own residual is a named layer.
  const double named_ns = static_cast<double>(t.inference_ns - executor_self_ns(t));
  res.metrics.push_back({"trace.split_closed_pct",
                         100.0 * ratio(named_ns, static_cast<double>(t.inference_ns)), "%"});
  const double overhead = 1.0 - host_rate(*world, traced) / host_rate(*world, plain);
  res.metrics.push_back({"trace.overhead_frac", overhead, "ratio"});
  if (!cfg.spans_out.empty()) {
    check(tracer.write_csv(cfg.spans_out), "perfbench: cannot write " + cfg.spans_out);
  }
  return res;
}

// ---- fleet -------------------------------------------------------------

// Every round runs this same fleet, so each stretch of engine work
// between two device results recurs once per round (see fleet_rate).
sim::FleetConfig fleet_config(const std::string& root, std::uint64_t seed) {
  sim::FleetConfig cfg = sim::parse_fleet_config_file(root + "/configs/fleet_100k.cfg");
  cfg.seed = mix(seed, 0xf1ee7u, 0);
  cfg.per_device_detail = false;
  const std::map<std::string, int> counts = {
      {"flex-city", kFleetFlex}, {"sonic-belt", kFleetSonic}, {"tile-dust", kFleetTile}};
  check(cfg.groups.size() == counts.size(), "perfbench: unexpected fleet_100k.cfg groups");
  for (sim::FleetGroup& g : cfg.groups) {
    check(counts.count(g.name) == 1, "perfbench: unexpected fleet_100k.cfg group " + g.name);
    g.count = counts.at(g.name);
  }
  sim::FleetGroup a;
  a.name = "har-adaptive";
  a.count = kFleetAdaptive;
  a.task = models::Task::kHar;
  a.agenda.runtime = "adaptive";
  a.agenda.jobs = 2;
  a.agenda.period_s = 0.2;
  a.agenda.deadline_s = 0.1;
  a.capacitance_f = 10e-6;
  a.sched_spec = "adaptive:sel=deadline,fc=periodic";
  cfg.groups.push_back(a);
  return cfg;
}

// Checks every device result as it streams out of the engine: one
// verdict per job, per-device counters that recount from the job
// records, and per-device sums that equal the report's totals. Also
// stamps the host time at which each result arrives.
class FleetChecker : public sim::FleetSink {
 public:
  explicit FleetChecker(const sim::FleetConfig& cfg) {
    for (const sim::FleetGroup& g : cfg.groups) {
      for (int k = 0; k < g.count; ++k) expected_jobs_.push_back(g.agenda.jobs);
    }
    seen_.assign(expected_jobs_.size(), 0);
  }

  void record(const sim::FleetDeviceResult& d) override {
    stamps_ns_.push_back(now_ns());
    const auto id = static_cast<std::size_t>(d.device);
    bool ok = id < seen_.size() && seen_[id]++ == 0 &&
              static_cast<int>(d.jobs.size()) == expected_jobs_[id] &&
              d.jobs_total == static_cast<int>(d.jobs.size());
    int completed = 0, in_deadline = 0, skipped = 0, dnf = 0, starved = 0, livelock = 0;
    long reboots = 0;
    for (const sched::JobRecord& j : d.jobs) {
      const bool done = j.outcome == flex::Outcome::kCompleted;
      const bool dnf_run = j.outcome == flex::Outcome::kDidNotFinish;
      const int verdicts = (j.skipped_infeasible ? 1 : 0) + (!j.skipped_infeasible && done) +
                           (!j.skipped_infeasible && dnf_run && j.livelock) +
                           (!j.skipped_infeasible && dnf_run && !j.livelock) +
                           (!j.skipped_infeasible && j.outcome == flex::Outcome::kStarved);
      ok = ok && verdicts == 1 && !(j.skipped_infeasible && (done || j.livelock)) &&
           !(j.livelock && !dnf_run) && (!j.met_deadline || done);
      skipped += j.skipped_infeasible ? 1 : 0;
      completed += !j.skipped_infeasible && done;
      livelock += !j.skipped_infeasible && dnf_run && j.livelock;
      dnf += !j.skipped_infeasible && dnf_run && !j.livelock;
      starved += !j.skipped_infeasible && j.outcome == flex::Outcome::kStarved;
      in_deadline += j.met_deadline ? 1 : 0;
      reboots += j.reboots;
      InferRecord r;
      r.unit = d.device;
      r.index = j.job;
      r.outcome = static_cast<int>(j.outcome);
      r.livelock = j.livelock;
      r.on_s = j.latency_s;
      r.off_s = j.staleness_s;
      r.energy_j = j.energy_j;
      r.reboots = j.reboots;
      r.checkpoints = j.checkpoints;
      r.progress_commits = j.progress_commits;
      r.output_hash = j.met_deadline ? 1 : 0;  // jobs carry no output; keep the verdict
      jobs_.push_back(r);
    }
    ok = ok && completed == d.jobs_completed && in_deadline == d.jobs_in_deadline &&
         skipped == d.jobs_skipped && dnf == d.jobs_dnf && starved == d.jobs_starved &&
         livelock == d.jobs_livelock && reboots == d.reboots;
    if (!ok) failed_jobs_ += std::max<long>(1, static_cast<long>(d.jobs.size()));
    sum_.total_jobs += d.jobs_total;
    sum_.jobs_completed += d.jobs_completed;
    sum_.jobs_in_deadline += d.jobs_in_deadline;
    sum_.jobs_skipped += d.jobs_skipped;
    sum_.jobs_dnf += d.jobs_dnf;
    sum_.jobs_starved += d.jobs_starved;
    sum_.jobs_livelock += d.jobs_livelock;
    sum_.total_reboots += d.reboots;
    sum_.total_steps += d.steps;
    sum_.total_energy_j += d.energy_j;
    group_joules_[d.group] += d.energy_j;
    group_done_[d.group] += d.jobs_completed;
  }

  void merge(const sim::FleetSink&) override {
    fail("perfbench: the fleet workload runs unsharded; there is nothing to merge");
  }

  void finalize() override {
    std::sort(jobs_.begin(), jobs_.end(), [](const InferRecord& a, const InferRecord& b) {
      return a.unit != b.unit ? a.unit < b.unit : a.index < b.index;
    });
  }

  // Jobs that failed a check, once the report is in: a device seen
  // other than once, or a total the per-device sums do not reproduce,
  // fails every job.
  long failed_jobs(const sim::FleetReport& r) const {
    const bool totals_ok =
        std::all_of(seen_.begin(), seen_.end(), [](int n) { return n == 1; }) &&
        sum_.total_jobs == r.total_jobs && sum_.jobs_completed == r.jobs_completed &&
        sum_.jobs_in_deadline == r.jobs_in_deadline && sum_.jobs_skipped == r.jobs_skipped &&
        sum_.jobs_dnf == r.jobs_dnf && sum_.jobs_starved == r.jobs_starved &&
        sum_.jobs_livelock == r.jobs_livelock && sum_.total_reboots == r.total_reboots &&
        sum_.total_steps == r.total_steps && close_rel(sum_.total_energy_j, r.total_energy_j);
    if (!totals_ok) return std::max<long>(r.total_jobs, 1);
    return failed_jobs_;
  }

  // Modeled energy per completed job of one group.
  double joules_per_job(const std::string& group) const {
    check(group_done_.count(group) == 1 && group_done_.at(group) > 0,
          "perfbench: fleet group " + group + " completed no job");
    return group_joules_.at(group) / static_cast<double>(group_done_.at(group));
  }

  const std::vector<InferRecord>& jobs() const { return jobs_; }
  const std::vector<std::int64_t>& stamps_ns() const { return stamps_ns_; }

 private:
  std::vector<std::int64_t> stamps_ns_;
  std::vector<int> expected_jobs_;
  std::vector<int> seen_;
  std::vector<InferRecord> jobs_;
  long failed_jobs_ = 0;
  sim::FleetReport sum_;
  std::map<std::string, double> group_joules_;
  std::map<std::string, long> group_done_;
};

struct FleetRound {
  sim::FleetReport report;
  std::vector<InferRecord> jobs;
  long failed_jobs = 0;
  double sonic_over_flex_j = 0.0;  // Fig. 7c MNIST SONIC saving, from this round
  double host_s = 0.0;
  // Host seconds from the round's start to the first device result,
  // between consecutive results, and from the last one to the end.
  std::vector<double> segment_s;
};

FleetRound run_fleet_round(const std::string& root, std::uint64_t seed,
                           flex::PhaseProfile* profile) {
  const std::int64_t t0 = now_ns();
  const sim::FleetConfig cfg = fleet_config(root, seed);
  FleetChecker checker(cfg);
  sim::FleetRunOptions opts;
  opts.jobs = 1;
  opts.max_resident = kFleetResident;
  opts.profile = profile;
  FleetRound fr;
  fr.report = sim::FleetEngine(cfg).add_sink(checker).run(opts);
  const std::int64_t t1 = now_ns();
  fr.host_s = static_cast<double>(t1 - t0) * 1e-9;
  std::int64_t prev = t0;
  for (const std::int64_t t : checker.stamps_ns()) {
    fr.segment_s.push_back(static_cast<double>(t - prev) * 1e-9);
    prev = t;
  }
  fr.segment_s.push_back(static_cast<double>(t1 - prev) * 1e-9);
  fr.failed_jobs = checker.failed_jobs(fr.report);
  fr.jobs = checker.jobs();
  fr.sonic_over_flex_j =
      checker.joules_per_job("sonic-belt") / checker.joules_per_job("flex-city");
  return fr;
}

// Host throughput of the timed rounds: a round's job count over the host
// time a round takes when every segment (see FleetRound) runs at its
// kFastQuantile host time across the rounds. The rounds are the same
// fleet, so segment k is the same engine work in each; as in host_rate,
// a low quantile per segment reads its cost in the quiet stretches of a
// shared host, which need not span a whole round.
double fleet_rate(const std::vector<FleetRound>& rounds) {
  const std::size_t n = rounds.front().segment_s.size();
  double round_s = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<double> samples;
    for (const FleetRound& r : rounds) {
      check(r.segment_s.size() == n, "perfbench: fleet rounds delivered unequal results");
      samples.push_back(r.segment_s[k]);
    }
    round_s += percentile(samples, kFastQuantile);
  }
  return static_cast<double>(rounds.front().report.total_jobs) / round_s;
}

std::vector<Metric> fleet_sim_metrics(const FleetRound& r0) {
  const sim::FleetReport& r = r0.report;
  return {
      {"sim_latency_ms_p50", r.latency_p50_s * 1e3, "sim_ms"},
      {"sim_latency_ms_p99", r.latency_p99_s * 1e3, "sim_ms"},
      {"sim_energy_uj_per_infer", r.total_energy_j / r.jobs_completed * 1e6, "uJ"},
      {"sim_completion_rate", r.completion_rate, "ratio"},
      {"sim_deadline_rate", r.deadline_rate, "ratio"},
      {"sim_paper_err", geomean_rel_err({{r0.sonic_over_flex_j, kPaperSaving[0][0]}}),
       "ratio"},
  };
}

// Fleet set-up: the config, the engine's validation, and one build +
// quantize + compile of every group's model variant(s) — the work
// FleetEngine::run repeats in its own build phase (profile.build_s).
SetupTimes fleet_setup(const std::string& root, std::uint64_t seed) {
  SetupTimes s;
  const std::int64_t t0 = now_ns();
  const sim::FleetConfig cfg = fleet_config(root, seed);
  sim::FleetEngine engine(cfg);
  std::map<std::pair<int, bool>, quant::QuantModel> qms;
  for (const sim::FleetGroup& g : cfg.groups) {
    const bool primary = sim::runtime_uses_compressed_model(g.agenda.runtime);
    for (const bool compressed : {true, false}) {
      if (compressed != primary && !sim::runtime_is_adaptive(g.agenda.runtime)) continue;
      const std::pair<int, bool> key{static_cast<int>(g.task), compressed};
      if (qms.count(key) != 0) continue;
      const std::int64_t tq = now_ns();
      Rng rng(mix(cfg.seed, static_cast<std::uint64_t>(key.first), compressed));
      qms.emplace(key, models::make_deployed_qmodel(g.task, compressed, rng));
      s.qmodel_build_s += secs_since(tq);
      dev::Device d(models::deployment_device_config(compressed));
      const std::int64_t tc = now_ns();
      ace::compile(qms.at(key), d);
      s.compile_s += secs_since(tc);
    }
  }
  s.total_s = secs_since(t0);
  return s;
}

RunResult run_fleet_benchmark(const RunConfig& cfg) {
  RunResult res;
  std::vector<SetupTimes> setups;
  for (int rep = 0; rep < kFleetSetupReps; ++rep) {
    setups.push_back(fleet_setup(cfg.root, cfg.seed));
  }
  const long quota = quota_rounds(Kind::kFleet);

  if (!cfg.trace) {
    std::vector<FleetRound> rounds;
    const std::int64_t t0 = now_ns();
    while (static_cast<long>(rounds.size()) < quota || secs_since(t0) < cfg.seconds) {
      rounds.push_back(run_fleet_round(cfg.root, cfg.seed, nullptr));
    }
    const double rss = peak_rss_mb();
    for (const FleetRound& r : rounds) {
      res.attempted += r.report.total_jobs;
      res.failed += r.failed_jobs;
    }
    res.metrics = e2e_metrics(setups, fleet_rate(rounds), rss, res);
    for (Metric& s : fleet_sim_metrics(rounds.front())) res.metrics.push_back(s);
    res.correct = res.failed == 0;
    return res;
  }

  // Traced run: the quota without and then with the engine's public
  // host-time profile; the job records must agree exactly. One untimed
  // round first, so neither side pays the process's first-touch
  // allocation of device memory.
  run_fleet_round(cfg.root, cfg.seed, nullptr);
  double plain_s = 0.0, traced_s = 0.0;
  long plain_jobs = 0, traced_jobs = 0;
  FleetLayers f;
  for (long r = 0; r < quota; ++r) {
    const FleetRound plain = run_fleet_round(cfg.root, cfg.seed, nullptr);
    flex::PhaseProfile prof;
    const FleetRound traced = run_fleet_round(cfg.root, cfg.seed, &prof);
    plain_s += plain.host_s;
    traced_s += traced.host_s;
    plain_jobs += plain.report.total_jobs;
    traced_jobs += traced.report.total_jobs;
    res.attempted += traced.report.total_jobs;
    res.failed += traced.failed_jobs;
    if (!(plain.jobs == traced.jobs)) res.failed += traced.report.total_jobs;
    f.build_s += prof.build_s;
    f.recharge_s += prof.recharge_s;
    f.kernel_s += prof.kernel_s;
    f.checkpoint_s += prof.checkpoint_s;
    f.engine_s += prof.engine_s;
    f.slices += *prof.slices;
    f.recoveries += *prof.recoveries;
    f.checkpoints += *prof.checkpoints;
    f.total_steps += traced.report.total_steps;
    f.total_reboots += traced.report.total_reboots;
    f.events.merge(traced.report.metrics);
  }
  res.correct = res.failed == 0;
  res.metrics = setup_metrics(setups);
  device_layer_metrics(TraceTotals{}, RecordSums{}, res.metrics);
  fleet_layer_metrics(f, res.metrics);
  micro_metrics(res.metrics);
  res.metrics.push_back({"device.energy_drift_rel", 0.0, "ratio"});
  // profile.engine_s is the engine's own residual; the other phases are
  // the named layers.
  res.metrics.push_back(
      {"trace.split_closed_pct",
       100.0 * (f.build_s + f.recharge_s + f.kernel_s + f.checkpoint_s) / traced_s, "%"});
  res.metrics.push_back({"trace.overhead_frac",
                         1.0 - (traced_jobs / traced_s) / (plain_jobs / plain_s), "ratio"});
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"continuous", "harvest", "fleet"};
  return names;
}

RunResult run_benchmark(const RunConfig& cfg) {
  const Kind kind = parse_kind(cfg.workload);
  return kind == Kind::kFleet ? run_fleet_benchmark(cfg) : run_device_benchmark(cfg, kind);
}

QuotaRun run_quota(const std::string& workload, std::uint64_t seed, const std::string& root,
                   bool traced) {
  const Kind kind = parse_kind(workload);
  QuotaRun q;
  if (kind == Kind::kFleet) {
    flex::PhaseProfile prof;
    const FleetRound r = run_fleet_round(root, seed, traced ? &prof : nullptr);
    q.records = r.jobs;
    q.sim = fleet_sim_metrics(r);
    return q;
  }
  Tracer tracer;
  auto world = build_world(kind, seed, root, traced ? &tracer : nullptr);
  const Phase p = run_rounds(*world, quota_rounds(kind), 0.0);
  q.records = quota_of(*world, p);
  q.sim = device_sim_metrics(q.records, paper_err(*world, q.records));
  return q;
}

}  // namespace perfbench
