#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

#include "power/factory.h"
#include "sched/adaptive.h"
#include "sim/recipe.h"
#include "util/check.h"
#include "util/format.h"
#include "util/parallel.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/spec.h"

namespace ehdnn::sim {

namespace {

std::unique_ptr<flex::RuntimePolicy> make_adaptive_default() {
  return sched::make_adaptive_policy();
}

// Deadline-aware scheduling v2 as its own sweep column: predicted-
// completion tier selection over the periodic harvest forecaster (no
// admission — a one-shot scenario cell has no deadline to refuse).
std::unique_ptr<flex::RuntimePolicy> make_adaptive_deadline() {
  return sched::make_adaptive_policy(
      sched::parse_adaptive_spec("adaptive:sel=deadline,fc=periodic"));
}

// THE runtime table: key, model variant, and both factories in one place
// (the sweep, the fuzzer, and the fleet harness all resolve through it).
// `adaptive` entries ship BOTH variants co-resident and pick per boot;
// their `compressed` flag names the primary image the executor is armed
// with (sim/recipe.h ships the dense twin co-resident beside it).
struct RuntimeEntry {
  const char* key;
  bool compressed;  // deployment model vs dense twin (primary for adaptive)
  bool adaptive;    // per-boot scheduled (needs both variants provisioned)
  std::unique_ptr<flex::RuntimePolicy> (*make_policy)();
};

std::unique_ptr<flex::RuntimePolicy> make_tile_default() {
  return flex::make_tile_policy();
}

constexpr RuntimeEntry kRuntimeTable[] = {
    {"base", false, false, flex::make_ace_policy},
    {"ace", true, false, flex::make_ace_policy},
    {"sonic", false, false, flex::make_sonic_policy},
    {"tails", false, false, flex::make_tails_policy},
    {"tile", false, false, make_tile_default},
    {"flex", true, false, flex::make_flex_policy},
    {"adaptive", true, true, make_adaptive_default},
    {"adaptive-deadline", true, true, make_adaptive_deadline},
};

const RuntimeEntry& runtime_entry(const std::string& key) {
  // "tile" takes an optional ":t=N" spec suffix; the base name before the
  // colon resolves the table entry.
  const std::string base = key.substr(0, key.find(':'));
  for (const auto& rk : kRuntimeTable) {
    if (base == rk.key) {
      if (base != key) {
        // Validate spec arguments HERE so every resolver — the sweep, the
        // fuzzer, and fleet-config validation — rejects a malformed tile
        // spec (t=0, t=-4, unknown keys) before any device is built.
        check(base == "tile",
              "scenario: runtime \"" + base + "\" takes no spec arguments (\"" + key + "\")");
        flex::parse_tile_spec(key);
      }
      return rk;
    }
  }
  std::string known;
  for (const auto& rk : kRuntimeTable) known += std::string(known.empty() ? "" : "|") + rk.key;
  fail("scenario: unknown runtime \"" + key + "\" (" + known + ")");
}

// One cell is one device running one inference: `image` is the task's
// compiled image for this runtime (shared read-only across workers),
// `src` the scenario's shared harvest source or nullptr for continuous
// bench power. The device is seeded per cell so cells stay independent
// under any job interleaving.
ScenarioCell run_cell(const std::string& rt_key, models::Task task,
                      const CompiledImage& image, const std::vector<fx::q15_t>& input,
                      const ScenarioSpec& sc, const power::HarvestSource* src,
                      std::uint64_t scramble_seed, flex::PhaseProfile* profile,
                      long trace_capacity) {
  DeviceRecipe r;
  r.runtime = rt_key;
  r.source = src;
  r.capacitor.capacitance_f = sc.capacitance_f;
  r.capacitor.max_off_s = sc.max_off_s;
  r.scramble_seed = scramble_seed;
  r.opts.profile = profile;
  r.opts.max_reboots = sc.max_reboots;
  r.opts.max_futile_boots = sc.max_futile;
  r.trace_capacity = trace_capacity;
  const std::unique_ptr<ProvisionedDevice> d = provision(r, image);
  const flex::RunStats st =
      flex::IntermittentExecutor(*d->policy).run(d->device, image.primary, input, d->opts);
  const obs::EventTrace& trace = d->trace;

  ScenarioCell cell;
  cell.task = models::task_name(task);
  cell.runtime = rt_key;
  cell.scenario = sc.name;
  cell.outcome = st.outcome;
  cell.livelock = st.livelock;
  cell.on_s = st.on_seconds;
  cell.off_s = st.off_seconds;
  cell.total_s = st.total_seconds();
  cell.energy_j = st.energy_j;
  std::copy(std::begin(st.energy_by_rail), std::end(st.energy_by_rail), cell.energy_by_rail);
  cell.checkpoint_energy_j = st.checkpoint_energy_j;
  cell.reboots = st.reboots;
  cell.checkpoints = st.checkpoints;
  cell.progress_commits = st.progress_commits;
  cell.units_executed = st.units_executed;
  cell.units_total = st.units_total;
  for (int k = 0; k < obs::kKindCount; ++k) cell.event_counts[k] = trace.counts()[k];
  if (trace.capacity() > 0) {
    cell.trace_selected = true;
    cell.trace_events = trace.snapshot();
    cell.trace_dropped = trace.dropped();
    cell.trace_total = trace.total();
  }
  return cell;
}

}  // namespace

std::unique_ptr<flex::RuntimePolicy> make_policy(const std::string& key) {
  const RuntimeEntry& e = runtime_entry(key);
  // Tile is the one parameterized entry: its spec suffix reaches the
  // policy (validated by runtime_entry above).
  if (std::string(e.key) == "tile") return flex::make_tile_policy(flex::parse_tile_spec(key));
  return e.make_policy();
}

bool runtime_uses_compressed_model(const std::string& key) {
  return runtime_entry(key).compressed;
}

bool runtime_is_adaptive(const std::string& key) { return runtime_entry(key).adaptive; }

const std::vector<std::string>& all_runtime_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> v;
    for (const auto& rk : kRuntimeTable) v.emplace_back(rk.key);
    return v;
  }();
  return keys;
}

ScenarioSpec parse_scenario_arg(const std::string& arg) {
  // NAME=SOURCE[;key=value...] — the first '=' ends the name (harvest
  // specs contain '=' themselves), ';' separates scenario options.
  const std::size_t eq = arg.find('=');
  check(eq != std::string::npos && eq > 0,
        "scenario \"" + arg + "\": expected NAME=SOURCE[;key=value...]");
  ScenarioSpec sc;
  sc.name = arg.substr(0, eq);
  const std::vector<std::string> items = split(arg.substr(eq + 1), ';');
  sc.source = items.front();
  check(!sc.source.empty(), "scenario \"" + arg + "\": empty source spec");
  SpecArgs a("scenario \"" + arg + "\"", {items.begin() + 1, items.end()});
  constexpr long long kMaxBoots = 1000000000000000;
  sc.capacitance_f = a.num("cap", sc.capacitance_f);
  sc.max_off_s = a.num("max_off", sc.max_off_s);
  // JSON has no infinity, and an infinite off-time guard never starves.
  check(std::isfinite(sc.capacitance_f), "scenario \"" + arg + "\": cap must be finite");
  check(std::isfinite(sc.max_off_s), "scenario \"" + arg + "\": max_off must be finite");
  sc.max_reboots = static_cast<long>(a.integer("reboots", sc.max_reboots, 0, kMaxBoots));
  sc.max_futile = static_cast<long>(a.integer("max_futile", sc.max_futile, 0, kMaxBoots));
  a.finish();
  return sc;
}

ScenarioMatrix run_matrix(const std::vector<std::string>& runtimes,
                          const std::vector<models::Task>& tasks,
                          const std::vector<ScenarioSpec>& scenarios,
                          const SweepOptions& opts) {
  ScenarioMatrix m;
  m.seed = opts.seed;
  m.runtimes = runtimes;
  m.scenarios = scenarios;

  // The profile request must never be silently dropped: phase attribution
  // shares one unsynchronized sink, so it is serial-only by design.
  check(opts.profile == nullptr || std::max(opts.jobs, 1) == 1,
        "scenario sweep: --profile needs --jobs 1 (one shared, unsynchronized "
        "sink); the request used to be silently ignored under a worker pool");

  // Fail fast on bad inputs before hours of sweeping; sources are
  // immutable (power_at is const), so each scenario's is built once and
  // shared read-only by its cells across workers.
  std::vector<ShippedVariants> shipped;
  for (const auto& rt : runtimes) shipped.push_back(shipped_variants(rt));
  std::vector<std::unique_ptr<power::HarvestSource>> sources;
  for (const auto& sc : scenarios) {
    check(!sc.name.empty(), "scenario with empty name");
    sources.push_back(sc.source == "continuous" ? nullptr
                                                : power::make_harvest_source(sc.source));
  }

  // Deployment + dense instances and inputs for every task, seeded from
  // opts.seed + task (paper_claims sweeps the default seed, so its cells
  // and the matching SCENARIOS.json cells are the same runs). Only the
  // variants the requested runtimes execute are built (the dense HAR/OKG
  // twins are the expensive ones), and each (task, variant set) compiles
  // once, onto the deployment geometry (devices shipping the dense twin
  // get the enlarged FRAM). Inputs and images are immutable during the
  // sweep — workers share them.
  using VariantSet = std::pair<bool, bool>;  // {primary compressed, dense twin}
  std::vector<std::map<bool, std::vector<fx::q15_t>>> inputs(tasks.size());
  std::vector<std::map<VariantSet, CompiledImage>> images(tasks.size());
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    const models::Task task = tasks[ti];
    m.tasks.push_back(models::task_name(task));
    std::map<bool, quant::QuantModel> qms;
    for (const bool compressed : {false, true}) {
      const auto ships = [&](const ShippedVariants& v) { return v.ships(compressed); };
      if (std::none_of(shipped.begin(), shipped.end(), ships)) continue;
      Rng rng(opts.seed + static_cast<std::uint64_t>(task));
      qms[compressed] = models::make_deployed_qmodel(task, compressed, rng);
      std::vector<fx::q15_t> input(qms[compressed].layers.front().in_size());
      for (auto& v : input) v = static_cast<fx::q15_t>(rng.next_u64());
      inputs[ti][compressed] = std::move(input);
    }
    for (const ShippedVariants& v : shipped) {
      const VariantSet key{v.primary_compressed, v.dense_twin};
      if (images[ti].count(key) != 0) continue;
      images[ti].emplace(
          key, compile_image(qms.at(v.primary_compressed),
                             v.dense_twin ? &qms.at(false) : nullptr,
                             models::deployment_device_config(!v.ships(false)).fram_words));
    }
  }

  // Flatten the sweep into an index space with the canonical cell order
  // (task-major, then scenario, then runtime); workers write each result
  // into its fixed slot, so the matrix is byte-identical for any job count.
  const std::size_t n_cells = tasks.size() * scenarios.size() * runtimes.size();
  for (const int id : opts.trace_cells) {
    check(id >= 0 && static_cast<std::size_t>(id) < n_cells,
          "scenario sweep: trace cell index " + std::to_string(id) +
              " out of range [0, " + std::to_string(n_cells) + ")");
  }
  m.cells.resize(n_cells);
  std::mutex log_mu;
  parallel_for(n_cells, opts.jobs, [&](std::size_t i) {
    const std::size_t ri = i % runtimes.size();
    const std::size_t si = (i / runtimes.size()) % scenarios.size();
    const std::size_t ti = i / (runtimes.size() * scenarios.size());
    const std::string& rt = runtimes[ri];
    const ShippedVariants& v = shipped[ri];
    const ScenarioSpec& sc = scenarios[si];
    // Per-cell derived scramble seed: cells are fully independent and
    // reproducible in isolation. (Outputs and modeled costs are
    // scramble-independent — the crash-consistency contract — so this
    // cannot change the matrix.)
    const std::uint64_t cell_seed =
        opts.seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(i) + 1);
    long trace_cap = 0;
    for (const int id : opts.trace_cells) {
      if (static_cast<std::size_t>(id) == i) {
        trace_cap = std::max<long>(1, opts.trace_capacity);
      }
    }
    ScenarioCell cell =
        run_cell(rt, tasks[ti], images[ti].at({v.primary_compressed, v.dense_twin}),
                 inputs[ti].at(v.primary_compressed), sc, sources[si].get(), cell_seed,
                 opts.profile, trace_cap);
    if (opts.verbose) {
      const std::lock_guard<std::mutex> lock(log_mu);
      std::fprintf(stderr, "scenario %s/%s/%s: %s (on %.3fs, off %.3fs, %ld reboots)\n",
                   cell.task.c_str(), sc.name.c_str(), rt.c_str(),
                   flex::outcome_name(cell.outcome), cell.on_s, cell.off_s, cell.reboots);
    }
    m.cells[i] = std::move(cell);
  });

  // Metrics and trace captures from the finished cell array, summed in
  // canonical cell order — deterministic for any worker count because the
  // array itself is.
  long* ev_cells[obs::kKindCount];
  for (int k = 0; k < obs::kKindCount; ++k) {
    ev_cells[k] = m.metrics.counter(std::string("event.") +
                                    obs::event_name(static_cast<obs::EventKind>(k)));
  }
  long* trace_dropped = m.metrics.counter("trace.dropped_events");
  long* max_reboots = m.metrics.gauge("sweep.max_cell_reboots");
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    const ScenarioCell& c = m.cells[i];
    for (int k = 0; k < obs::kKindCount; ++k) *ev_cells[k] += c.event_counts[k];
    if (c.reboots > *max_reboots) *max_reboots = c.reboots;
    if (c.trace_selected) {
      obs::TraceCapture cap;
      cap.id = static_cast<int>(i);
      cap.label = "cell " + std::to_string(i) + " " + c.task + "/" + c.scenario + "/" +
                  c.runtime;
      cap.events = c.trace_events;
      cap.dropped = c.trace_dropped;
      cap.total = c.trace_total;
      *trace_dropped += cap.dropped;
      m.traces.push_back(std::move(cap));
    }
  }
  return m;
}

void write_scenarios_json(std::ostream& os, const ScenarioMatrix& m) {
  os << "{\n  \"schema\": \"ehdnn-scenarios-v3\",\n";
  os << "  \"seed\": " << m.seed << ",\n";
  auto str_list = [&os](const std::vector<std::string>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      os << json_str(v[i]) << (i + 1 < v.size() ? ", " : "");
    }
  };
  os << "  \"tasks\": [";
  str_list(m.tasks);
  os << "],\n  \"runtimes\": [";
  str_list(m.runtimes);
  os << "],\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < m.scenarios.size(); ++i) {
    const ScenarioSpec& sc = m.scenarios[i];
    os << "    {\"name\": " << json_str(sc.name) << ", \"source\": " << json_str(sc.source)
       << ", \"capacitance_f\": " << sc.capacitance_f << ", \"max_off_s\": " << sc.max_off_s
       << ", \"max_reboots\": " << sc.max_reboots << ", \"max_futile\": " << sc.max_futile
       << "}"
       << (i + 1 < m.scenarios.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"cells\": [\n";
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    const ScenarioCell& c = m.cells[i];
    os << "    {\"task\": " << json_str(c.task) << ", \"scenario\": " << json_str(c.scenario)
       << ", \"runtime\": " << json_str(c.runtime)
       << ", \"outcome\": " << json_str(flex::outcome_name(c.outcome))
       << ", \"completed\": " << (c.completed() ? "true" : "false")
       << ", \"livelock\": " << (c.livelock ? "true" : "false") << ",\n     \"on_s\": "
       << c.on_s << ", \"off_s\": " << c.off_s << ", \"total_s\": " << c.total_s
       << ", \"energy_j\": " << c.energy_j
       << ", \"checkpoint_energy_j\": " << c.checkpoint_energy_j << ",\n     \"reboots\": "
       << c.reboots << ", \"checkpoints\": " << c.checkpoints
       << ", \"progress_commits\": " << c.progress_commits
       << ", \"units_executed\": " << c.units_executed
       << ", \"units_total\": " << c.units_total << "}"
       << (i + 1 < m.cells.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  obs::write_metrics_json(os, m.metrics, "  ");
  os << "\n}\n";
}

}  // namespace ehdnn::sim
