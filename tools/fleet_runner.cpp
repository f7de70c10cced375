// Fleet-simulation CLI: runs a population of independent intermittent
// devices — homogeneous via flags, heterogeneous and duty-cycled via a
// fleet config file — one device at a time per worker, and writes
// FLEET.json (schema ehdnn-fleet-v6; see BENCHMARKS.md "Fleet" and
// "Observability"). The population flags (--devices ... --seed) are config
// keys: they fill a one-group config (`fleet ...` / `group name=fleet
// count=64 ...`) that goes through the same parser as a --config file, and
// --help names the key each flag sets. Run from the repo root so trace
// paths resolve:
//
//   ./build/fleet_runner --out FLEET.json               # 64-dev office RF
//   ./build/fleet_runner --config configs/fleet_hetero.cfg --jobs 4
//   ./build/fleet_runner --config configs/fleet_hetero.cfg --compare-fixed
//   ./build/fleet_runner --devices 256 --task har --runtime tails
//
// Lifecycle event traces (Chrome trace_event JSON for Perfetto /
// chrome://tracing, or the deterministic text dump the goldens pin):
//
//   ./build/fleet_runner --config configs/fleet_microcap.cfg
//       --trace-devices 0,8,12 --trace-out microcap.trace.json
//
// Populations too big for one process split into shard partials that
// merge into byte-identical JSON (any shard count, including 1) — trace
// selections ride the partials, so --trace-out belongs on the --merge:
//
//   ./build/fleet_runner --config big.cfg --shards 4 --shard 0 --out s0.part
//   ...                                             --shard 3 --out s3.part
//   ./build/fleet_runner --merge --out FLEET.json s0.part s1.part s2.part s3.part

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "sim/fleet.h"
#include "sim/fleet_flags.h"
#include "sim/scenario.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/parse.h"

using namespace ehdnn;

int main(int argc, char** argv) {
  std::string out_path = "FLEET.json";
  std::string config_path;
  sim::FleetRunOptions ropts;
  ropts.verbose = true;
  bool compare_fixed = false;
  int shards = 1, shard = -1;
  bool merge = false;
  std::vector<std::string> merge_inputs;

  // Homogeneous population flags: each sets one key of a synthesized
  // config (`fleet ...` / `group name=fleet count=64 ...`) that
  // sim::parse_fleet_config reads like a file, so a flag and its config
  // key cannot disagree. Mutually exclusive with --config (a silently
  // ignored --seed or --devices would be worse than an error).
  std::map<std::string, std::string> fleet_keys;
  std::map<std::string, std::string> group_keys = {{"name", "fleet"}, {"count", "64"}};
  std::string population_flag;  // last population flag seen

  std::string trace_out, trace_text_out;

  CliParser p("fleet_runner",
              "Runs a fleet of independent intermittent devices against time-offset\n"
              "views of one harvest environment and writes FLEET.json "
              "(ehdnn-fleet-v6).");
  p.str("--out", "FILE", "output path (JSON, or the shard partial)", &out_path);
  p.str("--config", "FILE", "fleet config file (heterogeneous populations)",
        &config_path);
  p.int_min("--jobs", "N", "worker threads (same bytes for any N)", &ropts.jobs, 1);
  p.toggle("--compare-fixed", "re-run with every fixed runtime as a baseline",
           &compare_fixed);
  p.toggle("--compare-admission", "re-run with energy-budgeted admission off",
           &ropts.compare_admission);
  p.int_min("--shards", "N", "split the population into N process shards", &shards, 1);
  p.int_min("--shard", "I", "run shard I (0-based) and write its partial", &shard, 0);
  p.toggle("--merge", "merge shard partials (the bare arguments) into JSON", &merge);
  struct PopulationFlag {
    const char* flag;
    const char* metavar;
    const char* help;
    bool fleet_line;  // else the group line
    const char* key;
  };
  static constexpr PopulationFlag kPopulationFlags[] = {
      {"--devices", "N", "population size", false, "count"},
      {"--task", "mnist|har|okg", "inference task", false, "task"},
      {"--runtime", "KEY", "runtime key, see --list-runtimes", false, "runtime"},
      {"--source", "SPEC", "harvest source spec", true, "source"},
      {"--cap", "FARADS", "per-device capacitance", false, "cap"},
      {"--max-off", "S", "max continuous off-time before starving", false, "max_off"},
      {"--njobs", "N", "jobs per device agenda", false, "jobs"},
      {"--period", "S", "agenda release period", false, "period"},
      {"--deadline", "S", "per-job deadline", false, "deadline"},
      {"--spread", "S", "harvest offset spread over the population", true, "spread"},
      {"--seed", "N", "population seed", true, "seed"},
  };
  for (const PopulationFlag& f : kPopulationFlags) {
    const std::string line = f.fleet_line ? "fleet" : "group";
    p.value(f.flag, f.metavar, std::string(f.help) + " (config: " + line + " " + f.key + "=)",
            [&, f](const std::string& v) {
              // Whitespace or '#' would split or cut the synthesized line.
              check(v.find_first_of(" \t\n\v\f\r#") == std::string::npos,
                    std::string(f.flag) + " value must not contain whitespace or '#', got \"" +
                        v + "\"");
              population_flag = f.flag;
              (f.fleet_line ? fleet_keys : group_keys)[f.key] = v;
            });
  }
  p.toggle("--quiet", "suppress the per-device progress lines", &ropts.verbose, false);
  bool profile = false;
  p.toggle("--profile", "print a host wall-clock phase breakdown (serial runs)",
           &profile);
  p.value("--trace-devices", "ID[,ID...]",
          "device ids whose lifecycle event rings are retained for export",
          [&](const std::string& v) {
            ropts.trace_devices = parse_id_list(v, "--trace-devices");
          });
  p.str("--trace-out", "FILE",
        "write the retained rings as Chrome trace_event JSON (Perfetto)", &trace_out);
  p.str("--trace-text-out", "FILE",
        "write the retained rings as the deterministic text dump", &trace_text_out);
  p.int_min("--trace-capacity", "N", "events retained per traced device",
            &ropts.trace_capacity, 1);
  add_listing_flags(p);
  p.positionals("PARTIAL", "shard partial files to --merge",
                [&](const std::string& v) { merge_inputs.push_back(v); });

  if (const int rc = p.parse(argc, argv); rc >= 0) return rc;

  // One table-tested conflict matrix (sim/fleet_flags.h) instead of
  // checks scattered across the three mode branches below.
  {
    sim::FleetFlagSet fs;
    fs.merge = merge;
    fs.merge_inputs = static_cast<int>(merge_inputs.size());
    fs.have_config = !config_path.empty();
    fs.population_flag = population_flag;
    fs.shards = shards;
    fs.shard = shard;
    fs.compare_fixed = compare_fixed;
    fs.compare_admission = ropts.compare_admission;
    fs.profile = profile;
    fs.jobs = ropts.jobs;
    fs.have_trace_out = !trace_out.empty();
    fs.have_trace_text_out = !trace_text_out.empty();
    fs.have_trace_devices = !ropts.trace_devices.empty();
    if (const std::string err = sim::validate_fleet_flags(fs); !err.empty()) {
      std::fprintf(stderr, "fleet_runner: %s\n", err.c_str());
      return 2;
    }
  }

  // Built once the config is known; constructing it also builds the
  // harvest source, so a bad --source is a usage error like any other
  // population flag.
  sim::FleetConfig cfg;
  std::optional<sim::FleetEngine> engine;
  if (!merge && config_path.empty()) {
    std::string text = "fleet";
    for (const auto& [k, v] : fleet_keys) text += " " + k + "=" + v;
    text += "\ngroup";
    for (const auto& [k, v] : group_keys) text += " " + k + "=" + v;
    std::istringstream is(text);
    try {
      cfg = sim::parse_fleet_config(is);
      engine.emplace(cfg);
    } catch (const Error& e) {
      std::fprintf(stderr, "fleet_runner: population flags: %s\n", e.what());
      return 2;
    }
  }

  try {
    // Trace exporters, shared by the full-run and --merge paths (shard
    // partials carry their captures; the merge reassembles them).
    auto write_traces = [&](const sim::FleetReport& r) {
      if (!trace_out.empty()) {
        std::ofstream tf(trace_out);
        check(tf.good(), "cannot write " + trace_out);
        obs::write_chrome_trace(tf, r.traces);
        std::fprintf(stderr, "fleet_runner: %zu trace tracks -> %s\n", r.traces.size(),
                     trace_out.c_str());
      }
      if (!trace_text_out.empty()) {
        std::ofstream tf(trace_text_out);
        check(tf.good(), "cannot write " + trace_text_out);
        obs::write_text_trace(tf, r.traces);
        std::fprintf(stderr, "fleet_runner: %zu trace tracks -> %s\n", r.traces.size(),
                     trace_text_out.c_str());
      }
    };

    if (merge) {
      const sim::FleetReport r = sim::merge_fleet_shards(merge_inputs);
      std::ofstream f(out_path);
      check(f.good(), "cannot write " + out_path);
      sim::write_fleet_json(f, r);
      write_traces(r);
      std::fprintf(stderr, "fleet_runner: merged %zu shards, %d devices -> %s\n",
                   merge_inputs.size(), r.config.total_devices(), out_path.c_str());
      return 0;
    }

    if (!config_path.empty()) {
      cfg = sim::parse_fleet_config_file(config_path);
      engine.emplace(cfg);
    }

    if (shard >= 0 || shards > 1) {
      std::ofstream f(out_path);
      check(f.good(), "cannot write " + out_path);
      engine->run_shard(f, shard, shards, ropts);
      std::fprintf(stderr, "fleet_runner: shard %d/%d -> %s\n", shard, shards,
                   out_path.c_str());
      return 0;
    }

    flex::PhaseProfile prof;
    if (profile) ropts.profile = &prof;

    if (compare_fixed) {
      // Every fixed key from the runtime table (the adaptive key is the
      // subject, not a baseline).
      for (const auto& k : sim::all_runtime_keys()) {
        if (!sim::runtime_is_adaptive(k)) ropts.baseline_runtimes.push_back(k);
      }
    }

    const sim::FleetReport r = engine->run(ropts);

    std::ofstream f(out_path);
    check(f.good(), "cannot write " + out_path);
    sim::write_fleet_json(f, r);
    write_traces(r);
    std::fprintf(stderr,
                 "fleet_runner: %d devices, %d jobs -> %d completed (%.1f%%), %d in "
                 "deadline (%.1f%%); latency p50 %.4fs p90 %.4fs p99 %.4fs -> %s\n",
                 cfg.total_devices(), r.total_jobs, r.jobs_completed,
                 100.0 * r.completion_rate, r.jobs_in_deadline, 100.0 * r.deadline_rate,
                 r.latency_p50_s, r.latency_p90_s, r.latency_p99_s, out_path.c_str());
    if (profile) {
      const double total =
          prof.build_s + prof.recharge_s + prof.kernel_s + prof.checkpoint_s + prof.engine_s;
      std::fprintf(stderr,
                   "fleet_runner: profile (host seconds, main run): total %.3f | "
                   "build %.3f | recharge %.3f (%ld recoveries) | kernel %.3f "
                   "(%ld slices) | checkpoint %.3f (%ld writes) | engine %.3f\n",
                   total, prof.build_s, prof.recharge_s, *prof.recoveries, prof.kernel_s,
                   *prof.slices, prof.checkpoint_s, *prof.checkpoints, prof.engine_s);
    }
    if (r.jobs_skipped > 0) {
      std::fprintf(stderr,
                   "fleet_runner: admission skipped %d infeasible releases "
                   "(~%.3g J reclaimed)\n",
                   r.jobs_skipped, r.energy_reclaimed_j);
    }
    for (const auto& b : r.baselines) {
      std::fprintf(stderr, "fleet_runner: baseline %-8s %d completed, %d in deadline\n",
                   b.runtime.c_str(), b.jobs_completed, b.jobs_in_deadline);
    }
    for (const auto& b : r.admission_baseline) {
      std::fprintf(stderr, "fleet_runner: baseline %-8s %d completed, %d in deadline\n",
                   b.runtime.c_str(), b.jobs_completed, b.jobs_in_deadline);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "fleet_runner: %s\n", e.what());
    return 1;
  }
  return 0;
}
