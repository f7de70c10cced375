// Fleet engine (sim/fleet.h), parallel sweep (SweepOptions::jobs) and the
// device recipe they share (sim/recipe.h): the fleet runs heterogeneous
// groups of duty-cycled devices through the incremental executor API,
// every execution path — one thread, worker pools, process shards — must
// produce identical artifacts, and a device stamped from a
// compiled image must run exactly like one compiled in place.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "power/factory.h"
#include "power/monitor.h"
#include "sched/adaptive.h"
#include "util/rng.h"

#include "sim/fleet.h"
#include "sim/fleet_flags.h"
#include "sim/recipe.h"
#include "sim/scenario.h"

namespace ehdnn::sim {
namespace {

FleetConfig tiny_fleet() {
  FleetConfig cfg;
  // Synthetic square harvest: no trace file dependency, every device
  // cycles power several times.
  cfg.source = "square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5";
  cfg.offset_spread_s = 0.02;  // spread across one square period
  FleetGroup g;
  g.name = "tiny";
  g.count = 6;
  g.task = models::Task::kMnist;
  g.agenda.runtime = "flex";
  g.agenda.jobs = 1;
  g.agenda.period_s = 0.05;
  g.capacitance_f = 10e-6;
  cfg.groups.push_back(g);
  return cfg;
}

TEST(Fleet, CompletesAndAggregates) {
  const FleetReport r = FleetEngine(tiny_fleet()).run();
  ASSERT_EQ(r.devices.size(), 6u);
  EXPECT_EQ(r.total_jobs, 6);
  EXPECT_EQ(r.jobs_completed, 6);
  EXPECT_EQ(r.jobs_dnf, 0);
  EXPECT_EQ(r.jobs_starved, 0);
  EXPECT_DOUBLE_EQ(r.completion_rate, 1.0);
  // No deadline in the agenda: every completed job counts as in-deadline.
  EXPECT_EQ(r.jobs_in_deadline, 6);
  // Percentiles are order statistics of the same sample: monotone, and
  // the max bounds them all.
  EXPECT_LE(r.latency_p50_s, r.latency_p90_s);
  EXPECT_LE(r.latency_p90_s, r.latency_p99_s);
  EXPECT_LE(r.latency_p99_s, r.latency_max_s);
  EXPECT_GT(r.latency_p50_s, 0.0);
  for (const auto& d : r.devices) {
    EXPECT_EQ(d.jobs_completed, 1) << "device " << d.device;
    // Intermittent power sliced every run into many steps.
    EXPECT_GT(d.steps, 5) << "device " << d.device;
    EXPECT_GT(d.energy_j, 0.0);
  }
}

TEST(Fleet, OffsetsShiftTheHarvestPhase) {
  const FleetReport r = FleetEngine(tiny_fleet()).run();
  // Offsets are distinct by construction...
  for (std::size_t i = 1; i < r.devices.size(); ++i) {
    EXPECT_LT(r.devices[i - 1].offset_s, r.devices[i].offset_s);
  }
  // ...and phase-shifted power means not every device finishes its job at
  // the same staleness (inputs differ too, but timing is schedule-driven).
  bool any_difference = false;
  for (std::size_t i = 1; i < r.devices.size(); ++i) {
    if (r.devices[i].jobs[0].staleness_s != r.devices[0].jobs[0].staleness_s) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference) << "time offsets had no observable effect";
}

TEST(Fleet, DeterministicAcrossRunsAndWorkerCounts) {
  FleetRunOptions serial;
  serial.jobs = 1;
  FleetRunOptions parallel;
  parallel.jobs = 3;
  FleetRunOptions capped;  // the resident cap overrides the worker count
  capped.jobs = 3;
  capped.max_resident = 2;
  const FleetReport a = FleetEngine(tiny_fleet()).run(serial);
  const FleetReport b = FleetEngine(tiny_fleet()).run(parallel);
  const FleetReport c = FleetEngine(tiny_fleet()).run(serial);
  const FleetReport d = FleetEngine(tiny_fleet()).run(capped);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  std::ostringstream ja, jb, jc, jd;
  write_fleet_json(ja, a);
  write_fleet_json(jb, b);
  write_fleet_json(jc, c);
  write_fleet_json(jd, d);
  EXPECT_EQ(ja.str(), jb.str()) << "FLEET.json must be byte-identical for any worker count";
  EXPECT_EQ(ja.str(), jc.str()) << "FLEET.json must be byte-identical across reruns";
  EXPECT_EQ(ja.str(), jd.str()) << "FLEET.json must be byte-identical for any resident cap";
}

// A serial run (devices one after another, in id order) against the
// worker pool, whose devices finish in whatever order the threads get to
// them: devices are independent, so the artifacts must be bit-exact — on
// the committed heterogeneous population and on the micro-capacitor
// ladder whose livelocks exercise every verdict path.
TEST(Fleet, SerialRunMatchesWorkerPool) {
  for (const char* path : {"configs/fleet_hetero.cfg", "configs/fleet_microcap.cfg"}) {
    const FleetConfig cfg = parse_fleet_config_file(path);
    FleetRunOptions serial_opts;
    FleetRunOptions pool_opts;
    pool_opts.jobs = 3;
    const FleetReport serial = FleetEngine(cfg).run(serial_opts);
    const FleetReport pool = FleetEngine(cfg).run(pool_opts);
    std::ostringstream jserial, jpool;
    write_fleet_json(jserial, serial);
    write_fleet_json(jpool, pool);
    EXPECT_EQ(jserial.str(), jpool.str()) << path << ": serial run diverged from worker pool";
  }
}

// A FleetSink attached through the public API sees every device exactly
// once, and merge() folds two sinks' observations together.
struct CountingSink final : FleetSink {
  int records = 0;
  int total_jobs = 0;
  void record(const FleetDeviceResult& d) override {
    ++records;
    total_jobs += d.jobs_total;
  }
  void merge(const FleetSink& other) override {
    const auto& o = dynamic_cast<const CountingSink&>(other);
    records += o.records;
    total_jobs += o.total_jobs;
  }
  void finalize() override {}
};

TEST(Fleet, SinksObserveEveryDevice) {
  CountingSink sink;
  const FleetReport r = FleetEngine(tiny_fleet()).add_sink(sink).run();
  EXPECT_EQ(sink.records, 6);
  EXPECT_EQ(sink.total_jobs, r.total_jobs);
  CountingSink other;
  other.records = 4;
  other.total_jobs = 10;
  sink.merge(other);
  EXPECT_EQ(sink.records, 10);
  EXPECT_EQ(sink.total_jobs, r.total_jobs + 10);
}

std::string run_as_shards(const FleetConfig& cfg, int shards) {
  std::vector<std::string> paths;
  for (int s = 0; s < shards; ++s) {
    const std::string path = testing::TempDir() + "fleet_shard_" +
                             std::to_string(shards) + "_" + std::to_string(s) + ".part";
    std::ofstream f(path);
    FleetEngine(cfg).run_shard(f, s, shards);
    paths.push_back(path);
  }
  const FleetReport merged = merge_fleet_shards(paths);
  for (const auto& p : paths) std::remove(p.c_str());
  std::ostringstream os;
  write_fleet_json(os, merged);
  return os.str();
}

TEST(Fleet, ShardedRunMergesToTheIdenticalArtifact) {
  const FleetConfig cfg = tiny_fleet();
  std::ostringstream whole;
  write_fleet_json(whole, FleetEngine(cfg).run());
  EXPECT_EQ(run_as_shards(cfg, 1), whole.str());
  EXPECT_EQ(run_as_shards(cfg, 3), whole.str())
      << "merged shards must be byte-identical to the unsharded artifact";

  // Aggregate detail mode: the same contract with per_device dropped.
  FleetConfig agg_cfg = cfg;
  agg_cfg.per_device_detail = false;
  std::ostringstream agg_whole;
  const FleetReport agg_report = FleetEngine(agg_cfg).run();
  EXPECT_TRUE(agg_report.devices.empty());
  EXPECT_EQ(agg_report.total_jobs, 6);
  write_fleet_json(agg_whole, agg_report);
  EXPECT_NE(agg_whole.str().find("\"detail\": \"aggregate\""), std::string::npos);
  EXPECT_NE(agg_whole.str().find("\"per_device\": []"), std::string::npos);
  EXPECT_EQ(run_as_shards(agg_cfg, 2), agg_whole.str());
}

// Merging only folds numbers, so it must not need the harvest source:
// partials produced from a trace on another host still merge where that
// trace path does not exist.
TEST(Fleet, MergeNeverOpensTheSource) {
  const FleetConfig cfg = tiny_fleet();
  const std::string moved = "trace:path=/no/such.csv";
  std::vector<std::string> paths;
  for (int s = 0; s < 2; ++s) {
    std::ostringstream os;
    FleetEngine(cfg).run_shard(os, s, 2);
    std::string text = os.str();
    const std::size_t at = text.find(cfg.source);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, cfg.source.size(), moved);
    paths.push_back(testing::TempDir() + "moved_source_" + std::to_string(s) + ".part");
    std::ofstream(paths.back()) << text;
  }
  const FleetReport r = merge_fleet_shards(paths);
  for (const auto& p : paths) std::remove(p.c_str());
  EXPECT_EQ(r.config.source, moved);
  EXPECT_EQ(r.total_jobs, 6);
}

// The merge reads files another process wrote, so a hand-edited partial
// must fail loudly, naming the file, rather than crash, double-count or
// drop a device. Each case rewrites one line of a genuine run_shard
// partial; the aggregate-detail cases have no job lines to cross-check.
TEST(Fleet, MergeRejectsTamperedPartials) {
  FleetConfig full = tiny_fleet();  // 6 devices, shard 0 = [0, 3)
  FleetConfig aggregate = full;
  aggregate.per_device_detail = false;
  FleetRunOptions opts;
  opts.trace_devices = {1};
  auto shard_lines = [&](const FleetConfig& cfg, int s) {
    std::ostringstream os;
    FleetEngine(cfg).run_shard(os, s, 2, opts);
    std::istringstream is(os.str());
    std::vector<std::string> out;
    for (std::string line; std::getline(is, line);) out.push_back(line);
    return out;
  };
  auto write = [](const std::string& path, const std::vector<std::string>& lines) {
    std::ofstream f(path);
    for (const auto& l : lines) f << l << "\n";
  };
  struct Case {
    const char* name;
    const FleetConfig* cfg;
    std::string prefix;       // the first shard-0 line starting with this...
    std::string replacement;  // ...gets it replaced; "" deletes the line
  };
  const std::vector<Case> cases = {
      {"row outside the population", &full, "row 2 ", "row 999 "},
      {"duplicated row", &full, "row 2 ", "row 1 "},
      {"row outside the population (aggregate)", &aggregate, "row 2 ", "row 999 "},
      {"duplicated row (aggregate)", &aggregate, "row 2 ", "row 1 "},
      {"huge trace event count", &full, "trace 1 ", "trace 1 999999999999999999 "},
      {"trace outside the shard", &full, "trace 1 ", "trace 4 "},
      {"job outside the shard", &full, "job 2 ", "job 4 "},
      {"jobs out of order", &full, "job 2 ", "job 0 "},
      {"job without a row", &full, "row 2 ", ""},
      // Sketch fields parse through the shared integer check: garbage is
      // an ehdnn::Error naming the file, not a std::invalid_argument.
      {"unparseable sketch count", &full, "sketch latency qsketch-v1 ",
       "sketch latency qsketch-v1 rel_err=0.01 abc "},
      {"unparseable sketch count (aggregate)", &aggregate, "sketch staleness qsketch-v1 ",
       "sketch staleness qsketch-v1 rel_err=0.01 abc "},
  };
  const std::string shard0 = testing::TempDir() + "tamper_0.part";
  const std::string shard1 = testing::TempDir() + "tamper_1.part";
  for (const FleetConfig* cfg : {&full, &aggregate}) {
    // The untampered pair merges, so each failure below is the edit's.
    const std::vector<std::string> genuine0 = shard_lines(*cfg, 0);
    write(shard0, genuine0);
    write(shard1, shard_lines(*cfg, 1));
    EXPECT_NO_THROW(merge_fleet_shards({shard0, shard1}));
    for (const Case& c : cases) {
      if (c.cfg != cfg) continue;
      std::vector<std::string> lines = genuine0;
      const auto it = std::find_if(lines.begin(), lines.end(), [&](const std::string& l) {
        return l.rfind(c.prefix, 0) == 0;
      });
      ASSERT_NE(it, lines.end()) << c.name << ": no line starts with \"" << c.prefix << "\"";
      if (c.replacement.empty()) {
        lines.erase(it);
      } else {
        *it = c.replacement + it->substr(c.prefix.size());
      }
      write(shard0, lines);
      try {
        merge_fleet_shards({shard0, shard1});
        ADD_FAILURE() << c.name << ": merge accepted the tampered partial";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(shard0), std::string::npos)
            << c.name << ": error does not name the file: " << e.what();
      }
    }
  }
  std::remove(shard0.c_str());
  std::remove(shard1.c_str());
}

TEST(Fleet, ConfigRoundTripsThroughWriter) {
  FleetConfig cfg = tiny_fleet();
  cfg.groups[0].sched_spec = "";
  cfg.per_device_detail = false;
  std::ostringstream os;
  write_fleet_config(os, cfg);
  std::istringstream is(os.str());
  const FleetConfig back = parse_fleet_config(is);
  std::ostringstream os2;
  write_fleet_config(os2, back);
  EXPECT_EQ(os.str(), os2.str());
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_FALSE(back.per_device_detail);
  ASSERT_EQ(back.groups.size(), 1u);
  EXPECT_EQ(back.groups[0].name, "tiny");
  EXPECT_EQ(back.groups[0].agenda.jobs, cfg.groups[0].agenda.jobs);
}

TEST(Fleet, DutyCycledAgendaReleasesOnSchedule) {
  FleetConfig cfg = tiny_fleet();
  cfg.groups[0].count = 2;
  cfg.groups[0].agenda.jobs = 3;
  cfg.groups[0].agenda.period_s = 0.5;  // generous: device idles between jobs
  const FleetReport r = FleetEngine(cfg).run();
  for (const auto& d : r.devices) {
    ASSERT_EQ(d.jobs.size(), 3u);
    for (int j = 0; j < 3; ++j) {
      const auto& jr = d.jobs[static_cast<std::size_t>(j)];
      EXPECT_DOUBLE_EQ(jr.release_s, 0.5 * j);
      EXPECT_GE(jr.start_s, jr.release_s);
      EXPECT_GT(jr.finish_s, jr.start_s);
      EXPECT_TRUE(jr.met_deadline);
    }
    // The square supply completes each MNIST job well inside 0.5 s, so
    // later jobs start at their release instant, not back-to-back.
    EXPECT_DOUBLE_EQ(d.jobs[1].start_s, d.jobs[1].release_s);
  }
}

TEST(Fleet, EngineRejectsMalformedSourceSpec) {
  // Config text stays file-free: parsing (and --merge, which re-parses
  // every partial's echoed config) never builds the source or opens a
  // trace. The engine builds it once at construction, so a bad spec still
  // fails before any device boots.
  for (const std::string spec :
       {"const:w=1e-3,w=2e-3", "warp:w=1", "trace:path=/no/such.csv"}) {
    std::istringstream is("fleet source=" + spec + "\ngroup count=1\n");
    const FleetConfig cfg = parse_fleet_config(is);
    EXPECT_EQ(cfg.source, spec);
    EXPECT_THROW(FleetEngine{cfg}, Error) << spec;
  }
  std::istringstream ok("fleet source=const:w=2e-3\ngroup count=1\n");
  EXPECT_NO_THROW(FleetEngine{parse_fleet_config(ok)});
}

TEST(Fleet, RejectsUnknownRuntime) {
  FleetConfig cfg = tiny_fleet();
  cfg.groups[0].agenda.runtime = "warp-drive";
  EXPECT_THROW(FleetEngine(cfg).run(), Error);
}

TEST(Fleet, BaselinesRerunThePopulation) {
  FleetRunOptions ropts;
  ropts.baseline_runtimes = {"flex", "ace"};
  const FleetReport r = FleetEngine(tiny_fleet()).run(ropts);
  ASSERT_EQ(r.baselines.size(), 2u);
  EXPECT_EQ(r.baselines[0].runtime, "flex");
  // The population already runs flex, so the flex baseline must agree.
  EXPECT_EQ(r.baselines[0].jobs_completed, r.jobs_completed);
  EXPECT_EQ(r.baselines[0].jobs_in_deadline, r.jobs_in_deadline);
  EXPECT_EQ(r.baselines[1].runtime, "ace");
  EXPECT_LE(r.baselines[1].jobs_completed, r.total_jobs);
}

// A population whose agenda is hopeless half the time: a square "solar
// duty" source with long nights and a deadline one burst cannot meet at
// the night floor. Deadline-mode admission must refuse some releases.
FleetConfig admission_fleet() {
  FleetConfig cfg;
  cfg.source = "square:hi=5e-3,lo=0.05e-3,period=4,duty=0.5";
  cfg.offset_spread_s = 0.0;
  FleetGroup g;
  g.name = "admission";
  g.count = 1;
  g.task = models::Task::kMnist;
  g.agenda.runtime = "adaptive";
  g.agenda.jobs = 10;
  g.agenda.period_s = 0.5;
  g.agenda.deadline_s = 0.3;
  g.capacitance_f = 10e-6;
  g.sched_spec = "adaptive:sel=deadline,admit=budget,fc=periodic,probe=1";
  cfg.groups.push_back(g);
  return cfg;
}

TEST(FleetJson, V6AdmissionGolden) {
  // The FLEET schema's admission story end to end: real skipped
  // releases, the aggregate admission block, the per-job
  // skipped_infeasible verdict with its reclaimed-energy estimate, and
  // the admit-all comparison rerun.
  FleetRunOptions ropts;
  ropts.compare_admission = true;
  const FleetReport r = FleetEngine(admission_fleet()).run(ropts);

  EXPECT_GT(r.jobs_skipped, 0) << "fixture: admission must actually refuse releases";
  EXPECT_GT(r.energy_reclaimed_j, 0.0);
  ASSERT_EQ(r.admission_baseline.size(), 1u);
  EXPECT_EQ(r.admission_baseline[0].runtime, "admit=all");
  // The admit-all rerun runs every release (none skipped there), so it
  // completes at least as many but spends the night grinding.
  EXPECT_GT(r.admission_baseline[0].jobs_completed, r.jobs_completed);

  int skipped_records = 0;
  double reclaimed = 0.0;
  for (const auto& d : r.devices) {
    for (const auto& j : d.jobs) {
      if (j.skipped_infeasible) {
        ++skipped_records;
        reclaimed += j.energy_reclaimed_j;
        EXPECT_FALSE(j.met_deadline);
        EXPECT_EQ(j.reboots, 0) << "a skipped release must never have booted";
        EXPECT_DOUBLE_EQ(j.energy_j, 0.0);
      }
    }
  }
  EXPECT_EQ(skipped_records, r.jobs_skipped);
  EXPECT_DOUBLE_EQ(reclaimed, r.energy_reclaimed_j);

  std::ostringstream os;
  write_fleet_json(os, r);
  const std::string j = os.str();
  for (const char* needle :
       {"\"schema\": \"ehdnn-fleet-v6\"", "\"admission\": {\"skipped_infeasible\":",
        "\"energy_reclaimed_j\":", "\"outcome\": \"skipped_infeasible\"",
        "\"admission_baseline\": [", "\"mode\": \"admit=all\"", "\"jobs_skipped\":",
        "\"detail\": \"full\"", "\"percentiles\": \"qsketch\"", "\"sketch_rel_err\": 0.01",
        "\"livelock\":", "\"total_steps\":", "\"metrics\":", "\"event.job_skip\":"}) {
    EXPECT_NE(j.find(needle), std::string::npos) << "missing " << needle;
  }
}

TEST(Sweep, JobsCountDoesNotChangeTheMatrix) {
  const std::vector<std::string> runtimes = {"ace", "flex"};
  const std::vector<models::Task> tasks = {models::Task::kMnist};
  const std::vector<ScenarioSpec> scenarios = {
      parse_scenario_arg("continuous=continuous"),
      parse_scenario_arg("square-10ms=square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5"),
      parse_scenario_arg("const-1.2mW=const:w=1.2e-3"),
  };

  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 3;
  const ScenarioMatrix a = run_matrix(runtimes, tasks, scenarios, serial);
  const ScenarioMatrix b = run_matrix(runtimes, tasks, scenarios, parallel);

  ASSERT_EQ(a.cells.size(), b.cells.size());
  std::ostringstream ja, jb;
  write_scenarios_json(ja, a);
  write_scenarios_json(jb, b);
  EXPECT_EQ(ja.str(), jb.str()) << "SCENARIOS.json must be byte-identical for any --jobs";
  // SCENARIOS.json leaves out the per-rail split (PAPER_CLAIMS.json
  // carries it): it must match across job counts and sum, in rail order,
  // to energy_j.
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    double sum = 0.0;
    for (std::size_t r = 0; r < std::size(a.cells[i].energy_by_rail); ++r) {
      EXPECT_EQ(a.cells[i].energy_by_rail[r], b.cells[i].energy_by_rail[r]);
      sum += a.cells[i].energy_by_rail[r];
    }
    EXPECT_EQ(sum, a.cells[i].energy_j) << "cell " << i;
  }
}

TEST(Sweep, RuntimeTableIsConsistent) {
  // One table builds keys, model variants, and policies: every key must
  // resolve through all three accessors without desync.
  for (const auto& key : all_runtime_keys()) {
    auto policy = make_policy(key);
    ASSERT_NE(policy, nullptr);
    (void)runtime_uses_compressed_model(key);  // must not throw
    (void)runtime_is_adaptive(key);
  }
  // Both per-boot scheduler modes are in the table (income ladder and
  // deadline selection), and nothing else is adaptive.
  int adaptive_keys = 0;
  for (const auto& key : all_runtime_keys()) adaptive_keys += runtime_is_adaptive(key);
  EXPECT_EQ(adaptive_keys, 2);
  EXPECT_TRUE(runtime_is_adaptive("adaptive"));
  EXPECT_TRUE(runtime_is_adaptive("adaptive-deadline"));
  EXPECT_THROW(make_policy("nope"), Error);
  EXPECT_THROW(runtime_uses_compressed_model("nope"), Error);
}

void expect_same_layout(const dev::MemoryRegion& a, const dev::MemoryRegion& b) {
  EXPECT_EQ(a.allocated_words(), b.allocated_words());
  ASSERT_EQ(a.segments().size(), b.segments().size());
  for (std::size_t i = 0; i < a.segments().size(); ++i) {
    EXPECT_EQ(a.segments()[i].name, b.segments()[i].name);
    EXPECT_EQ(a.segments()[i].base, b.segments()[i].base);
    EXPECT_EQ(a.segments()[i].words, b.segments()[i].words);
  }
}

// Every driver (fleet, scenario sweep, contract checker, benches) stamps
// its devices from one shared CompiledImage instead of compiling onto
// each device. The stamp must be indistinguishable from ace::compile run
// in place: same FRAM words and allocator state, and a bit-identical run
// on a capacitor — for a single compressed image and for the adaptive
// scheduler's co-resident pair.
TEST(Recipe, StampedImageMatchesInPlaceCompile) {
  const auto src =
      power::make_harvest_source("square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5");
  const std::pair<models::Task, const char*> cases[] = {{models::Task::kMnist, "flex"},
                                                        {models::Task::kHar, "adaptive"}};
  for (const auto& [task, runtime] : cases) {
    SCOPED_TRACE(runtime);
    const ShippedVariants v = shipped_variants(runtime);
    Rng rng(0xb0a710ad + static_cast<std::uint64_t>(task));
    const quant::QuantModel primary = models::make_deployed_qmodel(task, true, rng);
    std::vector<fx::q15_t> input(primary.layers.front().in_size());
    for (auto& x : input) x = static_cast<fx::q15_t>(rng.next_u64());
    std::optional<quant::QuantModel> dense;
    if (v.dense_twin) {
      Rng dense_rng(0xb0a710ad + static_cast<std::uint64_t>(task));
      dense = models::make_deployed_qmodel(task, false, dense_rng);
    }
    const quant::QuantModel* dense_qm = dense ? &*dense : nullptr;
    const std::size_t fram = fit_fram_words(primary, dense_qm);

    DeviceRecipe r;
    r.runtime = runtime;
    r.source = src.get();
    r.offset_s = 0.004;
    r.capacitor.capacitance_f = 10e-6;
    r.capacitor.max_off_s = 30.0;
    r.scramble_seed = 0x5ca7;
    const CompiledImage image = compile_image(primary, dense_qm, fram);
    const auto stamped = provision(r, image);

    // The same device, compiled in place.
    const power::TimeOffsetSource view(*src, r.offset_s);
    power::CapacitorSupply cap(view, r.capacitor);
    dev::DeviceConfig dcfg;
    dcfg.fram_words = fram;
    dcfg.scramble_seed = r.scramble_seed;
    dev::Device dev(dcfg);
    dev.attach_supply(&cap);
    const ace::CompiledModel cm = ace::compile(primary, dev);
    std::optional<ace::CompiledModel> cm_dense;
    if (dense_qm != nullptr) cm_dense = ace::compile(*dense_qm, dev, /*co_resident=*/true);
    const auto policy = make_policy(runtime);
    flex::RunOptions opts;
    opts.flex_v_warn = power::flex_warn_voltage(
        cap.config(), sched::provision_deployment(*policy, dev.cost(), cm,
                                                  cm_dense ? &*cm_dense : nullptr,
                                                  cap.burst_energy()));

    const dev::MemoryRegion& a = stamped->device.fram();
    const dev::MemoryRegion& b = dev.fram();
    ASSERT_EQ(a.size_words(), b.size_words());
    const auto wa = a.view(0, a.size_words());
    const auto wb = b.view(0, b.size_words());
    EXPECT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin())) << "FRAM words differ";
    expect_same_layout(a, b);
    expect_same_layout(stamped->device.sram(), dev.sram());
    EXPECT_EQ(stamped->opts.flex_v_warn, opts.flex_v_warn);

    const flex::RunStats s1 = flex::IntermittentExecutor(*stamped->policy)
                                  .run(stamped->device, image.primary, input, stamped->opts);
    const flex::RunStats s2 = flex::IntermittentExecutor(*policy).run(dev, cm, input, opts);
    ASSERT_TRUE(s1.completed());
    EXPECT_GT(s1.reboots, 0) << "fixture: the capacitor must actually cycle";
    EXPECT_EQ(s1.outcome, s2.outcome);
    EXPECT_EQ(s1.on_seconds, s2.on_seconds);
    EXPECT_EQ(s1.off_seconds, s2.off_seconds);
    EXPECT_EQ(s1.energy_j, s2.energy_j);
    EXPECT_EQ(s1.reboots, s2.reboots);
    EXPECT_EQ(s1.output, s2.output);
  }
}

TEST(FleetFlags, ConflictMatrix) {
  // fleet_runner's three modes (run / --shard / --merge) share one
  // validated flag set; each row is a command-line shape and the
  // substring its diagnostic must contain ("" = accepted). Substring
  // matching keeps the table readable while still pinning which rule
  // fired — a row failing with the WRONG message is a real regression.
  struct Row {
    const char* name;
    FleetFlagSet f;
    const char* want;  // "" = valid, else a substring of the diagnostic
  };
  auto make = [](auto mutate) {
    FleetFlagSet f;
    mutate(f);
    return f;
  };
  const Row rows[] = {
      {"defaults", make([](FleetFlagSet&) {}), ""},
      {"plain merge",
       make([](FleetFlagSet& f) { f.merge = true; f.merge_inputs = 2; }), ""},
      {"merge without partials", make([](FleetFlagSet& f) { f.merge = true; }),
       "at least one partial"},
      {"merge with --shard", make([](FleetFlagSet& f) {
         f.merge = true;
         f.merge_inputs = 1;
         f.shard = 0;
       }),
       "--merge conflicts with --shard"},
      {"merge with --shards only", make([](FleetFlagSet& f) {
         f.merge = true;
         f.merge_inputs = 1;
         f.shards = 4;
       }),
       "--merge conflicts with --shard"},
      {"merge with --config", make([](FleetFlagSet& f) {
         f.merge = true;
         f.merge_inputs = 1;
         f.have_config = true;
       }),
       "--merge conflicts with --config"},
      {"merge with population flag", make([](FleetFlagSet& f) {
         f.merge = true;
         f.merge_inputs = 1;
         f.population_flag = "--devices";
       }),
       "--merge conflicts with --devices"},
      {"merge with baseline rerun", make([](FleetFlagSet& f) {
         f.merge = true;
         f.merge_inputs = 1;
         f.compare_fixed = true;
       }),
       "baseline reruns"},
      {"merge with trace selection", make([](FleetFlagSet& f) {
         f.merge = true;
         f.merge_inputs = 1;
         f.have_trace_devices = true;
       }),
       "trace selection happens at shard time"},
      {"merge exporting merged captures", make([](FleetFlagSet& f) {
         f.merge = true;
         f.merge_inputs = 2;
         f.have_trace_out = true;  // selection rode in on the partials
       }),
       ""},
      {"bare args without merge", make([](FleetFlagSet& f) { f.merge_inputs = 1; }),
       "only valid with --merge"},
      {"config plus population flag", make([](FleetFlagSet& f) {
         f.have_config = true;
         f.population_flag = "--seed";
       }),
       "--seed conflicts with --config"},
      {"shard run", make([](FleetFlagSet& f) {
         f.shards = 2;
         f.shard = 1;
       }),
       ""},
      {"--shards without --shard", make([](FleetFlagSet& f) { f.shards = 2; }),
       "--shards needs --shard"},
      {"shard index out of range", make([](FleetFlagSet& f) {
         f.shards = 2;
         f.shard = 2;
       }),
       "--shard must be < --shards (got --shard 2 with --shards 2)"},
      {"shard with baseline rerun", make([](FleetFlagSet& f) {
         f.shards = 2;
         f.shard = 0;
         f.compare_admission = true;
       }),
       "whole-population"},
      {"shard with trace export", make([](FleetFlagSet& f) {
         f.shards = 2;
         f.shard = 0;
         f.have_trace_out = true;
       }),
       "put --trace-out on"},
      {"trace export with selection", make([](FleetFlagSet& f) {
         f.have_trace_devices = true;
         f.have_trace_out = true;
         f.have_trace_text_out = true;
       }),
       ""},
      {"trace-out without selection",
       make([](FleetFlagSet& f) { f.have_trace_out = true; }),
       "--trace-out needs --trace-devices"},
      {"trace-text-out without selection",
       make([](FleetFlagSet& f) { f.have_trace_text_out = true; }),
       "--trace-text-out needs --trace-devices"},
      {"profile parallel", make([](FleetFlagSet& f) {
         f.profile = true;
         f.jobs = 4;
       }),
       "--profile needs --jobs 1"},
      {"profile serial", make([](FleetFlagSet& f) { f.profile = true; }), ""},
  };
  for (const Row& r : rows) {
    const std::string got = validate_fleet_flags(r.f);
    if (std::string(r.want).empty()) {
      EXPECT_EQ(got, "") << r.name;
    } else {
      EXPECT_NE(got.find(r.want), std::string::npos)
          << r.name << ": got \"" << got << "\"";
    }
  }
}

}  // namespace
}  // namespace ehdnn::sim
