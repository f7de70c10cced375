// Perf-regression harness (see BENCHMARKS.md).
//
// Times the hot simulation kernels twice — once through the device's
// scalar per-word reference path (set_bulk_enabled(false)) and once
// through the bulk fast paths — plus one end-to-end model, verifying on
// every run that the two paths produce bit-exact outputs and identical
// modeled cycle/energy totals. Results are written as BENCH_micro.json
// and BENCH_e2e.json in the working directory so successive PRs leave a
// measured trajectory.
//
// Usage: perf_harness [--smoke] [--out-dir DIR] [--check-against DIR]
//   --smoke    tiny sizes and rep counts; used by the ctest `bench_smoke`
//              entry so harness bit-rot (or a bulk/scalar divergence)
//              fails tier-1.
//   --check-against DIR
//              perf-regression gate (the CI entry): after measuring,
//              compare against DIR's committed BENCH_micro.json /
//              BENCH_e2e.json. Modeled cycle/energy totals must match the
//              baseline exactly (1e-9 relative) — they are deterministic,
//              so any drift means the cost model or an execution path
//              changed and the baselines need a deliberate refresh. Host
//              wall-clock is machine-dependent and compared
//              advisory-only (printed, never fails the gate). The gate
//              runs full sizes only: --smoke with it, or a baseline
//              recorded in smoke mode, is a usage error (exit 2).
// Exit code is non-zero if any equivalence check fails, 2 on a usage
// error, 3 on baseline drift.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/ace/compiled_model.h"
#include "dsp/circulant.h"
#include "dsp/fft.h"
#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "power/trace.h"
#include "quant/quantize.h"
#include "sim/fleet.h"
#include "util/rng.h"

namespace {

using namespace ehdnn;
using fx::q15_t;

double now_ns() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

constexpr double kCostRelTol = 1e-9;  // aggregated FP sums vs per-word sums

bool close(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  return std::abs(a - b) <= kCostRelTol * scale;
}

struct DeviceRun {
  std::vector<q15_t> output;
  double cycles = 0.0;   // modeled cycles per inference
  double energy = 0.0;   // modeled joules per inference
  double wall_ns = 0.0;  // host wall-clock per inference
};

DeviceRun run_device_workload(const quant::QuantModel& qm, const std::vector<q15_t>& qin,
                              const dev::DeviceConfig& cfg, bool bulk, int reps) {
  dev::Device dev(cfg);
  dev.set_bulk_enabled(bulk);
  power::ContinuousPower supply;
  dev.attach_supply(&supply);
  const auto cm = ace::compile(qm, dev);
  const auto policy = flex::make_ace_policy();
  flex::IntermittentExecutor ex(*policy);
  const flex::RunOptions opts;

  DeviceRun r;
  // Warm-up run doubles as the modeled-cost measurement (the modeled
  // totals are deterministic and identical across runs).
  const double c0 = dev.trace().total_cycles();
  const double e0 = dev.trace().total_energy();
  auto st = ex.run(dev, cm, qin, opts);
  r.output = std::move(st.output);
  r.cycles = dev.trace().total_cycles() - c0;
  r.energy = dev.trace().total_energy() - e0;

  const double t0 = now_ns();
  for (int i = 0; i < reps; ++i) ex.run(dev, cm, qin, opts);
  r.wall_ns = (now_ns() - t0) / static_cast<double>(reps);
  return r;
}

struct KernelResult {
  std::string name;
  int reps = 0;
  std::optional<double> wall_ns_scalar;  // absent for host-only kernels
  double wall_ns_bulk = 0.0;
  std::optional<double> modeled_cycles;
  std::optional<double> modeled_energy;
  // Fleet entry only: population size / wall seconds. Advisory like every
  // wall figure, but check_against warns when it drops below the
  // committed baseline's floor.
  std::optional<double> devices_per_s;
  bool bit_exact = true;
  bool cost_match = true;

  std::optional<double> speedup() const {
    if (!wall_ns_scalar || wall_ns_bulk <= 0.0) return std::nullopt;
    return *wall_ns_scalar / wall_ns_bulk;
  }
  bool ok() const { return bit_exact && cost_match; }
};

KernelResult bench_layer(const std::string& name, const bench::LayerWorkload& w, int reps) {
  const dev::DeviceConfig cfg;
  const DeviceRun scalar = run_device_workload(w.qm, w.qin, cfg, /*bulk=*/false, reps);
  const DeviceRun bulk = run_device_workload(w.qm, w.qin, cfg, /*bulk=*/true, reps);

  KernelResult r;
  r.name = name;
  r.reps = reps;
  r.wall_ns_scalar = scalar.wall_ns;
  r.wall_ns_bulk = bulk.wall_ns;
  r.modeled_cycles = bulk.cycles;
  r.modeled_energy = bulk.energy;
  r.bit_exact = scalar.output == bulk.output;
  r.cost_match = close(scalar.cycles, bulk.cycles) && close(scalar.energy, bulk.energy);
  return r;
}

KernelResult bench_fft(std::size_t n, int reps) {
  Rng rng(n);
  std::vector<fx::cq15> buf(n), work(n);
  for (auto& c : buf) {
    c = {fx::to_q15(rng.uniform(-0.5, 0.5)), fx::to_q15(rng.uniform(-0.5, 0.5))};
  }
  dsp::fft_plan(n);  // plan build outside the timed region
  const double t0 = now_ns();
  for (int i = 0; i < reps; ++i) {
    work = buf;
    dsp::fft_q15(work, dsp::FftScaling::kFixedScale);
  }
  KernelResult r;
  r.name = "fft_q15_" + std::to_string(n);
  r.reps = reps;
  r.wall_ns_bulk = (now_ns() - t0) / static_cast<double>(reps);
  return r;
}

KernelResult bench_circulant(std::size_t k, int reps) {
  Rng rng(k);
  std::vector<q15_t> c(k), x(k);
  for (std::size_t i = 0; i < k; ++i) {
    c[i] = fx::to_q15(rng.uniform(-0.1, 0.1));
    x[i] = fx::to_q15(rng.uniform(-0.5, 0.5));
  }
  // "Scalar" = the allocating vector API; "bulk" = the scratch overload.
  // Both loops get an untimed warm-up pass so allocator and cache state
  // don't bias whichever runs first.
  const auto ref = dsp::circulant_matvec_q15(c, x, dsp::FftScaling::kBlockFloat);
  dsp::CirculantScratchQ15 scratch;
  std::vector<q15_t> out(k);
  int exponent = 0;
  for (int i = 0; i < reps / 4 + 1; ++i) {
    const auto v = dsp::circulant_matvec_q15(c, x, dsp::FftScaling::kBlockFloat);
    (void)v;
    exponent = dsp::circulant_matvec_q15(c, x, dsp::FftScaling::kBlockFloat, scratch, out);
  }
  // The two paths share ~98% of their work (the FFTs), so the scratch
  // path's margin is a few hundred ns of allocator traffic on a ~17 us
  // run. Two serial timed loops can't resolve that: CPU frequency drift
  // between the loops is the same order of magnitude and once read as a
  // 0.98 "regression". Interleave the measurements in small alternating
  // chunks so both paths sample the same frequency/thermal state.
  double scalar_total_ns = 0.0, bulk_total_ns = 0.0;
  const int chunk = 25;
  for (int done = 0; done < reps; done += chunk) {
    const int n = std::min(chunk, reps - done);
    const double t0 = now_ns();
    for (int i = 0; i < n; ++i) {
      const auto v = dsp::circulant_matvec_q15(c, x, dsp::FftScaling::kBlockFloat);
      (void)v;
    }
    const double t1 = now_ns();
    scalar_total_ns += t1 - t0;
    for (int i = 0; i < n; ++i) {
      exponent = dsp::circulant_matvec_q15(c, x, dsp::FftScaling::kBlockFloat, scratch, out);
    }
    bulk_total_ns += now_ns() - t1;
  }
  KernelResult r;
  r.name = "circulant_matvec_q15_" + std::to_string(k);
  r.reps = reps;
  r.wall_ns_scalar = scalar_total_ns / static_cast<double>(reps);
  r.wall_ns_bulk = bulk_total_ns / static_cast<double>(reps);
  r.bit_exact = out == ref.data && exponent == ref.exponent;
  return r;
}

// Fleet-engine throughput: a homogeneous flex population on a synthetic
// square harvest, driven by the event queue (jobs=1). The modeled totals
// reuse the harness's cycle/energy slots — "cycles" is the scheduler
// slice count and "energy" the population's modeled joules, both
// deterministic, so the CI gate pins the engine's semantics exactly;
// wall-clock (and the devices/s line) stays advisory like every kernel.
// The full run repeats the fleet 5 times: every rep must reproduce the
// first rep's modeled totals exactly (cost_match), and the recorded wall
// is the median rep, so one slow rep on a shared host does not set it.
KernelResult bench_fleet(bool smoke) {
  sim::FleetConfig cfg;
  cfg.source = "square:hi=4e-3,lo=0.2e-3,period=0.02,duty=0.5";
  cfg.per_device_detail = false;
  sim::FleetGroup g;
  g.name = "bench";
  g.count = smoke ? 32 : 512;
  g.agenda.runtime = "flex";
  cfg.groups.push_back(g);

  KernelResult r;
  r.name = "fleet_throughput_" + std::to_string(g.count);
  r.reps = smoke ? 1 : 5;
  std::vector<double> walls;
  for (int i = 0; i < r.reps; ++i) {
    const double t0 = now_ns();
    const sim::FleetReport rep = sim::FleetEngine(cfg).run();
    walls.push_back(now_ns() - t0);
    r.bit_exact = r.bit_exact && rep.jobs_completed == rep.total_jobs;  // every job must finish
    const auto slices = static_cast<double>(rep.total_steps);
    if (i == 0) {
      r.modeled_cycles = slices;
      r.modeled_energy = rep.total_energy_j;
    }
    r.cost_match = r.cost_match && slices == *r.modeled_cycles &&
                   rep.total_energy_j == *r.modeled_energy;
  }
  std::sort(walls.begin(), walls.end());
  r.wall_ns_bulk = walls[walls.size() / 2];
  r.devices_per_s = g.count / (r.wall_ns_bulk * 1e-9);
  std::printf("fleet throughput: %d devices, median of %d reps %.2f s (min %.2f, max %.2f; "
              "%.0f devices/s, %.0f slices)\n",
              g.count, r.reps, r.wall_ns_bulk * 1e-9, walls.front() * 1e-9,
              walls.back() * 1e-9, *r.devices_per_s, *r.modeled_cycles);
  return r;
}

// Harvested-power inference: MNIST under flex on a 10 uF capacitor fed by
// traces/rf_office.csv with linear interpolation — a source that opts out
// of the supply's constant-segment cache, so every settled draw is priced
// through power_run. Like bench_fleet, the modeled slots hold totals over
// the whole run (re-executed work after brown-outs included), which pins
// that settlement path to the gate's 1e-9; every inference must complete
// with the bench-power output.
KernelResult bench_harvest(bool smoke) {
  const power::TraceHarvestSource src(
      power::load_trace_csv(EHDNN_SOURCE_DIR "/traces/rf_office.csv"));
  Rng rng(0xb0a710ad);
  const auto qm = models::make_deployed_qmodel(models::Task::kMnist, /*compressed=*/true, rng);
  const sim::CompiledImage image = sim::compile_image(
      qm, nullptr, models::deployment_device_config(/*compressed=*/true).fram_words);
  std::vector<q15_t> input(qm.layers.front().in_size());
  for (auto& v : input) v = static_cast<q15_t>(rng.next_u64());

  sim::DeviceRecipe recipe;
  const auto bench_dev = sim::provision(recipe, image);
  const flex::RunStats want = flex::IntermittentExecutor(*bench_dev->policy)
                                  .run(bench_dev->device, image.primary, input, bench_dev->opts);

  recipe.source = &src;
  recipe.capacitor.capacitance_f = 10e-6;
  recipe.capacitor.max_off_s = 30.0;
  const auto d = sim::provision(recipe, image);
  flex::IntermittentExecutor ex(*d->policy);
  const int reps = smoke ? 2 : 50;
  const double c0 = d->device.trace().total_cycles();
  const double e0 = d->device.trace().total_energy();
  bool all_match = true;
  const double t0 = now_ns();
  for (int i = 0; i < reps; ++i) {
    const flex::RunStats st = ex.run(d->device, image.primary, input, d->opts);
    all_match = all_match && st.completed() && st.output == want.output;
  }
  KernelResult r;
  r.name = "harvest_flex_rf_office";
  r.reps = reps;
  r.wall_ns_bulk = (now_ns() - t0) / static_cast<double>(reps);
  r.modeled_cycles = d->device.trace().total_cycles() - c0;
  r.modeled_energy = d->device.trace().total_energy() - e0;
  r.bit_exact = all_match;
  std::printf("harvest: %d flex inferences on rf_office, %ld reboots, %.3f s simulated\n", reps,
              d->device.reboots(), d->device.supply()->now());
  return r;
}

// 12 significant digits so the committed baselines round-trip well below
// the gate's 1e-9 relative tolerance (6 digits would quantize right at it).
void json_opt(std::FILE* f, const char* key, const std::optional<double>& v,
              const char* suffix) {
  if (v) {
    std::fprintf(f, "\"%s\": %.12g%s", key, *v, suffix);
  } else {
    std::fprintf(f, "\"%s\": null%s", key, suffix);
  }
}

bool write_micro_json(const std::string& path, const std::vector<KernelResult>& rs,
                      bool smoke) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_harness: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"schema\": \"ehdnn-perf-micro-v1\",\n  \"mode\": \"%s\",\n",
               smoke ? "smoke" : "full");
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const KernelResult& r = rs[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"reps\": %d, ", r.name.c_str(), r.reps);
    json_opt(f, "wall_ns_per_run_scalar", r.wall_ns_scalar, ", ");
    std::fprintf(f, "\"wall_ns_per_run_bulk\": %.12g, ", r.wall_ns_bulk);
    if (r.devices_per_s) json_opt(f, "devices_per_s", r.devices_per_s, ", ");
    json_opt(f, "speedup", r.speedup(), ", ");
    json_opt(f, "modeled_cycles", r.modeled_cycles, ", ");
    json_opt(f, "modeled_energy_j", r.modeled_energy, ", ");
    std::fprintf(f, "\"bit_exact\": %s, \"cost_match\": %s}%s\n",
                 r.bit_exact ? "true" : "false", r.cost_match ? "true" : "false",
                 i + 1 < rs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

bool write_e2e_json(const std::string& path, const KernelResult& r, bool smoke) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_harness: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"schema\": \"ehdnn-perf-e2e-v1\",\n  \"mode\": \"%s\",\n",
               smoke ? "smoke" : "full");
  std::fprintf(f, "  \"model\": \"%s\",\n  \"reps\": %d,\n", r.name.c_str(), r.reps);
  std::fprintf(f, "  ");
  json_opt(f, "wall_ns_per_run_scalar", r.wall_ns_scalar, ",\n  ");
  std::fprintf(f, "\"wall_ns_per_run_bulk\": %.12g,\n  ", r.wall_ns_bulk);
  json_opt(f, "speedup", r.speedup(), ",\n  ");
  json_opt(f, "modeled_cycles", r.modeled_cycles, ",\n  ");
  json_opt(f, "modeled_energy_j", r.modeled_energy, ",\n  ");
  std::fprintf(f, "\"bit_exact\": %s,\n  \"cost_match\": %s\n}\n",
               r.bit_exact ? "true" : "false", r.cost_match ? "true" : "false");
  std::fclose(f);
  return true;
}

// --- baseline gate ----------------------------------------------------------
// Minimal parsing of the harness's own JSON output (key scanning — the
// writer above controls the format, so no general JSON parser is needed).

// Prefix parse by design: the value sits mid-line, so unlike
// util/parse.h's full-field parse_double this must NOT require consuming
// the rest of the text (a JSON `null` simply fails to parse).
std::optional<double> scan_num(const std::string& text, const std::string& key,
                               std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return std::nullopt;
  const char* s = text.c_str() + at + needle.size();
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s) return std::nullopt;  // e.g. null
  return v;
}

std::optional<std::string> scan_str(const std::string& text, const std::string& key,
                                    std::size_t from = 0) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t start = at + needle.size();
  const std::size_t close = text.find('"', start);
  if (close == std::string::npos) return std::nullopt;
  return text.substr(start, close - start);
}

struct Baseline {
  std::string mode;
  // Per kernel name (micro) or model name (e2e).
  struct Entry {
    std::optional<double> cycles, energy, wall_bulk, devices_per_s;
  };
  std::vector<std::pair<std::string, Entry>> entries;
};

std::optional<Baseline> load_baseline(const std::string& path, bool per_line) {
  std::ifstream f(path);
  if (!f.good()) {
    std::fprintf(stderr, "perf_harness: cannot read baseline %s\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  Baseline b;
  b.mode = scan_str(text, "mode").value_or("");
  if (per_line) {
    // BENCH_micro.json: one kernel object per line.
    std::stringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      const auto name = scan_str(line, "name");
      if (!name) continue;
      b.entries.push_back(
          {*name, {scan_num(line, "modeled_cycles"), scan_num(line, "modeled_energy_j"),
                   scan_num(line, "wall_ns_per_run_bulk"), scan_num(line, "devices_per_s")}});
    }
  } else {
    // BENCH_e2e.json: a single object.
    const auto name = scan_str(text, "model");
    if (name) {
      b.entries.push_back(
          {*name, {scan_num(text, "modeled_cycles"), scan_num(text, "modeled_energy_j"),
                   scan_num(text, "wall_ns_per_run_bulk"), std::nullopt}});
    }
  }
  return b;
}

// Compares one measured kernel against the baseline entry of the same
// name. Returns false on modeled-cost drift; wall-clock is advisory.
bool check_entry(const KernelResult& r, const Baseline& b) {
  for (const auto& [name, e] : b.entries) {
    if (name != r.name) continue;
    bool ok = true;
    if (e.cycles && r.modeled_cycles && !close(*e.cycles, *r.modeled_cycles)) {
      std::fprintf(stderr, "perf gate: %s modeled_cycles drifted %.6g -> %.6g\n",
                   r.name.c_str(), *e.cycles, *r.modeled_cycles);
      ok = false;
    }
    if (e.energy && r.modeled_energy && !close(*e.energy, *r.modeled_energy)) {
      std::fprintf(stderr, "perf gate: %s modeled_energy_j drifted %.6g -> %.6g\n",
                   r.name.c_str(), *e.energy, *r.modeled_energy);
      ok = false;
    }
    if (e.cycles.has_value() != r.modeled_cycles.has_value() ||
        e.energy.has_value() != r.modeled_energy.has_value()) {
      std::fprintf(stderr, "perf gate: %s modeled fields appeared/vanished vs baseline\n",
                   r.name.c_str());
      ok = false;
    }
    if (e.wall_bulk && r.wall_ns_bulk > 0.0) {
      std::printf("perf gate: %-28s wall %.2fx baseline (advisory)\n", r.name.c_str(),
                  r.wall_ns_bulk / *e.wall_bulk);
    }
    // Fleet-throughput floor: the committed devices/s is the minimum the
    // engine is expected to sustain; a drop below it is loud but — like
    // every wall figure on shared CI machines — advisory, never a FAIL.
    if (e.devices_per_s && r.devices_per_s && *r.devices_per_s < *e.devices_per_s) {
      std::fprintf(stderr,
                   "perf gate: %s throughput %.0f devices/s BELOW the committed floor "
                   "%.0f (advisory — investigate before refreshing the baseline)\n",
                   r.name.c_str(), *r.devices_per_s, *e.devices_per_s);
    }
    return ok;
  }
  std::printf("perf gate: %s not in baseline (new kernel; advisory)\n", r.name.c_str());
  return true;
}

// Loads DIR's committed baselines for the gate before anything is
// measured. Only full-mode baselines gate: smoke sizes skip most of the
// work the modeled totals are meant to pin, so a smoke file is refused
// rather than compared.
std::optional<std::pair<Baseline, Baseline>> load_gate_baselines(const std::string& dir) {
  auto bm = load_baseline(dir + "/BENCH_micro.json", /*per_line=*/true);
  auto be = load_baseline(dir + "/BENCH_e2e.json", /*per_line=*/false);
  if (!bm || !be) return std::nullopt;
  if (bm->entries.empty() || be->entries.empty()) {
    // An unparsable baseline must fail loudly, not pass vacuously (the
    // scanner expects the harness's own one-kernel-per-line format).
    std::fprintf(stderr, "perf gate: baseline parsed to zero entries — reformatted file?\n");
    return std::nullopt;
  }
  if (bm->mode != "full" || be->mode != "full") {
    std::fprintf(stderr,
                 "perf gate: baseline mode \"%s\"/\"%s\" in %s — the gate only compares "
                 "against full-mode baselines (refresh them with a plain perf_harness run)\n",
                 bm->mode.c_str(), be->mode.c_str(), dir.c_str());
    return std::nullopt;
  }
  return std::make_pair(std::move(*bm), std::move(*be));
}

// The CI perf-regression gate. Fails (false) only on deterministic
// modeled-cost drift, never on wall-clock.
bool check_against(const Baseline& bm, const Baseline& be, const std::vector<KernelResult>& micro,
                   const KernelResult& e2e) {
  bool ok = true;
  for (const auto& r : micro) ok = check_entry(r, bm) && ok;
  ok = check_entry(e2e, be) && ok;
  for (const auto& [name, e] : bm.entries) {
    bool found = false;
    for (const auto& r : micro) found = found || r.name == name;
    if (!found) {
      std::fprintf(stderr, "perf gate: baseline kernel %s no longer measured\n",
                   name.c_str());
      ok = false;
    }
  }
  // Same reverse check for the e2e baseline: a renamed e2e model must not
  // turn the gate into a vacuous pass.
  for (const auto& [name, e] : be.entries) {
    if (name != e2e.name) {
      std::fprintf(stderr, "perf gate: baseline e2e model %s no longer measured (now %s)\n",
                   name.c_str(), e2e.name.c_str());
      ok = false;
    }
  }
  std::printf("perf gate: %s\n", ok ? "PASS (modeled costs match baseline)" : "FAIL");
  return ok;
}

void print_result(const KernelResult& r) {
  if (r.wall_ns_scalar) {
    std::printf("%-28s %10.0f ns -> %10.0f ns  (%.2fx)%s\n", r.name.c_str(),
                *r.wall_ns_scalar, r.wall_ns_bulk, *r.speedup(),
                r.ok() ? "" : "  MISMATCH");
  } else {
    std::printf("%-28s %25.0f ns\n", r.name.c_str(), r.wall_ns_bulk);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_dir = ".";
  std::string check_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--check-against") == 0 && i + 1 < argc) {
      check_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: perf_harness [--smoke] [--out-dir DIR] [--check-against DIR]\n");
      return 2;
    }
  }
  std::optional<std::pair<Baseline, Baseline>> gate;
  if (!check_dir.empty()) {
    if (smoke) {
      std::fprintf(stderr, "perf_harness: --check-against gates full sizes; drop --smoke\n");
      return 2;
    }
    gate = load_gate_baselines(check_dir);
    if (!gate) return 2;
  }

  std::vector<KernelResult> micro;

  // conv2d + FC are the acceptance kernels; bcm covers Algorithm 1. Full
  // sizes come from bench_common so micro_kernels measures the same
  // quantized instances.
  if (smoke) {
    Rng wr(1);
    nn::Model m;
    m.add<nn::Conv2D>(2, 4, 3, 3)->init(wr);
    micro.push_back(bench_layer("conv2d", bench::make_layer_workload(std::move(m), {2, 8, 8}, 11), 2));
  } else {
    micro.push_back(bench_layer("conv2d", bench::conv2d_micro_workload(), 20));
  }
  if (smoke) {
    Rng wr(2);
    nn::Model m;
    m.add<nn::Dense>(128, 32)->init(wr);
    micro.push_back(bench_layer("fc", bench::make_layer_workload(std::move(m), {128}, 12), 4));
  } else {
    micro.push_back(bench_layer("fc", bench::fc_micro_workload(), 50));
  }
  {
    Rng wr(3);
    nn::Model m;
    if (smoke) {
      m.add<nn::BcmDense>(128, 128, 64)->init(wr);
      micro.push_back(bench_layer("bcm", bench::make_layer_workload(std::move(m), {128}, 13), 2));
    } else {
      m.add<nn::BcmDense>(512, 512, 128)->init(wr);
      micro.push_back(bench_layer("bcm", bench::make_layer_workload(std::move(m), {512}, 13), 20));
    }
  }
  micro.push_back(bench_fft(smoke ? 64 : 256, smoke ? 50 : 2000));
  micro.push_back(bench_circulant(smoke ? 64 : 256, smoke ? 50 : 1000));
  micro.push_back(bench_fleet(smoke));
  micro.push_back(bench_harvest(smoke));

  std::printf("micro kernels (scalar -> bulk):\n");
  for (const auto& r : micro) print_result(r);

  // End-to-end: the compressed MNIST model under continuous power.
  KernelResult e2e;
  {
    Rng rng(0xb0a710ad);
    const auto qm =
        models::make_deployed_qmodel(models::Task::kMnist, /*compressed=*/true, rng);
    const auto qin = quant::quantize_input(
        qm, bench::random_input_tensor(models::model_info(models::Task::kMnist).input_shape,
                                       rng));
    const dev::DeviceConfig cfg = models::deployment_device_config(/*compressed=*/true);
    const int reps = smoke ? 1 : 5;
    const DeviceRun scalar = run_device_workload(qm, qin, cfg, false, reps);
    const DeviceRun bulk = run_device_workload(qm, qin, cfg, true, reps);
    e2e.name = "mnist";
    e2e.reps = reps;
    e2e.wall_ns_scalar = scalar.wall_ns;
    e2e.wall_ns_bulk = bulk.wall_ns;
    e2e.modeled_cycles = bulk.cycles;
    e2e.modeled_energy = bulk.energy;
    e2e.bit_exact = scalar.output == bulk.output;
    e2e.cost_match = close(scalar.cycles, bulk.cycles) && close(scalar.energy, bulk.energy);
  }
  std::printf("end-to-end:\n");
  print_result(e2e);

  const bool wrote = write_micro_json(out_dir + "/BENCH_micro.json", micro, smoke) &&
                     write_e2e_json(out_dir + "/BENCH_e2e.json", e2e, smoke);

  bool ok = e2e.ok();
  for (const auto& r : micro) ok = ok && r.ok();
  if (!ok) {
    std::fprintf(stderr, "perf_harness: bulk/scalar equivalence FAILED\n");
    return 1;
  }
  if (!wrote) return 1;
  if (gate && !check_against(gate->first, gate->second, micro, e2e)) return 3;
  return 0;
}
