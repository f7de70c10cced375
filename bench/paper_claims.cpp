// Fig. 7a/7b/7c and Sec. IV-A.5 of the paper as 36 checked claims over
// one scenario sweep: {MNIST, HAR, OKG} x {base, ace, sonic, tails, flex}
// x {continuous, const 1.2 mW}, with the sweep defaults (10 uF). Writes
// PAPER_CLAIMS.json (ehdnn-paper-claims-v1, BENCHMARKS.md "Paper claims")
// and prints the claims as one table:
//
//   ./build/paper_claims --out PAPER_CLAIMS.json
//
// Exits 1 when a claim names a cell the sweep did not run or reads a cell
// that did not complete. A claim that does not hold is a gap, not an error.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/scenario.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/format.h"
#include "util/table.h"

namespace {

using namespace ehdnn;

constexpr const char* kContinuous = "continuous";
constexpr const char* kHarvest = "const-1.2mW";
constexpr const char* kTaskKeys[] = {"mnist", "har", "okg"};  // the sweep's task order

// How a claim reads the sweep. Every measure but kCompleted requires the
// cells it reads to have completed.
enum class Measure {
  kOnTimeRatio,          // runtime's on_s / flex's on_s, same scenario
  kEnergyRatio,          // runtime's energy_j / flex's energy_j, same scenario
  kCompleted,            // 1 when the runtime's cell completed, else 0
  kOnTimeOverheadPct,    // runtime's on_s in the scenario over its continuous on_s, %
  kCheckpointSharePct,   // checkpoint_energy_j / energy_j, %
  kMeanCheckpointMj,     // checkpoint_energy_j / checkpoints, mJ
};

// One row per claim, expanded over the three tasks: ids read
// "<id>.<task>", statements "<TASK>: <statement>".
struct ClaimRow {
  const char* id;
  const char* figure;
  Measure measure;
  const char* runtime;
  const char* scenario;
  bool bound;       // holds iff simulated <= paper; otherwise a simulated/paper ratio
  double paper[3];  // MNIST, HAR, OKG
  const char* statement;
};

constexpr ClaimRow kClaims[] = {
    {"fig7a.base", "Fig. 7a", Measure::kOnTimeRatio, "base", kContinuous, false,
     {3.0, 5.4, 1.7}, "ACE+FLEX speedup over BASE on continuous power (on-time ratio)"},
    {"fig7a.sonic", "Fig. 7a", Measure::kOnTimeRatio, "sonic", kContinuous, false,
     {4.0, 5.7, 3.3}, "ACE+FLEX speedup over SONIC on continuous power (on-time ratio)"},
    {"fig7a.tails", "Fig. 7a", Measure::kOnTimeRatio, "tails", kContinuous, false,
     {3.3, 2.6, 2.1}, "ACE+FLEX speedup over TAILS on continuous power (on-time ratio)"},
    {"fig7b.sonic", "Fig. 7b", Measure::kOnTimeRatio, "sonic", kHarvest, false,
     {5.1, 4.7, 3.3}, "ACE+FLEX speedup over SONIC at 1.2 mW (on-time ratio)"},
    {"fig7b.tails", "Fig. 7b", Measure::kOnTimeRatio, "tails", kHarvest, false,
     {3.8, 2.4, 1.7}, "ACE+FLEX speedup over TAILS at 1.2 mW (on-time ratio)"},
    {"fig7b.base_x", "Fig. 7b", Measure::kCompleted, "base", kHarvest, true, {0, 0, 0},
     "BASE never completes at 1.2 mW (completions, at most 0)"},
    {"fig7b.ace_x", "Fig. 7b", Measure::kCompleted, "ace", kHarvest, true, {0, 0, 0},
     "ACE never completes at 1.2 mW (completions, at most 0)"},
    {"fig7b.flex_overhead", "Fig. 7b", Measure::kOnTimeOverheadPct, "flex", kHarvest, true,
     {2, 2, 2}, "ACE+FLEX on-time at 1.2 mW is at most 2% over continuous power (%)"},
    {"fig7c.sonic", "Fig. 7c", Measure::kEnergyRatio, "sonic", kHarvest, false,
     {6.1, 10.9, 6.25}, "ACE+FLEX energy saving over SONIC at 1.2 mW (energy ratio)"},
    {"fig7c.tails", "Fig. 7c", Measure::kEnergyRatio, "tails", kHarvest, false,
     {4.31, 5.26, 3.05}, "ACE+FLEX energy saving over TAILS at 1.2 mW (energy ratio)"},
    {"sec4a5.ckpt_share", "Sec. IV-A.5", Measure::kCheckpointSharePct, "flex", kHarvest,
     false, {1.0, 1.25, 0.8},
     "ACE+FLEX checkpoint energy as a share of inference energy at 1.2 mW (%)"},
    {"sec4a5.ckpt_mean_mj", "Sec. IV-A.5", Measure::kMeanCheckpointMj, "flex", kHarvest,
     true, {0.033, 0.033, 0.033},
     "mean ACE+FLEX energy per checkpoint at 1.2 mW is at most 0.033 mJ (mJ; the paper "
     "bounds each one)"},
};

struct Claim {
  std::string id, figure, statement;
  double paper = 0.0;
  double simulated = 0.0;
  bool bound = false;
  double ratio() const { return simulated / paper; }
  bool holds() const { return simulated <= paper; }
};

// The sweep's (task, runtime, scenario) cell; `done` requires that it completed.
const sim::ScenarioCell& cell(const sim::ScenarioMatrix& m, const std::string& task,
                              const std::string& runtime, const std::string& scenario,
                              bool done = true) {
  const std::string name = task + "/" + scenario + "/" + runtime;
  for (const auto& c : m.cells) {
    if (c.task != task || c.runtime != runtime || c.scenario != scenario) continue;
    check(!done || c.completed(),
          "cell " + name + " did not complete (" + flex::outcome_name(c.outcome) + ")");
    return c;
  }
  fail("no cell " + name + " in the sweep");
}

double simulated(const sim::ScenarioMatrix& m, const ClaimRow& row, const std::string& task) {
  const sim::ScenarioCell& x =
      cell(m, task, row.runtime, row.scenario, row.measure != Measure::kCompleted);
  switch (row.measure) {
    case Measure::kOnTimeRatio: return x.on_s / cell(m, task, "flex", row.scenario).on_s;
    case Measure::kEnergyRatio:
      return x.energy_j / cell(m, task, "flex", row.scenario).energy_j;
    case Measure::kCompleted: return x.completed() ? 1.0 : 0.0;
    case Measure::kOnTimeOverheadPct: {
      const double cont = cell(m, task, row.runtime, kContinuous).on_s;
      return 100.0 * (x.on_s - cont) / cont;
    }
    case Measure::kCheckpointSharePct: return 100.0 * x.checkpoint_energy_j / x.energy_j;
    case Measure::kMeanCheckpointMj:
      check(x.checkpoints > 0, "cell " + task + "/" + row.runtime + " took no checkpoints");
      return 1e3 * x.checkpoint_energy_j / static_cast<double>(x.checkpoints);
  }
  fail("unknown measure");
}

void write_claims_json(std::ostream& os, const sim::ScenarioMatrix& m,
                       const std::vector<Claim>& claims) {
  os << "{\n  \"schema\": \"ehdnn-paper-claims-v1\",\n";
  os << "  \"seed\": " << m.seed << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < m.scenarios.size(); ++i) {
    const sim::ScenarioSpec& sc = m.scenarios[i];
    os << "    {\"name\": " << json_str(sc.name) << ", \"source\": " << json_str(sc.source)
       << ", \"capacitance_f\": " << sc.capacitance_f << ", \"max_off_s\": " << sc.max_off_s
       << ", \"max_reboots\": " << sc.max_reboots << "}"
       << (i + 1 < m.scenarios.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"claims\": [\n";
  for (std::size_t i = 0; i < claims.size(); ++i) {
    const Claim& c = claims[i];
    os << "    {\"id\": " << json_str(c.id) << ", \"figure\": " << json_str(c.figure)
       << ",\n     \"statement\": " << json_str(c.statement)
       << ",\n     \"paper\": " << c.paper << ", \"simulated\": " << g17(c.simulated)
       << (c.bound ? ", \"holds\": " : ", \"ratio\": ")
       << (c.bound ? (c.holds() ? "true" : "false") : g17(c.ratio())) << "}"
       << (i + 1 < claims.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"cells\": [\n";
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    const sim::ScenarioCell& c = m.cells[i];
    os << "    {\"task\": " << json_str(c.task) << ", \"scenario\": " << json_str(c.scenario)
       << ", \"runtime\": " << json_str(c.runtime)
       << ", \"outcome\": " << json_str(flex::outcome_name(c.outcome))
       << ",\n     \"on_s\": " << g17(c.on_s) << ", \"total_s\": " << g17(c.total_s)
       << ", \"energy_j\": " << g17(c.energy_j) << ",\n     \"energy_by_rail_j\": {";
    for (std::size_t r = 0; r < static_cast<std::size_t>(dev::Rail::kCount); ++r) {
      os << (r > 0 ? ", " : "") << json_str(dev::rail_name(static_cast<dev::Rail>(r))) << ": "
         << g17(c.energy_by_rail[r]);
    }
    os << "},\n     \"reboots\": " << c.reboots << ", \"checkpoints\": " << c.checkpoints
       << ", \"checkpoint_energy_j\": " << g17(c.checkpoint_energy_j) << "}"
       << (i + 1 < m.cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

std::string num4(double v) {
  std::ostringstream os;
  os.precision(4);
  os << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "PAPER_CLAIMS.json";
  CliParser p("paper_claims",
              "Runs the Fig. 7 / Sec. IV-A.5 sweep and writes PAPER_CLAIMS.json\n"
              "(ehdnn-paper-claims-v1).");
  p.str("--out", "FILE", "output path", &out_path);
  if (const int rc = p.parse(argc, argv); rc >= 0) return rc;

  try {
    const sim::ScenarioMatrix m = sim::run_matrix(
        {"base", "ace", "sonic", "tails", "flex"},
        {models::Task::kMnist, models::Task::kHar, models::Task::kOkg},
        {sim::parse_scenario_arg(std::string(kContinuous) + "=continuous"),
         sim::parse_scenario_arg(std::string(kHarvest) + "=const:w=1.2e-3")});
    std::vector<Claim> claims;
    Table t({"Claim", "Statement", "Paper", "Simulated", "Sim/paper"});
    for (const ClaimRow& row : kClaims) {
      for (std::size_t ti = 0; ti < m.tasks.size(); ++ti) {
        const Claim c{std::string(row.id) + "." + kTaskKeys[ti], row.figure,
                      m.tasks[ti] + ": " + row.statement, row.paper[ti],
                      simulated(m, row, m.tasks[ti]), row.bound};
        const std::string verdict = c.holds() ? "holds" : "does not hold";
        t.add_row({c.id, c.statement, num4(c.paper), num4(c.simulated),
                   c.bound ? verdict : Table::num(c.ratio(), 2) + "x"});
        claims.push_back(c);
      }
    }
    t.print(std::cout);

    std::ofstream f(out_path);
    write_claims_json(f, m, claims);
    if (!f.good()) {
      std::fprintf(stderr, "paper_claims: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "paper_claims: wrote %zu claims over %zu cells to %s\n",
                 claims.size(), m.cells.size(), out_path.c_str());
  } catch (const Error& e) {
    std::fprintf(stderr, "paper_claims: %s\n", e.what());
    return 1;
  }
  return 0;
}
