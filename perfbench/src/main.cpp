// perfbench: the repository benchmark.
//
//   perfbench --workload continuous|harvest|fleet --seed N --seconds S
//             --trace 0|1 [--root DIR] [--spans-out FILE]
//
// Prints a human-readable metric table, then as its last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones.
// perfbench/run.py builds this binary from source and invokes it.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/parse.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload continuous|harvest|fleet "
               "--seed N --seconds S --trace 0|1 [--root DIR] [--spans-out FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    if (flag == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      char* end = nullptr;
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || val[0] == '-' || *end != '\0') {
        usage("--seed takes an unsigned integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto v = ehdnn::parse_double(val);
      if (!v || !(*v > 0.0)) usage("--seconds takes a positive number");
      cfg.seconds = *v;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      cfg.trace = val == "1";
    } else if (flag == "--root") {
      cfg.root = val;
    } else if (flag == "--spans-out") {
      cfg.spans_out = val;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");

  perfbench::RunResult r;
  try {
    r = perfbench::run_benchmark(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("# perfbench %s seed=%llu trace=%d: %ld checked, %ld failed\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? 1 : 0, r.attempted, r.failed);
  for (const auto& m : r.metrics) {
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
