// The benchmark's own tests: instrumentation must not change behaviour.
//
//   1. The decorators forward every virtual of dev::PowerSupply and
//      flex::RuntimePolicy to the wrapped object, arguments and results
//      intact (checked against recording spies).
//   2. On two seeds, every workload's traced quota reproduces the
//      untraced one exactly: every per-inference (fleet: per-job) modeled
//      record and every sim_* metric.
//
// Usage: perfbench_selftest [--root DIR]   (exit 0 = all passed)

#include <cstdio>
#include <string>
#include <vector>

#include "core/ace/compiled_model.h"
#include "probes.h"
#include "workloads.h"

namespace {

using namespace ehdnn;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

// Records the last virtual called and answers with distinctive values.
class SpySupply : public dev::PowerSupply {
 public:
  std::vector<std::string> calls;
  double last_a = 0.0, last_b = 0.0;

  bool consume(double joules, double dt) override {
    calls.push_back("consume");
    last_a = joules;
    last_b = dt;
    return false;
  }
  std::size_t consume_batch(const dev::SpendEvent* ev, std::size_t n) override {
    calls.push_back("consume_batch");
    last_a = ev[0].joules;
    return n - 1;
  }
  bool prepay_safe() const override {
    log("prepay_safe");
    return true;
  }
  double prepaid_budget() const override {
    log("prepaid_budget");
    return 1.25;
  }
  double voltage() const override {
    log("voltage");
    return 2.75;
  }
  double headroom() const override {
    log("headroom");
    return 3.5;
  }
  bool on() const override {
    log("on");
    return false;
  }
  double recharge_to_on() override {
    calls.push_back("recharge_to_on");
    return 0.125;
  }
  bool starved() const override {
    log("starved");
    return true;
  }
  void notify(dev::SupplyEvent event) override {
    calls.push_back("notify");
    last_a = static_cast<double>(event);
  }
  void idle_until(double t_s) override {
    calls.push_back("idle_until");
    last_a = t_s;
  }
  double now() const override {
    log("now");
    return 42.0;
  }

 private:
  void log(const char* name) const { const_cast<SpySupply*>(this)->calls.push_back(name); }
};

void test_supply_forwarding() {
  SpySupply spy;
  perfbench::Tracer tracer;
  perfbench::TimedSupply s(spy, tracer);
  auto last = [&] { return spy.calls.empty() ? std::string() : spy.calls.back(); };

  expect(!s.consume(1e-6, 2e-6) && last() == "consume" && spy.last_a == 1e-6 &&
             spy.last_b == 2e-6,
         "TimedSupply forwards consume");
  const dev::SpendEvent ev[3] = {{4e-6, 1e-6}, {5e-6, 1e-6}, {6e-6, 1e-6}};
  expect(s.consume_batch(ev, 3) == 2 && last() == "consume_batch" && spy.last_a == 4e-6,
         "TimedSupply forwards consume_batch");
  expect(s.prepay_safe() && last() == "prepay_safe", "TimedSupply forwards prepay_safe");
  expect(s.prepaid_budget() == 1.25 && last() == "prepaid_budget",
         "TimedSupply forwards prepaid_budget");
  expect(s.voltage() == 2.75 && last() == "voltage", "TimedSupply forwards voltage");
  expect(s.headroom() == 3.5 && last() == "headroom", "TimedSupply forwards headroom");
  expect(!s.on() && last() == "on", "TimedSupply forwards on");
  expect(s.recharge_to_on() == 0.125 && last() == "recharge_to_on",
         "TimedSupply forwards recharge_to_on");
  expect(s.starved() && last() == "starved", "TimedSupply forwards starved");
  s.notify(dev::SupplyEvent::kCheckpointEnd);
  expect(last() == "notify" &&
             spy.last_a == static_cast<double>(dev::SupplyEvent::kCheckpointEnd),
         "TimedSupply forwards notify");
  s.idle_until(9.5);
  expect(last() == "idle_until" && spy.last_a == 9.5, "TimedSupply forwards idle_until");
  expect(s.now() == 42.0 && last() == "now", "TimedSupply forwards now");

  const perfbench::TraceTotals& t = tracer.totals();
  expect(t.settle_calls == 2 && t.settle_events == 4 && t.recharges == 1 &&
             t.voltage_reads == 1,
         "TimedSupply counts settlements, recharges and voltage reads");
}

class SpyPolicy : public flex::RuntimePolicy {
 public:
  std::vector<std::string> calls;
  std::size_t last_unit = 0;
  double last_cycles = 0.0;
  bool last_fresh = false;
  const ace::CompiledModel* other = nullptr;

  std::string name() const override {
    log("name");
    return "spy";
  }
  long units_total(const ace::CompiledModel&) const override {
    log("units_total");
    return 77;
  }
  void on_boot(flex::StepContext&, bool fresh) override {
    calls.push_back("on_boot");
    last_fresh = fresh;
  }
  bool step(flex::StepContext&) override {
    calls.push_back("step");
    return true;
  }
  void on_commit(flex::StepContext&, std::size_t unit) override {
    calls.push_back("on_commit");
    last_unit = unit;
  }
  void on_warning(flex::StepContext&, std::size_t unit) override {
    calls.push_back("on_warning");
    last_unit = unit;
  }
  bool retry_after_failure(flex::StepContext&, double attempt_cycles) override {
    calls.push_back("retry_after_failure");
    last_cycles = attempt_cycles;
    return false;
  }
  const ace::CompiledModel& output_model(const ace::CompiledModel& armed) const override {
    log("output_model");
    return other != nullptr ? *other : armed;
  }

 private:
  void log(const char* name) const { const_cast<SpyPolicy*>(this)->calls.push_back(name); }
};

void test_policy_forwarding() {
  SpyPolicy spy;
  perfbench::Tracer tracer;
  perfbench::TimedPolicy p(spy, tracer, /*attribute_layers=*/false);
  auto last = [&] { return spy.calls.empty() ? std::string() : spy.calls.back(); };

  dev::Device dev;
  ace::CompiledModel cm, twin;
  spy.other = &twin;
  flex::RunOptions opts;
  flex::RunStats st;
  flex::StepContext ctx{dev, cm, {}, opts, st};

  expect(p.name() == "spy" && last() == "name", "TimedPolicy forwards name");
  expect(p.units_total(cm) == 77 && last() == "units_total",
         "TimedPolicy forwards units_total");
  p.on_boot(ctx, true);
  expect(last() == "on_boot" && spy.last_fresh, "TimedPolicy forwards on_boot");
  expect(p.step(ctx) && last() == "step", "TimedPolicy forwards step");
  p.on_commit(ctx, 5);
  expect(last() == "on_commit" && spy.last_unit == 5, "TimedPolicy forwards on_commit");
  p.on_warning(ctx, 9);
  expect(last() == "on_warning" && spy.last_unit == 9, "TimedPolicy forwards on_warning");
  expect(!p.retry_after_failure(ctx, 123.0) && last() == "retry_after_failure" &&
             spy.last_cycles == 123.0,
         "TimedPolicy forwards retry_after_failure");
  expect(&p.output_model(cm) == &twin && last() == "output_model",
         "TimedPolicy forwards output_model");

  const perfbench::TraceTotals& t = tracer.totals();
  expect(t.policy_calls[perfbench::kPolicyBoot] == 1 &&
             t.policy_calls[perfbench::kPolicyStep] == 1 &&
             t.policy_calls[perfbench::kPolicyRetry] == 1,
         "TimedPolicy opens one span per boot, step and retry");
}

void test_traced_equals_untraced(const std::string& root) {
  for (const std::uint64_t seed : {7ull, 1009ull}) {
    for (const std::string& w : perfbench::workload_names()) {
      const std::string tag = w + " seed " + std::to_string(seed);
      const perfbench::QuotaRun plain = perfbench::run_quota(w, seed, root, false);
      const perfbench::QuotaRun traced = perfbench::run_quota(w, seed, root, true);
      expect(!plain.records.empty() && plain.records == traced.records,
             tag + ": traced per-inference records equal the untraced ones");
      bool same = plain.sim.size() == traced.sim.size();
      for (std::size_t i = 0; same && i < plain.sim.size(); ++i) {
        same = plain.sim[i].name == traced.sim[i].name &&
               plain.sim[i].value == traced.sim[i].value;
      }
      expect(same, tag + ": traced sim_* metrics equal the untraced ones");
      std::printf("%s: %zu records compared\n", tag.c_str(), plain.records.size());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  if (argc == 3 && std::string(argv[1]) == "--root") root = argv[2];
  test_supply_forwarding();
  test_policy_forwarding();
  test_traced_equals_untraced(root);
  std::printf("%s (%d failures)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
