// Outside-in instrumentation for the benchmark's traced runs.
//
// The library exposes two virtual seams: dev::PowerSupply (every energy
// settlement, recharge and voltage sample goes through it) and
// flex::RuntimePolicy (every boot, layer step and retry decision). The
// decorators below wrap them, forward every virtual unchanged, and time
// the calls into an in-memory Tracer. Nothing inside the library is
// instrumented, so a traced run executes exactly the code an untraced
// run does, plus the forwarding hop.
//
// Spans nest three deep: inference -> executor slice -> policy call.
// Supply calls are not spans; their time and counts are charged to the
// innermost open span, which keeps memory bounded by the number of
// slices rather than the number of settlements. Every span's self time
// (its duration minus its child spans and the supply time charged to it)
// is folded into per-layer totals when the span closes; the spans
// themselves are kept and written out at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/flex/executor.h"
#include "device/power_interface.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : std::uint8_t { kInference, kSlice, kPolicy };

// Slice tags: a slice in which Device::reboots() rose is a recovery.
enum SliceTag : std::uint8_t { kSliceRun = 0, kSliceRecover = 1 };
// Policy-call tags.
enum PolicyTag : std::uint8_t { kPolicyBoot = 0, kPolicyStep = 1, kPolicyRetry = 2 };
// ACE layer classes for continuous-power step attribution.
enum LayerClass : int { kLayerConv = 0, kLayerFc, kLayerBcm, kLayerOther, kLayerClasses };

inline int layer_class(ehdnn::quant::QKind k) {
  using ehdnn::quant::QKind;
  switch (k) {
    case QKind::kConv2D:
    case QKind::kConv1D: return kLayerConv;
    case QKind::kDense: return kLayerFc;
    case QKind::kBcmDense: return kLayerBcm;
    default: return kLayerOther;
  }
}

struct Span {
  std::int64_t t0_ns = 0, t1_ns = 0;
  std::int64_t supply_ns = 0;  // supply time charged directly to this span
  std::int32_t parent = -1;    // id of the enclosing span, -1 at top level
  SpanKind kind = SpanKind::kInference;
  std::uint8_t tag = 0;     // inference: unit index; slice: SliceTag; policy: PolicyTag
  std::int8_t layer = -1;  // LayerClass of an attributed policy step
  std::int32_t settle_calls = 0, settle_events = 0, recharges = 0, voltage_reads = 0;
  double cycles = 0.0, joules = 0.0;  // modeled delta of an attributed step
};

// Per-layer totals folded in as spans close.
struct TraceTotals {
  std::int64_t inference_ns = 0, inference_self_ns = 0;
  std::int64_t slice_self_ns[3] = {};  // by SliceTag, sized like the policy arrays
  long policy_calls[3] = {};
  std::int64_t policy_self_ns[3] = {};
  std::int64_t layer_ns[kLayerClasses] = {};
  double layer_cycles[kLayerClasses] = {}, layer_joules[kLayerClasses] = {};
  std::int64_t settle_ns = 0, recharge_ns = 0;
  long settle_calls = 0, settle_events = 0, recharges = 0, voltage_reads = 0;
};

class Tracer {
 public:
  void open(SpanKind kind) {
    Open o;
    o.id = static_cast<std::int32_t>(spans_.size());
    spans_.emplace_back();
    o.span.kind = kind;
    o.span.parent = stack_.empty() ? -1 : stack_.back().id;
    o.span.t0_ns = now_ns();
    stack_.push_back(o);
  }

  // Closes the innermost span with its tag (a SliceTag or PolicyTag; a
  // slice learns whether it recovered only at its end). `layer`,
  // `cycles` and `joules` attribute a policy step to an ACE layer class.
  void close(std::uint8_t tag, int layer = -1, double cycles = 0.0, double joules = 0.0) {
    Open o = stack_.back();
    stack_.pop_back();
    Span& s = o.span;
    s.t1_ns = now_ns();
    s.tag = tag;
    s.layer = static_cast<std::int8_t>(layer);
    s.cycles = cycles;
    s.joules = joules;
    const std::int64_t dur = s.t1_ns - s.t0_ns;
    const std::int64_t self = dur - o.child_ns - s.supply_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    switch (s.kind) {
      case SpanKind::kInference:
        t_.inference_ns += dur;
        t_.inference_self_ns += self;
        break;
      case SpanKind::kSlice:
        t_.slice_self_ns[tag] += self;
        break;
      case SpanKind::kPolicy:
        ++t_.policy_calls[tag];
        t_.policy_self_ns[tag] += self;
        if (layer >= 0) {
          t_.layer_ns[layer] += self;
          t_.layer_cycles[layer] += cycles;
          t_.layer_joules[layer] += joules;
        }
        break;
    }
    spans_[static_cast<std::size_t>(o.id)] = s;
  }

  void charge_settle(std::int64_t ns, long events) {
    t_.settle_ns += ns;
    ++t_.settle_calls;
    t_.settle_events += events;
    if (stack_.empty()) return;
    Span& s = stack_.back().span;
    s.supply_ns += ns;
    ++s.settle_calls;
    s.settle_events += static_cast<std::int32_t>(events);
  }

  void charge_recharge(std::int64_t ns) {
    t_.recharge_ns += ns;
    ++t_.recharges;
    if (stack_.empty()) return;
    stack_.back().span.supply_ns += ns;
    ++stack_.back().span.recharges;
  }

  void count_voltage_read() {
    ++t_.voltage_reads;
    if (!stack_.empty()) ++stack_.back().span.voltage_reads;
  }

  const TraceTotals& totals() const { return t_; }

  // One CSV row per span, ids in open order.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "id,parent,kind,tag,layer,t0_ns,t1_ns,supply_ns,settle_calls,"
                 "settle_events,recharges,voltage_reads,cycles,joules\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%d,%d,%d,%d,%lld,%lld,%lld,%d,%d,%d,%d,%.17g,%.17g\n", i,
                   s.parent, static_cast<int>(s.kind), s.tag, s.layer,
                   static_cast<long long>(s.t0_ns), static_cast<long long>(s.t1_ns),
                   static_cast<long long>(s.supply_ns), s.settle_calls, s.settle_events,
                   s.recharges, s.voltage_reads, s.cycles, s.joules);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    std::int32_t id = 0;
    Span span;
    std::int64_t child_ns = 0;
  };
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  TraceTotals t_;
};

// Forwards every PowerSupply virtual to `inner`; times settlements and
// recharges and counts voltage samples.
class TimedSupply : public ehdnn::dev::PowerSupply {
 public:
  TimedSupply(ehdnn::dev::PowerSupply& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  bool consume(double joules, double dt) override {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_.consume(joules, dt);
    tracer_.charge_settle(now_ns() - t0, 1);
    return ok;
  }
  std::size_t consume_batch(const ehdnn::dev::SpendEvent* ev, std::size_t n) override {
    const std::int64_t t0 = now_ns();
    const std::size_t done = inner_.consume_batch(ev, n);
    tracer_.charge_settle(now_ns() - t0, static_cast<long>(n));
    return done;
  }
  bool prepay_safe() const override { return inner_.prepay_safe(); }
  double prepaid_budget() const override { return inner_.prepaid_budget(); }
  double voltage() const override {
    tracer_.count_voltage_read();
    return inner_.voltage();
  }
  double headroom() const override { return inner_.headroom(); }
  bool on() const override { return inner_.on(); }
  double recharge_to_on() override {
    const std::int64_t t0 = now_ns();
    const double off = inner_.recharge_to_on();
    tracer_.charge_recharge(now_ns() - t0);
    return off;
  }
  bool starved() const override { return inner_.starved(); }
  void notify(ehdnn::dev::SupplyEvent event) override { inner_.notify(event); }
  void idle_until(double t_s) override { inner_.idle_until(t_s); }
  double now() const override { return inner_.now(); }

 private:
  ehdnn::dev::PowerSupply& inner_;
  Tracer& tracer_;
};

// Forwards every RuntimePolicy virtual to `inner`; opens a policy span
// around on_boot, step and retry_after_failure. With `attribute_layers`
// (continuous power, where one step() is exactly one layer) each step is
// also tagged with its layer class and modeled cycle/energy delta.
class TimedPolicy : public ehdnn::flex::RuntimePolicy {
 public:
  TimedPolicy(ehdnn::flex::RuntimePolicy& inner, Tracer& tracer, bool attribute_layers)
      : inner_(inner), tracer_(tracer), attribute_(attribute_layers) {}

  std::string name() const override { return inner_.name(); }
  long units_total(const ehdnn::ace::CompiledModel& cm) const override {
    return inner_.units_total(cm);
  }
  void on_boot(ehdnn::flex::StepContext& ctx, bool fresh) override {
    if (fresh) step_index_ = 0;
    Scope s(tracer_, kPolicyBoot);
    inner_.on_boot(ctx, fresh);
  }
  bool step(ehdnn::flex::StepContext& ctx) override {
    Scope s(tracer_, kPolicyStep);
    if (attribute_ && step_index_ < ctx.cm.model.layers.size()) {
      s.dev = &ctx.dev;
      s.layer = layer_class(ctx.cm.model.layers[step_index_].kind);
      s.c0 = ctx.dev.trace().total_cycles();
      s.e0 = ctx.dev.trace().total_energy();
    }
    ++step_index_;
    return inner_.step(ctx);
  }
  void on_commit(ehdnn::flex::StepContext& ctx, std::size_t unit) override {
    inner_.on_commit(ctx, unit);
  }
  void on_warning(ehdnn::flex::StepContext& ctx, std::size_t unit) override {
    inner_.on_warning(ctx, unit);
  }
  bool retry_after_failure(ehdnn::flex::StepContext& ctx, double attempt_cycles) override {
    Scope s(tracer_, kPolicyRetry);
    return inner_.retry_after_failure(ctx, attempt_cycles);
  }
  const ehdnn::ace::CompiledModel& output_model(
      const ehdnn::ace::CompiledModel& armed) const override {
    return inner_.output_model(armed);
  }

 private:
  // Closes the policy span on every exit, PowerFailure unwinding included.
  struct Scope {
    Scope(Tracer& t, std::uint8_t tag) : tracer(t), tag(tag) {
      tracer.open(SpanKind::kPolicy);
    }
    ~Scope() {
      if (dev == nullptr) {
        tracer.close(tag);
        return;
      }
      tracer.close(tag, layer, dev->trace().total_cycles() - c0,
                   dev->trace().total_energy() - e0);
    }
    Tracer& tracer;
    std::uint8_t tag;
    const ehdnn::dev::Device* dev = nullptr;
    int layer = -1;
    double c0 = 0.0, e0 = 0.0;
  };

  ehdnn::flex::RuntimePolicy& inner_;
  Tracer& tracer_;
  bool attribute_;
  std::size_t step_index_ = 0;
};

}  // namespace perfbench
