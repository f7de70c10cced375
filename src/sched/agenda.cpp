#include "sched/agenda.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sched/adaptive.h"
#include "util/check.h"

namespace ehdnn::sched {

JobQueue::JobQueue(dev::Device& dev, flex::RuntimePolicy& policy,
                   const ace::CompiledModel& primary, const flex::RunOptions& opts,
                   const DeviceAgenda& agenda,
                   const std::vector<std::vector<fx::q15_t>>* job_inputs)
    : dev_(&dev),
      policy_(&policy),
      primary_(&primary),
      opts_(opts),
      agenda_(agenda),
      inputs_(job_inputs),
      ex_(policy) {
  check(dev.supply() != nullptr, "JobQueue: device needs a supply (job timing)");
  check(agenda.jobs >= 1, "JobQueue: agenda needs at least one job");
  check(agenda.period_s > 0.0, "JobQueue: agenda period must be > 0");
  check(job_inputs != nullptr &&
            job_inputs->size() == static_cast<std::size_t>(agenda.jobs),
        "JobQueue: need one input per job");
  if (const AdaptivePolicy* ap = as_adaptive(policy_)) last_switches_ = ap->tier_switches();
  // The queue starts parked on job 0's release (t=0): arming — the park,
  // the admission decision, the executor start — happens in the first
  // step(), not here, so every park costs exactly one counted step.
}

bool JobQueue::should_skip(double* reclaimed_j, int* stage) {
  AdaptivePolicy* ap = as_adaptive(policy_);
  if (ap == nullptr || ap->spec().admit != Admission::kBudget) return false;
  if (!std::isfinite(agenda_.deadline_s)) return false;
  // No observed income yet means no evidence: never refuse a release on
  // the prior alone.
  if (ap->forecaster().samples() == 0) return false;
  // Two-stage admission. Stage one — CERTAIN skips: the time budget left
  // is below the fastest tier's continuous-power time, so the release
  // cannot meet its deadline even if the harvester delivered unbounded
  // income (this is what sheds a backlog of already-late releases after
  // a long outage). Pure calibrated cost model, no forecast involved;
  // the 0.9 margin absorbs the input-dependence of modeled FFT scaling.
  const double budget_s =
      release_s_ + agenda_.deadline_s + ap->spec().admit_slack_s - start_s_;
  if (budget_s < 0.9 * ap->predict_optimistic_s(*dev_, *primary_)) {
    *reclaimed_j = ap->reclaimable_energy_j();
    *stage = 1;
    return true;
  }
  // Stage two — FORECAST skips: the predicted completion under the
  // income curve misses the budget. Forecasts can be wrong, so this
  // stage only fires once the periodic forecaster has CONFIRMED a
  // period, and the probe valve admits every probe_skips-th consecutive
  // skip regardless (skipped releases record no samples; probing bounds
  // how long a stale forecast can refuse work).
  if (ap->forecaster().period_s() <= 0.0) return false;
  if (consecutive_skips_ >= ap->spec().probe_skips) return false;
  const double predicted = ap->predict_best_completion_s(*dev_, *primary_);
  if (predicted <= budget_s) return false;
  *reclaimed_j = ap->reclaimable_energy_j();
  *stage = 2;
  return true;
}

void JobQueue::arm_next() {
  while (true) {
    const int j = static_cast<int>(records_.size());
    release_s_ = static_cast<double>(j) * agenda_.period_s;
    dev::PowerSupply& supply = *dev_->supply();
    // Park until release: income accrues, nothing is drawn.
    if (supply.now() < release_s_) {
      obs::record(opts_.trace, supply.now(), obs::EventKind::kPark, j);
      supply.idle_until(release_s_);
    }
    start_s_ = supply.now();
    obs::record(opts_.trace, start_s_, obs::EventKind::kJobRelease, j);
    opts_.deadline_s = std::isfinite(agenda_.deadline_s)
                           ? release_s_ + agenda_.deadline_s
                           : std::numeric_limits<double>::infinity();
    double reclaimed_j = 0.0;
    int stage = 0;
    if (!should_skip(&reclaimed_j, &stage)) {
      consecutive_skips_ = 0;
      obs::record(opts_.trace, start_s_, obs::EventKind::kJobAdmit, j);
      ex_.start(*dev_, *primary_, (*inputs_)[static_cast<std::size_t>(j)], opts_);
      return;
    }
    // Infeasible release: record the verdict without booting the run.
    obs::record(opts_.trace, start_s_, obs::EventKind::kJobSkip, j);
    ++consecutive_skips_;
    JobRecord r;
    r.job = j;
    r.release_s = release_s_;
    r.start_s = start_s_;
    r.finish_s = start_s_;
    r.skipped_infeasible = true;
    r.energy_reclaimed_j = reclaimed_j;
    r.skip_stage = stage;
    r.runtime = agenda_.runtime;
    records_.push_back(std::move(r));
    if (static_cast<int>(records_.size()) >= agenda_.jobs) {
      done_ = true;
      return;
    }
  }
}

void JobQueue::record_finished() {
  const flex::RunStats st = ex_.take_stats();
  JobRecord r;
  r.job = static_cast<int>(records_.size());
  r.release_s = release_s_;
  r.start_s = start_s_;
  r.finish_s = dev_->supply()->now();
  r.latency_s = r.finish_s - start_s_;
  r.staleness_s = r.finish_s - release_s_;
  r.outcome = st.outcome;
  r.met_deadline = st.completed() && r.staleness_s <= agenda_.deadline_s;
  r.livelock = st.livelock;
  obs::record(opts_.trace, r.finish_s,
              st.completed() ? obs::EventKind::kJobComplete : obs::EventKind::kJobMiss,
              r.job, r.met_deadline ? 1 : 0);
  r.reboots = st.reboots;
  r.checkpoints = st.checkpoints;
  r.progress_commits = st.progress_commits;
  r.energy_j = st.energy_j;
  if (const AdaptivePolicy* ap = as_adaptive(policy_)) {
    r.runtime = ap->current_runtime();
    r.tier_switches = ap->tier_switches() - last_switches_;
    last_switches_ = ap->tier_switches();
  } else {
    r.runtime = agenda_.runtime;
  }
  records_.push_back(std::move(r));
}

bool JobQueue::step() {
  if (done_) return false;
  ++steps_;
  if (parked_) {
    arm_next();  // may finish the agenda by skipping every remaining release
    if (!done_) parked_ = false;
    return !done_;
  }
  if (ex_.step()) return true;
  record_finished();
  if (static_cast<int>(records_.size()) >= agenda_.jobs) {
    done_ = true;
    return false;
  }
  parked_ = true;  // next step parks to the following release and re-arms
  return true;
}

}  // namespace ehdnn::sched
