// Duty-cycled recurring inference: a device does not run ONE inference,
// it owes a stream of them — sample, infer, report, sleep, repeat. The
// DeviceAgenda says what it owes (how many jobs, released how often, due
// when); the JobQueue executes the agenda on one device, job by job,
// through the incremental IntermittentExecutor API, and records what
// every job actually did: completion, deadline verdict, staleness, and —
// under the adaptive scheduler — which runtime tier finished it.
//
// Time is supply time (PowerSupply::now()): job j is released at
// j * period_s; between a job's completion and the next release the
// device parks in PowerSupply::idle_until, where harvest income keeps
// charging the capacitor but nothing is drawn. Staleness is
// finish - release — what the paper's intermittent-latency numbers
// become once inference is recurring rather than one-shot.
//
// Under an adaptive policy with admit=budget the queue also runs
// energy-budgeted admission: a release whose best-tier predicted
// completion (sched::CompletionModel) misses the deadline by more than
// the configured slack is recorded as skipped_infeasible instead of
// burning the capacitor on a doomed run — the charge survives for the
// next release, which is how skipping can only help later deadlines.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/flex/executor.h"

namespace ehdnn::sched {

struct DeviceAgenda {
  std::string runtime = "flex";  // runtime key (informational in records;
                                 // the queue runs whatever policy it is given)
  int jobs = 1;                  // inferences owed
  double period_s = 0.1;         // release period (must be > 0)
  double deadline_s = std::numeric_limits<double>::infinity();  // relative
};

struct JobRecord {
  int job = 0;
  double release_s = 0.0;    // j * period_s
  double start_s = 0.0;      // supply time when armed (>= release)
  double finish_s = 0.0;
  double latency_s = 0.0;    // finish - start
  double staleness_s = 0.0;  // finish - release (the deadline clock)
  flex::Outcome outcome = flex::Outcome::kDidNotFinish;
  bool met_deadline = false;  // completed && staleness <= deadline
  // DNF via the executor's futile-boot watchdog (RunOptions::
  // max_futile_boots): the run was spinning without banking progress.
  // Reported as the per-job verdict "livelock" in the FLEET v4 schema.
  bool livelock = false;
  // Energy-budgeted admission refused this release: the best tier's
  // predicted completion missed the deadline by more than the configured
  // slack, so the run never started and the capacitor kept its charge for
  // the next release. Reported as the per-job verdict
  // "skipped_infeasible" in the FLEET v3 schema.
  bool skipped_infeasible = false;
  // Lower bound on the energy the skipped run would have burned (the
  // cheapest calibrated tier's per-inference energy); 0 for run jobs.
  double energy_reclaimed_j = 0.0;
  // Which admission stage refused a skipped release: 0 for admitted jobs,
  // 1 for a CERTAIN skip (the time budget is below the fastest tier's
  // continuous-power time — pure cost model), 2 for a FORECAST skip (the
  // predicted completion under the income curve misses the budget; this
  // is the stage the probe valve bounds). The contract checker
  // (sched/contracts.h) keys its soundness exception class on this.
  int skip_stage = 0;
  std::string runtime;        // completing tier (adaptive) or the fixed key
  long reboots = 0;
  long checkpoints = 0;
  long progress_commits = 0;
  long tier_switches = 0;  // adaptive mid-run switches during this job
  double energy_j = 0.0;
};

// Drives one device's agenda. Non-owning over device/policy/model/inputs;
// all must outlive the queue. The device must have a supply attached
// (job timing is supply time).
class JobQueue {
 public:
  JobQueue(dev::Device& dev, flex::RuntimePolicy& policy,
           const ace::CompiledModel& primary, const flex::RunOptions& opts,
           const DeviceAgenda& agenda,
           const std::vector<std::vector<fx::q15_t>>* job_inputs);

  // Advances by one bounded slice. While parked, one step parks the
  // supply to the pending release (income accrues, nothing is drawn),
  // runs admission, and arms the executor; while a run is live, one step
  // is one executor slice. Returns true while the agenda has work left;
  // a finished queue returns false.
  bool step();

  bool finished() const { return done_; }

  const std::vector<JobRecord>& records() const { return records_; }
  long steps() const { return steps_; }

 private:
  void arm_next();
  void record_finished();
  // Energy-budgeted admission (adaptive policies with admit=budget): true
  // when the just-released job should be skipped because the best tier's
  // predicted completion misses the deadline by more than the slack.
  // `stage` reports which stage refused (JobRecord::skip_stage values).
  bool should_skip(double* reclaimed_j, int* stage);

  dev::Device* dev_;
  flex::RuntimePolicy* policy_;
  const ace::CompiledModel* primary_;
  flex::RunOptions opts_;
  DeviceAgenda agenda_;
  const std::vector<std::vector<fx::q15_t>>* inputs_;

  flex::IntermittentExecutor ex_;
  std::vector<JobRecord> records_;
  double release_s_ = 0.0;
  double start_s_ = 0.0;
  long last_switches_ = 0;
  long steps_ = 0;
  int consecutive_skips_ = 0;  // admission probe valve (see should_skip)
  bool parked_ = true;         // next step arms (parks + admits) rather than slices
  bool done_ = false;
};

}  // namespace ehdnn::sched
