//! Stage-granular vs whole-job rescheduling (the PR 10 acceptance
//! differential).
//!
//! Same seeded DAG scenario, same fault storm, two repair scopes:
//!
//! * [`RepairScope::Stage`] re-solves only the stages whose trees cross
//!   the cut (the link → tasks reverse index);
//! * [`RepairScope::Job`] widens every hit to all active stages of the
//!   affected jobs — the whole-job re-solve baseline.
//!
//! The contract: narrowing the blast radius must not cost completions
//! beyond a small slack (`served ⊇ re-solve − GAP`), while the number of
//! reschedule considerations — the control-plane work a fault triggers —
//! must drop strictly. Summed over several seeds so one lucky fault
//! placement cannot mask a regression.

use flexsched_orchestrator::{DagEventTestbed, DagStats, DagTestbedConfig, RepairScope};
use flexsched_sched::{FlexibleMst, ReschedulePolicy};
use flexsched_simnet::SimTime;
use flexsched_task::WorkloadConfig;

/// Completion slack: job-scoped repair may luck into at most this many
/// extra completions across ALL seeds before we call it a regression.
const GAP: u64 = 1;

fn storm_cfg(seed: u64, scope: RepairScope) -> DagTestbedConfig {
    DagTestbedConfig {
        workload: WorkloadConfig::seeded_scenario(seed, 8, 5),
        dag: flexsched_task::DagConfig {
            num_jobs: 6,
            ..flexsched_task::DagConfig::default()
        },
        // A dense storm inside the ~40 s activity window: jobs arrive
        // within tens of ms (2 ms mean inter-arrival) and stages run for
        // seconds, so spreading a handful of faults over a long horizon
        // would never cut an active tree.
        fault_count: 60,
        fault_seed: seed.wrapping_mul(31).wrapping_add(7),
        fault_window: Some(SimTime::from_secs(40)),
        reschedule: Some(ReschedulePolicy::default()),
        repair_scope: scope,
        horizon: SimTime::from_secs(600),
        ..DagTestbedConfig::default()
    }
}

fn run(seed: u64, scope: RepairScope) -> DagStats {
    DagEventTestbed::new(storm_cfg(seed, scope), Box::new(FlexibleMst::paper()))
        .unwrap()
        .run()
        .unwrap()
        .dag
        .expect("dag runs always report stats")
}

#[test]
fn stage_scope_reschedules_strictly_less_without_losing_jobs() {
    let seeds = [3u64, 17, 42];
    let mut stage_completed = 0u64;
    let mut job_completed = 0u64;
    let mut stage_decisions = 0u64;
    let mut job_decisions = 0u64;
    let mut jobs_total = 0u64;

    for seed in seeds {
        let stage = run(seed, RepairScope::Stage);
        let job = run(seed, RepairScope::Job);
        // Same scenario either way: identical job/stage population.
        assert_eq!(stage.jobs, job.jobs, "seed {seed}: workloads diverged");
        stage_completed += stage.jobs_completed;
        job_completed += job.jobs_completed;
        stage_decisions += stage.repair_decisions;
        job_decisions += job.repair_decisions;
        jobs_total += stage.jobs;
    }

    assert!(
        job_decisions > 0,
        "fault storm never hit an active stage; the differential is vacuous"
    );
    // Acceptance: stage granularity serves (almost) everything whole-job
    // re-solving serves…
    assert!(
        stage_completed + GAP >= job_completed,
        "stage-scoped repair lost jobs: {stage_completed} vs {job_completed} (of {jobs_total})"
    );
    // …while doing strictly less fault-time control-plane work.
    assert!(
        stage_decisions < job_decisions,
        "stage scope must re-solve strictly fewer stages: {stage_decisions} vs {job_decisions}"
    );
}
