//! Fixed-tick ↔ event-driven equivalence pinning.
//!
//! The `EventTestbed` is a port, not a re-interpretation: on a no-retry,
//! fault-free, traffic-free scenario the event-driven run must commit the
//! *identical* task set through the same snapshot → propose → commit calls
//! in the same order as the fixed-tick `Testbed` — verified down to a
//! bit-identical final database fingerprint. The network and optical Debug
//! representations include their mutation stamps, so equal fingerprints
//! mean the two drivers performed the same state mutations in the same
//! order, not merely converged on similar end states.

use flexsched_orchestrator::{
    Database, EventTestbed, MemoryMode, RunSummary, Testbed, TestbedConfig,
};
use flexsched_sched::{FixedSpff, FlexibleMst, Scheduler};
use flexsched_task::WorkloadConfig;

const TEST_SEED: u64 = 2024;

fn quick_cfg(n_locals: usize) -> TestbedConfig {
    TestbedConfig {
        workload: WorkloadConfig::seeded_scenario(TEST_SEED, 8, n_locals),
        fault_seed: TEST_SEED,
        ..TestbedConfig::default()
    }
}

fn fingerprint(db: &Database) -> String {
    db.read(|net, opt, _| format!("{net:?}|{opt:?}"))
}

fn run_fixed(cfg: TestbedConfig, scheduler: Box<dyn Scheduler>) -> (RunSummary, String) {
    let tb = Testbed::new(cfg, scheduler);
    let db = tb.database().clone();
    let summary = tb.run().unwrap();
    (summary, fingerprint(&db))
}

fn run_event(
    cfg: TestbedConfig,
    scheduler: Box<dyn Scheduler>,
    mode: MemoryMode,
) -> (RunSummary, String) {
    let tb = EventTestbed::new(cfg, scheduler).with_memory_mode(mode);
    let db = tb.database().clone();
    let summary = tb.run().unwrap();
    (summary, fingerprint(&db))
}

/// The tentpole acceptance pin: same seed + same scenario ⇒ the
/// event-driven run commits the identical task set with a bit-identical
/// final database fingerprint, under both schedulers.
#[test]
fn event_run_matches_fixed_tick_bit_identically() {
    type MkScheduler = fn() -> Box<dyn Scheduler>;
    let schedulers: [(&str, MkScheduler); 2] = [
        ("fixed-spff", || Box::new(FixedSpff)),
        ("flexible-mst", || Box::new(FlexibleMst::paper())),
    ];
    for (label, mk) in schedulers {
        let (tick, tick_fp) = run_fixed(quick_cfg(5), mk());
        let (event, event_fp) = run_event(quick_cfg(5), mk(), MemoryMode::Retain);

        assert_eq!(tick.reports, event.reports, "{label}: task reports differ");
        assert_eq!(tick.blocked, event.blocked, "{label}");
        assert_eq!(tick.retries, event.retries, "{label}");
        assert_eq!(tick.shed, event.shed, "{label}");
        assert_eq!(tick.events, event.events, "{label}: event counts differ");
        assert_eq!(tick.duration, event.duration, "{label}");
        assert_eq!(
            tick.groom_reuse_hits + tick.groom_new_lights,
            event.groom_reuse_hits + event.groom_new_lights,
            "{label}"
        );
        assert!(
            (tick.peak_reserved_gbps - event.peak_reserved_gbps).abs() < 1e-12,
            "{label}"
        );
        assert!(
            (tick.mean_reserved_gbps - event.mean_reserved_gbps).abs() < 1e-12,
            "{label}"
        );
        assert_eq!(tick_fp, event_fp, "{label}: database fingerprints differ");
    }
}

/// The event-driven run measures what the fixed-tick one cannot: true
/// per-task sojourn. On the equivalence scenario the recorded tails must
/// agree with the per-report reconstruction.
#[test]
fn event_run_reports_true_sojourn_tails() {
    let (summary, _) = run_event(
        quick_cfg(5),
        Box::new(FlexibleMst::paper()),
        MemoryMode::Retain,
    );
    let sojourn = summary.sojourn.expect("event runs always report sojourn");
    assert_eq!(sojourn.completed, 8);
    // Every task in this scenario starts instantly (no retries), so
    // sojourn == total training+comm time; p50 must sit within the range
    // of per-report totals and max must match the slowest report exactly.
    let totals: Vec<u64> = summary.reports.iter().map(|r| r.total_ns()).collect();
    let max = *totals.iter().max().unwrap();
    assert_eq!(sojourn.sojourn_max_ns, max);
    assert!(sojourn.sojourn_p50_ns >= *totals.iter().min().unwrap());
    // Log-bucket quantiles overshoot by at most 1.6%.
    assert!(sojourn.sojourn_p999_ns as f64 <= max as f64 * 1.016 + 1.0);
    assert_eq!(
        sojourn.queueing_p99_ns, 0,
        "no task queued in this scenario"
    );
}

/// Bounded mode trades retained reports for pruned state: same scenario,
/// same completions and commit counters, empty report vec, and a database
/// with no residual per-task records.
#[test]
fn bounded_mode_completes_and_prunes() {
    let cfg = quick_cfg(5);
    let tb = EventTestbed::new(cfg, Box::new(FlexibleMst::paper()))
        .with_memory_mode(MemoryMode::Bounded);
    let db = tb.database().clone();
    let outcome = tb.run_detailed(false).unwrap();
    let s = &outcome.summary;
    assert!(s.reports.is_empty(), "bounded mode must not retain reports");
    let sojourn = s.sojourn.unwrap();
    assert_eq!(sojourn.completed, 8);
    assert_eq!(s.blocked, 0);
    assert!(s.mean_iteration_ms > 0.0);
    assert!(outcome.peak_active_tasks >= 1);
    assert!(outcome.peak_pending_events >= 1);
    // All per-task state pruned at departure.
    use flexsched_orchestrator::database::TaskPhase;
    for phase in [
        TaskPhase::Pending,
        TaskPhase::Running,
        TaskPhase::Completed,
        TaskPhase::Blocked,
    ] {
        assert_eq!(db.count_phase(phase), 0, "{phase:?} records leaked");
    }
    assert!(db.total_reserved_gbps().abs() < 1e-6, "reservations leaked");
}

/// Fault/repair storms as event pairs: the event-driven run under faults +
/// rescheduling still completes the workload, and repairs stay a subset of
/// reschedules (the fixed-tick invariant).
#[test]
fn event_run_survives_fault_storms() {
    let mut cfg = quick_cfg(5);
    cfg.fault_count = 4;
    cfg.reschedule = Some(flexsched_sched::ReschedulePolicy::default());
    let (s, _) = run_event(cfg, Box::new(FlexibleMst::paper()), MemoryMode::Retain);
    assert_eq!(s.reports.len(), 8);
    assert!(s.repairs <= s.reschedules);
}
