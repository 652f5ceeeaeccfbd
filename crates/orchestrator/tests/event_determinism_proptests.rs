//! Event-driven testbed determinism properties (nightly-deep runs these at
//! `PROPTEST_CASES=256`).
//!
//! Same seed + same scenario ⇒ identical full event trace (kind, time,
//! seq, destination), identical `RunSummary` and a bit-identical final
//! database, across fault storms, rescheduling, background traffic and the
//! admission gate; and tracing a run changes only what it retains. Every random stream in the scenario is
//! seeded (workload, faults, traffic, retry jitter), and the gate advances
//! in logical time only (its latency watermarks are off), so the only way
//! a run could diverge is hidden nondeterminism in the engine or the
//! control plane — which is exactly what this pins against. Overload
//! incidents therefore replay offline from a seed.

use flexsched_orchestrator::{
    AdmissionConfig, ClassBucket, EventRunOutcome, EventTestbed, TestbedConfig,
};
use flexsched_sched::{FixedSpff, FlexibleMst, ReschedulePolicy, Scheduler};
use flexsched_simnet::traffic::TrafficConfig;
use flexsched_simnet::SimTime;
use flexsched_task::{ServiceClass, WorkloadConfig};
use proptest::prelude::*;

fn scenario(
    seed: u64,
    n_locals: usize,
    fault_count: usize,
    reschedule: bool,
    traffic: bool,
) -> TestbedConfig {
    TestbedConfig {
        workload: WorkloadConfig::seeded_scenario(seed, 8, n_locals),
        fault_seed: seed,
        fault_count,
        mean_repair: SimTime::from_ms(20),
        reschedule: reschedule.then(ReschedulePolicy::default),
        traffic: traffic.then(|| TrafficConfig {
            seed,
            ..TrafficConfig::default()
        }),
        ..TestbedConfig::default()
    }
}

/// A gate whose Standard bucket holds one token and refills ten a
/// second: the default workload is all-Standard and arrives ~2 ms apart,
/// so its second arrival is shed.
fn tight_gate() -> AdmissionConfig {
    AdmissionConfig::default().with_bucket(
        ServiceClass::Standard,
        ClassBucket {
            rate_per_sec: 10.0,
            burst: 1.0,
        },
    )
}

/// One run, traced or not, plus the `Debug` text of its final network and
/// optical state: version counters encode the whole commit history, so
/// equal text means bit-identical databases.
fn run_with(cfg: &TestbedConfig, flexible: bool, traced: bool) -> (EventRunOutcome, String) {
    let scheduler: Box<dyn Scheduler> = if flexible {
        Box::new(FlexibleMst::paper())
    } else {
        Box::new(FixedSpff)
    };
    let tb = EventTestbed::new(cfg.clone(), scheduler);
    let db = tb.database().clone();
    let outcome = tb.run_detailed(traced).unwrap();
    (outcome, db.read(|net, opt, _| format!("{net:?}|{opt:?}")))
}

/// One traced run (see [`run_with`]).
fn run(cfg: &TestbedConfig, flexible: bool) -> (EventRunOutcome, String) {
    run_with(cfg, flexible, true)
}

fn assert_identical((a, a_db): &(EventRunOutcome, String), (b, b_db): &(EventRunOutcome, String)) {
    assert_eq!(a.trace, b.trace, "event trace diverged");
    assert_eq!(a.peak_pending_events, b.peak_pending_events);
    assert_eq!(a.peak_active_tasks, b.peak_active_tasks);
    let (x, y) = (&a.summary, &b.summary);
    assert_eq!(x.reports, y.reports);
    assert_eq!(
        (x.blocked, x.retries, x.reschedules, x.repairs, x.shed),
        (y.blocked, y.retries, y.reschedules, y.repairs, y.shed)
    );
    assert_eq!((x.events, x.duration), (y.events, y.duration));
    assert_eq!(x.sojourn, y.sojourn, "sojourn stats diverged");
    assert_eq!(x.admission, y.admission, "gate verdicts diverged");
    assert_eq!(x.degraded_decisions, y.degraded_decisions);
    assert_eq!(x.mean_iteration_ms.to_bits(), y.mean_iteration_ms.to_bits());
    assert_eq!(
        x.peak_reserved_gbps.to_bits(),
        y.peak_reserved_gbps.to_bits()
    );
    assert_eq!(
        x.mean_reserved_gbps.to_bits(),
        y.mean_reserved_gbps.to_bits()
    );
    assert_eq!(a_db, b_db, "final databases are not bit-identical");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed ⇒ bit-identical trace, summary and database, over
    /// scenario shape, scheduler and gate. `knobs` packs four independent
    /// bits: reschedule, traffic, scheduler choice, and a
    /// [tight gate](tight_gate) that sheds in every gated case.
    #[test]
    fn event_testbed_trace_is_deterministic_per_seed(
        seed in 0u64..10_000,
        n_locals in 3usize..7,
        fault_count in 0usize..5,
        knobs in 0u8..16,
    ) {
        let (reschedule, traffic, flexible) = (knobs & 1 != 0, knobs & 2 != 0, knobs & 4 != 0);
        let mut cfg = scenario(seed, n_locals, fault_count, reschedule, traffic);
        cfg.admission = (knobs & 8 != 0).then(tight_gate);
        let a = run(&cfg, flexible);
        let b = run(&cfg, flexible);
        assert_identical(&a, &b);
        if let Some(gate) = &a.0.summary.admission {
            prop_assert!(gate.shed[ServiceClass::Standard.index()] > 0, "the gate never shed");
        }
    }

    /// The reschedule cadence under a storm: arrivals slow enough that
    /// tasks overlap outages, 80 ms repairs, rescheduling always on — so
    /// iteration-boundary checks, per-tick retries of stranded tasks and
    /// fault / heal passes all interleave. Same seed ⇒ bit-identical trace
    /// and summary.
    #[test]
    fn faulted_rescheduling_is_deterministic_per_seed(
        seed in 0u64..10_000,
        n_locals in 3usize..9,
        fault_count in 8usize..25,
    ) {
        let mut cfg = scenario(seed, n_locals, fault_count, true, false);
        cfg.workload.mean_interarrival_ns = 40_000_000;
        cfg.mean_repair = SimTime::from_ms(80);
        let a = run(&cfg, true);
        let b = run(&cfg, true);
        assert_identical(&a, &b);
        prop_assert!(a.0.trace.iter().any(|e| e.kind == flexsched_simcore::EventKind::RescheduleCheck));
    }

    /// Tracing changes what a run retains, never what it simulates: for
    /// one seed, a traced and an untraced run end with the same summary
    /// apart from `reports` (which only the traced run keeps), the same
    /// engine counters and a bit-identical database, and the retained
    /// reports aggregate to the commit-time Figure-3 means bit for bit.
    #[test]
    fn tracing_changes_only_the_retained_records(
        seed in 0u64..10_000,
        n_locals in 3usize..7,
        fault_count in 0usize..5,
        knobs in 0u8..16,
    ) {
        let (reschedule, traffic, flexible) = (knobs & 1 != 0, knobs & 2 != 0, knobs & 4 != 0);
        let mut cfg = scenario(seed, n_locals, fault_count, reschedule, traffic);
        cfg.admission = (knobs & 8 != 0).then(tight_gate);
        let (traced, traced_db) = run_with(&cfg, flexible, true);
        let (untraced, untraced_db) = run_with(&cfg, flexible, false);
        prop_assert!(untraced.summary.reports.is_empty());
        prop_assert!(untraced.trace.is_empty());
        let started = traced.summary.reports.len() as u64;
        let sojourn = traced.summary.sojourn.unwrap();
        prop_assert!(started >= sojourn.completed);
        let (mean_ms, bw) = flexsched_task::report::aggregate(&traced.summary.reports);
        prop_assert_eq!(mean_ms.to_bits(), traced.summary.mean_iteration_ms.to_bits());
        prop_assert_eq!(bw.to_bits(), traced.summary.sum_task_bandwidth_gbps.to_bits());
        let without_reports = |o: &EventRunOutcome| {
            let mut s = o.summary.clone();
            s.reports.clear();
            format!("{s:?}")
        };
        prop_assert_eq!(without_reports(&traced), without_reports(&untraced));
        prop_assert_eq!(
            (traced.peak_pending_events, traced.peak_active_tasks),
            (untraced.peak_pending_events, untraced.peak_active_tasks)
        );
        prop_assert_eq!(traced_db, untraced_db, "tracing moved the final database");
    }
}
