//! Event-driven testbed determinism properties (nightly-deep runs these at
//! `PROPTEST_CASES=256`).
//!
//! Same seed + same scenario ⇒ identical full event trace (kind, time,
//! seq, destination), identical `RunSummary` and a bit-identical final
//! database, across memory modes, fault storms, rescheduling, background
//! traffic and the admission gate. Every random stream in the scenario is
//! seeded (workload, faults, traffic, retry jitter), and the gate advances
//! in logical time only (its latency watermarks are off), so the only way
//! a run could diverge is hidden nondeterminism in the engine or the
//! control plane — which is exactly what this pins against. Overload
//! incidents therefore replay offline from a seed.

use flexsched_orchestrator::{
    AdmissionConfig, ClassBucket, EventRunOutcome, EventTestbed, MemoryMode, TestbedConfig,
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

/// One traced run, plus the `Debug` text of its final network and optical
/// state: version counters encode the whole commit history, so equal text
/// means bit-identical databases.
fn run(cfg: &TestbedConfig, flexible: bool, mode: MemoryMode) -> (EventRunOutcome, String) {
    let scheduler: Box<dyn Scheduler> = if flexible {
        Box::new(FlexibleMst::paper())
    } else {
        Box::new(FixedSpff)
    };
    let tb = EventTestbed::new(cfg.clone(), scheduler).with_memory_mode(mode);
    let db = tb.database().clone();
    let outcome = tb.run_detailed(true).unwrap();
    (outcome, db.read(|net, opt, _| format!("{net:?}|{opt:?}")))
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
    /// scenario shape, scheduler, memory mode and gate. `knobs` packs five
    /// independent bits: reschedule, traffic, scheduler choice, memory
    /// mode, and a [tight gate](tight_gate) that sheds in every gated case.
    #[test]
    fn event_testbed_trace_is_deterministic_per_seed(
        seed in 0u64..10_000,
        n_locals in 3usize..7,
        fault_count in 0usize..5,
        knobs in 0u8..32,
    ) {
        let (reschedule, traffic) = (knobs & 1 != 0, knobs & 2 != 0);
        let (flexible, bounded) = (knobs & 4 != 0, knobs & 8 != 0);
        let mut cfg = scenario(seed, n_locals, fault_count, reschedule, traffic);
        cfg.admission = (knobs & 16 != 0).then(tight_gate);
        let mode = if bounded { MemoryMode::Bounded } else { MemoryMode::Retain };
        let a = run(&cfg, flexible, mode);
        let b = run(&cfg, flexible, mode);
        assert_identical(&a, &b);
        if let Some(gate) = &a.0.summary.admission {
            prop_assert!(gate.shed[ServiceClass::Standard.index()] > 0, "the gate never shed");
        }
    }

    /// The reschedule cadence under a storm: arrivals slow enough that
    /// tasks overlap outages, 80 ms repairs, rescheduling always on — so
    /// iteration-boundary checks, per-tick retries of stranded tasks and
    /// fault / heal passes all interleave. Same seed ⇒ bit-identical trace
    /// and summary in both memory modes.
    #[test]
    fn faulted_rescheduling_is_deterministic_per_seed(
        seed in 0u64..10_000,
        n_locals in 3usize..9,
        fault_count in 8usize..25,
        bounded in any::<bool>(),
    ) {
        let mut cfg = scenario(seed, n_locals, fault_count, true, false);
        cfg.workload.mean_interarrival_ns = 40_000_000;
        cfg.mean_repair = SimTime::from_ms(80);
        let mode = if bounded { MemoryMode::Bounded } else { MemoryMode::Retain };
        let a = run(&cfg, true, mode);
        let b = run(&cfg, true, mode);
        assert_identical(&a, &b);
        prop_assert!(a.0.trace.iter().any(|e| e.kind == flexsched_simcore::EventKind::RescheduleCheck));
    }

    /// Memory mode changes bookkeeping, never physics: Retain and Bounded
    /// dispatch the same number of events and complete the same tasks on
    /// retry-free scenarios (lazy container admission only shifts cluster
    /// occupancy, which this fault-free shape never contends on).
    #[test]
    fn memory_modes_agree_on_completions(
        seed in 0u64..10_000,
        n_locals in 3usize..6,
    ) {
        let cfg = scenario(seed, n_locals, 0, false, false);
        let (retain, _) = run(&cfg, true, MemoryMode::Retain);
        let (bounded, _) = run(&cfg, true, MemoryMode::Bounded);
        let (r, b) = (retain.summary.sojourn.unwrap(), bounded.summary.sojourn.unwrap());
        prop_assert_eq!(r.completed + retain.summary.blocked as u64 +
                        retain.summary.shed as u64, 8);
        prop_assert_eq!(r.completed, b.completed);
        prop_assert_eq!(retain.summary.events, bounded.summary.events);
    }
}
