//! Event-driven testbed determinism properties (nightly-deep runs these at
//! `PROPTEST_CASES=256`).
//!
//! Same seed + same scenario ⇒ identical full event trace (kind, time,
//! seq, destination) and identical `RunSummary`, across memory modes,
//! fault storms, rescheduling, and background traffic. Every random stream
//! in the scenario is seeded (workload, faults, traffic, retry jitter), so
//! the only way a run could diverge is hidden nondeterminism in the engine
//! or the control plane — which is exactly what this pins against.

use flexsched_orchestrator::{EventRunOutcome, EventTestbed, MemoryMode, TestbedConfig};
use flexsched_sched::{FixedSpff, FlexibleMst, ReschedulePolicy, Scheduler};
use flexsched_simnet::traffic::TrafficConfig;
use flexsched_simnet::SimTime;
use flexsched_task::WorkloadConfig;
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

fn run(cfg: &TestbedConfig, flexible: bool, mode: MemoryMode) -> EventRunOutcome {
    let scheduler: Box<dyn Scheduler> = if flexible {
        Box::new(FlexibleMst::paper())
    } else {
        Box::new(FixedSpff)
    };
    EventTestbed::new(cfg.clone(), scheduler)
        .with_memory_mode(mode)
        .run_detailed(true)
        .unwrap()
}

fn assert_identical(a: &EventRunOutcome, b: &EventRunOutcome) {
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
    assert_eq!(x.mean_iteration_ms.to_bits(), y.mean_iteration_ms.to_bits());
    assert_eq!(
        x.peak_reserved_gbps.to_bits(),
        y.peak_reserved_gbps.to_bits()
    );
    assert_eq!(
        x.mean_reserved_gbps.to_bits(),
        y.mean_reserved_gbps.to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed ⇒ bit-identical trace and summary, over scenario shape,
    /// scheduler, and memory mode. `knobs` packs four independent bits:
    /// reschedule, traffic, scheduler choice, memory mode.
    #[test]
    fn event_testbed_trace_is_deterministic_per_seed(
        seed in 0u64..10_000,
        n_locals in 3usize..7,
        fault_count in 0usize..5,
        knobs in 0u8..16,
    ) {
        let (reschedule, traffic) = (knobs & 1 != 0, knobs & 2 != 0);
        let (flexible, bounded) = (knobs & 4 != 0, knobs & 8 != 0);
        let cfg = scenario(seed, n_locals, fault_count, reschedule, traffic);
        let mode = if bounded { MemoryMode::Bounded } else { MemoryMode::Retain };
        let a = run(&cfg, flexible, mode);
        let b = run(&cfg, flexible, mode);
        assert_identical(&a, &b);
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
        prop_assert!(a.trace.iter().any(|e| e.kind == flexsched_simcore::EventKind::RescheduleCheck));
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
        let retain = run(&cfg, true, MemoryMode::Retain);
        let bounded = run(&cfg, true, MemoryMode::Bounded);
        let (r, b) = (retain.summary.sojourn.unwrap(), bounded.summary.sojourn.unwrap());
        prop_assert_eq!(r.completed + retain.summary.blocked as u64 +
                        retain.summary.shed as u64, 8);
        prop_assert_eq!(r.completed, b.completed);
        prop_assert_eq!(retain.summary.events, bounded.summary.events);
    }
}
