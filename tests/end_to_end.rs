//! Integration tests spanning every crate: the paper's headline claims at
//! reduced scale, plus determinism and failure injection.

use flexsched::orchestrator::{EventTestbed, TestbedConfig};
use flexsched::sched::{FixedSpff, FlexibleMst, ReschedulePolicy, SelectionStrategy};
use flexsched::simnet::{traffic::TrafficConfig, SimTime};
use flexsched::task::WorkloadConfig;

fn cfg(num_tasks: usize, n_locals: usize) -> TestbedConfig {
    TestbedConfig {
        workload: WorkloadConfig {
            num_tasks,
            locals_per_task: n_locals,
            mean_interarrival_ns: 150_000_000,
            ..WorkloadConfig::default()
        },
        ..TestbedConfig::default()
    }
}

/// The Figure-3a claim: the flexible scheduler finishes iterations faster
/// at high local-model counts, and the gap grows with the count.
#[test]
fn figure_3a_shape_holds() {
    let run = |n, flexible: bool| {
        let sched: Box<dyn flexsched::sched::Scheduler> = if flexible {
            Box::new(FlexibleMst::paper())
        } else {
            Box::new(FixedSpff)
        };
        EventTestbed::new(cfg(12, n), sched)
            .run()
            .unwrap()
            .mean_iteration_ms
    };
    let (fx3, fl3) = (run(3, false), run(3, true));
    let (fx15, fl15) = (run(15, false), run(15, true));
    assert!(
        fl15 < fx15,
        "flexible must win at 15 locals: {fl15} !< {fx15}"
    );
    let gap3 = fx3 / fl3;
    let gap15 = fx15 / fl15;
    assert!(
        gap15 > gap3,
        "gap must widen with locals: {gap3:.3} -> {gap15:.3}"
    );
}

/// The Figure-3b claim: fixed bandwidth grows ~linearly, flexible slower,
/// and flexible uses less at every sweep point.
#[test]
fn figure_3b_shape_holds() {
    let run = |n, flexible: bool| {
        let sched: Box<dyn flexsched::sched::Scheduler> = if flexible {
            Box::new(FlexibleMst::paper())
        } else {
            Box::new(FixedSpff)
        };
        EventTestbed::new(cfg(12, n), sched)
            .run()
            .unwrap()
            .sum_task_bandwidth_gbps
    };
    let mut prev_gap = 0.0;
    for n in [3, 9, 15] {
        let fixed = run(n, false);
        let flex = run(n, true);
        assert!(flex < fixed, "n={n}: flexible {flex} !< fixed {fixed}");
        let gap = fixed - flex;
        assert!(
            gap > prev_gap,
            "absolute saving must grow with locals: {prev_gap} -> {gap}"
        );
        prev_gap = gap;
    }
}

/// Determinism: identical seeds give bit-identical runs, different seeds
/// give different workloads.
#[test]
fn runs_are_deterministic_per_seed() {
    let a = EventTestbed::new(cfg(8, 6), Box::new(FlexibleMst::paper()))
        .run()
        .unwrap();
    let b = EventTestbed::new(cfg(8, 6), Box::new(FlexibleMst::paper()))
        .run()
        .unwrap();
    assert_eq!(a.reports, b.reports);
    assert_eq!(a.events, b.events);

    let mut other = cfg(8, 6);
    other.workload.seed = 999;
    let c = EventTestbed::new(other, Box::new(FlexibleMst::paper()))
        .run()
        .unwrap();
    assert_ne!(a.reports, c.reports);
}

/// Failure injection: link outages with rescheduling enabled still complete
/// the full workload, and migrations only help.
#[test]
fn fault_injection_with_rescheduling_completes() {
    let mut faulty = cfg(8, 6);
    faulty.fault_count = 8;
    faulty.mean_repair = SimTime::from_ms(100);
    faulty.horizon = SimTime::from_secs(20);
    faulty.max_retries = 2000;
    faulty.reschedule = Some(ReschedulePolicy::default());
    let s = EventTestbed::new(faulty, Box::new(FlexibleMst::paper()))
        .run()
        .unwrap();
    assert_eq!(s.reports.len(), 8, "all tasks must finish despite outages");
}

/// Background traffic, selection and both schedulers coexist in one run.
#[test]
fn full_stack_scenario_with_selection_and_traffic() {
    let mut c = cfg(10, 10);
    c.traffic = Some(TrafficConfig {
        mean_rate_gbps: 4.0,
        ..TrafficConfig::default()
    });
    c.selection = SelectionStrategy::TopKUtility(0.6);
    c.max_retries = 2000;
    let s = EventTestbed::new(c, Box::new(FlexibleMst::paper()))
        .run()
        .unwrap();
    assert_eq!(s.reports.len(), 10);
    for r in &s.reports {
        assert!(
            r.locals_scheduled <= 6,
            "selection must cap locals at 60%: {}",
            r.locals_scheduled
        );
        assert!(r.locals_scheduled >= 1);
    }
}

/// Reservations never leak: after any run the database reports zero
/// reserved bandwidth.
#[test]
fn no_reservation_leaks_across_policies() {
    for flexible in [false, true] {
        let sched: Box<dyn flexsched::sched::Scheduler> = if flexible {
            Box::new(FlexibleMst::paper())
        } else {
            Box::new(FixedSpff)
        };
        let tb = EventTestbed::new(cfg(6, 8), sched);
        let db = tb.database().clone();
        tb.run().unwrap();
        assert!(
            db.total_reserved_gbps().abs() < 1e-6,
            "leaked reservations (flexible={flexible})"
        );
    }
}
