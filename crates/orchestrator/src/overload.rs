//! The overload criterion on the shipped driver (test-only): a sustained
//! 4× arrival storm through [`EventTestbed`] with the admission gate on
//! must leave Critical-class blocking within one percentage point of its
//! 1× baseline while BestEffort absorbs the shedding, and one seed must
//! replay the same gate verdicts and a bit-identical final database.
//!
//! Calibration: the metro fabric, 4 locals per task, the production
//! tenant mix (10 % Critical / 60 % Standard / 30 % BestEffort),
//! communication budgets of 40–80 ms, and a mean arrival gap of 150 ms
//! (6.67 tasks/s) divided by the load multiplier. The gate trips into
//! degraded mode at 12 waiting tasks and recovers at 6; Standard and
//! BestEffort are metered at 0.66 and 0.33 of the 1× rate (bursts 8 and
//! 4), and Critical is unmetered. The 1× point runs 40 tasks, the 4× point
//! 160, both traced, so the seed replay compares per-task reports too.

use crate::{AdmissionConfig, ClassBucket, EventRunOutcome, EventTestbed, TestbedConfig};
use flexsched_sched::FlexibleMst;
use flexsched_task::{generate_workload, ServiceClass, WorkloadConfig, PRODUCTION_CLASS_MIX};
use flexsched_topo::builders::metro;

/// Mean arrival gap at 1× load, ns.
const BASE_INTERARRIVAL_NS: f64 = 150_000_000.0;

/// One traced storm point, the tasks it offered per class, and the `Debug`
/// text of its final network and optical state (version counters encode
/// the whole commit history, so equal text means bit-identical databases).
struct Point {
    outcome: EventRunOutcome,
    offered: [u64; 3],
    database: String,
}

impl Point {
    fn run(multiplier: f64, num_tasks: usize, seed: u64) -> Self {
        let rate_1x = 1e9 / BASE_INTERARRIVAL_NS;
        let bucket = |share: f64, burst: f64| ClassBucket {
            rate_per_sec: share * rate_1x,
            burst,
        };
        let gate = AdmissionConfig {
            queue_high: 12,
            queue_low: 6,
            ..AdmissionConfig::default()
        }
        .with_bucket(ServiceClass::Standard, bucket(0.66, 8.0))
        .with_bucket(ServiceClass::BestEffort, bucket(0.33, 4.0));
        let workload = WorkloadConfig {
            comm_budget_ms: (40.0, 80.0),
            class_mix: PRODUCTION_CLASS_MIX,
            mean_interarrival_ns: (BASE_INTERARRIVAL_NS / multiplier) as u64,
            ..WorkloadConfig::seeded_scenario(seed, num_tasks, 4)
        };
        let cfg = TestbedConfig {
            workload,
            admission: Some(gate),
            ..TestbedConfig::default()
        };
        let mut offered = [0; 3];
        for task in generate_workload(&metro(&cfg.metro), &cfg.workload) {
            offered[task.class.index()] += 1;
        }
        let tb = EventTestbed::new(cfg, Box::new(FlexibleMst::paper()));
        let db = tb.database().clone();
        let outcome = tb.run_detailed(true).expect("storm must complete");
        let point = Point {
            outcome,
            offered,
            database: db.read(|net, opt, _| format!("{net:?}|{opt:?}")),
        };
        // No livelock: every offered task completed, was shed or blocked.
        let s = &point.outcome.summary;
        assert_eq!(
            point.completed().iter().sum::<u64>() + u64::from(s.shed) + u64::from(s.blocked),
            num_tasks as u64,
            "{multiplier}x seed {seed}: a task neither completed nor left"
        );
        point
    }

    fn completed(&self) -> [u64; 3] {
        self.outcome
            .summary
            .sojourn
            .expect("event runs report sojourn")
            .completed_by_class
    }

    /// Fraction of `class`'s offered tasks that never completed.
    fn unserved(&self, class: ServiceClass) -> f64 {
        let i = class.index();
        if self.offered[i] == 0 {
            return 0.0;
        }
        1.0 - self.completed()[i] as f64 / self.offered[i] as f64
    }

    fn gate_shed(&self, class: ServiceClass) -> u64 {
        self.outcome
            .summary
            .admission
            .as_ref()
            .expect("gated run")
            .shed[class.index()]
    }
}

mod tests {
    use super::*;

    const SEEDS: [u64; 2] = [11, 23];

    /// At design load the gate barely engages: Critical completes everything
    /// and Standard loses little.
    #[test]
    fn baseline_point_serves_nearly_everything() {
        for seed in SEEDS {
            let base = Point::run(1.0, 40, seed);
            assert_eq!(base.unserved(ServiceClass::Critical), 0.0, "seed {seed}");
            let standard = base.unserved(ServiceClass::Standard);
            assert!(
                standard < 0.25,
                "seed {seed}: 1x Standard blocking {standard}"
            );
        }
    }

    #[test]
    fn four_x_storm_protects_critical_and_sheds_best_effort() {
        for seed in SEEDS {
            let base = Point::run(1.0, 40, seed);
            let storm = Point::run(4.0, 160, seed);
            let (crit_base, crit_storm) = (
                base.unserved(ServiceClass::Critical),
                storm.unserved(ServiceClass::Critical),
            );
            assert!(
                crit_storm <= crit_base + 0.01,
                "seed {seed}: Critical blocking regressed: {crit_storm} vs baseline {crit_base}"
            );
            assert!(
                storm.unserved(ServiceClass::BestEffort) > crit_storm,
                "seed {seed}: BestEffort must absorb the shedding"
            );
            // The metered classes were actually clamped at the gate.
            assert!(storm.gate_shed(ServiceClass::Standard) > 0, "seed {seed}");
            assert!(storm.gate_shed(ServiceClass::BestEffort) > 0, "seed {seed}");
        }
    }

    /// The gate advances in logical time only, so a storm replays from its
    /// seed: same event trace, same verdict counters and outcomes, and a
    /// bit-identical final database.
    #[test]
    fn equal_seeds_replay_identical_verdicts_and_database() {
        let (a, b) = (Point::run(4.0, 60, 23), Point::run(4.0, 60, 23));
        assert!(
            a.gate_shed(ServiceClass::Standard) > 0,
            "the gate never shed"
        );
        assert_eq!(a.outcome.trace, b.outcome.trace, "event trace diverged");
        let (x, y) = (&a.outcome.summary, &b.outcome.summary);
        assert_eq!(x.admission, y.admission, "gate verdicts diverged");
        assert_eq!(x.degraded_decisions, y.degraded_decisions);
        assert_eq!((x.blocked, x.shed), (y.blocked, y.shed));
        assert_eq!(x.sojourn, y.sojourn, "per-class outcomes diverged");
        assert_eq!(x.reports, y.reports);
        assert_eq!(
            a.database, b.database,
            "final databases are not bit-identical"
        );
    }
}
