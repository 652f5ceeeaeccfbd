//! Overload worlds: sustained arrival storms against the admission gate.
//!
//! Where [`crate::faultstorm`] stresses the *rescheduling* path with link
//! faults, this harness stresses the *admission* path with load: a
//! population of tenant-classed tasks arrives at a multiple of the
//! fabric's design rate and every arrival is pushed through the gate —
//! per-class token buckets, queue-depth watermarks and graceful
//! degradation ([`AdmissionController::decide`]) — then, for everything
//! the gate lets in, through one snapshot → propose → commit attempt.
//! One, not a retry budget: the harness runs arrivals back to back in
//! logical time, so nothing can change state between two attempts at the
//! same arrival and a second would re-propose the identical input.
//! Retries that *can* win live where time passes between them — the
//! drivers' `RetryDue` path (`flexsched-orchestrator`'s
//! `tests/driver_retry_proptests.rs`).
//!
//! The world advances in **logical time** (arrival timestamps from the
//! seeded generator, fixed holds), so two runs from one seed replay the
//! identical verdict sequence and finish with a bit-identical database —
//! the property the admission-determinism proptest pins. Wall-clock is
//! only ever *observed* (each decision's latency is fed to the gate, whose
//! latency watermarks are off here); it never steers a decision.
//!
//! The headline criterion lives in
//! `tests::four_x_storm_protects_critical_and_sheds_best_effort`: with
//! buckets calibrated to the 1× offered rates, a 4× storm must leave
//! Critical-class blocking within one percentage point of its 1×
//! baseline while BestEffort absorbs the shedding.

use flexsched_compute::{ClusterManager, ServerSpec};
use flexsched_optical::OpticalState;
use flexsched_orchestrator::{
    AdmissionConfig, AdmissionController, AdmissionStats, ClassBucket, Committer, Database, Intent,
    OrchError, Verdict,
};
use flexsched_sched::{FixedSpff, FlexibleMst, SchedError, Scheduler};
use flexsched_simnet::NetworkState;
use flexsched_task::{
    generate_workload, ArrivalProcess, ServiceClass, TaskId, WorkloadConfig, PRODUCTION_CLASS_MIX,
};
use flexsched_topo::algo::ScratchPool;
use flexsched_topo::builders;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One sustained-storm scenario point.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Offered-load multiplier over the design rate (1.0 = the calibrated
    /// baseline; the storm test drives 4×).
    pub multiplier: f64,
    /// Population size (the storm's duration scales with it).
    pub n_tasks: usize,
    /// Local models per task.
    pub locals: usize,
    /// Workload seed.
    pub seed: u64,
    /// Mean inter-arrival at 1× load, ns.
    pub base_interarrival_ns: u64,
    /// How long an admitted task holds its reservations, ns.
    pub hold_ns: u64,
    /// Arrival process shape (Poisson baseline; the generators also ship
    /// heavy-tailed Pareto and diurnal bursts).
    pub arrival_process: ArrivalProcess,
    /// The gate under test.
    pub admission: AdmissionConfig,
}

impl OverloadConfig {
    /// The calibrated sweep point: metro fabric, production tenant mix
    /// ([`PRODUCTION_CLASS_MIX`] = 10% Critical / 60% Standard / 30%
    /// BestEffort), buckets sized to the 1× per-class offered rates with
    /// modest burst headroom, watermarks that only trip deep into
    /// overload. Critical is deliberately unmetered: the gate's job is to
    /// keep the fabric at ≈1× by shedding the metered classes, so
    /// Critical never queues behind excess load.
    pub fn calibrated(multiplier: f64, n_tasks: usize, seed: u64) -> Self {
        let base_interarrival_ns = 150_000_000u64; // 6.67 tasks/s at 1×
        let rate_1x = 1e9 / base_interarrival_ns as f64;
        let gate = AdmissionConfig {
            queue_high: 12,
            queue_low: 6,
            ..AdmissionConfig::default()
        }
        .with_bucket(
            ServiceClass::Standard,
            ClassBucket {
                // 60% of the 1× rate plus ~10% headroom.
                rate_per_sec: 0.66 * rate_1x,
                burst: 8.0,
            },
        )
        .with_bucket(
            ServiceClass::BestEffort,
            ClassBucket {
                rate_per_sec: 0.33 * rate_1x,
                burst: 4.0,
            },
        );
        OverloadConfig {
            multiplier,
            n_tasks,
            locals: 4,
            seed,
            base_interarrival_ns,
            hold_ns: 600_000_000, // 600 ms
            arrival_process: ArrivalProcess::Poisson,
            admission: gate,
        }
    }
}

/// Per-class terminal accounting for one run. Every offered task lands in
/// exactly one terminal bucket — the no-livelock invariant
/// [`OverloadReport::check_accounting`] asserts.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ClassOutcomes {
    /// Arrivals presented to the gate.
    pub offered: [u64; 3],
    /// Admitted at full quality and committed.
    pub committed: [u64; 3],
    /// Committed on the degraded (cheap-scheduler) rung.
    pub committed_degraded: [u64; 3],
    /// Shed at the gate (bucket or watermark).
    pub gate_shed: [u64; 3],
    /// Admitted by the gate but not committed: nothing feasible on the
    /// fabric as it stood, or the commit rejected.
    pub commit_shed: [u64; 3],
}

impl ClassOutcomes {
    /// Fraction of a class's offered load that never got served.
    pub fn blocking(&self, class: ServiceClass) -> f64 {
        let i = class.index();
        let offered = self.offered[i];
        if offered == 0 {
            return 0.0;
        }
        let served = self.committed[i] + self.committed_degraded[i];
        1.0 - served as f64 / offered as f64
    }

    /// Fraction of a class's offered load shed (gate + commit path).
    pub fn shed_rate(&self, class: ServiceClass) -> f64 {
        let i = class.index();
        let offered = self.offered[i];
        if offered == 0 {
            return 0.0;
        }
        (self.gate_shed[i] + self.commit_shed[i]) as f64 / offered as f64
    }
}

/// What one [`run_point`] measured.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// The multiplier this point ran at.
    pub multiplier: f64,
    /// Terminal outcome per class.
    pub outcomes: ClassOutcomes,
    /// The gate's own verdict counters.
    pub gate: AdmissionStats,
    /// Degraded-mode (cheap-scheduler) decisions taken.
    pub degraded_decisions: u64,
    /// The verdict sequence in arrival order, `(task, class index,
    /// verdict tag)` — the determinism witness (0 = admit, 1 = degrade,
    /// 2 = shed).
    pub verdicts: Vec<(TaskId, u8, u8)>,
    /// Debug-format of the final (fully drained) network + optical state:
    /// version counters encode the whole commit history, so equal
    /// fingerprints mean bit-identical databases.
    pub db_fingerprint: String,
}

impl OverloadReport {
    /// No-livelock accounting: every offered task reached exactly one
    /// terminal state.
    pub fn check_accounting(&self) -> Result<(), String> {
        for i in 0..3 {
            let o = self.outcomes.offered[i];
            let t = self.outcomes.committed[i]
                + self.outcomes.committed_degraded[i]
                + self.outcomes.gate_shed[i]
                + self.outcomes.commit_shed[i];
            if o != t {
                return Err(format!(
                    "class {i}: offered {o} != terminal {t} — a task neither committed nor shed"
                ));
            }
        }
        Ok(())
    }
}

/// Run one sustained storm through the gate and the commit pipeline.
pub fn run_point(cfg: &OverloadConfig) -> OverloadReport {
    let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
    let db = Database::new(
        NetworkState::new(Arc::clone(&topo)),
        OpticalState::new(Arc::clone(&topo)),
        ClusterManager::from_topology(&topo, ServerSpec::default()),
    );
    let mut committer = Committer::new();
    let mut scratch = ScratchPool::new();
    let scheduler = FlexibleMst::paper();
    let degraded_scheduler = FixedSpff;
    let mut gate = AdmissionController::new(cfg.admission.clone());

    let mut wl = WorkloadConfig::seeded_scenario(cfg.seed, cfg.n_tasks, cfg.locals);
    wl.comm_budget_ms = (40.0, 80.0);
    wl.class_mix = PRODUCTION_CLASS_MIX;
    wl.arrival_process = cfg.arrival_process;
    wl.mean_interarrival_ns = (cfg.base_interarrival_ns as f64 / cfg.multiplier).max(1.0) as u64;
    let tasks = generate_workload(&topo, &wl);

    let mut outcomes = ClassOutcomes::default();
    let mut verdicts = Vec::with_capacity(tasks.len());
    let mut degraded_decisions = 0u64;
    // Committed holds: (release time, task, groomed wavelengths), drained
    // in logical-time order as arrivals pass them.
    let mut active: BTreeMap<(u64, TaskId), Vec<u64>> = BTreeMap::new();

    let drain_until =
        |active: &mut BTreeMap<(u64, TaskId), Vec<u64>>, committer: &mut Committer, now: u64| {
            while let Some((&(t, id), _)) = active.first_key_value() {
                if t > now {
                    break;
                }
                let groomed = active.remove(&(t, id)).unwrap_or_default();
                db.take_schedule(id);
                committer
                    .release(&db, id, &groomed)
                    .expect("releasing a committed schedule cannot fail");
            }
        };

    for task in &tasks {
        let now = task.arrival_ns;
        drain_until(&mut active, &mut committer, now);
        let i = task.class.index();
        outcomes.offered[i] += 1;

        let verdict = gate.decide(task.class, now, active.len());
        let (tag, degrade) = match verdict {
            Verdict::Admit => (0u8, false),
            Verdict::Degrade => (1u8, true),
            Verdict::Shed { .. } => (2u8, false),
        };
        verdicts.push((task.id, i as u8, tag));
        if let Verdict::Shed { .. } = verdict {
            outcomes.gate_shed[i] += 1;
            continue;
        }
        let sched: &dyn Scheduler = if degrade {
            degraded_decisions += 1;
            &degraded_scheduler
        } else {
            &scheduler
        };
        let started = Instant::now();
        let receipt = match sched.propose(task, &task.local_sites, &db.snapshot(), &mut scratch) {
            Ok(proposal) => match committer.apply(&db, Intent::admit(&proposal)) {
                Ok(receipt) => {
                    db.store_schedule(proposal.schedule);
                    Some(receipt)
                }
                Err(OrchError::Rejected(_)) => None,
                Err(e) => panic!("admission failed structurally: {e}"),
            },
            Err(
                SchedError::Blocked { .. }
                | SchedError::Unreachable { .. }
                | SchedError::NothingSelected(_),
            ) => None,
            Err(e) => panic!("admission failed structurally: {e}"),
        };
        gate.observe_decision_latency(started.elapsed().as_nanos() as u64);
        match receipt {
            Some(receipt) => {
                if degrade {
                    outcomes.committed_degraded[i] += 1;
                } else {
                    outcomes.committed[i] += 1;
                }
                active.insert((now + cfg.hold_ns, task.id), receipt.groomed);
            }
            None => outcomes.commit_shed[i] += 1,
        }
    }
    // Drain every outstanding hold so the fingerprint covers a quiesced
    // database whose version counters still encode the full history.
    drain_until(&mut active, &mut committer, u64::MAX);

    let db_fingerprint = db.read(|net, opt, _| format!("{net:?}|{opt:?}"));
    let report = OverloadReport {
        multiplier: cfg.multiplier,
        outcomes,
        gate: gate.stats().clone(),
        degraded_decisions,
        verdicts,
        db_fingerprint,
    };
    report
        .check_accounting()
        .expect("overload run must terminate every task");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_point_serves_nearly_everything() {
        let r = run_point(&OverloadConfig::calibrated(1.0, 40, 11));
        assert_eq!(r.outcomes.offered.iter().sum::<u64>(), 40);
        r.check_accounting().unwrap();
        // At design load the gate barely engages: aggregate blocking
        // stays small and Critical commits everything.
        assert_eq!(r.outcomes.blocking(ServiceClass::Critical), 0.0);
        let std_block = r.outcomes.blocking(ServiceClass::Standard);
        assert!(std_block < 0.25, "1x Standard blocking {std_block}");
    }

    #[test]
    fn four_x_storm_protects_critical_and_sheds_best_effort() {
        let base = run_point(&OverloadConfig::calibrated(1.0, 40, 11));
        let storm = run_point(&OverloadConfig::calibrated(4.0, 160, 11));
        storm.check_accounting().unwrap();
        let crit_base = base.outcomes.blocking(ServiceClass::Critical);
        let crit_storm = storm.outcomes.blocking(ServiceClass::Critical);
        assert!(
            crit_storm <= crit_base + 0.01,
            "Critical blocking regressed: {crit_storm} vs baseline {crit_base}"
        );
        assert!(
            storm.outcomes.shed_rate(ServiceClass::BestEffort)
                > storm.outcomes.shed_rate(ServiceClass::Critical),
            "BestEffort must absorb the shedding"
        );
        // The metered classes were actually clamped at the gate.
        assert!(storm.outcomes.gate_shed[ServiceClass::Standard.index()] > 0);
        assert!(storm.outcomes.gate_shed[ServiceClass::BestEffort.index()] > 0);
    }

    #[test]
    fn equal_seeds_replay_identical_verdicts_and_database() {
        let a = run_point(&OverloadConfig::calibrated(4.0, 60, 23));
        let b = run_point(&OverloadConfig::calibrated(4.0, 60, 23));
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.db_fingerprint, b.db_fingerprint);
    }
}
