//! The admission gate's determinism contract, over gate policies.
//!
//! The gate's decisions advance in logical time only — token-bucket
//! refills, watermark hysteresis, jittered retry backoff — so one seed and
//! one policy must reproduce the identical admit / degrade / shed counts,
//! per-class outcomes and a bit-identical final database, run after run,
//! whatever the policy and however far past design load the arrivals come.
//! Overload incidents therefore replay offline from a seed.

use flexsched_orchestrator::{
    AdmissionConfig, ClassBucket, EventRunOutcome, EventTestbed, MemoryMode, TestbedConfig,
};
use flexsched_sched::FlexibleMst;
use flexsched_task::{ServiceClass, WorkloadConfig, PRODUCTION_CLASS_MIX};
use proptest::prelude::*;

/// One traced, gated run in bounded memory, plus the `Debug` text of its
/// final network and optical state.
fn run(cfg: &TestbedConfig) -> (EventRunOutcome, String) {
    let tb = EventTestbed::new(cfg.clone(), Box::new(FlexibleMst::paper()))
        .with_memory_mode(MemoryMode::Bounded);
    let db = tb.database().clone();
    let outcome = tb.run_detailed(true).unwrap();
    (outcome, db.read(|net, opt, _| format!("{net:?}|{opt:?}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed + same policy ⇒ same trace, same verdict counters, same
    /// per-class outcomes, bit-identical final database; and every offered
    /// task completed, was shed or was blocked.
    #[test]
    fn admission_determinism(
        seed in 0u64..1_000,
        mult_pick in 0usize..3,
        n_tasks in 20usize..60,
        queue_low in 2usize..8,
        hysteresis in 0usize..8,
        (standard_burst, best_effort_burst) in (1u8..9, 1u8..5),
    ) {
        // The production mix at 6.67 tasks/s × the multiplier; Standard and
        // BestEffort metered at 0.66 and 0.33 of the 1× rate.
        let multiplier = [1.0, 4.0, 10.0][mult_pick];
        let bucket = |share: f64, burst: u8| ClassBucket {
            rate_per_sec: share * 1e9 / 150_000_000.0,
            burst: f64::from(burst),
        };
        let gate = AdmissionConfig {
            queue_high: queue_low + hysteresis,
            queue_low,
            ..AdmissionConfig::default()
        }
        .with_bucket(ServiceClass::Standard, bucket(0.66, standard_burst))
        .with_bucket(ServiceClass::BestEffort, bucket(0.33, best_effort_burst));
        let cfg = TestbedConfig {
            workload: WorkloadConfig {
                comm_budget_ms: (40.0, 80.0),
                class_mix: PRODUCTION_CLASS_MIX,
                mean_interarrival_ns: (150_000_000.0 / multiplier) as u64,
                ..WorkloadConfig::seeded_scenario(seed, n_tasks, 4)
            },
            admission: Some(gate),
            ..TestbedConfig::default()
        };
        let (a, a_db) = run(&cfg);
        let (b, b_db) = run(&cfg);
        prop_assert_eq!(&a.trace, &b.trace, "event trace diverged");
        let (x, y) = (&a.summary, &b.summary);
        prop_assert_eq!(&x.admission, &y.admission, "gate verdicts diverged");
        prop_assert_eq!(x.degraded_decisions, y.degraded_decisions);
        prop_assert_eq!((x.blocked, x.shed), (y.blocked, y.shed));
        prop_assert_eq!(&x.sojourn, &y.sojourn, "per-class outcomes diverged");
        prop_assert_eq!(&x.reports, &y.reports);
        prop_assert_eq!(a_db, b_db, "final databases are not bit-identical");
        let completed: u64 = x.sojourn.unwrap().completed_by_class.iter().sum();
        prop_assert_eq!(
            completed + u64::from(x.shed) + u64::from(x.blocked),
            n_tasks as u64
        );
    }
}
