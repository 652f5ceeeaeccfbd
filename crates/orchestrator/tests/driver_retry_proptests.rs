//! Property test for the no-livelock bound on the retry path that ships:
//! [`EventTestbed`]'s `RetryDue` events under the admission gate's
//! [`RetryPolicy`].
//!
//! A task one of whose local sites is *permanently* cut off — its access
//! link is down for the whole run, so every fresh snapshot reproduces the
//! same infeasibility — is presented exactly `max_attempts` times (the
//! arrival plus `max_attempts − 1` `RetryDue` events), then shed for good,
//! under both schedulers, and leaves the database untouched. The retry
//! budget, not luck and not the horizon, ends the loop.

use flexsched_orchestrator::{AdmissionConfig, EventTestbed, TestbedConfig};
use flexsched_sched::{FixedSpff, FlexibleMst, RetryPolicy, Scheduler};
use flexsched_task::{generate_workload, WorkloadConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn retry_exhaustion_sheds_after_exactly_max_attempts(
        max_attempts in 1u32..9,
        locals in 2usize..6,
        seed in 0u64..1_000,
        use_flexible in any::<bool>(),
    ) {
        let cfg = TestbedConfig {
            workload: WorkloadConfig::seeded_scenario(seed, 1, locals),
            admission: Some(AdmissionConfig {
                retry: RetryPolicy {
                    max_attempts,
                    // Far beyond the worst-case backoff sum, so the budget
                    // — not the clock — is what ends the loop.
                    deadline_ns: u64::MAX / 2,
                    ..RetryPolicy::default()
                },
                ..AdmissionConfig::default()
            }),
            ..TestbedConfig::default()
        };
        let scheduler: Box<dyn Scheduler> = if use_flexible {
            Box::new(FlexibleMst::paper())
        } else {
            Box::new(FixedSpff)
        };
        let tb = EventTestbed::new(cfg.clone(), scheduler);
        let db = tb.database().clone();
        // Strand the task's first local site: on the metro builder every
        // server hangs off exactly one access span.
        let topo = db.read(|net, _, _| net.topo_arc());
        let task = generate_workload(&topo, &cfg.workload).remove(0);
        let victim = task.local_sites[0];
        let cut = topo
            .links()
            .iter()
            .find(|l| l.a == victim || l.b == victim)
            .map(|l| l.id)
            .expect("metro servers have an access link");
        db.write(|net, _, _| net.set_down(cut, true)).unwrap();

        let s = tb.run().unwrap();
        prop_assert_eq!(s.shed, 1, "the task must end shed, not waiting or blocked");
        prop_assert_eq!(s.blocked, 0);
        prop_assert_eq!(s.retries, max_attempts - 1,
            "budget must be burned exactly, not under- or overrun");
        prop_assert!(s.reports.is_empty(), "started across a stranded site");
        // Shedding is mutation-free: nothing reserved, nothing stored.
        prop_assert!(db.total_reserved_gbps().abs() < 1e-9);
        prop_assert!(db.schedule(task.id).is_none());
    }
}
