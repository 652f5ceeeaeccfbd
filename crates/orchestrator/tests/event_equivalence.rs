//! Golden-run pinning for the monolithic-task driver.
//!
//! On a fault-free, traffic-free scenario the `EventTestbed` must commit
//! the *identical* task set through the same snapshot → propose → commit
//! calls in the same order as the run recorded below — verified down to a
//! bit-identical final database fingerprint. The network and optical Debug
//! representations include their global mutation counts and the
//! lightpath-id sequence, so an equal fingerprint means the driver
//! performed the same state mutations in the same order, not merely
//! converged on a similar end state. (The two `db_fnv` were re-recorded
//! when the per-link version arrays left that Debug text. When
//! containers moved from up-front placement to placement at arrival, the
//! constants that changed were re-recorded: a task no longer trains
//! beside the containers of tasks that have not arrived, so training
//! times, durations and the reports moved, and fixed-spff, whose tasks
//! now depart sooner, needs two fewer retries and events. The grooming
//! counts, the peaks and flexible-mst's events and database did not move
//! and kept their values. Every `db_fnv` here, the storm goldens' too,
//! was re-recorded once more when the write-only reservation counter
//! `reservations_made` left `NetworkState` and so its Debug text; every
//! other constant passed unedited.)

use flexsched_orchestrator::{Database, EventTestbed, RunSummary, TestbedConfig};
use flexsched_sched::{FixedSpff, FlexibleMst, Scheduler};
use flexsched_simnet::SimTime;
use flexsched_task::WorkloadConfig;

const TEST_SEED: u64 = 2024;

fn quick_cfg(n_locals: usize) -> TestbedConfig {
    quick_cfg_seeded(n_locals, TEST_SEED)
}

fn quick_cfg_seeded(n_locals: usize, seed: u64) -> TestbedConfig {
    TestbedConfig {
        workload: WorkloadConfig::seeded_scenario(seed, 8, n_locals),
        fault_seed: seed,
        ..TestbedConfig::default()
    }
}

fn fingerprint(db: &Database) -> String {
    db.read(|net, opt, _| format!("{net:?}|{opt:?}"))
}

/// FNV-1a-64, the digest the golden constants were recorded with.
fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run_event(cfg: TestbedConfig, scheduler: Box<dyn Scheduler>) -> (RunSummary, String) {
    let tb = EventTestbed::new(cfg, scheduler);
    let db = tb.database().clone();
    let summary = tb.run().unwrap();
    (summary, fingerprint(&db))
}

/// One recorded run of `quick_cfg(5)`.
struct Golden {
    events: u64,
    duration_ns: u64,
    retries: u32,
    groomed: u64,
    peak_reserved_gbps: f64,
    mean_reserved_gbps: f64,
    reports_fnv: u64,
    db_fnv: u64,
}

/// Golden pin: same seed + same scenario ⇒ the driver reproduces, bit for
/// bit, the run of `quick_cfg(5)` recorded from the fixed-tick driver it
/// was ported from, under both schedulers, with the constants that
/// placement at arrival moved re-recorded, and the database hashes again
/// when `reservations_made` left the network's Debug text (module docs).
#[test]
fn event_run_matches_fixed_tick_bit_identically() {
    type MkScheduler = fn() -> Box<dyn Scheduler>;
    let schedulers: [(&str, MkScheduler, Golden); 2] = [
        (
            "fixed-spff",
            || Box::new(FixedSpff),
            Golden {
                events: 175,
                duration_ns: 1_041_773_003,
                retries: 159,
                groomed: 111,
                peak_reserved_gbps: 863.3155695153621,
                mean_reserved_gbps: 463.3958316354678,
                reports_fnv: 0x4fa6_7bfc_887d_df40,
                db_fnv: 0x378f_dcb7_bd2c_a124,
            },
        ),
        (
            "flexible-mst",
            || Box::new(FlexibleMst::paper()),
            Golden {
                events: 16,
                duration_ns: 499_396_699,
                retries: 0,
                groomed: 162,
                peak_reserved_gbps: 980.7435749606176,
                mean_reserved_gbps: 685.83240867638,
                reports_fnv: 0x2dc8_7c72_ff9b_46ba,
                db_fnv: 0x46b8_f7ed_008b_4c0a,
            },
        ),
    ];
    for (label, mk, golden) in schedulers {
        let (event, event_fp) = run_event(quick_cfg(5), mk());

        assert_eq!(event.reports.len(), 8, "{label}");
        assert_eq!(
            fnv1a64(&format!("{:?}", event.reports)),
            golden.reports_fnv,
            "{label}: task reports differ"
        );
        assert_eq!(event.blocked, 0, "{label}");
        assert_eq!(event.retries, golden.retries, "{label}");
        assert_eq!(event.shed, 0, "{label}");
        assert_eq!(event.events, golden.events, "{label}: event counts differ");
        assert_eq!(
            event.duration,
            SimTime::from_ns(golden.duration_ns),
            "{label}"
        );
        assert_eq!(
            event.groom_reuse_hits + event.groom_new_lights,
            golden.groomed,
            "{label}"
        );
        assert!(
            (event.peak_reserved_gbps - golden.peak_reserved_gbps).abs() < 1e-12,
            "{label}"
        );
        assert!(
            (event.mean_reserved_gbps - golden.mean_reserved_gbps).abs() < 1e-12,
            "{label}"
        );
        assert_eq!(
            fnv1a64(&event_fp),
            golden.db_fnv,
            "{label}: database fingerprints differ"
        );
    }
}

/// True per-task sojourn: on the golden scenario the recorded tails must
/// agree with the per-report reconstruction.
#[test]
fn event_run_reports_true_sojourn_tails() {
    let (summary, _) = run_event(quick_cfg(5), Box::new(FlexibleMst::paper()));
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

/// An untraced run retains no reports and leaves no per-task state: the
/// golden scenario completes, and the database ends with no residual
/// per-task record.
#[test]
fn an_untraced_run_completes_and_prunes() {
    let cfg = quick_cfg(5);
    let tb = EventTestbed::new(cfg, Box::new(FlexibleMst::paper()));
    let db = tb.database().clone();
    let outcome = tb.run_detailed(false).unwrap();
    let s = &outcome.summary;
    assert!(
        s.reports.is_empty(),
        "an untraced run must not retain reports"
    );
    let sojourn = s.sojourn.unwrap();
    assert_eq!(sojourn.completed, 8);
    assert_eq!(s.blocked, 0);
    assert!(s.mean_iteration_ms > 0.0);
    assert!(outcome.peak_active_tasks >= 1);
    assert!(outcome.peak_pending_events >= 1);
    // All per-task state pruned at departure.
    let leftovers = db.ledger_leftovers();
    assert!(leftovers.is_empty(), "records leaked: {leftovers:?}");
    assert!(db.total_reserved_gbps().abs() < 1e-6, "reservations leaked");
}

/// Fault/repair storms as event pairs: the event-driven run under faults +
/// rescheduling still completes the workload, and repairs stay a subset of
/// reschedules.
#[test]
fn event_run_survives_fault_storms() {
    let mut cfg = quick_cfg(5);
    cfg.fault_count = 4;
    cfg.reschedule = Some(flexsched_sched::ReschedulePolicy::default());
    let (s, _) = run_event(cfg, Box::new(FlexibleMst::paper()));
    assert_eq!(s.reports.len(), 8);
    assert!(s.repairs <= s.reschedules);
}

/// One recorded run of a fault storm with rescheduling on.
struct StormGolden {
    events: u64,
    retries: u32,
    reschedules: u32,
    repairs: u32,
    reports_fnv: u64,
    db_fnv: u64,
}

/// Golden pin of the reschedule path: a storm of 24 outages (80 ms mean
/// repair) under tasks arriving 40 ms apart, with the default reschedule
/// policy, reproduces its recorded trajectory bit for bit — every repair
/// and full re-solve migration, in the same order, onto the same trees.
/// The three `db_fnv` were re-recorded when the write-only
/// `reservations_made` counter left the network's Debug text; the reports,
/// events and counts passed unedited.
#[test]
fn a_fault_storm_with_rescheduling_matches_its_golden() {
    let goldens = [
        (
            7,
            StormGolden {
                events: 151,
                retries: 0,
                reschedules: 6,
                repairs: 6,
                reports_fnv: 0x3863_6a54_a207_575b,
                db_fnv: 0x6e12_72b4_3061_f20a,
            },
        ),
        (
            11,
            StormGolden {
                events: 132,
                retries: 0,
                reschedules: 1,
                repairs: 0,
                reports_fnv: 0x15f9_5751_aa55_78cc,
                db_fnv: 0xdee1_eb2c_84d7_52f6,
            },
        ),
        (
            19,
            StormGolden {
                events: 213,
                retries: 0,
                reschedules: 0,
                repairs: 0,
                reports_fnv: 0x9ddc_3c66_5e72_3c82,
                db_fnv: 0x0d88_7498_fb9c_c676,
            },
        ),
    ];
    for (seed, golden) in goldens {
        let mut cfg = quick_cfg_seeded(10, seed);
        cfg.workload.mean_interarrival_ns = 40_000_000;
        cfg.fault_count = 24;
        cfg.mean_repair = SimTime::from_ms(80);
        cfg.reschedule = Some(flexsched_sched::ReschedulePolicy::default());
        let (s, fp) = run_event(cfg, Box::new(FlexibleMst::paper()));
        assert_eq!(s.reports.len(), 8, "seed {seed}");
        assert_eq!(
            fnv1a64(&format!("{:?}", s.reports)),
            golden.reports_fnv,
            "seed {seed}: task reports differ"
        );
        assert_eq!(s.events, golden.events, "seed {seed}: event counts differ");
        assert_eq!(s.retries, golden.retries, "seed {seed}");
        assert_eq!(s.reschedules, golden.reschedules, "seed {seed}");
        assert_eq!(s.repairs, golden.repairs, "seed {seed}");
        assert_eq!(
            fnv1a64(&fp),
            golden.db_fnv,
            "seed {seed}: database fingerprints differ"
        );
    }
}
