//! Horizon sweep: how far the testbed scales in task count.
//!
//! An untraced `EventTestbed` run streams arrivals from the workload RNG,
//! places each task's containers at its arrival, prunes the task's
//! containers and database state when it leaves, keeps no per-task
//! report, and folds per-task latencies into fixed-size log-bucket
//! histograms — so a million-task run holds only the *in-flight* state
//! (peak pending events ≈ active tasks + one armed arrival + the fault
//! schedule). This sweep pins that claim with numbers: events/s, peak
//! pending events, peak active tasks, peak RSS, and the per-task sojourn /
//! queueing tails.
//!
//! Determinism rides along: the smallest point runs twice and must
//! produce the identical summary fingerprint (an FNV-1a fold over every
//! scalar in the outcome), seed-pinned across runs and machines.
//!
//! Run: `cargo run --release -p flexsched-bench --bin horizon_sweep`
//! (`FLEXSCHED_BENCH_QUICK=1` for a fast smoke pass).

use std::time::Instant;

use flexsched_orchestrator::{Database, EventRunOutcome, EventTestbed, TestbedConfig};
use flexsched_sched::FlexibleMst;
use flexsched_simnet::SimTime;
use flexsched_task::WorkloadConfig;

const SWEEP_SEED: u64 = 2024;

/// Scenario for one horizon point: metro topology, paper scheduler,
/// Poisson arrivals every 10 ms. Per-task service time on this shape is
/// ~0.4 s, so the offered load sits near 35% of the ~130-task cluster
/// ceiling: steady-state concurrency is set by the arrival/service
/// ratio, not by `num_tasks`, and the same shape scales from 2 k to
/// 10^6 tasks without the queue growing with the horizon.
fn point_config(num_tasks: usize) -> TestbedConfig {
    TestbedConfig {
        workload: WorkloadConfig {
            num_tasks,
            locals_per_task: 4,
            seed: SWEEP_SEED,
            mean_interarrival_ns: 10_000_000,
            ..WorkloadConfig::default()
        },
        // The makespan is ~num_tasks x 2 ms of simulated time; leave the
        // hard stop far above the largest point so no run is clipped.
        horizon: SimTime::from_secs(1_000_000),
        ..TestbedConfig::default()
    }
}

fn run_point(num_tasks: usize) -> (EventRunOutcome, f64, Database) {
    let start = Instant::now();
    let tb = EventTestbed::new(point_config(num_tasks), Box::new(FlexibleMst::paper()));
    let db = tb.database().clone();
    let outcome = tb.run_detailed(false).expect("horizon point must complete");
    (outcome, start.elapsed().as_secs_f64(), db)
}

/// FNV-1a fold over every scalar the run produced. Two runs with the same
/// seed must agree bit-for-bit; any hidden nondeterminism (hash-order
/// iteration, wall-clock leakage into simulated state) changes the fold.
fn fingerprint(outcome: &EventRunOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let s = &outcome.summary;
    fold(s.events);
    fold(s.blocked as u64);
    fold(s.retries as u64);
    fold(s.shed as u64);
    fold(s.reschedules as u64);
    fold(s.repairs as u64);
    fold(s.duration.as_ns());
    fold(s.mean_iteration_ms.to_bits());
    fold(s.peak_reserved_gbps.to_bits());
    fold(s.mean_reserved_gbps.to_bits());
    fold(outcome.peak_pending_events as u64);
    fold(outcome.peak_active_tasks as u64);
    let sojourn = s.sojourn.expect("event runs always report sojourn");
    fold(sojourn.completed);
    fold(sojourn.sojourn_mean_ns.to_bits());
    fold(sojourn.sojourn_p50_ns);
    fold(sojourn.sojourn_p99_ns);
    fold(sojourn.sojourn_p999_ns);
    fold(sojourn.sojourn_max_ns);
    fold(sojourn.queueing_mean_ns.to_bits());
    fold(sojourn.queueing_p50_ns);
    fold(sojourn.queueing_p99_ns);
    fold(sojourn.queueing_p999_ns);
    h
}

/// Peak resident set (VmHWM) in KiB from procfs; 0 where unavailable.
fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .unwrap_or(0.0)
}

fn main() {
    let quick = std::env::var("FLEXSCHED_BENCH_QUICK").is_ok_and(|v| v != "0");
    let points: &[usize] = if quick {
        &[2_000, 20_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    println!("horizon sweep: event-driven testbed, untraced runs");

    // Determinism pin: the smallest point, twice, fingerprint-identical.
    let probe = points[0];
    let (first, _, _) = run_point(probe);
    let (second, _, _) = run_point(probe);
    let (fp_a, fp_b) = (fingerprint(&first), fingerprint(&second));
    assert_eq!(
        fp_a, fp_b,
        "horizon point {probe}: summary fingerprint must be seed-deterministic"
    );
    println!("   determinism pin: {probe} tasks twice -> {fp_a:#018x} both runs");

    // VmHWM after the smallest point; points ascend and the mark is
    // monotone per process, so the last reading is the sweep's peak.
    let mut rss_smallest = None;
    for &n in points {
        let (outcome, wall_s, db) = run_point(n);
        let s = &outcome.summary;
        let sojourn = s.sojourn.expect("event runs always report sojourn");
        let terminal = sojourn.completed + s.blocked as u64 + s.shed as u64;
        assert_eq!(
            terminal, n as u64,
            "{n}: every offered task must terminate (completed/blocked/shed)"
        );
        assert!(
            s.reports.is_empty(),
            "{n}: an untraced run must not retain per-task reports"
        );
        // The bounded-memory claim, asserted: in-flight state never grows
        // with the horizon. Peak pending events is the engine's heap high
        // water mark — departures + one armed arrival + fault/check
        // events — and must stay orders of magnitude below num_tasks.
        assert!(
            outcome.peak_pending_events < 2_000,
            "{n}: peak pending events {} not bounded",
            outcome.peak_pending_events
        );
        // The empty-ledger invariant: with every offered task terminal,
        // no per-task bookkeeping (schedules, repair counters,
        // reverse-index entries, placed containers) may survive
        // the run — any residue is a teardown-path leak that would grow
        // with the horizon.
        let leftovers = db.ledger_leftovers();
        assert!(
            leftovers.is_empty(),
            "{n}: ledger not empty after run ({} leftovers, first: {:?})",
            leftovers.len(),
            leftovers.first()
        );

        let events_per_s = s.events as f64 / wall_s;
        let tasks_per_s = n as f64 / wall_s;
        let rss = peak_rss_kib();
        println!(
            "   {n:>9} tasks: {:.1}s wall | {:.0} events/s | {:.0} tasks/s | peak pending {} | peak active {} | sojourn p50 {} p99 {} p999 {} ns | rss {rss:.0} KiB | fp {:#018x}",
            wall_s,
            events_per_s,
            tasks_per_s,
            outcome.peak_pending_events,
            outcome.peak_active_tasks,
            sojourn.sojourn_p50_ns,
            sojourn.sojourn_p99_ns,
            sojourn.sojourn_p999_ns,
            fingerprint(&outcome),
        );
        // The flat-RSS claim, asserted: resident memory does not grow with
        // the horizon (vacuous where procfs is absent and both read 0).
        let base = *rss_smallest.get_or_insert(rss);
        assert!(
            rss <= 1.5 * base,
            "{n}: peak RSS {rss:.0} KiB grew past 1.5x the {base:.0} KiB after {} tasks",
            points[0]
        );
    }
    println!("horizon sweep: all per-point invariants held");
}
