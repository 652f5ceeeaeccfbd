//! DAG sweep: per-job makespan and critical-path inflation versus fault
//! rate, across three fabrics.
//!
//! Scenario per fabric (paper metro, 4-ary fat-tree, reduced continental
//! backbone): a seeded stream of [`AiJob`](flexsched_task::AiJob) stage
//! DAGs runs through the gang-admission pipeline of [`DagEventTestbed`] —
//! one proposal per released stage, all-or-nothing frontier commits,
//! stage-granular fault repair — under growing random-outage storms. Jobs arrive within tens
//! of milliseconds (2 ms mean inter-arrival) and their stages run for
//! seconds, so the storm interacts with a dense concurrent mix of
//! frontiers rather than a quiet queue.
//!
//! Recorded per (fabric, fault count): jobs completed/shed, gang
//! commits/rejections, fault-time repair decisions, makespan p50/p99 and
//! critical-path inflation p50/p99/max (×1000; 1000 = makespan equals
//! the ideal critical path, computed from admission-time reports which
//! carry no outage penalty).
//!
//! Invariants asserted per point: every arrived job resolves (completed
//! or shed) within the horizon, makespan histograms are populated
//! whenever jobs complete, inflation never dips below the 1000 floor,
//! and the fault-free point completes every job with zero gang
//! rejections and fully drained reservations.
//!
//! Run: `cargo run --release -p flexsched-bench --bin dag_sweep`
//! (`FLEXSCHED_BENCH_QUICK=1` for the smoke pass,
//! `FLEXSCHED_BENCH_JSON=/path.json` to snapshot the points).

use flexsched_orchestrator::{DagEventTestbed, DagTestbedConfig, DagTopology, RepairScope};
use flexsched_sched::{FlexibleMst, ReschedulePolicy};
use flexsched_simnet::SimTime;
use flexsched_task::{DagConfig, WorkloadConfig};
use flexsched_topo::builders::{BackboneParams, MetroParams};

const SWEEP_SEED: u64 = 2024;

fn fabrics() -> Vec<(&'static str, DagTopology)> {
    vec![
        ("metro", DagTopology::Metro(MetroParams::default())),
        (
            "fat-tree",
            DagTopology::FatTree {
                k: 4,
                link_gbps: 400.0,
            },
        ),
        (
            "backbone",
            DagTopology::Backbone(BackboneParams::default().with_target_links(2_000)),
        ),
    ]
}

fn main() {
    let quick = std::env::var("FLEXSCHED_BENCH_QUICK").is_ok_and(|v| v != "0");
    let fault_counts: &[usize] = if quick { &[0, 60] } else { &[0, 60, 150] };
    let num_jobs = if quick { 4 } else { 10 };

    println!("dag sweep: {num_jobs} jobs per point, fault storms {fault_counts:?}");

    for (fabric, topology) in fabrics() {
        for &faults in fault_counts {
            let cfg = DagTestbedConfig {
                topology: topology.clone(),
                workload: WorkloadConfig::seeded_scenario(SWEEP_SEED, 8, 5),
                dag: DagConfig {
                    num_jobs,
                    ..DagConfig::default()
                },
                fault_count: faults,
                fault_seed: SWEEP_SEED ^ faults as u64,
                // Concentrate the storm inside the activity window; the
                // long horizon still lets every job resolve. Multi-second
                // outages are what actually inflate critical paths: a
                // frontier released while its links are down blocks and
                // retries, so makespans stretch past the ideal path.
                fault_window: Some(SimTime::from_secs(60)),
                mean_repair: SimTime::from_secs(2),
                reschedule: Some(ReschedulePolicy::default()),
                repair_scope: RepairScope::Stage,
                horizon: SimTime::from_secs(600),
                ..DagTestbedConfig::default()
            };
            let tb = DagEventTestbed::new(cfg, Box::new(FlexibleMst::paper()))
                .expect("sweep scenario construction");
            let db = tb.database().clone();
            let summary = tb.run().expect("sweep scenario run");
            let d = summary.dag.expect("dag driver reports stats");

            assert_eq!(
                d.jobs_completed + d.jobs_shed,
                d.jobs,
                "{fabric}/f{faults}: a job neither completed nor shed within the horizon"
            );
            assert!(d.gang_commits > 0, "{fabric}/f{faults}: no gang committed");
            assert!(d.stages_committed >= d.gang_commits);
            if d.jobs_completed > 0 {
                assert!(d.makespan_p50_ns > 0, "{fabric}/f{faults}: empty makespans");
                assert!(
                    d.inflation_p50_milli >= 1000,
                    "{fabric}/f{faults}: makespan beat the ideal critical path"
                );
            }
            if faults == 0 {
                assert_eq!(
                    d.jobs_completed, d.jobs,
                    "{fabric}: fault-free jobs must all complete"
                );
                assert_eq!(d.gang_rejections, 0, "{fabric}: fault-free rejections");
                assert!(
                    db.total_reserved_gbps().abs() < 1e-6,
                    "{fabric}: reservations leaked"
                );
            }

            println!(
                "   {fabric} f={faults}: {}/{} jobs ({} shed) | {} stages in {} gangs ({} rejected) | {} repair decisions | makespan p50 {:.1}s p99 {:.1}s | inflation p50 {} p99 {} max {}",
                d.jobs_completed,
                d.jobs,
                d.jobs_shed,
                d.stages_committed,
                d.gang_commits,
                d.gang_rejections,
                d.repair_decisions,
                d.makespan_p50_ns as f64 / 1e9,
                d.makespan_p99_ns as f64 / 1e9,
                d.inflation_p50_milli,
                d.inflation_p99_milli,
                d.inflation_max_milli,
            );

            let m = |name: &str, v: f64| {
                criterion::record_metric("dag", format!("{name}/{fabric}/f{faults}"), v)
            };
            m("jobs-completed", d.jobs_completed as f64);
            m("jobs-shed", d.jobs_shed as f64);
            m("gang-commits", d.gang_commits as f64);
            m("gang-rejections", d.gang_rejections as f64);
            m("repair-decisions", d.repair_decisions as f64);
            m("makespan-p50-ms", d.makespan_p50_ns as f64 / 1e6);
            m("makespan-p99-ms", d.makespan_p99_ns as f64 / 1e6);
            m("inflation-p50-milli", d.inflation_p50_milli as f64);
            m("inflation-p99-milli", d.inflation_p99_milli as f64);
            m("inflation-max-milli", d.inflation_max_milli as f64);
        }
    }
    criterion::write_json_if_requested();
    println!("dag sweep: all per-point invariants held");
}
