//! Regenerate every evaluation artifact of the poster.
//!
//! ```text
//! cargo run -p flexsched-bench --release --bin figures -- all
//! cargo run -p flexsched-bench --release --bin figures -- fig3a
//! cargo run -p flexsched-bench --release --bin figures -- fig3b
//! cargo run -p flexsched-bench --release --bin figures -- ablation-selection
//! cargo run -p flexsched-bench --release --bin figures -- ablation-reschedule
//! cargo run -p flexsched-bench --release --bin figures -- ablation-transport
//! cargo run -p flexsched-bench --release --bin figures -- ablation-spineleaf
//! cargo run -p flexsched-bench --release --bin figures -- ablation-aggregation
//! ```
//!
//! Output: aligned tables on stdout (the series the paper plots), shape
//! checks, and CSV files under `target/figures/`.

use flexsched_bench::{
    fig3_point, reschedule_point, selection_point, transport_point, Policy, FIG3_SWEEP,
};
use flexsched_optical::{spineleaf, OpticalState, TimeslotTable};
use flexsched_orchestrator::RunSummary;
use flexsched_sched::SelectionStrategy;
use flexsched_simnet::Transport;
use flexsched_topo::builders;
use std::fmt::Write as _;
use std::sync::Arc;

const NUM_TASKS: usize = 30;
const SEED: u64 = 2024;

fn write_csv(name: &str, contents: &str) {
    let dir = std::path::Path::new("target/figures");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(name);
        if std::fs::write(&path, contents).is_ok() {
            println!("  [csv] {}", path.display());
        }
    }
}

/// A run's (started, completed) task counts.
fn started_completed(s: &RunSummary) -> (usize, u64) {
    (s.reports.len(), s.sojourn.map_or(0, |j| j.completed))
}

/// Figure 3a: total latency (training + communication) vs #local models.
/// Each row also gives the tasks each policy started / completed: the two
/// means cover different task sets where those differ.
fn fig3a() {
    println!("== Figure 3a: mean per-iteration latency vs number of local models ==");
    println!(
        "{:>8} {:>14} {:>14} {:>8} {:>12} {:>12}",
        "locals", "fixed (ms)", "flexible (ms)", "ratio", "fixed s/c", "flex s/c"
    );
    let mut csv = String::from(
        "locals,fixed_ms,flexible_ms,fixed_started,fixed_completed,flexible_started,flexible_completed\n",
    );
    let (mut flex_faster, mut flex_not_faster) = (Vec::new(), Vec::new());
    for n in FIG3_SWEEP {
        let fixed = fig3_point(Policy::Fixed, n, NUM_TASKS, SEED);
        let flex = fig3_point(Policy::Flexible, n, NUM_TASKS, SEED);
        let ratio = fixed.mean_iteration_ms / flex.mean_iteration_ms.max(1e-9);
        let (fixed_s, fixed_c) = started_completed(&fixed);
        let (flex_s, flex_c) = started_completed(&flex);
        println!(
            "{:>8} {:>14.3} {:>14.3} {:>8.2} {:>12} {:>12}",
            n,
            fixed.mean_iteration_ms,
            flex.mean_iteration_ms,
            ratio,
            format!("{fixed_s}/{fixed_c}"),
            format!("{flex_s}/{flex_c}")
        );
        let _ = writeln!(
            csv,
            "{n},{:.6},{:.6},{fixed_s},{fixed_c},{flex_s},{flex_c}",
            fixed.mean_iteration_ms, flex.mean_iteration_ms
        );
        if ratio > 1.0 {
            flex_faster.push(n);
        } else {
            flex_not_faster.push(n);
        }
    }
    println!("  s/c: tasks started / completed of {NUM_TASKS}");
    println!(
        "  shape check: fixed / flexible > 1 (flexible faster) at {flex_faster:?} locals, \
         not at {flex_not_faster:?} (paper: flexible faster throughout, 1.9 ms vs 2.3 ms at \
         15 locals on its hardware)"
    );
    write_csv("fig3a_latency.csv", &csv);
}

/// Figure 3b: consumed bandwidth vs #local models.
fn fig3b() {
    println!("== Figure 3b: consumed bandwidth vs number of local models ==");
    println!(
        "{:>8} {:>16} {:>16} {:>10}",
        "locals", "fixed (Gbps)", "flexible (Gbps)", "saving"
    );
    let mut csv = String::from("locals,fixed_gbps,flexible_gbps\n");
    let mut fixed_deltas = Vec::new();
    let mut prev_fixed = 0.0;
    for n in FIG3_SWEEP {
        let fixed = fig3_point(Policy::Fixed, n, NUM_TASKS, SEED);
        let flex = fig3_point(Policy::Flexible, n, NUM_TASKS, SEED);
        let saving = 1.0 - flex.sum_task_bandwidth_gbps / fixed.sum_task_bandwidth_gbps.max(1e-9);
        println!(
            "{:>8} {:>16.0} {:>16.0} {:>9.0}%",
            n,
            fixed.sum_task_bandwidth_gbps,
            flex.sum_task_bandwidth_gbps,
            saving * 100.0
        );
        let _ = writeln!(
            csv,
            "{n},{:.3},{:.3}",
            fixed.sum_task_bandwidth_gbps, flex.sum_task_bandwidth_gbps
        );
        if prev_fixed > 0.0 {
            fixed_deltas.push(fixed.sum_task_bandwidth_gbps - prev_fixed);
        }
        prev_fixed = fixed.sum_task_bandwidth_gbps;
    }
    println!(
        "  shape check: fixed grows nearly linearly (per-step increments {:?} Gbps); \
         flexible reuses existing paths and aggregates in-network",
        fixed_deltas
            .iter()
            .map(|d| d.round() as i64)
            .collect::<Vec<_>>()
    );
    write_csv("fig3b_bandwidth.csv", &csv);
}

/// A1: local-model selection strategies (open challenge #1).
fn ablation_selection() {
    println!("== A1: local-model selection strategies (15 candidate locals) ==");
    println!(
        "{:>22} {:>12} {:>14} {:>12}",
        "strategy", "latency(ms)", "bandwidth(G)", "locals used"
    );
    let mut csv = String::from("strategy,latency_ms,bandwidth_gbps,mean_locals\n");
    let strategies: [(&str, SelectionStrategy); 4] = [
        ("all", SelectionStrategy::All),
        ("top-50%-utility", SelectionStrategy::TopKUtility(0.5)),
        ("random-50%", SelectionStrategy::RandomK(0.5, SEED)),
        (
            "bandwidth-aware-50%",
            SelectionStrategy::BandwidthAware(0.5),
        ),
    ];
    for (name, s) in strategies {
        let summary = selection_point(s, 15, SEED);
        let mean_locals = summary
            .reports
            .iter()
            .map(|r| r.locals_scheduled)
            .sum::<usize>() as f64
            / summary.reports.len().max(1) as f64;
        println!(
            "{:>22} {:>12.3} {:>14.0} {:>12.1}",
            name, summary.mean_iteration_ms, summary.sum_task_bandwidth_gbps, mean_locals
        );
        let _ = writeln!(
            csv,
            "{name},{:.6},{:.3},{mean_locals:.2}",
            summary.mean_iteration_ms, summary.sum_task_bandwidth_gbps
        );
    }
    println!("  shape check: selecting fewer (useful / cheap-to-reach) locals buys latency and bandwidth");
    write_csv("ablation_selection.csv", &csv);
}

/// A2: rescheduling trade-off under faults and churn.
fn ablation_reschedule() {
    println!("== A2: rescheduling under faults + background churn ==");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "policy", "resched", "latency(ms)", "blocked", "retries"
    );
    let mut csv = String::from("policy,rescheduling,latency_ms,reschedules,blocked\n");
    for with in [false, true] {
        let s = reschedule_point(Policy::Flexible, with, SEED);
        println!(
            "{:>10} {:>12} {:>12.3} {:>12} {:>12}",
            if with { "on" } else { "off" },
            s.reschedules,
            s.mean_iteration_ms,
            s.blocked,
            s.retries
        );
        let _ = writeln!(
            csv,
            "flexible,{with},{:.6},{},{}",
            s.mean_iteration_ms, s.reschedules, s.blocked
        );
    }
    println!(
        "  shape check: migrations only happen when predicted saving beats the interruption cost"
    );
    write_csv("ablation_reschedule.csv", &csv);
}

/// A3: TCP vs RDMA vs ideal transports (open challenge #2).
fn ablation_transport() {
    println!("== A3: transport protocols (metro scale) ==");
    println!(
        "{:>8} {:>12} {:>14} {:>16}",
        "wire", "latency(ms)", "cpu/MB (us)", "policy"
    );
    let mut csv = String::from("transport,policy,latency_ms\n");
    for t in [Transport::tcp(), Transport::rdma(), Transport::ideal()] {
        for p in [Policy::Fixed, Policy::Flexible] {
            let s = transport_point(p, t.clone(), SEED);
            let cpu_us = t.cpu_time_for(1_000_000).as_us_f64();
            println!(
                "{:>8} {:>12.3} {:>14.1} {:>16}",
                t.name,
                s.mean_iteration_ms,
                cpu_us,
                p.label()
            );
            let _ = writeln!(csv, "{},{},{:.6}", t.name, p.label(), s.mean_iteration_ms);
        }
    }
    // Long-haul RDMA degradation (the poster's challenge #2 caveat).
    println!("  long-haul single flow (64 MiB over one span):");
    for km in [10.0, 100.0, 1_000.0, 2_000.0] {
        let topo = Arc::new(builders::linear(2, km, 100.0));
        let state = flexsched_simnet::NetworkState::new(Arc::clone(&topo));
        let path = flexsched_topo::algo::shortest_path(
            &topo,
            flexsched_topo::NodeId(0),
            flexsched_topo::NodeId(1),
            flexsched_topo::algo::hop_weight,
        )
        .unwrap();
        let time = |tr: &Transport| {
            flexsched_simnet::transfer_time_ns(
                &state,
                &flexsched_simnet::transfer::TransferSpec {
                    path: &path,
                    size_bytes: 64 << 20,
                    reserved_gbps: 100.0,
                    transport: tr,
                },
            )
            .unwrap()
            .as_ms_f64()
        };
        println!(
            "    {:>6.0} km: tcp {:>8.2} ms   rdma {:>8.2} ms",
            km,
            time(&Transport::tcp()),
            time(&Transport::rdma())
        );
    }
    println!("  shape check: RDMA wins in-metro, collapses long-haul (window-limited)");
    write_csv("ablation_transport.csv", &csv);
}

/// A4: spine-leaf OCS+OTS vs OCS-only (open challenge #3).
fn ablation_spineleaf() {
    println!("== A4: all-optical spine-leaf, OCS-only vs OCS+OTS ==");
    // 24 demands over four recurring leaf pairs: per pair two elephants
    // (80 G) and four mice (8 G), so OTS has real sharing opportunities.
    let demands: Vec<(usize, usize, f64)> = (0..24)
        .map(|i| {
            let pair = i % 4;
            (pair, pair + 1, if i / 4 % 3 == 0 { 80.0 } else { 8.0 })
        })
        .collect();
    let mut csv = String::from("mode,circuits,lightpaths,utilization,rejected\n");
    for (label, threshold) in [("ocs-only", 0.0), ("ocs+ots", 0.5)] {
        let topo = Arc::new(builders::spine_leaf(4, 6, 2, true, 400.0));
        let mut state = OpticalState::new(Arc::clone(&topo));
        let mut slots = TimeslotTable::new(10);
        let leaves = spineleaf::leaves(&state);
        let mut ok = 0usize;
        let mut rejected = 0usize;
        for (a, b, gbps) in &demands {
            if leaves[*a] == leaves[*b] {
                continue;
            }
            match spineleaf::establish_circuit(
                &mut state, &mut slots, leaves[*a], leaves[*b], *gbps, threshold,
            ) {
                Ok(_) => ok += 1,
                Err(_) => rejected += 1,
            }
        }
        let stats = spineleaf::fabric_stats(&state);
        println!(
            "  {label:>9}: {ok} circuits, {} lightpaths, {:.0}% wavelength slots used, {rejected} rejected",
            stats.lightpaths,
            stats.wavelength_utilization * 100.0
        );
        let _ = writeln!(
            csv,
            "{label},{ok},{},{:.4},{rejected}",
            stats.lightpaths, stats.wavelength_utilization
        );
    }
    // Mean server-to-server hops vs the ring metro (architecture motivation).
    let sl = OpticalState::new(Arc::new(builders::spine_leaf(2, 6, 2, true, 400.0)));
    let ring = OpticalState::new(Arc::new(builders::metro(&builders::MetroParams {
        core_roadms: 6,
        servers_per_router: 2,
        chords: 0,
        ..builders::MetroParams::default()
    })));
    println!(
        "  mean server-server hops: spine-leaf {:.2} vs metro ring {:.2}",
        spineleaf::mean_server_hops(&sl),
        spineleaf::mean_server_hops(&ring)
    );
    println!("  shape check: timeslot sharing packs small demands onto fewer wavelengths");
    write_csv("ablation_spineleaf.csv", &csv);
}

/// A6: in-network aggregation on/off inside the flexible scheduler.
fn ablation_aggregation() {
    println!("== A6: multi-aggregation ablation (flexible scheduler) ==");
    println!(
        "{:>8} {:>18} {:>18}",
        "locals", "with agg (Gbps)", "without agg (Gbps)"
    );
    let mut csv = String::from("locals,with_agg_gbps,without_agg_gbps\n");
    for n in FIG3_SWEEP {
        let with = fig3_point(Policy::Flexible, n, NUM_TASKS, SEED);
        let without = fig3_point(Policy::FlexibleNoAgg, n, NUM_TASKS, SEED);
        println!(
            "{:>8} {:>18.0} {:>18.0}",
            n, with.sum_task_bandwidth_gbps, without.sum_task_bandwidth_gbps
        );
        let _ = writeln!(
            csv,
            "{n},{:.3},{:.3}",
            with.sum_task_bandwidth_gbps, without.sum_task_bandwidth_gbps
        );
    }
    println!(
        "  shape check: without aggregation the upload tree degenerates towards linear bandwidth"
    );
    write_csv("ablation_aggregation.csv", &csv);
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let t0 = std::time::Instant::now();
    match arg.as_str() {
        "fig3a" => fig3a(),
        "fig3b" => fig3b(),
        "ablation-selection" => ablation_selection(),
        "ablation-reschedule" => ablation_reschedule(),
        "ablation-transport" => ablation_transport(),
        "ablation-spineleaf" => ablation_spineleaf(),
        "ablation-aggregation" => ablation_aggregation(),
        "all" => {
            fig3a();
            println!();
            fig3b();
            println!();
            ablation_selection();
            println!();
            ablation_reschedule();
            println!();
            ablation_transport();
            println!();
            ablation_spineleaf();
            println!();
            ablation_aggregation();
        }
        other => {
            eprintln!("unknown figure '{other}'");
            eprintln!("expected: fig3a | fig3b | ablation-selection | ablation-reschedule | ablation-transport | ablation-spineleaf | ablation-aggregation | all");
            std::process::exit(2);
        }
    }
    eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
}
