//! Scheduler throughput: how many scheduling decisions per second the
//! control plane sustains, at metro scale (the paper's testbed) and on a
//! spine-leaf fabric, from 5 to 50 local models per task.
//!
//! Three families of points:
//!
//! * `flexible-mst/*` — one `FlexibleMst::propose` per iteration against a
//!   warm snapshot + scratch pool: the single-core decision rate. Names
//!   match BENCH_1, so successive snapshots are directly comparable (the
//!   propose stage must hold single-core parity with the pre-pipeline
//!   `schedule` entry point).
//! * `baseline-prerefactor/*` — the preserved pre-refactor implementation
//!   (`flexsched_bench::baseline`) on the same inputs, for the pinned
//!   speedup trajectory.
//! * `repair/*` vs `resolve/*` — rescheduling decisions under a fault: one
//!   incremental tree repair (`Scheduler::propose_repair`) versus one full
//!   re-solve on the same faulted snapshot, at metro-15 and spine-leaf
//!   scale. Alongside the timings, a fault-storm scenario records
//!   `blocking-prob/*` metric points: the fraction of tasks left unserved
//!   after the storm under each rescheduling mode (REACH-style quality
//!   check for the repair heuristic).
//!
//! `scripts/bench_snapshot.sh N` writes the results to `BENCH_N.json` for
//! the repo's performance trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexsched_bench::baseline::baseline_flexible_schedule;
use flexsched_compute::ModelProfile;
use flexsched_sched::{FlexibleMst, NetworkSnapshot, Scheduler};
use flexsched_simnet::NetworkState;
use flexsched_task::{AiTask, TaskId};
use flexsched_topo::algo::ScratchPool;
use flexsched_topo::{builders, Topology};
use std::hint::black_box;
use std::sync::Arc;

fn make_task(topo: &Topology, n: usize) -> AiTask {
    let servers = topo.servers();
    assert!(
        n < servers.len(),
        "scenario needs {n} locals, has {}",
        servers.len() - 1
    );
    AiTask {
        id: TaskId(0),
        model: ModelProfile::mobilenet(),
        global_site: servers[0],
        local_sites: servers[1..=n].to_vec(),
        data_utility: Default::default(),
        iterations: 3,
        comm_budget_ms: 10.0,
        arrival_ns: 0,
        class: Default::default(),
    }
}

struct Scenario {
    label: &'static str,
    topo: Arc<Topology>,
    locals: &'static [usize],
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            label: "metro",
            topo: Arc::new(builders::metro(&builders::MetroParams::default())),
            locals: &[5, 10, 15],
        },
        Scenario {
            label: "spineleaf",
            topo: Arc::new(builders::spine_leaf(4, 13, 4, false, 400.0)),
            locals: &[25, 50],
        },
    ]
}

fn bench_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_throughput");
    for s in scenarios() {
        let state = NetworkState::new(Arc::clone(&s.topo));
        // One snapshot and one scratch pool per decision loop, exactly as
        // the orchestrator holds them: the pool warms up on the first
        // decision and is reused by every subsequent one.
        let snap = NetworkSnapshot::capture(&state);
        let mut pool = ScratchPool::new();
        for &n in s.locals {
            let task = make_task(&s.topo, n);
            g.bench_with_input(
                BenchmarkId::new(format!("flexible-mst/{}", s.label), n),
                &task,
                |b, task| {
                    b.iter(|| {
                        black_box(
                            FlexibleMst::paper()
                                .propose(black_box(task), &task.local_sites, &snap, &mut pool)
                                .unwrap(),
                        )
                    })
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("baseline-prerefactor/{}", s.label), n),
                &task,
                |b, task| {
                    b.iter(|| {
                        black_box(
                            baseline_flexible_schedule(
                                black_box(task),
                                &task.local_sites,
                                &state,
                                None,
                                snap.min_rate_gbps,
                            )
                            .unwrap(),
                        )
                    })
                },
            );
        }
    }
    g.finish();
}

/// Print per-point speedup and tasks/sec once everything is measured.
fn summarize(_c: &mut Criterion) {
    let results = criterion::results_snapshot();
    println!("\n== scheduler throughput summary ==");
    for r in &results {
        if let Some(rest) = r.name.strip_prefix("flexible-mst/") {
            let tasks_per_sec = 1e9 / r.median_ns;
            let baseline = results
                .iter()
                .find(|b| b.name == format!("baseline-prerefactor/{rest}"));
            match baseline {
                Some(b) => println!(
                    "{rest:<16} {tasks_per_sec:>10.0} tasks/s   speedup vs pre-refactor: {:.2}x",
                    b.median_ns / r.median_ns
                ),
                None => println!("{rest:<16} {tasks_per_sec:>10.0} tasks/s"),
            }
        }
    }
    for r in &results {
        if let Some(rest) = r.name.strip_prefix("repair/") {
            let per_sec = 1e9 / r.median_ns;
            if let Some(full) = results.iter().find(|b| b.name == format!("resolve/{rest}")) {
                println!(
                    "repair-decision {rest:<16} {per_sec:>10.0} decisions/s   speedup vs full re-solve: {:.2}x",
                    full.median_ns / r.median_ns
                );
            }
        }
    }
    for r in &results {
        if let Some(rest) = r.name.strip_prefix("storm-decisions-per-sec/repair/") {
            if let Some(full) = results
                .iter()
                .find(|b| b.name == format!("storm-decisions-per-sec/resolve/{rest}"))
            {
                println!(
                    "storm-resched   {rest:<16} {:>10.0} decisions/s   speedup vs full re-solve: {:.2}x",
                    r.median_ns,
                    r.median_ns / full.median_ns
                );
            }
        }
    }
}

/// Repair-vs-resolve decision rate under a fault, plus storm blocking
/// probabilities. The timed points measure the pure *decision*: the same
/// running schedule, the same faulted snapshot; one iteration is either a
/// `propose_repair` (detach + frontier re-attach) or a full `propose`
/// against the hypothetical freed world — exactly the work the reschedule
/// loop performs per affected task.
fn bench_repair(c: &mut Criterion) {
    use flexsched_bench::faultstorm::{generate_events, Mode, StormTopology, World};
    use flexsched_sched::NetworkSnapshot;

    let mut g = c.benchmark_group("repair_throughput");
    let scheduler = FlexibleMst::paper();
    let cases: [(&str, StormTopology, usize, u64); 2] = [
        ("metro15", StormTopology::Metro, 15, 1),
        ("spineleaf25", StormTopology::SpineLeaf, 15, 2),
    ];
    for (label, topology, locals, seed) in cases {
        // A committed task whose tree crosses a transport link; fault it.
        let topo = topology.build();
        let world = World::new(Mode::Repair, Arc::clone(&topo), 1, locals, seed);
        let id = *world
            .running()
            .iter()
            .next()
            .expect("seeded task must admit");
        let schedule = world.db().schedule(id).unwrap();
        let task = world.task(id).expect("admitted task exists").clone();
        // Pick a claimed transport span whose loss is survivable: both the
        // incremental repair and the full re-solve must succeed on the
        // faulted world (a single-homed uplink would disconnect a site and
        // make both decisions trivially fail).
        let mut pool = ScratchPool::new();
        let candidates: Vec<flexsched_topo::LinkId> = schedule
            .reservations(&topo)
            .unwrap()
            .iter()
            .map(|(dl, _)| dl.link)
            .filter(|l| {
                let link = topo.link(*l).unwrap();
                topo.node(link.a).unwrap().kind != flexsched_topo::NodeKind::Server
                    && topo.node(link.b).unwrap().kind != flexsched_topo::NodeKind::Server
            })
            .collect();
        let mut chosen = None;
        for victim in candidates {
            world
                .db()
                .write(|net, _, _| net.set_down(victim, true))
                .unwrap();
            let live_snap = world.db().snapshot();
            let without_snap = world.db().read(|net, opt, _| {
                let mut w = net.clone();
                schedule.release(&mut w).unwrap();
                NetworkSnapshot::capture(&w).with_optical(opt)
            });
            let repair_ok = matches!(
                scheduler.propose_repair(&task, &schedule, &live_snap, &mut pool),
                Ok(Some(_))
            );
            let resolve_ok = scheduler
                .propose(&task, &schedule.selected_locals, &without_snap, &mut pool)
                .is_ok();
            if repair_ok && resolve_ok {
                chosen = Some((live_snap, without_snap));
                break;
            }
            world
                .db()
                .write(|net, _, _| net.set_down(victim, false))
                .unwrap();
        }
        let (live_snap, without_snap) = chosen.expect("some claimed span is survivable");
        g.bench_function(format!("repair/{label}"), |b| {
            b.iter(|| {
                black_box(
                    scheduler
                        .propose_repair(black_box(&task), &schedule, &live_snap, &mut pool)
                        .unwrap()
                        .expect("faulted tree must yield a repair"),
                )
            })
        });
        g.bench_function(format!("resolve/{label}"), |b| {
            b.iter(|| {
                black_box(
                    scheduler
                        .propose(
                            black_box(&task),
                            &schedule.selected_locals,
                            &without_snap,
                            &mut pool,
                        )
                        .unwrap(),
                )
            })
        });
    }
    g.finish();

    // Storm replay: the same fault storms driven through both rescheduling
    // modes. Two things are recorded per topology:
    //
    // * `storm-decisions-per-sec/*` — rescheduling decisions processed per
    //   wall-clock second across the storm. The baseline re-runs the full
    //   scheduler for every affected candidate on every event (the policy
    //   this PR replaces); the repair path triages most candidates in a
    //   few microseconds and runs the frontier search only for genuinely
    //   broken trees. This is the headline repair-vs-resolve number.
    // * `blocking-prob/*` — fraction of the population left unserved after
    //   the storm (REACH-style quality check: repair must stay within one
    //   percentage point of full re-solve).
    for (label, topology, locals) in [
        ("metro15", StormTopology::Metro, 15),
        ("spineleaf25", StormTopology::SpineLeaf, 10),
    ] {
        let storms = 10u64;
        let mut blocked = [0.0f64; 2];
        let mut blocked_class = [[0.0f64; 3]; 2];
        let mut rate = [0.0f64; 2];
        for (slot, mode) in [(0, Mode::Repair), (1, Mode::Resolve)] {
            let mut acc_blocked = 0.0;
            let mut acc_class = [0.0f64; 3];
            let mut decisions = 0u64;
            let mut elapsed = std::time::Duration::ZERO;
            for seed in 0..storms {
                let topo = topology.build();
                let mut world = World::new(mode, Arc::clone(&topo), 8, locals, seed * 7 + 1);
                let storm = generate_events(&topo, &world.footprint_links(), 24, seed * 7 + 1);
                for ev in &storm {
                    world.step(ev);
                }
                // Rescheduling-path time only: admissions and re-admissions
                // are mode-independent and would dilute the contrast.
                elapsed += world.resched_time;
                decisions += world.resched_decisions;
                acc_blocked += world.blocking_probability();
                let by_class = world.blocking_by_class();
                for (acc, b) in acc_class.iter_mut().zip(by_class) {
                    *acc += b;
                }
            }
            blocked[slot] = acc_blocked / storms as f64;
            for (out, acc) in blocked_class[slot].iter_mut().zip(acc_class) {
                *out = acc / storms as f64;
            }
            rate[slot] = decisions as f64 / elapsed.as_secs_f64();
        }
        criterion::record_metric(
            "repair_throughput",
            format!("storm-decisions-per-sec/repair/{label}"),
            rate[0],
        );
        criterion::record_metric(
            "repair_throughput",
            format!("storm-decisions-per-sec/resolve/{label}"),
            rate[1],
        );
        criterion::record_metric(
            "repair_quality",
            format!("blocking-prob/repair/{label}"),
            blocked[0],
        );
        criterion::record_metric(
            "repair_quality",
            format!("blocking-prob/resolve/{label}"),
            blocked[1],
        );
        // Per-tenant-class split of the same quality number (the overload
        // PR's reporting axis): Critical-class blocking is the series the
        // SLO tracks across snapshots — it must not regress while the
        // gate sheds the metered classes elsewhere.
        for (slot, mode_label) in [(0usize, "repair"), (1, "resolve")] {
            for class in flexsched_task::ServiceClass::ALL {
                criterion::record_metric(
                    "repair_quality",
                    format!("blocking-prob/{mode_label}-{}/{label}", class.label()),
                    blocked_class[slot][class.index()],
                );
            }
        }
    }
}

criterion_group!(benches, bench_throughput, bench_repair, summarize);
criterion_main!(benches);
