//! Seeded workload generation: "We generate 30 AI tasks to evaluate the
//! proposed scheduling policy".

use crate::dag::{AiJob, DataEdge, JobId, Stage, StageKind};
use crate::task::{AiTask, ServiceClass, TaskId};
use flexsched_compute::ModelProfile;
use flexsched_topo::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// Per-class workload weights `[critical, standard, best-effort]`; tasks
/// draw their [`ServiceClass`] proportionally to these.
pub(crate) type ClassMix = [u32; 3];

/// The production-flavoured tenant mix: 10% critical, 60% standard, 30%
/// best-effort. The overload criterion drives it through the event testbed
/// (`flexsched-orchestrator`'s test-only `overload` module), and the
/// fault-storm harness admits it.
pub const PRODUCTION_CLASS_MIX: ClassMix = [1, 6, 3];

/// Workload generation parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of tasks (the paper uses 30).
    pub num_tasks: usize,
    /// Local models per task. The evaluation sweeps this from a few up
    /// to 15.
    pub locals_per_task: usize,
    /// Indices into [`ModelProfile::catalog`] to draw models from.
    pub model_mix: Vec<usize>,
    /// Iterations per task, inclusive range.
    pub iterations: (u32, u32),
    /// Communication budget per procedure, ms, inclusive range.
    pub comm_budget_ms: (f64, f64),
    /// Mean inter-arrival gap between tasks, ns: arrivals are Poisson.
    pub mean_interarrival_ns: u64,
    /// Service-class weights `[critical, standard, best-effort]`. The
    /// default is all-Standard, matching pre-tenant workloads.
    pub class_mix: ClassMix,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_tasks: 30,
            locals_per_task: 5,
            // Small-to-mid models: the testbed trains edge-scale CV models
            // (lenet / mobilenet); larger profiles are exercised by the
            // transport and ablation scenarios.
            model_mix: vec![0, 1, 1],
            iterations: (3, 10),
            comm_budget_ms: (10.0, 40.0),
            mean_interarrival_ns: 2_000_000, // 2 ms
            class_mix: [0, 1, 0],
            seed: 2024,
        }
    }
}

impl WorkloadConfig {
    /// Default parameters with an explicit seed and the task and
    /// local-model counts overridden — the shape orchestrator scenario tests
    /// draw, so every random draw is pinned at the test site and a failure
    /// replays from the seed alone instead of depending on the crate-wide
    /// default staying what it was.
    pub fn seeded_scenario(seed: u64, num_tasks: usize, locals_per_task: usize) -> Self {
        WorkloadConfig {
            num_tasks,
            locals_per_task,
            seed,
            ..WorkloadConfig::default()
        }
    }
}

/// Draw a service class from the mix using one uniform draw from the
/// dedicated class stream.
fn draw_class(mix: ClassMix, rng: &mut StdRng) -> ServiceClass {
    let total: u32 = mix.iter().sum();
    assert!(
        total > 0,
        "class_mix must have at least one non-zero weight"
    );
    let mut pick = rng.random_range(0..total);
    for (slot, weight) in mix.iter().enumerate() {
        if pick < *weight {
            return ServiceClass::ALL[slot];
        }
        pick -= weight;
    }
    unreachable!("pick < total by construction")
}

/// A lazy, deterministic stream of workload tasks.
///
/// Event-driven drivers pull one task at a time — each arrival event pulls
/// the next task and schedules itself at that task's `arrival_ns` — so a
/// million-task horizon never materialises a million-element `Vec`. The
/// stream performs *exactly* the same RNG draws in the same order as
/// [`generate_workload`] (which is now implemented on top of it), so
/// pulling `num_tasks` tasks yields byte-identical workloads either way.
///
/// # Panics
/// `new` panics if the topology has fewer than `locals_per_task + 1`
/// servers; pulling panics if `model_mix` indexes outside the catalog.
#[derive(Debug, Clone)]
pub struct WorkloadStream {
    cfg: WorkloadConfig,
    servers: Vec<NodeId>,
    catalog: Vec<ModelProfile>,
    rng_params: StdRng,
    rng_sites: StdRng,
    rng_class: StdRng,
    arrival: u64,
    produced: u64,
}

impl WorkloadStream {
    /// Start a stream over the topology's servers with the given config.
    pub fn new(topo: &Topology, cfg: &WorkloadConfig) -> Self {
        let servers = topo.servers();
        assert!(
            servers.len() > cfg.locals_per_task,
            "need at least {} servers, topology has {}",
            cfg.locals_per_task + 1,
            servers.len()
        );
        // Three independent streams: task parameters (model, iterations,
        // budget, arrival) are drawn separately from site choices, so
        // sweeping `locals_per_task` changes only the sites — the Figure-3
        // sweep points are paired experiments over the same 30 task
        // parameterisations. The class stream is likewise separate so
        // changing the tenant mix keeps both the parameters and the
        // placement of every task.
        WorkloadStream {
            cfg: cfg.clone(),
            servers,
            catalog: ModelProfile::catalog(),
            rng_params: StdRng::seed_from_u64(cfg.seed),
            rng_sites: StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15),
            rng_class: StdRng::seed_from_u64(cfg.seed ^ 0xC2B2_AE3D_27D4_EB4F),
            arrival: 0,
            produced: 0,
        }
    }

    /// Tasks left before the stream ends (`cfg.num_tasks` total).
    pub(crate) fn remaining(&self) -> u64 {
        self.cfg.num_tasks as u64 - self.produced
    }

    fn next_task(&mut self) -> AiTask {
        let cfg = &self.cfg;
        // Global site: uniform choice.
        let global_site = self.servers[self.rng_sites.random_range(0..self.servers.len())];
        // Local sites: sample without replacement, excluding the global.
        let mut pool: Vec<NodeId> = self
            .servers
            .iter()
            .copied()
            .filter(|s| *s != global_site)
            .collect();
        let mut local_sites = Vec::with_capacity(cfg.locals_per_task);
        for _ in 0..cfg.locals_per_task {
            let idx = self.rng_sites.random_range(0..pool.len());
            local_sites.push(pool.swap_remove(idx));
        }
        local_sites.sort();

        let mut data_utility = BTreeMap::new();
        for s in &local_sites {
            data_utility.insert(*s, self.rng_sites.random_range(0.05..1.0));
        }

        let model_idx = cfg.model_mix[self.rng_params.random_range(0..cfg.model_mix.len())];
        let model = self.catalog[model_idx].clone();
        let iterations = self
            .rng_params
            .random_range(cfg.iterations.0..=cfg.iterations.1);
        let comm_budget_ms = self
            .rng_params
            .random_range(cfg.comm_budget_ms.0..=cfg.comm_budget_ms.1);
        // Exponential gap, rounded and deliberately not clamped: every
        // seeded scenario's arrival times depend on this exact expression.
        let u: f64 = self.rng_params.random_range(f64::EPSILON..1.0);
        self.arrival += (-u.ln() * cfg.mean_interarrival_ns as f64).round() as u64;

        let id = TaskId(self.produced);
        self.produced += 1;
        AiTask {
            id,
            model,
            global_site,
            local_sites,
            data_utility,
            iterations,
            comm_budget_ms,
            arrival_ns: self.arrival,
            class: draw_class(cfg.class_mix, &mut self.rng_class),
        }
    }
}

impl Iterator for WorkloadStream {
    type Item = AiTask;

    fn next(&mut self) -> Option<AiTask> {
        if self.produced >= self.cfg.num_tasks as u64 {
            return None;
        }
        Some(self.next_task())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.remaining() as usize;
        (rem, Some(rem))
    }
}

/// Generate a deterministic workload over the topology's servers.
///
/// Every task gets a distinct global site and `locals_per_task` distinct
/// local sites (wrapping around the server list if needed — a server may
/// host local models of several tasks, like the dockerised testbed).
///
/// Materialises the whole [`WorkloadStream`]; use the stream directly when
/// tasks should be pulled one arrival at a time.
///
/// # Panics
/// Panics if the topology has fewer than `locals_per_task + 1` servers or
/// `model_mix` indexes outside the catalog.
pub fn generate_workload(topo: &Topology, cfg: &WorkloadConfig) -> Vec<AiTask> {
    WorkloadStream::new(topo, cfg).collect()
}

/// Shape parameters for DAG-structured jobs ([`JobStream`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DagConfig {
    /// Jobs the stream yields before ending.
    pub num_jobs: usize,
    /// Inclusive range of stages per job.
    pub stages: (u32, u32),
    /// Inclusive range of per-edge data-item sizes, Gbit.
    pub transfer_gbit: (f64, f64),
    /// Percent chance (0–100) that a non-root stage gets a second
    /// in-edge, turning chains into fan-in/fan-out diamonds.
    pub fanin_pct: u32,
}

impl Default for DagConfig {
    fn default() -> Self {
        DagConfig {
            num_jobs: 16,
            stages: (3, 6),
            transfer_gbit: (0.5, 4.0),
            fanin_pct: 30,
        }
    }
}

/// A lazy, deterministic stream of stage-DAG jobs ([`AiJob`]s).
///
/// Layered on [`WorkloadStream`] exactly the way the class stream was
/// layered on the site/parameter streams (PR 6): all DAG-*shape* draws —
/// stage counts, wiring, stage kinds, data-item sizes — come from a
/// **fourth** seeded RNG stream, while every stage's embedded [`AiTask`]
/// is pulled from the inner stream untouched. Consequence: the monolithic
/// task sequence for a given seed is byte-identical whether tasks are
/// consumed directly or through jobs, and changing only the DAG shape
/// parameters never moves a task's placement, model or arrival.
#[derive(Debug, Clone)]
pub struct JobStream {
    stream: WorkloadStream,
    dag: DagConfig,
    rng_dag: StdRng,
    produced: u64,
}

impl JobStream {
    /// Start a job stream over the topology's servers. `cfg.seed` feeds
    /// the fourth (DAG-shape) stream through its own salt.
    pub fn new(topo: &Topology, cfg: &WorkloadConfig, dag: DagConfig) -> Self {
        JobStream {
            stream: WorkloadStream::new(topo, cfg),
            rng_dag: StdRng::seed_from_u64(cfg.seed ^ 0xBF58_476D_1CE4_E5B9),
            dag,
            produced: 0,
        }
    }

    fn next_job(&mut self) -> AiJob {
        // Shape draws first, all from the DAG stream: stage count, then
        // per-stage (kind, primary predecessor, item size, optional
        // fan-in edge) in stage order.
        let n = self
            .rng_dag
            .random_range(self.dag.stages.0..=self.dag.stages.1)
            .max(1) as usize;
        let (lo, hi) = self.dag.transfer_gbit;
        let mut kinds = vec![StageKind::Compute; n];
        let mut edges: Vec<DataEdge> = Vec::new();
        for (i, kind) in kinds.iter_mut().enumerate().skip(1) {
            *kind = match self.rng_dag.random_range(0..3u32) {
                0 => StageKind::Compute,
                1 => StageKind::AllReduce,
                _ => StageKind::PipelineTransfer,
            };
            let pred = self.rng_dag.random_range(0..i) as u32;
            let gbit = self.rng_dag.random_range(lo..=hi);
            edges.push(DataEdge {
                from: pred,
                to: i as u32,
                gbit,
            });
            if i >= 2 && self.rng_dag.random_range(0..100u32) < self.dag.fanin_pct {
                let extra = self.rng_dag.random_range(0..i) as u32;
                let gbit = self.rng_dag.random_range(lo..=hi);
                if extra != pred {
                    edges.push(DataEdge {
                        from: extra,
                        to: i as u32,
                        gbit,
                    });
                }
            }
        }
        if n >= 2 {
            // Jobs end on a synchronisation phase.
            kinds[n - 1] = StageKind::AllReduce;
        }

        // Stage tasks second, pulled from the inner stream with its own
        // three RNGs — draws identical to plain task generation.
        let stages: Vec<Stage> = (0..n as u32)
            .map(|id| Stage {
                id,
                kind: kinds[id as usize],
                task: self.stream.next_task(),
            })
            .collect();
        let arrival_ns = stages[0].task.arrival_ns;
        let class = stages[0].task.class;
        let id = JobId(self.produced);
        self.produced += 1;
        let job = AiJob {
            id,
            stages,
            edges,
            arrival_ns,
            class,
        };
        debug_assert!(job.validate().is_ok(), "generated job must validate");
        job
    }
}

impl Iterator for JobStream {
    type Item = AiJob;

    fn next(&mut self) -> Option<AiJob> {
        if self.produced >= self.dag.num_jobs as u64 {
            return None;
        }
        Some(self.next_job())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_topo::builders;

    fn topo() -> Topology {
        builders::metro(&builders::MetroParams::default())
    }

    #[test]
    fn generates_requested_count() {
        let tasks = generate_workload(&topo(), &WorkloadConfig::default());
        assert_eq!(tasks.len(), 30);
    }

    #[test]
    fn every_task_validates() {
        let tasks = generate_workload(&topo(), &WorkloadConfig::default());
        for t in &tasks {
            t.validate().unwrap();
            assert_eq!(t.num_locals(), 5);
        }
    }

    #[test]
    fn sites_are_servers() {
        let topo = topo();
        let servers: std::collections::BTreeSet<_> = topo.servers().into_iter().collect();
        for t in generate_workload(&topo, &WorkloadConfig::default()) {
            assert!(servers.contains(&t.global_site));
            for s in &t.local_sites {
                assert!(servers.contains(s));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let t1 = generate_workload(&topo(), &WorkloadConfig::default());
        let t2 = generate_workload(&topo(), &WorkloadConfig::default());
        assert_eq!(t1, t2);
    }

    #[test]
    fn seeds_change_the_draw() {
        let a = generate_workload(&topo(), &WorkloadConfig::default());
        let b = generate_workload(
            &topo(),
            &WorkloadConfig {
                seed: 1,
                ..WorkloadConfig::default()
            },
        );
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let tasks = generate_workload(&topo(), &WorkloadConfig::default());
        for w in tasks.windows(2) {
            assert!(w[1].arrival_ns > w[0].arrival_ns);
        }
    }

    #[test]
    fn seeded_constructors_pin_the_draw() {
        let cfg = WorkloadConfig::seeded_scenario(42, 8, 5);
        assert_eq!((cfg.seed, cfg.num_tasks, cfg.locals_per_task), (42, 8, 5));
        // Same seed, same tasks; different seed, different tasks.
        let t = topo();
        let a = generate_workload(&t, &WorkloadConfig::seeded_scenario(42, 8, 5));
        let b = generate_workload(&t, &WorkloadConfig::seeded_scenario(42, 8, 5));
        let c = generate_workload(&t, &WorkloadConfig::seeded_scenario(43, 8, 5));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sweep_point_sets_local_count() {
        let cfg = WorkloadConfig {
            locals_per_task: 15,
            seed: 7,
            ..WorkloadConfig::default()
        };
        let topo = builders::metro(&builders::MetroParams {
            servers_per_router: 4,
            ..builders::MetroParams::default()
        });
        let tasks = generate_workload(&topo, &cfg);
        assert!(tasks.iter().all(|t| t.num_locals() == 15));
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn too_few_servers_panics() {
        let small = builders::star(3, 1.0, 100.0); // 3 servers
        let cfg = WorkloadConfig {
            locals_per_task: 5,
            ..WorkloadConfig::default()
        };
        let _ = generate_workload(&small, &cfg);
    }

    #[test]
    fn default_mix_is_all_standard() {
        for t in generate_workload(&topo(), &WorkloadConfig::default()) {
            assert_eq!(t.class, ServiceClass::Standard);
        }
    }

    #[test]
    fn class_mix_changes_only_the_class() {
        let t = topo();
        let plain = generate_workload(
            &t,
            &WorkloadConfig {
                seed: 7,
                ..WorkloadConfig::default()
            },
        );
        let mixed = generate_workload(
            &t,
            &WorkloadConfig {
                class_mix: PRODUCTION_CLASS_MIX,
                seed: 7,
                ..WorkloadConfig::default()
            },
        );
        assert_eq!(plain.len(), mixed.len());
        for (a, b) in plain.iter().zip(&mixed) {
            let mut b_as_standard = b.clone();
            b_as_standard.class = ServiceClass::Standard;
            assert_eq!(*a, b_as_standard);
        }
        // The production mix actually draws every class at 30 tasks.
        for class in ServiceClass::ALL {
            assert!(
                mixed.iter().any(|t| t.class == class),
                "mix never drew {class}"
            );
        }
    }

    /// The tenant scenario (the production mix over `seeded_scenario`)
    /// keeps the seeded counts and draws each class in its mix share.
    #[test]
    fn tenant_scenario_uses_production_mix() {
        let cfg = WorkloadConfig {
            class_mix: PRODUCTION_CLASS_MIX,
            ..WorkloadConfig::seeded_scenario(5, 1_000, 4)
        };
        assert_eq!(
            (cfg.num_tasks, cfg.locals_per_task, cfg.seed),
            (1_000, 4, 5)
        );
        let mut drawn = [0u32; 3];
        for t in generate_workload(&topo(), &cfg) {
            drawn[t.class.index()] += 1;
        }
        let total: u32 = PRODUCTION_CLASS_MIX.iter().sum();
        for (class, (&n, &weight)) in drawn.iter().zip(&PRODUCTION_CLASS_MIX).enumerate() {
            let (share, want) = (f64::from(n) / 1_000.0, f64::from(weight) / f64::from(total));
            assert!(
                (share - want).abs() < 0.05,
                "class {class}: drew {share}, mix share {want}"
            );
        }
    }

    #[test]
    fn stream_matches_batch_generation() {
        let t = topo();
        let cfg = WorkloadConfig {
            class_mix: PRODUCTION_CLASS_MIX,
            ..WorkloadConfig::seeded_scenario(9, 40, 4)
        };
        let batch = generate_workload(&t, &cfg);
        let streamed: Vec<AiTask> = WorkloadStream::new(&t, &cfg).collect();
        assert_eq!(batch, streamed);
        // Pulling one at a time (the event-driven pattern) is the same draw.
        let mut stream = WorkloadStream::new(&t, &cfg);
        for (i, expect) in batch.iter().enumerate() {
            assert_eq!(stream.remaining(), (40 - i) as u64);
            assert_eq!(stream.next().as_ref(), Some(expect));
        }
        assert_eq!(stream.next(), None);
        assert_eq!(stream.produced, 40);
    }

    #[test]
    fn stream_size_hint_is_exact() {
        let t = topo();
        let cfg = WorkloadConfig::seeded_scenario(4, 12, 3);
        let mut stream = WorkloadStream::new(&t, &cfg);
        assert_eq!(stream.size_hint(), (12, Some(12)));
        stream.next();
        assert_eq!(stream.size_hint(), (11, Some(11)));
    }

    #[test]
    fn utilities_are_in_range() {
        for t in generate_workload(&topo(), &WorkloadConfig::default()) {
            for u in t.data_utility.values() {
                assert!(*u > 0.0 && *u < 1.0);
            }
            assert_eq!(t.data_utility.len(), t.local_sites.len());
        }
    }
}
