//! DAG workload-stream contracts, in the mould of the PR 6 class-stream
//! pins:
//!
//! * **Byte-identity of the monolithic draws.** The [`JobStream`] draws
//!   every DAG-shape decision from its own fourth RNG stream, so the
//!   embedded stage tasks must equal — field for field — the task
//!   sequence a plain [`WorkloadStream`] yields for the same seed. DAG
//!   structure is an overlay, never a perturbation.
//! * **Determinism + structural validity.** One seed, one job sequence:
//!   two streams with identical configs agree exactly, and every emitted
//!   job validates (dense stage ids, in-range duplicate-free edges,
//!   acyclic).
//!
//! Run with `PROPTEST_CASES=256` in nightly-deep.

use flexsched_task::{DagConfig, JobStream, WorkloadConfig, WorkloadStream};
use flexsched_topo::builders;
use proptest::prelude::*;

fn topo() -> flexsched_topo::Topology {
    builders::metro(&builders::MetroParams::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite pin: monolithic-task draws stay byte-identical when the
    /// same seed is consumed through the DAG seam.
    #[test]
    fn job_stream_preserves_monolithic_draws(
        seed in 0u64..1000,
        locals in 2usize..6,
        stages_hi in 3u32..7,
        fanin in 0u32..100,
    ) {
        let topo = topo();
        let cfg = WorkloadConfig {
            locals_per_task: locals,
            seed,
            // Six jobs can embed more stage tasks than the default 30-task
            // cap; the plain reference stream must not run dry first.
            num_tasks: 64,
            ..WorkloadConfig::default()
        };
        let dag = DagConfig {
            num_jobs: 6,
            stages: (2, stages_hi),
            fanin_pct: fanin,
            ..DagConfig::default()
        };

        // Enough plain tasks to cover every stage the six jobs can embed.
        let mut plain = WorkloadStream::new(&topo, &cfg);
        let jobs: Vec<_> = JobStream::new(&topo, &cfg, dag).collect();
        prop_assert_eq!(jobs.len(), 6);
        for job in &jobs {
            for stage in &job.stages {
                let reference = plain.next().expect("plain stream yields >= stage count");
                prop_assert_eq!(&stage.task, &reference,
                    "embedded stage task diverged from the plain stream");
            }
        }
    }

    /// One seed, one job sequence — and every job is a valid DAG.
    #[test]
    fn job_stream_is_deterministic_and_acyclic(
        seed in 0u64..1000,
        fanin in 0u32..100,
    ) {
        let topo = topo();
        let cfg = WorkloadConfig { seed, ..WorkloadConfig::default() };
        let dag = DagConfig { num_jobs: 5, fanin_pct: fanin, ..DagConfig::default() };
        let a: Vec<_> = JobStream::new(&topo, &cfg, dag.clone()).collect();
        let b: Vec<_> = JobStream::new(&topo, &cfg, dag).collect();
        prop_assert_eq!(&a, &b, "same seed must yield the same jobs");
        let mut seen_task_ids = std::collections::BTreeSet::new();
        for job in &a {
            // `validate` also rejects a cyclic edge set.
            prop_assert!(job.validate().is_ok());
            prop_assert!(!job.roots().is_empty());
            for stage in &job.stages {
                prop_assert!(seen_task_ids.insert(stage.task.id), "stage task ids must be globally unique");
            }
        }
    }
}

/// Deterministic pin: DAG-shape knobs move only the shape. Cranking the
/// fan-in probability (or widening the stage range) never changes which
/// task parameterisation lands in a given draw position.
#[test]
fn dag_shape_knobs_do_not_move_task_draws() {
    let topo = topo();
    let cfg = WorkloadConfig {
        seed: 42,
        ..WorkloadConfig::default()
    };
    let chains = DagConfig {
        num_jobs: 4,
        fanin_pct: 0,
        ..DagConfig::default()
    };
    let diamonds = DagConfig {
        num_jobs: 4,
        fanin_pct: 100,
        ..DagConfig::default()
    };
    let a: Vec<_> = JobStream::new(&topo, &cfg, chains)
        .flat_map(|j| j.stages.into_iter().map(|s| s.task))
        .collect();
    let b: Vec<_> = JobStream::new(&topo, &cfg, diamonds)
        .flat_map(|j| j.stages.into_iter().map(|s| s.task))
        .collect();
    let n = a.len().min(b.len());
    assert!(n > 0);
    assert_eq!(
        &a[..n],
        &b[..n],
        "shape knobs leaked into the task parameter streams"
    );
}
