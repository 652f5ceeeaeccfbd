//! Closure scaling: per-decision cost of the amortised closure engine
//! against from-scratch Mehlhorn solves as the fabric grows to national
//! scale.
//!
//! Scenario per fabric (metro-15, fat-tree, continental backbone): one
//! Steiner decision's (root, terminals) instance is re-solved under a
//! drifting weight regime — most rounds perturb a handful of links
//! (background-load churn, the incremental-repair case), every fourth
//! round changes nothing (the pure cache-hit case a retry at unchanged
//! weights sees). Each round solves twice with warm state:
//! once through [`ClosureCache::solve_in`] (first sight → entry build →
//! stamp diff → hit / repair / full solve) and once through
//! [`steiner_tree_sparse_in`] (always from scratch), asserting the trees
//! are identical before timing is trusted. The cache admits on second
//! sight, and the run asserts it: no entry after the first solve, one
//! after the second, amortised solves only from the third.
//!
//! What the numbers mean: `speedup` is the mean from-scratch decision
//! latency over the mean cached/incremental (hit + repair) decision
//! latency on the same rounds — the factor the closure engine buys a
//! scheduler whose weight regime drifts slowly between decisions. The
//! acceptance bar for the backbone fabric is ≥ 3×; at 10⁵ links the
//! stamp scan + frontier repair is typically one to two orders of
//! magnitude cheaper than the full multi-source pass.
//!
//! Run: `cargo run --release -p flexsched-bench --bin closure_scaling`
//! (`FLEXSCHED_BENCH_QUICK=1` for the smoke pass).

use std::time::Instant;

use flexsched_topo::algo::{steiner_tree_sparse_in, ClosureCache, ScratchPool};
use flexsched_topo::builders::{backbone, fat_tree, metro, BackboneParams, MetroParams};
use flexsched_topo::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SEED: u64 = 9;
/// Links perturbed per churn round: small enough that the repair path
/// engages (the cache's changed-links threshold is far above this),
/// large enough that every churn round really moves the weight regime.
const CHURN_LINKS: usize = 6;

struct Fabric {
    name: &'static str,
    topo: Topology,
    terminals: usize,
}

fn fabrics(quick: bool) -> Vec<Fabric> {
    let mut v = vec![Fabric {
        name: "metro-15",
        topo: metro(&MetroParams::default()),
        terminals: 15,
    }];
    if quick {
        v.push(Fabric {
            name: "fat-tree-6",
            topo: fat_tree(6, 400.0),
            terminals: 40,
        });
        v.push(Fabric {
            name: "backbone",
            topo: backbone(&BackboneParams::default().with_target_links(20_000)),
            terminals: 30,
        });
    } else {
        v.push(Fabric {
            name: "fat-tree-10",
            topo: fat_tree(10, 400.0),
            terminals: 100,
        });
        v.push(Fabric {
            name: "backbone",
            topo: backbone(&BackboneParams::default().with_target_links(120_000)),
            terminals: 40,
        });
    }
    v
}

/// Root plus `k` terminals strided across the fabric's servers.
fn instance(topo: &Topology, k: usize) -> (NodeId, Vec<NodeId>) {
    let servers = topo.servers();
    assert!(servers.len() > k, "fabric too small for {k} terminals");
    let stride = (servers.len() - 1) / k;
    let terminals: Vec<NodeId> = (0..k).map(|i| servers[1 + i * stride]).collect();
    (servers[0], terminals)
}

fn main() {
    let quick = std::env::var("FLEXSCHED_BENCH_QUICK").is_ok_and(|v| v != "0");
    let decisions: usize = if quick { 12 } else { 40 };
    println!("closure scaling: {decisions} decisions per fabric, churn {CHURN_LINKS} links/round");

    for f in fabrics(quick) {
        let topo = &f.topo;
        let (root, terminals) = instance(topo, f.terminals);
        let mut rng = StdRng::seed_from_u64(SEED);
        // Synthetic strictly-positive weight regime with per-link stamps,
        // standing in for `auxiliary_weight` over a drifting snapshot.
        let mut weights: Vec<f64> = (0..topo.link_count())
            .map(|_| rng.random_range(1.0..10.0))
            .collect();
        let mut stamps: Vec<u64> = vec![0; topo.link_count()];

        let mut cache = ClosureCache::new();
        let mut pool_cached = ScratchPool::new();
        let mut pool_scratch = ScratchPool::new();
        let regime = [0u64];

        let mut cached_ns: Vec<(u64, bool)> = Vec::with_capacity(decisions);
        let mut scratch_ns: Vec<u64> = Vec::with_capacity(decisions);
        for round in 0..decisions {
            // Every fourth round the regime is untouched (pure hit); the
            // rest see small background churn (incremental repair).
            if round % 4 != 1 && round > 0 {
                for _ in 0..CHURN_LINKS {
                    let i = rng.random_range(0..weights.len());
                    weights[i] = (weights[i] * rng.random_range(0.8..1.25)).clamp(0.5, 20.0);
                    stamps[i] += 1;
                }
            }
            let before = cache.stats();
            let t0 = Instant::now();
            let warm = cache
                .solve_in(
                    topo,
                    root,
                    &terminals,
                    &regime,
                    |l| [stamps[l.index()], 0],
                    |l| weights[l.id.index()],
                    &mut pool_cached,
                )
                .expect("fabrics are connected");
            let warm_ns = t0.elapsed().as_nanos() as u64;
            let d = cache.stats().since(&before);
            let amortised = d.hits + d.repairs == 1;
            if round < 2 {
                // Rounds 0 and 1 present the key unchanged: a from-scratch
                // solve that keeps nothing, then the entry build.
                assert!(
                    cache.len() == round && d.full_solves == 1,
                    "{}: round {round}: the cache must admit on second sight, holds {} entries after {d:?}",
                    f.name,
                    cache.len()
                );
            }

            let t1 = Instant::now();
            let cold = steiner_tree_sparse_in(
                topo,
                root,
                &terminals,
                |l| weights[l.id.index()],
                &mut pool_scratch,
            )
            .expect("fabrics are connected");
            let cold_ns = t1.elapsed().as_nanos() as u64;

            assert_eq!(
                warm.links, cold.links,
                "{}: round {round}: cached tree diverged from from-scratch solve",
                f.name
            );
            cached_ns.push((warm_ns, amortised));
            scratch_ns.push(cold_ns);
        }

        let stats = cache.stats();
        let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64;
        let amortised: Vec<u64> = cached_ns
            .iter()
            .filter(|(_, a)| *a)
            .map(|(n, _)| *n)
            .collect();
        let amortised_rounds: Vec<u64> = cached_ns
            .iter()
            .zip(&scratch_ns)
            .filter(|((_, a), _)| *a)
            .map(|(_, s)| *s)
            .collect();
        let cached_us = mean(&amortised) / 1_000.0;
        let scratch_us = mean(&amortised_rounds) / 1_000.0;
        let speedup = scratch_us / cached_us;
        let all_cached_s = cached_ns.iter().map(|(n, _)| n).sum::<u64>() as f64 / 1e9;
        let decisions_per_s = decisions as f64 / all_cached_s;

        println!(
            "   {} ({} links): cached/incremental {:.1}us vs from-scratch {:.1}us -> {:.1}x | {} hits / {} repairs / {} full / {} fallbacks | {:.0} decisions/s",
            f.name,
            topo.link_count(),
            cached_us,
            scratch_us,
            speedup,
            stats.hits,
            stats.repairs,
            stats.full_solves,
            stats.fallbacks,
            decisions_per_s
        );
        assert!(
            stats.hits > 0 && stats.repairs > 0,
            "{}: both amortised paths must engage: {stats:?}",
            f.name
        );
        if f.name == "backbone" {
            assert!(
                speedup >= 3.0,
                "backbone: cached/incremental decisions must be >= 3x from-scratch, got {speedup:.2}x"
            );
        }
    }
    println!("closure scaling: cached trees matched from-scratch trees on every round");
}
