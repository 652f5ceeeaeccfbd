//! Equivalence proof against the preserved seed implementation in
//! `tests/reference/` (KMB construction, `BTreeMap` rooting,
//! scalar pricing), on random metro and spine-leaf scenarios, including
//! under load (schedules applied between decisions, exercising the residual
//! cache) and with an optical layer attached (exercising the bitset
//! wavelength feasibility path).
//!
//! `FlexibleMst` builds its trees with the Mehlhorn construction, the seed
//! with KMB. Where shortest paths are unique the two return the identical
//! tree, and then every assertion is bit-for-bit: links, nodes, parent
//! pointers, copies, rates. On the testbed fabrics (equal span lengths) a
//! decision can have several equally good trees and the two constructions
//! may break the tie differently — on the metros that is all that ever
//! differs; on the loaded spine-leaf fabrics 1.4 % of trees also come out
//! lighter or heavier than the seed's, about as often one way as the
//! other (221 lighter, 268 heavier, 0.83–1.23 x, over 35 218 trees;
//! README "Decided, with numbers"). Such a tree must still
//! span, be acyclic, be priced exactly as the seed prices it and stay
//! inside the one bound theory gives — both are 2-approximations of the
//! same optimum, so neither weighs more than twice the other — and the
//! seed's copy counting and rating, run over the scheduler's own trees,
//! must reproduce the scheduler's copies and rate on every case.

mod reference;

use flexsched_compute::ModelProfile;
use flexsched_optical::{split_at_electrical, OpticalState};
use flexsched_sched::{
    FlexibleMst, NetworkSnapshot, RoutingPlan, SchedError, Schedule, Scheduler, MIN_RATE_GBPS,
};
use flexsched_simnet::NetworkState;
use flexsched_task::{AiTask, TaskId};
use flexsched_topo::algo::{self, ScratchPool, SteinerTree};
use flexsched_topo::{builders, Link, LinkId, NodeId, TopoError, Topology};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use reference::{
    baseline_auxiliary_weight, baseline_feasible_rate, baseline_flexible_schedule,
    baseline_steiner_tree, baseline_upload_copies, BaselineTree,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn scenario_topology(pick: u8) -> Arc<Topology> {
    Arc::new(match pick % 4 {
        0 => builders::metro(&builders::MetroParams::default()),
        1 => builders::metro(&builders::MetroParams {
            core_roadms: 8,
            servers_per_router: 3,
            chords: 3,
            ..builders::MetroParams::default()
        }),
        2 => builders::spine_leaf(3, 6, 3, true, 400.0),
        _ => builders::spine_leaf(4, 8, 4, false, 400.0),
    })
}

fn make_task(topo: &Topology, n_locals: usize, seed: u64) -> AiTask {
    let servers = topo.servers();
    let g = servers[(seed as usize) % servers.len()];
    let mut locals = Vec::new();
    let mut i = seed as usize + 1;
    while locals.len() < n_locals.min(servers.len() - 1) {
        let cand = servers[i % servers.len()];
        if cand != g && !locals.contains(&cand) {
            locals.push(cand);
        }
        i += 1;
    }
    locals.sort();
    AiTask {
        id: TaskId(seed),
        model: ModelProfile::mobilenet(),
        global_site: g,
        local_sites: locals,
        data_utility: Default::default(),
        iterations: 3,
        comm_budget_ms: 10.0,
        arrival_ns: 0,
        class: Default::default(),
    }
}

/// How a scheduler tree relates to the seed's tree under the same weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Agreement {
    /// Link for link, node for node, parent for parent.
    Same,
    /// Other links, equal weight (to 1e-9 relative).
    Tie,
    /// Other links, strictly lighter than the seed's.
    Lighter,
    /// Other links, heavier than the seed's (at most twice).
    Heavier,
}

/// Compare one tree against the seed's for the same root, terminals and
/// `weight` (the seed's pricing).
fn compare_tree(
    new: &SteinerTree,
    old: &BaselineTree,
    topo: &Topology,
    weight: impl Fn(&Link) -> f64,
    what: &str,
) -> Result<Agreement, TestCaseError> {
    if new.links == old.links {
        prop_assert_eq!(&new.nodes, &old.nodes, "{} nodes diverged", what);
        // Parent pointers agree with the baseline BTreeMap everywhere.
        for n in topo.node_ids() {
            prop_assert_eq!(new.parent_of(n), old.parent.get(&n).copied());
        }
        return Ok(Agreement::Same);
    }
    prop_assert!(new.spans_all_terminals(), "{} tree must span", what);
    prop_assert_eq!(
        new.links.len(),
        new.nodes.len() - 1,
        "{} tree must be acyclic",
        what
    );
    let priced: f64 = new
        .links
        .iter()
        .map(|l| weight(topo.link(*l).unwrap()))
        .sum();
    prop_assert!(
        (priced - new.total_weight).abs() <= 1e-9 * priced,
        "{what} pricing diverged: seed {priced} vs {}",
        new.total_weight
    );
    let ratio = new.total_weight / old.total_weight;
    prop_assert!(
        (0.5..=2.0).contains(&ratio),
        "{what} links diverged beyond the 2-approximation bound: {} vs seed {} (ratio {ratio})",
        new.total_weight,
        old.total_weight
    );
    Ok(if (ratio - 1.0).abs() <= 1e-9 {
        Agreement::Tie
    } else if ratio < 1.0 {
        Agreement::Lighter
    } else {
        Agreement::Heavier
    })
}

/// The scheduler's tree in the seed's shape, for the seed's copy counting
/// and rating to run over.
fn in_seed_shape(tree: &SteinerTree) -> BaselineTree {
    BaselineTree {
        root: tree.root,
        nodes: tree.nodes.clone(),
        links: tree.links.clone(),
        parent: tree
            .edges()
            .map(|(c, p, l)| (tree.nodes[c], (tree.nodes[p], l)))
            .collect(),
        total_weight: tree.total_weight,
    }
}

/// The scheduler's copies by tree position keyed by node through a zip
/// with `tree.nodes`, as the seed keeps them: every node but the root.
fn keyed(tree: &SteinerTree, copies: &[u32]) -> BTreeMap<NodeId, u32> {
    tree.nodes
        .iter()
        .zip(copies)
        .filter(|(n, _)| **n != tree.root)
        .map(|(n, c)| (*n, *c))
        .collect()
}

/// Compare one schedule against the seed on the same state; `Ok(None)`
/// where both refuse the task. `FlexibleMst::paper()` pins the poster's
/// binary wavelength feasibility, which is exactly what the preserved seed
/// implements.
fn assert_schedules_match(
    task: &AiTask,
    state: &NetworkState,
    snap: &NetworkSnapshot,
    optical: Option<&OpticalState>,
) -> Result<Option<(Schedule, [Agreement; 2])>, TestCaseError> {
    let new = FlexibleMst::paper()
        .propose_once(task, &task.local_sites, snap)
        .map(|p| p.schedule);
    let old = baseline_flexible_schedule(task, &task.local_sites, state, optical, MIN_RATE_GBPS);
    match (new, old) {
        (Ok(s), Some(b)) => {
            let (
                RoutingPlan::Tree {
                    tree: bt,
                    rate_gbps: brate,
                    ..
                },
                RoutingPlan::Tree {
                    tree: ut,
                    rate_gbps: urate,
                    copies,
                },
            ) = (&s.broadcast, &s.upload)
            else {
                return Err(TestCaseError::Fail("flexible must produce trees".into()));
            };
            let (topo, demand) = (state.topo(), task.demand_gbps());
            let price = |reused: &BTreeSet<LinkId>, l: &Link| {
                baseline_auxiliary_weight(state, optical, demand, reused, l)
            };
            let no_reuse = BTreeSet::new();
            let broadcast =
                compare_tree(bt, &b.broadcast, topo, |l| price(&no_reuse, l), "broadcast")?;
            // The upload tree discounts the broadcast tree's links: where
            // the scheduler broke a tie its own way, the seed builds its
            // upload tree again under the scheduler's discount.
            let reused: BTreeSet<LinkId> = bt.links.iter().copied().collect();
            let rebuilt;
            let seed_upload = if broadcast == Agreement::Same {
                &b.upload
            } else {
                rebuilt = baseline_steiner_tree(topo, task.global_site, &task.local_sites, |l| {
                    price(&reused, l)
                })
                .expect("the seed built this tree under another discount");
                &rebuilt
            };
            let upload = compare_tree(ut, seed_upload, topo, |l| price(&reused, l), "upload")?;
            // Aggregation and rating: the seed's, over the scheduler's
            // trees (the seed's own trees wherever both are `Same`).
            let selected: BTreeSet<NodeId> = task.local_sites.iter().copied().collect();
            let (seed_b, seed_u) = (in_seed_shape(bt), in_seed_shape(ut));
            let want_copies = baseline_upload_copies(&seed_u, topo, &selected, true);
            prop_assert_eq!(
                keyed(ut, copies),
                want_copies.clone(),
                "upload copies diverged"
            );
            let want_rate = baseline_feasible_rate(state, &seed_b, &BTreeMap::new(), demand)
                .min(baseline_feasible_rate(state, &seed_u, &want_copies, demand));
            prop_assert_eq!(*brate, want_rate, "broadcast rate diverged");
            prop_assert_eq!(*urate, want_rate, "upload rate diverged");
            if [broadcast, upload] == [Agreement::Same; 2] {
                prop_assert_eq!(keyed(ut, copies), b.copies);
                prop_assert_eq!(*brate, b.rate_gbps);
            }
            Ok(Some((s, [broadcast, upload])))
        }
        (Err(_), None) => Ok(None),
        (Ok(_), None) => Err(TestCaseError::Fail(
            "scheduler succeeded where the seed failed".into(),
        )),
        (Err(e), Some(_)) => Err(TestCaseError::Fail(format!(
            "scheduler failed where the seed succeeded: {e:?}"
        ))),
    }
}

/// The tie census behind README "Decided, with numbers", at a
/// size a unit test can carry: on the default metro under sequential load
/// the Mehlhorn tree is the seed's KMB tree, an equally heavy one, or a
/// lighter one — never heavier, never a different feasible / blocked
/// verdict (a different verdict fails inside [`assert_schedules_match`]).
#[test]
fn metro_trees_are_the_seed_trees_or_ties_never_heavier() {
    let topo = scenario_topology(0);
    let servers = topo.servers();
    // Fixed-seed scattered placement: consecutive servers share a router
    // and leave the trees little to choose from.
    let mut rng = StdRng::seed_from_u64(22);
    let mut draw = || servers[rng.random_range(0..servers.len())];
    let mut census: BTreeMap<(usize, Agreement), u32> = BTreeMap::new();
    for k in [4usize, 8] {
        for round in 0..60u64 {
            let mut state = NetworkState::new(Arc::clone(&topo));
            for i in 0..40 {
                let mut task = make_task(&topo, k, round * 40 + i);
                task.global_site = draw();
                task.local_sites.clear();
                while task.local_sites.len() < k {
                    let site = draw();
                    if site != task.global_site && !task.local_sites.contains(&site) {
                        task.local_sites.push(site);
                    }
                }
                let snap = NetworkSnapshot::capture(&state);
                let outcome = assert_schedules_match(&task, &state, &snap, None)
                    .unwrap_or_else(|e| panic!("k={k} round {round} task {i}: {e:?}"));
                let Some((schedule, trees)) = outcome else {
                    continue;
                };
                for tree in trees {
                    *census.entry((k, tree)).or_default() += 1;
                }
                let _ = schedule.apply(&mut state);
            }
        }
    }
    println!("tie census (k, agreement) -> trees: {census:?}");
    let count = |a| -> u32 {
        [4, 8]
            .iter()
            .map(|k| census.get(&(*k, a)).unwrap_or(&0))
            .sum()
    };
    assert_eq!(count(Agreement::Heavier), 0, "{census:?}");
    assert!(
        count(Agreement::Same) > 10 * count(Agreement::Tie),
        "{census:?}"
    );
    assert!(
        count(Agreement::Tie) > 0,
        "the tie path must be exercised: {census:?}"
    );
}

/// Distinct random lengths make shortest paths and MSTs unique, so the
/// construction must return the seed KMB's *identical* tree, not just an
/// equal-weight one.
#[test]
fn tree_matches_seed_kmb_on_unique_weight_topologies() {
    for seed in 0..6 {
        let t = builders::random_connected(30, 0.15, seed, 100.0);
        let terminals: Vec<NodeId> = [5u32, 9, 13, 17, 21, 25].map(NodeId).to_vec();
        let new = algo::steiner_tree(&t, NodeId(0), &terminals, algo::length_weight).unwrap();
        let old = baseline_steiner_tree(&t, NodeId(0), &terminals, algo::length_weight).unwrap();
        let got = compare_tree(&new, &old, &t, algo::length_weight, "tree");
        assert_eq!(got.unwrap(), Agreement::Same, "seed {seed}");
    }
}

/// Root-only, empty and unreachable terminal sets: the same verdicts as
/// the seed.
#[test]
fn trivial_and_error_cases_match_seed_kmb() {
    let mut t = builders::nsfnet();
    // Terminals equal to the root: the trivial tree.
    let new = algo::steiner_tree(&t, NodeId(0), &[NodeId(0)], algo::length_weight).unwrap();
    let old = baseline_steiner_tree(&t, NodeId(0), &[NodeId(0)], algo::length_weight).unwrap();
    assert_eq!((&new.nodes, &new.links), (&old.nodes, &old.links));
    assert_eq!(new.nodes, vec![NodeId(0)]);
    // No terminals: the construction rejects the input; the seed scheduler
    // and the scheduler both refuse an empty selection before building.
    assert!(matches!(
        algo::steiner_tree(&t, NodeId(0), &[], algo::length_weight),
        Err(TopoError::EmptyInput(_))
    ));
    let state = NetworkState::new(scenario_topology(0));
    let task = make_task(state.topo(), 3, 0);
    let snap = NetworkSnapshot::capture(&state);
    assert!(matches!(
        FlexibleMst::paper().propose_once(&task, &[], &snap),
        Err(SchedError::NothingSelected(_))
    ));
    assert!(baseline_flexible_schedule(&task, &[], &state, None, MIN_RATE_GBPS).is_none());
    // An unreachable terminal: `Disconnected` against the seed's `None`.
    let island = t.add_node(flexsched_topo::NodeKind::Server, "island");
    assert!(matches!(
        algo::steiner_tree(&t, NodeId(0), &[island], algo::length_weight),
        Err(TopoError::Disconnected { .. })
    ));
    assert!(baseline_steiner_tree(&t, NodeId(0), &[island], algo::length_weight).is_none());
}

/// One first-fit lightpath per segment of `path` between electrical nodes,
/// all or none.
fn establish_route(optical: &mut OpticalState, path: &flexsched_topo::Path) -> Result<(), String> {
    let mut ids = Vec::new();
    for segment in split_at_electrical(optical.topo(), path).map_err(|e| e.to_string())? {
        match optical.establish(segment) {
            Ok(id) => ids.push(id),
            Err(e) => {
                for id in ids {
                    optical.teardown(id).map_err(|e| e.to_string())?;
                }
                return Err(e.to_string());
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Idle network: every decision the scheduler makes matches the seed
    /// implementation's (link for link, ties aside — see the module docs).
    #[test]
    fn schedules_identical_on_idle_network(
        pick in 0u8..4,
        n in 1usize..16,
        seed in 0u64..500,
    ) {
        let topo = scenario_topology(pick);
        let state = NetworkState::new(Arc::clone(&topo));
        let task = make_task(&topo, n, seed);
        let snap = NetworkSnapshot::capture(&state);
        assert_schedules_match(&task, &state, &snap, None)?;
    }

    /// Loaded network: tasks are scheduled and applied back-to-back, so the
    /// residual-min cache is exercised across mutations; every decision must
    /// still match the baseline, which recomputes residuals from scratch.
    #[test]
    fn schedules_identical_under_sequential_load(
        pick in 0u8..4,
        seeds in proptest::collection::vec((1usize..12, 0u64..500), 1..6),
    ) {
        let topo = scenario_topology(pick);
        let mut state = NetworkState::new(Arc::clone(&topo));
        for (n, seed) in seeds {
            let task = make_task(&topo, n, seed);
            let applied = {
                let snap = NetworkSnapshot::capture(&state);
                assert_schedules_match(&task, &state, &snap, None)?
            };
            if let Some((s, _)) = applied {
                // Apply if capacity allows; keep going either way.
                let _ = s.apply(&mut state);
            }
        }
    }

    /// Optical layer attached: the bitset wavelength-feasibility path in
    /// the auxiliary weight must agree with the scalar probing baseline.
    #[test]
    fn schedules_identical_with_optical_layer(
        pick in 0u8..2, // metro variants (WDM core)
        n in 1usize..12,
        seed in 0u64..500,
        lightpaths in proptest::collection::vec((0usize..100, 0usize..100), 0..6),
    ) {
        let topo = scenario_topology(pick);
        let state = NetworkState::new(Arc::clone(&topo));
        let mut optical = OpticalState::new(Arc::clone(&topo));
        let servers = topo.servers();
        for (i, j) in lightpaths {
            let a = servers[i % servers.len()];
            let b = servers[j % servers.len()];
            if a == b { continue; }
            let p = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
            let _ = establish_route(&mut optical, &p);
        }
        let task = make_task(&topo, n, seed);
        let snap = NetworkSnapshot::capture(&state).with_optical(&optical);
        assert_schedules_match(&task, &state, &snap, Some(&optical))?;
    }

    /// The no-aggregation ablation also stays identical (copies logic).
    #[test]
    fn upload_copies_identical_across_aggregation_settings(
        pick in 0u8..4,
        n in 1usize..16,
        seed in 0u64..500,
    ) {
        let topo = scenario_topology(pick);
        let state = NetworkState::new(Arc::clone(&topo));
        let task = make_task(&topo, n, seed);
        let demand = task.demand_gbps();
        let no_reuse = BTreeSet::new();
        let Some(bt) = baseline_steiner_tree(&topo, task.global_site, &task.local_sites, |l| {
            baseline_auxiliary_weight(&state, None, demand, &no_reuse, l)
        }) else { return Err(TestCaseError::Reject("unschedulable".into())) };
        let snap = NetworkSnapshot::capture(&state);
        let nt = algo::steiner_tree(&topo, task.global_site, &task.local_sites, |l| {
            flexsched_sched::weights::auxiliary_weight(&snap, demand, &[], l, 0.0)
        }).unwrap();
        compare_tree(&nt, &bt, &topo, |l| {
            baseline_auxiliary_weight(&state, None, demand, &no_reuse, l)
        }, "tree")?;
        let seed_shape = in_seed_shape(&nt);
        let selected: BTreeSet<NodeId> = task.local_sites.iter().copied().collect();
        for aggregation in [true, false] {
            let new_copies = flexsched_sched::flexible::upload_copies(
                &nt, &topo, &task.local_sites, aggregation, &mut ScratchPool::new(),
            ).unwrap();
            let new_copies = keyed(&nt, &new_copies);
            let old_copies = baseline_upload_copies(&seed_shape, &topo, &selected, aggregation);
            prop_assert_eq!(new_copies, old_copies, "aggregation={}", aggregation);
        }
    }

    /// The construction and the seed's KMB must build the *same* tree
    /// whenever shortest paths are unique — random lengths make ties
    /// measure-zero, so the two are interchangeable on these topologies.
    #[test]
    fn trees_agree_with_seed_kmb_on_random_topologies(
        n in 4usize..40,
        p in 0.05f64..0.5,
        seed in 0u64..1_000,
        picks in proptest::collection::vec(0usize..1_000, 2..8),
    ) {
        let t = builders::random_connected(n, p, seed, 100.0);
        let terminals: Vec<NodeId> = picks
            .iter()
            .map(|i| NodeId((i % n) as u32))
            .filter(|x| *x != NodeId(0))
            .collect();
        prop_assume!(!terminals.is_empty());
        let new = algo::steiner_tree(&t, NodeId(0), &terminals, algo::length_weight).unwrap();
        let old = baseline_steiner_tree(&t, NodeId(0), &terminals, algo::length_weight).unwrap();
        let got = compare_tree(&new, &old, &t, algo::length_weight, "tree")?;
        prop_assert_eq!(got, Agreement::Same);
    }
}
