//! Property-based tests for the topology substrate.

mod reference;

use flexsched_topo::algo::{
    hop_weight, k_shortest_paths, length_weight, shortest_path, shortest_path_tree, steiner_tree,
    UnionFind,
};
use flexsched_topo::builders;
use flexsched_topo::{NodeId, Path};
use proptest::prelude::*;
use reference::{bellman_ford, kruskal_mst};

/// Whether `path` visits no node twice.
fn node_simple(path: &Path) -> bool {
    let mut nodes = path.nodes.clone();
    nodes.sort_unstable();
    nodes.dedup();
    nodes.len() == path.nodes.len()
}

fn graph_params() -> impl Strategy<Value = (usize, f64, u64)> {
    (4usize..40, 0.05f64..0.5, 0u64..1_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dijkstra and Bellman-Ford must agree on all distances.
    #[test]
    fn dijkstra_matches_bellman_ford((n, p, seed) in graph_params()) {
        let t = builders::random_connected(n, p, seed, 100.0);
        let spt = shortest_path_tree(&t, NodeId(0), length_weight).unwrap();
        let bf = bellman_ford(&t, NodeId(0), length_weight).unwrap();
        for (i, (d, b)) in spt.dist.iter().zip(&bf).enumerate() {
            prop_assert!((d - b).abs() < 1e-6,
                "node {i}: dijkstra={d} bf={b}");
        }
    }

    /// A spanning tree of a connected graph has exactly n-1 edges and no cycle.
    #[test]
    fn mst_edge_count_and_acyclicity((n, p, seed) in graph_params()) {
        let t = builders::random_connected(n, p, seed, 100.0);
        let mst = kruskal_mst(&t, length_weight).unwrap();
        prop_assert_eq!(mst.links.len(), t.node_count() - 1);
        let mut uf = UnionFind::new(t.node_count());
        for l in &mst.links {
            let link = t.link(*l).unwrap();
            prop_assert!(uf.union(link.a.index(), link.b.index()), "cycle in MST");
        }
    }

    /// Any path found by Dijkstra validates structurally and its hop latency
    /// is consistent with per-hop recomputation.
    #[test]
    fn dijkstra_paths_validate((n, p, seed) in graph_params(), target in 1usize..40) {
        let t = builders::random_connected(n, p, seed, 100.0);
        let to = NodeId((target % n) as u32);
        let path = shortest_path(&t, NodeId(0), to, hop_weight).unwrap();
        path.validate(&t).unwrap();
        prop_assert!(node_simple(&path));
        prop_assert_eq!(path.source(), NodeId(0));
        prop_assert_eq!(path.destination(), to);
    }

    /// The Steiner heuristic spans all terminals (up to seven), is acyclic,
    /// and never costs more than the union of per-terminal shortest paths.
    #[test]
    fn steiner_is_bounded_by_shortest_path_union(
        (n, p, seed) in graph_params(),
        picks in proptest::collection::vec(0usize..1_000, 1..8),
    ) {
        let t = builders::random_connected(n, p, seed, 100.0);
        let terminals: Vec<NodeId> = picks
            .iter()
            .map(|i| NodeId((i % n) as u32))
            .filter(|x| *x != NodeId(0))
            .collect();
        prop_assume!(!terminals.is_empty());
        let st = steiner_tree(&t, NodeId(0), &terminals, length_weight).unwrap();
        prop_assert!(st.spans_all_terminals());
        prop_assert_eq!(st.links.len(), st.nodes.len() - 1);

        let mut union_links = std::collections::BTreeSet::new();
        for term in &terminals {
            let path = shortest_path(&t, NodeId(0), *term, length_weight).unwrap();
            union_links.extend(path.links);
        }
        let union_weight: f64 = union_links
            .iter()
            .map(|l| t.link(*l).unwrap().length_km)
            .sum();
        prop_assert!(st.total_weight <= union_weight + 1e-6,
            "steiner {} > union {}", st.total_weight, union_weight);
    }

    /// Union-find: union makes connected, and component count decreases by
    /// exactly the number of successful unions.
    #[test]
    fn unionfind_component_accounting(
        n in 2usize..100,
        ops in proptest::collection::vec((0usize..100, 0usize..100), 0..200),
    ) {
        let mut uf = UnionFind::new(n);
        let mut merges = 0;
        for (a, b) in ops {
            let (a, b) = (a % n, b % n);
            if uf.union(a, b) {
                merges += 1;
            }
            prop_assert!(uf.connected(a, b));
        }
        prop_assert_eq!(uf.components(), n - merges);
    }

    /// Yen's paths come out sorted by cost and pairwise distinct.
    #[test]
    fn yen_sorted_and_distinct((n, p, seed) in graph_params(), k in 1usize..6) {
        let t = builders::random_connected(n, p, seed, 100.0);
        let to = NodeId((n - 1) as u32);
        let paths = k_shortest_paths(&t, NodeId(0), to, k, length_weight).unwrap();
        prop_assert!(!paths.is_empty());
        let mut prev = 0.0;
        for path in &paths {
            let cost: f64 = path
                .links
                .iter()
                .map(|l| t.link(*l).unwrap().length_km)
                .sum();
            prop_assert!(cost + 1e-9 >= prev);
            prev = cost;
            path.validate(&t).unwrap();
            prop_assert!(node_simple(path));
        }
        for (i, a) in paths.iter().enumerate() {
            for b in &paths[i + 1..] {
                prop_assert_ne!(a, b);
            }
        }
    }

    /// Path reversal preserves validity and swaps endpoints.
    #[test]
    fn path_reverse_round_trip((n, p, seed) in graph_params()) {
        let t = builders::random_connected(n, p, seed, 100.0);
        let to = NodeId((n / 2) as u32);
        let path = shortest_path(&t, NodeId(0), to, length_weight).unwrap();
        let rev = path.reversed();
        rev.validate(&t).unwrap();
        prop_assert_eq!(rev.source(), path.destination());
        prop_assert_eq!(rev.destination(), path.source());
        prop_assert_eq!(rev.reversed(), path);
    }
}

/// Metro/spine-leaf topology mix for equivalence tests (the scenarios the
/// schedulers actually run on), parameterised by a pick byte.
fn scenario_topology(pick: u8) -> flexsched_topo::Topology {
    match pick % 4 {
        0 => builders::metro(&builders::MetroParams::default()),
        1 => builders::metro(&builders::MetroParams {
            core_roadms: 9,
            servers_per_router: 3,
            chords: 4,
            ..builders::MetroParams::default()
        }),
        2 => builders::spine_leaf(2, 4, 3, true, 400.0),
        _ => builders::spine_leaf(4, 6, 2, false, 100.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flat-array SteinerTree accessors (`parent_of`, `children`,
    /// `children_of`) must reproduce the pre-refactor BTreeMap semantics: a
    /// parent map built by BFS-rooting the tree's links and a children map
    /// with one (possibly empty) entry per tree node, children ascending.
    #[test]
    fn steiner_flat_arrays_match_btreemap_reference(
        pick in 0u8..4,
        root_pick in 0usize..1_000,
        picks in proptest::collection::vec(0usize..1_000, 1..8),
    ) {
        use std::collections::{BTreeMap, BTreeSet, VecDeque};
        use flexsched_topo::LinkId;

        let t = scenario_topology(pick);
        let servers = t.servers();
        let root = servers[root_pick % servers.len()];
        let terminals: Vec<NodeId> = picks
            .iter()
            .map(|i| servers[i % servers.len()])
            .filter(|x| *x != root)
            .collect();
        prop_assume!(!terminals.is_empty());
        let st = steiner_tree(&t, root, &terminals, length_weight).unwrap();

        // Reference rooting exactly as the seed implementation did it:
        // BTreeMap adjacency over the tree links, BFS from the root.
        let mut adj: BTreeMap<NodeId, Vec<(NodeId, LinkId)>> = BTreeMap::new();
        for l in &st.links {
            let link = t.link(*l).unwrap();
            adj.entry(link.a).or_default().push((link.b, *l));
            adj.entry(link.b).or_default().push((link.a, *l));
        }
        let mut parent_ref: BTreeMap<NodeId, (NodeId, LinkId)> = BTreeMap::new();
        let mut visited: BTreeSet<NodeId> = BTreeSet::from([root]);
        let mut q = VecDeque::from([root]);
        while let Some(n) = q.pop_front() {
            if let Some(nbrs) = adj.get(&n) {
                for (nbr, l) in nbrs {
                    if visited.insert(*nbr) {
                        parent_ref.insert(*nbr, (n, *l));
                        q.push_back(*nbr);
                    }
                }
            }
        }

        // Node set must be the visited set, ascending.
        let nodes_ref: Vec<NodeId> = visited.iter().copied().collect();
        prop_assert_eq!(&st.nodes, &nodes_ref);

        // parent_of ≡ reference map on every node of the topology.
        for n in t.node_ids() {
            prop_assert_eq!(
                st.parent_of(n),
                parent_ref.get(&n).copied(),
                "parent_of({}) diverged", n
            );
        }

        // children ≡ reference map built the pre-refactor way.
        let mut children_ref: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for n in &st.nodes {
            children_ref.entry(*n).or_default();
        }
        for (child, (parent, _)) in &parent_ref {
            children_ref.entry(*parent).or_default().push(*child);
        }
        prop_assert_eq!(st.children(), children_ref.clone());
        for (n, kids) in &children_ref {
            prop_assert_eq!(st.children_of(*n), kids.as_slice());
        }
    }

    /// A pooled, reused scratch must produce the same Steiner trees as the
    /// allocate-per-call entry point, across repeated builds on one pool.
    #[test]
    fn pooled_steiner_matches_fresh(
        pick in 0u8..4,
        rounds in proptest::collection::vec((0usize..1_000, 0usize..1_000), 1..6),
    ) {
        let t = scenario_topology(pick);
        let servers = t.servers();
        let mut pool = flexsched_topo::algo::ScratchPool::new();
        for (root_pick, term_pick) in rounds {
            let root = servers[root_pick % servers.len()];
            let terminals: Vec<NodeId> = (0..4)
                .map(|k| servers[(term_pick + k * 7) % servers.len()])
                .filter(|x| *x != root)
                .collect();
            prop_assume!(!terminals.is_empty());
            let fresh = steiner_tree(&t, root, &terminals, length_weight).unwrap();
            let pooled = flexsched_topo::algo::steiner_tree_in(
                &t, root, &terminals, length_weight, &mut pool,
            ).unwrap();
            prop_assert_eq!(fresh, pooled);
        }
    }

    /// A reused DijkstraScratch must agree with a fresh shortest-path tree
    /// on distances, parents and reconstructed paths.
    #[test]
    fn scratch_dijkstra_matches_fresh((n, p, seed) in graph_params(), srcs in proptest::collection::vec(0usize..1_000, 1..5)) {
        let t = builders::random_connected(n, p, seed, 100.0);
        let mut scratch = flexsched_topo::algo::DijkstraScratch::new();
        for s in srcs {
            let src = NodeId((s % n) as u32);
            scratch.run(&t, src, length_weight).unwrap();
            let fresh = shortest_path_tree(&t, src, length_weight).unwrap();
            for node in t.node_ids() {
                prop_assert_eq!(scratch.reachable(node), fresh.reachable(node));
                if fresh.reachable(node) {
                    prop_assert_eq!(scratch.cost_to(node), fresh.cost_to(node));
                    prop_assert_eq!(scratch.parent_of(node), fresh.parent[node.index()]);
                    prop_assert_eq!(
                        scratch.path_to(node).unwrap(),
                        fresh.path_to(node).unwrap()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mehlhorn's theorem, pinned: the MST weight of the sparsified
    /// boundary-edge closure equals the MST weight of the complete
    /// all-pairs metric closure, on random connected topologies. This is
    /// the invariant that lets the sparse closure stand in for the complete
    /// one without weakening the 2-approximation guarantee.
    #[test]
    fn sparse_closure_mst_weight_equals_full_closure(
        (n, p, seed) in graph_params(),
        picks in proptest::collection::vec(0usize..1_000, 1..10),
    ) {
        use flexsched_topo::algo::{sparse_closure_mst_weight, UnionFind};

        let t = builders::random_connected(n, p, seed, 100.0);
        let root = NodeId(0);
        let mut terminals: Vec<NodeId> = picks
            .iter()
            .map(|i| NodeId((i % n) as u32))
            .filter(|x| *x != root)
            .collect();
        terminals.sort_unstable();
        terminals.dedup();
        prop_assume!(!terminals.is_empty());

        let sparse = sparse_closure_mst_weight(&t, root, &terminals, length_weight).unwrap();

        // Reference: the complete closure (one Dijkstra per terminal pair
        // via shortest_path), Kruskal over all k² pairs.
        let mut all = vec![root];
        all.extend(terminals.iter().copied());
        let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                let path = shortest_path(&t, all[i], all[j], length_weight).unwrap();
                let cost: f64 = path
                    .links
                    .iter()
                    .map(|l| t.link(*l).unwrap().length_km)
                    .sum();
                pairs.push((cost, i, j));
            }
        }
        pairs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut uf = UnionFind::new(all.len());
        let full: f64 = pairs
            .iter()
            .filter(|(_, i, j)| uf.union(*i, *j))
            .map(|(c, _, _)| c)
            .sum();
        prop_assert!(
            (sparse - full).abs() < 1e-6,
            "sparse closure MST {sparse} != full closure MST {full} (n={n} p={p} seed={seed})"
        );
    }
}

/// The three fabric families a decision runs on: a metro
/// ring, a fat-tree pod fabric, and a (small) continental backbone with
/// one metro ring per NSFNET site.
fn closure_fabric(pick: u8) -> flexsched_topo::Topology {
    match pick % 3 {
        0 => builders::metro(&builders::MetroParams::default()),
        1 => builders::fat_tree(4, 400.0),
        _ => builders::backbone(&builders::BackboneParams {
            metros_per_site: 1,
            metro: builders::MetroParams {
                core_roadms: 4,
                servers_per_router: 2,
                ..builders::MetroParams::default()
            },
            ..builders::BackboneParams::default()
        }),
    }
}

/// Strictly positive synthetic weight in `[1, 10)`, deterministic in
/// `(seed, link index)` (splitmix-style mix).
fn synth_weight(seed: u64, i: usize) -> f64 {
    let mut x = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    1.0 + 9.0 * ((x >> 11) as f64 / (1u64 << 53) as f64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Scratch reuse at fabric scale, pinned: one warm [`ScratchPool`]
    /// solving round after round — weights drifting, links at a few nodes
    /// disabled, the root moving — returns exactly what a from-scratch
    /// [`steiner_tree`] returns on the current weights, tree or
    /// `Disconnected` verdict. Nothing of an earlier pass may survive the
    /// generation bump in a recycled `DijkstraScratch`.
    #[test]
    fn pooled_sparse_equals_fresh_across_weight_deltas(
        pick in 0u8..3,
        seed in 0u64..1_000,
        term_picks in proptest::collection::vec(0usize..100_000, 2..12),
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..100_000, 0.8f64..1.25), 0..6),
                proptest::collection::vec(0usize..100_000, 0..2),
            ),
            3..6,
        ),
    ) {
        use flexsched_topo::algo::{steiner_tree_with_weights_in, ScratchPool};

        let t = closure_fabric(pick);
        let servers = t.servers();
        let terminals: Vec<NodeId> = term_picks
            .iter()
            .map(|i| servers[i % servers.len()])
            .collect();
        let mut weights: Vec<f64> =
            (0..t.link_count()).map(|i| synth_weight(seed, i)).collect();
        let mut warm_pool = ScratchPool::new();

        for (r, (churn, cut)) in rounds.iter().enumerate() {
            for (link_pick, factor) in churn {
                let i = link_pick % t.link_count();
                weights[i] = (weights[i] * factor).clamp(0.5, 20.0);
            }
            // Disabling every link at a node sometimes strands a terminal.
            for node_pick in cut {
                let node = servers[node_pick % servers.len()];
                for &(_, l) in t.neighbors(node).unwrap() {
                    weights[l.index()] = f64::INFINITY;
                }
            }
            let root = servers[(seed as usize + r) % servers.len()];
            let warm = steiner_tree_with_weights_in(
                &t, root, &terminals, &weights, &mut warm_pool,
            );
            let fresh = steiner_tree(&t, root, &terminals, |l| weights[l.id.index()]);
            prop_assert_eq!(&warm, &fresh, "round {}: pooled != from-scratch", r);
        }
    }
}

/// Pendant fabric for the terminal-core differential: a 2-edge-connected
/// base (a ring with chords; with fewer than three base nodes the whole
/// fabric is a tree), then pendant trees of depth 1–3 hung off any node
/// already built, so pendants nest. `twin` adds a node tied to the base by
/// two parallel links, with a leaf below it; `island` adds an unreachable
/// node (1) or a two-node island (2) after everything else.
fn pendant_fabric(
    base: usize,
    chords: &[(usize, usize)],
    pendants: &[(usize, Vec<usize>)],
    twin: bool,
    island: u8,
) -> PendantFabric {
    use flexsched_topo::{NodeKind, Topology};

    let mut t = Topology::new();
    let ring: Vec<NodeId> = (0..base)
        .map(|i| t.add_node(NodeKind::Roadm, format!("b{i}")))
        .collect();
    if base == 2 {
        t.add_link(ring[0], ring[1], 1.0, 100.0).unwrap();
    }
    if base >= 3 {
        for i in 0..base {
            t.add_link(ring[i], ring[(i + 1) % base], 1.0, 100.0)
                .unwrap();
        }
        for (a, b) in chords {
            if a % base != b % base {
                t.add_link(ring[a % base], ring[b % base], 1.0, 100.0)
                    .unwrap();
            }
        }
    }
    for (anchor, parents) in pendants {
        let mut members = vec![(NodeId((anchor % t.node_count()) as u32), 0usize)];
        for (k, pick) in parents.iter().enumerate() {
            let open: Vec<(NodeId, usize)> =
                members.iter().copied().filter(|(_, d)| *d < 3).collect();
            let (parent, depth) = open[pick % open.len()];
            let leaf = t.add_node(NodeKind::Server, format!("p{k}"));
            t.add_link(parent, leaf, 1.0, 100.0).unwrap();
            members.push((leaf, depth + 1));
        }
    }
    let twin = twin.then(|| {
        let d = t.add_node(NodeKind::IpRouter, "twin");
        t.add_link(ring[0], d, 1.0, 100.0).unwrap();
        t.add_link(d, ring[0], 1.0, 100.0).unwrap();
        let below = t.add_node(NodeKind::Server, "below");
        t.add_link(d, below, 1.0, 100.0).unwrap();
        d
    });
    let mainland = t.node_count();
    let island = match island {
        1 => Some(t.add_node(NodeKind::Server, "island")),
        2 => {
            let a = t.add_node(NodeKind::Server, "island-a");
            let b = t.add_node(NodeKind::Server, "island-b");
            t.add_link(a, b, 1.0, 100.0).unwrap();
            Some(b)
        }
        _ => None,
    };
    PendantFabric {
        topo: t,
        twin,
        island,
        mainland,
    }
}

/// Each node's degree over `links`, parallel links counted.
fn core_degrees(
    t: &flexsched_topo::Topology,
    links: impl Iterator<Item = flexsched_topo::LinkId>,
) -> Vec<u32> {
    let mut degree = vec![0; t.node_count()];
    for l in links {
        let link = t.link(l).unwrap();
        degree[link.a.index()] += 1;
        degree[link.b.index()] += 1;
    }
    degree
}

struct PendantFabric {
    topo: flexsched_topo::Topology,
    /// The node tied to the base by two parallel links.
    twin: Option<NodeId>,
    /// A node no other node can reach.
    island: Option<NodeId>,
    /// Nodes `0..mainland` are one connected fabric.
    mainland: usize,
}

/// Per-link weight with ties, zeros and disabled links: 0.0, infinity, 3.0
/// or 4.0, or a continuous draw in `[5, 10)`.
fn tied_weight(seed: u64, i: usize) -> f64 {
    match synth_weight(seed, i) {
        x if x < 2.0 => 0.0,
        x if x < 3.0 => f64::INFINITY,
        x if x < 5.0 => x.floor(),
        x => x,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Solving on the terminal core is exact: pricing every link outside
    /// it at infinity leaves the Steiner construction's result bit for bit
    /// unchanged — nodes, links, parents, children and weight bits — or
    /// both calls fail with the same `Disconnected { to }`. Terminals sit
    /// inside pendant trees, on the base and on an island; weights include
    /// zeros, ties and infinities; a node tied by two parallel links never
    /// peels, and what stays is a fixed point of the peel.
    #[test]
    fn terminal_core_leaves_every_tree_unchanged(
        (base, chords, twin) in (
            1usize..10,
            proptest::collection::vec((0usize..100, 0usize..100), 0..4),
            proptest::bool::ANY,
        ),
        pendants in proptest::collection::vec(
            (0usize..1_000, proptest::collection::vec(0usize..1_000, 1..6)),
            0..6,
        ),
        (island, root_pick, seed) in (0u8..6, 0usize..1_000, 0u64..1_000_000),
        picks in proptest::collection::vec(0usize..1_000, 1..6),
    ) {
        use flexsched_topo::algo::{
            steiner_tree_with_weights_in, terminal_core, CoreBufs, ScratchPool,
        };

        let PendantFabric { topo: t, twin, island, mainland } =
            pendant_fabric(base, &chords, &pendants, twin, island);
        let root = NodeId((root_pick % mainland) as u32);
        let mut terminals: Vec<NodeId> =
            picks.iter().map(|i| NodeId((i % mainland) as u32)).collect();
        terminals.extend(island);

        let mut bufs = CoreBufs::default();
        let core = terminal_core(&t, root, &terminals, &mut bufs).unwrap();
        let mask: Vec<bool> = t.node_ids().map(|v| core.contains(v)).collect();
        prop_assert_eq!(core.len(), mask.iter().filter(|k| **k).count());
        let degree = core_degrees(&t, core.links());
        for v in t.node_ids() {
            let pinned = v == root || terminals.contains(&v);
            prop_assert!(!mask[v.index()] || pinned || degree[v.index()] != 1,
                "core node {} still has degree 1", v);
        }
        if let Some(d) = twin {
            prop_assert!(mask[d.index()], "a node tied by parallel links peeled");
        }

        let full: Vec<f64> = (0..t.link_count()).map(|i| tied_weight(seed, i)).collect();
        let masked: Vec<f64> = t
            .links()
            .iter()
            .map(|l| {
                if mask[l.a.index()] && mask[l.b.index()] {
                    full[l.id.index()]
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let want = steiner_tree_with_weights_in(&t, root, &terminals, &full, &mut ScratchPool::new());
        let got = steiner_tree_with_weights_in(&t, root, &terminals, &masked, &mut ScratchPool::new());
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                prop_assert_eq!(&g.nodes, &w.nodes);
                prop_assert_eq!(&g.links, &w.links);
                for v in t.node_ids() {
                    prop_assert_eq!(g.parent_of(v), w.parent_of(v), "parent of {}", v);
                }
                prop_assert_eq!(g.children(), w.children());
                prop_assert_eq!(g.total_weight.to_bits(), w.total_weight.to_bits());
                prop_assert_eq!(g, w);
            }
            _ => prop_assert_eq!(&got, &want),
        }
    }

    /// The cached core (the topology's pin-free peel plus the pins' chains)
    /// is the core the per-call O(nodes) peel computes (`reference`): the
    /// same core nodes, the same degree inside the core for every node, and
    /// the links between core nodes, each listed once. A pure-tree island
    /// is appended to the pendant fabric, so chains end at the top of a free
    /// tree and are trimmed there. Per fabric, one `CoreBufs` answers four
    /// pin sets in turn: random pins anywhere, the root alone, the root and
    /// every leaf (pins at the bottom of every pendant tree), and every
    /// node.
    #[test]
    fn cached_terminal_core_matches_the_reference_peel(
        (base, chords, twin) in (
            1usize..10,
            proptest::collection::vec((0usize..100, 0usize..100), 0..4),
            proptest::bool::ANY,
        ),
        pendants in proptest::collection::vec(
            (0usize..1_000, proptest::collection::vec(0usize..1_000, 1..6)),
            0..6,
        ),
        (island, tree_island) in (
            0u8..3,
            proptest::collection::vec(0usize..1_000, 0..8),
        ),
        root_pick in 0usize..1_000,
        picks in proptest::collection::vec(0usize..1_000, 0..6),
    ) {
        use flexsched_topo::algo::{terminal_core, CoreBufs, TreeBufs};
        use flexsched_topo::{LinkId, NodeKind};

        let PendantFabric { topo: mut t, .. } =
            pendant_fabric(base, &chords, &pendants, twin, island);
        if !tree_island.is_empty() {
            let mut members = vec![t.add_node(NodeKind::IpRouter, "tree-0")];
            for (k, pick) in tree_island.iter().enumerate() {
                let v = t.add_node(NodeKind::Server, format!("tree-{}", k + 1));
                t.add_link(members[pick % members.len()], v, 1.0, 100.0).unwrap();
                members.push(v);
            }
        }
        let n = t.node_count();
        let root = NodeId((root_pick % n) as u32);
        let leaves: Vec<NodeId> =
            t.node_ids().filter(|v| t.neighbors(*v).unwrap().len() == 1).collect();
        let pin_sets: [Vec<NodeId>; 4] = [
            picks.iter().map(|i| NodeId((i % n) as u32)).collect(),
            Vec::new(),
            leaves,
            t.node_ids().collect(),
        ];

        let mut bufs = CoreBufs::default();
        let mut want = TreeBufs::default();
        for (set, terminals) in pin_sets.iter().enumerate() {
            let kept = reference::terminal_core(&t, root, terminals, &mut want).unwrap();
            let core = terminal_core(&t, root, terminals, &mut bufs).unwrap();
            prop_assert_eq!(core.len(), kept, "pin set {}: core size", set);
            let degree = core_degrees(&t, core.links());
            for v in t.node_ids() {
                prop_assert_eq!(core.contains(v), want.mask[v.index()],
                    "pin set {}: membership of {}", set, v);
                prop_assert_eq!(degree[v.index()], want.counts[v.index()],
                    "pin set {}: degree of {}", set, v);
            }
            let mut links: Vec<LinkId> = core.links().collect();
            links.sort_unstable();
            let between: Vec<LinkId> = t
                .links()
                .iter()
                .filter(|l| want.mask[l.a.index()] && want.mask[l.b.index()])
                .map(|l| l.id)
                .collect();
            prop_assert_eq!(links, between, "pin set {}: core links", set);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The premise that lets the construction skip a subgraph MST and a
    /// leaf prune: the tree it returns has one link fewer than nodes, and
    /// every leaf is the root or a terminal. Fabrics are random graphs with
    /// parallel links added, pendant fabrics (parallel twin links, nested
    /// pendant trees, an island no terminal sits on) and the scheduler's
    /// metros and spine-leafs; weights are strictly positive draws, or
    /// zeros, ties and infinities (which may cut a terminal off: then the
    /// root's own search must not reach it either).
    /// The tree also weighs no more than the union of the root's shortest
    /// paths to the terminals (a tree whose leaves are terminals, so it is
    /// its own prune), which is the fallback candidate.
    #[test]
    fn steiner_expansion_is_a_tree_with_terminal_leaves(
        (pick, sub, seed, tied) in (0u8..3, 0u8..8, 0u64..1_000_000, proptest::bool::ANY),
        (n, p, parallels) in (
            4usize..40,
            0.05f64..0.5,
            proptest::collection::vec(0usize..1_000, 0..6),
        ),
        pendants in proptest::collection::vec(
            (0usize..1_000, proptest::collection::vec(0usize..1_000, 1..6)),
            0..6,
        ),
        root_pick in 0usize..1_000,
        picks in proptest::collection::vec(0usize..100_000, 2..13),
    ) {
        use flexsched_topo::algo::{steiner_tree_with_weights_in, ScratchPool};
        use flexsched_topo::TopoError;
        use std::collections::BTreeSet;

        let (t, mainland) = match pick {
            0 => {
                let mut t = builders::random_connected(n, p, seed, 100.0);
                for i in &parallels {
                    let link = t.links()[i % t.link_count()].clone();
                    t.add_link(link.a, link.b, link.length_km, link.capacity_gbps)
                        .unwrap();
                }
                let n = t.node_count();
                (t, n)
            }
            1 => {
                let chords: Vec<(usize, usize)> =
                    parallels.iter().map(|i| (*i, i / 7)).collect();
                let f = pendant_fabric(n % 10 + 1, &chords, &pendants, sub % 2 == 0, sub % 3);
                (f.topo, f.mainland)
            }
            _ => {
                let t = scenario_topology(sub);
                let n = t.node_count();
                (t, n)
            }
        };
        let weights: Vec<f64> = (0..t.link_count())
            .map(|i| if tied { tied_weight(seed, i) } else { synth_weight(seed, i) })
            .collect();
        let node = |i: usize| NodeId((i % mainland) as u32);
        let root = node(root_pick);
        let terminals: Vec<NodeId> = picks.iter().map(|i| node(*i)).collect();

        let got = steiner_tree_with_weights_in(&t, root, &terminals, &weights, &mut ScratchPool::new());
        let spt = shortest_path_tree(&t, root, |l| weights[l.id.index()]).unwrap();
        let st = match got {
            Err(TopoError::Disconnected { to, .. }) => {
                prop_assert!(!spt.reachable(to), "{} reachable, yet Disconnected", to);
                return Ok(());
            }
            other => other.unwrap(),
        };
        prop_assert!(st.spans_all_terminals());
        prop_assert_eq!(st.links.len() + 1, st.nodes.len(), "the links are no tree");
        let mut degree = vec![0u32; t.node_count()];
        for l in &st.links {
            let link = t.link(*l).unwrap();
            degree[link.a.index()] += 1;
            degree[link.b.index()] += 1;
        }
        for v in &st.nodes {
            prop_assert!(
                degree[v.index()] != 1 || *v == root || terminals.contains(v),
                "leaf {} is neither the root nor a terminal", v
            );
        }

        let mut union_links = BTreeSet::new();
        for term in &terminals {
            union_links.extend(spt.path_to(*term).unwrap().links);
        }
        let union_weight: f64 = union_links.iter().map(|l| weights[l.index()]).sum();
        prop_assert!(st.total_weight <= union_weight,
            "steiner {} > shortest-path union {}", st.total_weight, union_weight);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Steiner heuristic against the exact optimum (Dreyfus–Wagner,
    /// `reference`), on metros, spine-leafs and pendant fabrics (some with
    /// a terminal on an island) with at most eight pins, root included, and
    /// zero, tied and infinite weights:
    /// - the tree weighs at most 2(1 − 1/k)·OPT for k distinct pins
    ///   (Mehlhorn, IPL 1988; the bound holds with the optimum's leaf
    ///   count, which is at most k);
    /// - pricing every link outside the terminal core at infinity leaves
    ///   OPT unchanged (the degree-1 reduction is exact);
    /// - `Disconnected` comes back exactly when no tree exists.
    #[test]
    fn steiner_tree_within_twice_the_optimum(
        (pick, sub, seed, tied) in (0u8..2, 0u8..8, 0u64..1_000_000, proptest::bool::ANY),
        (base, chords) in (
            1usize..10,
            proptest::collection::vec((0usize..100, 0usize..100), 0..4),
        ),
        pendants in proptest::collection::vec(
            (0usize..1_000, proptest::collection::vec(0usize..1_000, 1..6)),
            0..6,
        ),
        root_pick in 0usize..1_000,
        picks in proptest::collection::vec(0usize..100_000, 1..7),
    ) {
        use flexsched_topo::algo::{
            steiner_tree_with_weights_in, terminal_core, CoreBufs, ScratchPool,
        };
        use flexsched_topo::TopoError;

        let (t, mainland, island) = match pick {
            0 => {
                let f = pendant_fabric(base, &chords, &pendants, sub % 2 == 0, sub % 3);
                (f.topo, f.mainland, f.island)
            }
            _ => {
                let t = scenario_topology(sub);
                let n = t.node_count();
                (t, n, None)
            }
        };
        let weights: Vec<f64> = (0..t.link_count())
            .map(|i| if tied { tied_weight(seed, i) } else { synth_weight(seed, i) })
            .collect();
        let node = |i: usize| NodeId((i % mainland) as u32);
        let root = node(root_pick);
        let mut terminals: Vec<NodeId> = picks.iter().map(|i| node(*i)).collect();
        // Now and then a terminal no other node reaches.
        if seed % 4 == 0 {
            terminals.extend(island);
        }

        let opt = reference::steiner_optimum(&t, root, &terminals, &weights);
        let got = steiner_tree_with_weights_in(&t, root, &terminals, &weights, &mut ScratchPool::new());
        let Some(opt) = opt else {
            prop_assert!(matches!(got, Err(TopoError::Disconnected { .. })),
                "no tree exists, yet the heuristic returned {:?}", got);
            return Ok(());
        };
        let st = got.unwrap();
        let weight: f64 = st.links.iter().map(|l| weights[l.index()]).sum();
        let mut pins = terminals.clone();
        pins.push(root);
        pins.sort_unstable();
        pins.dedup();
        let bound = 2.0 * (1.0 - 1.0 / pins.len() as f64) * opt;
        prop_assert!(weight <= bound + 1e-9 * (1.0 + opt),
            "tree {} > 2(1 - 1/{})·OPT = {} (OPT {})", weight, pins.len(), bound, opt);

        let mut bufs = CoreBufs::default();
        let core = terminal_core(&t, root, &terminals, &mut bufs).unwrap();
        let masked: Vec<f64> = t
            .links()
            .iter()
            .map(|l| {
                if core.contains(l.a) && core.contains(l.b) {
                    weights[l.id.index()]
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let on_core = reference::steiner_optimum(&t, root, &terminals, &masked);
        prop_assert!(on_core.is_some_and(|c| (c - opt).abs() <= 1e-9 * (1.0 + opt)),
            "OPT on the terminal core {:?} != OPT {}", on_core, opt);
    }
}
