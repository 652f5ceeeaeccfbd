//! Property-based tests for the schedulers.

mod reference;

use flexsched_compute::{ClusterManager, ModelProfile, ServerSpec};
use flexsched_optical::{softfail, OpticalState, SoftFailure, WavelengthId};
use flexsched_sched::evaluate::{evaluate_schedule_in, EvalScratch};
use flexsched_sched::reschedule::{consider_in, ConsiderWorkspace};
use flexsched_sched::{
    evaluate_schedule, FixedSpff, FlexibleMst, NetworkSnapshot, ReschedulePolicy,
    RescheduleVerdict, RoutingPlan, SchedError, Schedule, Scheduler,
};
use flexsched_simnet::{DirLink, NetworkState, Transport};
use flexsched_task::{AiTask, TaskId};
use flexsched_topo::algo::{ScratchPool, SteinerTree};
use flexsched_topo::{builders, Direction, LinkId, NodeId, NodeKind, Path, Topology};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

fn make_task(topo: &flexsched_topo::Topology, n_locals: usize, seed: u64) -> AiTask {
    let servers = topo.servers();
    let g = servers[(seed as usize) % servers.len()];
    let mut locals = Vec::new();
    let mut i = seed as usize + 1;
    while locals.len() < n_locals {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every local selected must appear in the broadcast and upload plans,
    /// with routes that actually connect the global site to it.
    #[test]
    fn schedules_cover_all_selected_locals(n in 1usize..16, seed in 0u64..200) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let state = NetworkState::new(Arc::clone(&topo));
        let task = make_task(&topo, n, seed);
        let snap = NetworkSnapshot::capture(&state);
        for sched in [&FixedSpff as &dyn Scheduler, &FlexibleMst::paper()] {
            let s = sched.propose_once(&task, &task.local_sites, &snap).unwrap().schedule;
            match &s.broadcast {
                RoutingPlan::Paths(m) => {
                    for local in &task.local_sites {
                        let rp = &m[local];
                        prop_assert_eq!(rp.path.source(), task.global_site);
                        prop_assert_eq!(rp.path.destination(), *local);
                        rp.path.validate(&topo).unwrap();
                    }
                }
                RoutingPlan::Tree { tree, .. } => {
                    for local in &task.local_sites {
                        let p = tree.path_from_root(*local).unwrap();
                        prop_assert_eq!(p.destination(), *local);
                        p.validate(&topo).unwrap();
                    }
                }
            }
        }
    }

    /// The flexible scheduler never consumes more bandwidth than the fixed
    /// baseline for the same task (the Figure-3b dominance).
    #[test]
    fn flexible_bandwidth_dominates(n in 2usize..16, seed in 0u64..200) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let state = NetworkState::new(Arc::clone(&topo));
        let task = make_task(&topo, n, seed);
        let snap = NetworkSnapshot::capture(&state);
        let fixed = FixedSpff.propose_once(&task, &task.local_sites, &snap).unwrap().schedule;
        let flex = FlexibleMst::paper().propose_once(&task, &task.local_sites, &snap).unwrap().schedule;
        let bx = fixed.total_bandwidth_gbps(&topo).unwrap();
        let bf = flex.total_bandwidth_gbps(&topo).unwrap();
        prop_assert!(bf <= bx + 1e-6, "flexible {bf} > fixed {bx} at n={n}");
    }

    /// Applying then releasing any schedule leaves the network untouched,
    /// and the applied amount matches the schedule's own accounting.
    #[test]
    fn apply_release_conservation(n in 1usize..14, seed in 0u64..200, flex in proptest::bool::ANY) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let mut state = NetworkState::new(Arc::clone(&topo));
        let task = make_task(&topo, n, seed);
        let s = {
            let snap = NetworkSnapshot::capture(&state);
            if flex {
                FlexibleMst::paper().propose_once(&task, &task.local_sites, &snap).unwrap().schedule
            } else {
                FixedSpff.propose_once(&task, &task.local_sites, &snap).unwrap().schedule
            }
        };
        s.apply(&mut state).unwrap();
        let reserved = state.total_reserved_gbps();
        let accounted = s.total_bandwidth_gbps(&topo).unwrap();
        prop_assert!((reserved - accounted).abs() < 1e-6,
            "reserved {reserved} != accounted {accounted}");
        s.release(&mut state).unwrap();
        prop_assert!(state.total_reserved_gbps().abs() < 1e-9);
    }

    /// Evaluation is deterministic and all its latency components positive.
    #[test]
    fn evaluation_is_deterministic(n in 1usize..12, seed in 0u64..100) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let mut state = NetworkState::new(Arc::clone(&topo));
        let cluster = ClusterManager::from_topology(&topo, ServerSpec::default());
        let task = make_task(&topo, n, seed);
        let s = {
            let snap = NetworkSnapshot::capture(&state);
            FlexibleMst::paper().propose_once(&task, &task.local_sites, &snap).unwrap().schedule
        };
        s.apply(&mut state).unwrap();
        let a = evaluate_schedule(&task, &s, &state, &cluster, &Transport::tcp()).unwrap();
        let b = evaluate_schedule(&task, &s, &state, &cluster, &Transport::tcp()).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert!(a.broadcast_ns > 0);
        prop_assert!(a.upload_ns > 0);
        prop_assert!(a.iteration_ns() >= a.training_ns);
    }

    /// Tree reservations never exceed residual capacity at apply time, for
    /// sequences of tasks applied one after another.
    #[test]
    fn sequential_tasks_never_oversubscribe(
        seeds in proptest::collection::vec(0u64..400, 1..8)
    ) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let mut state = NetworkState::new(Arc::clone(&topo));
        let mut applied = Vec::new();
        for (i, seed) in seeds.iter().enumerate() {
            let task = make_task(&topo, 4 + (i % 8), *seed);
            let res = {
                let snap = NetworkSnapshot::capture(&state);
                FlexibleMst::paper().propose_once(&task, &task.local_sites, &snap)
            };
            if let Ok(p) = res {
                let s = p.schedule;
                // apply may legitimately fail only by Blocked-style races,
                // but never corrupt state.
                if s.apply(&mut state).is_ok() {
                    applied.push(s);
                }
            }
            // Invariant: no directed link oversubscribed.
            for l in topo.link_ids() {
                for dir in [flexsched_topo::Direction::AtoB, flexsched_topo::Direction::BtoA] {
                    let dl = flexsched_simnet::DirLink::new(l, dir);
                    let u = state.usage(dl).unwrap();
                    let cap = topo.link(l).unwrap().capacity_gbps;
                    prop_assert!(u.occupied_gbps() <= cap + 1e-6,
                        "link {l} oversubscribed: {} > {cap}", u.occupied_gbps());
                }
            }
        }
        for s in applied {
            s.release(&mut state).unwrap();
        }
        prop_assert!(state.total_reserved_gbps().abs() < 1e-6);
    }
}

/// The two fabrics of the differential tests: the paper's metro-15 and a
/// 2 000-link backbone (built once per process).
fn fabric(backbone: bool) -> Arc<Topology> {
    static METRO: OnceLock<Arc<Topology>> = OnceLock::new();
    static BACKBONE: OnceLock<Arc<Topology>> = OnceLock::new();
    let (slot, build): (_, fn() -> Topology) = if backbone {
        (&BACKBONE, || {
            builders::backbone(&builders::BackboneParams::default().with_target_links(2_000))
        })
    } else {
        (
            &METRO,
            || builders::metro(&builders::MetroParams::default()),
        )
    };
    Arc::clone(slot.get_or_init(|| Arc::new(build())))
}

/// The policies the drivers run, plus the no-aggregation ablation (upload
/// edges above a branch carry more than one copy).
fn policy(which: usize) -> Box<dyn Scheduler> {
    match which {
        0 => Box::new(FlexibleMst::paper()),
        1 => Box::new(FlexibleMst::default()),
        2 => Box::new(FixedSpff),
        _ => Box::new(FlexibleMst::without_aggregation()),
    }
}

/// Live state of one differential case.
struct Live {
    topo: Arc<Topology>,
    net: NetworkState,
    optical: OpticalState,
    cluster: ClusterManager,
}

impl Live {
    fn new(topo: Arc<Topology>) -> Self {
        Live {
            net: NetworkState::new(Arc::clone(&topo)),
            optical: OpticalState::new(Arc::clone(&topo)),
            cluster: ClusterManager::from_topology(&topo, ServerSpec::default()),
            topo,
        }
    }

    /// Propose `task` against the current state and reserve the result.
    fn admit(&mut self, sched: &dyn Scheduler, task: &AiTask) -> Option<Schedule> {
        let snap = NetworkSnapshot::capture(&self.net).with_optical(&self.optical);
        let s = sched
            .propose_once(task, &task.local_sites, &snap)
            .ok()?
            .schedule;
        s.apply(&mut self.net).ok()?;
        Some(s)
    }

    /// One random change of the world. Kinds 0 and 3 aim at `target`'s own
    /// links (the repair path) — its ROADM-to-ROADM spans when it has any:
    /// a ring span has a detour, a single-homed access link leaves nothing
    /// to repair. Kind 5 spectrally kills every link of one of `target`'s
    /// terminals. The others land anywhere.
    fn perturb(&mut self, kind: u8, pick: u64, gbps: f64, target: &Schedule) {
        let ring_span = |l: &LinkId| {
            let link = self.topo.link(*l).unwrap();
            [link.a, link.b]
                .iter()
                .all(|n| self.topo.node(*n).unwrap().kind == NodeKind::Roadm)
        };
        let mut own: Vec<LinkId> = target
            .reservations(&self.topo)
            .unwrap()
            .into_iter()
            .map(|(dl, _)| dl.link)
            .collect();
        if own.iter().any(ring_span) {
            own.retain(ring_span);
        }
        let any = LinkId((pick % self.topo.link_count() as u64) as u32);
        let mine = own[(pick % own.len() as u64) as usize];
        let grid = |l: LinkId| self.topo.link(l).unwrap().wavelengths.max(1);
        match kind {
            0 => self.net.set_down(mine, true).unwrap(),
            1 => self.net.set_down(any, !self.net.is_down(any)).unwrap(),
            2 => {
                let dir = if pick & 1 == 0 {
                    Direction::AtoB
                } else {
                    Direction::BtoA
                };
                self.net
                    .add_background(DirLink::new(any, dir), gbps)
                    .unwrap();
            }
            3 => {
                // Every other failure takes the whole grid: a spectrally
                // dead fiber on a link that is up at the IP layer.
                let severity = if pick & 1 == 0 {
                    grid(mine)
                } else {
                    (pick % u64::from(grid(mine))) as u16
                };
                softfail::apply(
                    &mut self.optical,
                    SoftFailure {
                        link: mine,
                        severity,
                    },
                )
                .unwrap();
            }
            4 => {
                // Light one wavelength on one fiber (and groom onto it).
                let link = self.topo.link(any).unwrap();
                let hop = Path::new(vec![link.a, link.b], vec![any]).unwrap();
                let w = WavelengthId((pick % u64::from(grid(any))) as u16);
                if let Ok(id) = self.optical.establish_on(hop, w) {
                    let _ = self.optical.add_groomed(id, gbps.min(10.0));
                }
            }
            _ => {
                // Impair the whole grid of every link of one terminal: up
                // at the IP layer, but with no free wavelength left.
                let terminals: Vec<NodeId> = std::iter::once(target.global_site)
                    .chain(target.selected_locals.iter().copied())
                    .collect();
                let site = terminals[(pick % terminals.len() as u64) as usize];
                for &(_, l) in self.topo.neighbors(site).unwrap() {
                    let severity = grid(l);
                    softfail::apply(&mut self.optical, SoftFailure { link: l, severity }).unwrap();
                }
            }
        }
    }
}

/// The first of `schedule`'s selected locals that no path of up links
/// joins to its global site — found by a search of its own, not the one
/// `consider_in` runs.
fn first_cut_local(net: &NetworkState, schedule: &Schedule) -> Option<NodeId> {
    let topo = net.topo();
    let mut seen = vec![false; topo.node_count()];
    let mut stack = vec![schedule.global_site];
    seen[schedule.global_site.index()] = true;
    while let Some(v) = stack.pop() {
        for &(u, l) in topo.neighbors(v).unwrap() {
            if !net.is_down(l) && !seen[u.index()] {
                seen[u.index()] = true;
                stack.push(u);
            }
        }
    }
    schedule
        .selected_locals
        .iter()
        .copied()
        .find(|t| !seen[t.index()])
}

/// The first electrical terminal of `schedule` — its global site, then
/// its selected locals — with no incident link that is up and can carry
/// the demand optically, when the plan spans more than one node. Written
/// from `is_down` / `can_carry` here, not taken from `consider_in`.
fn first_isolated_terminal(
    net: &NetworkState,
    optical: &OpticalState,
    schedule: &Schedule,
) -> Option<NodeId> {
    let topo = net.topo();
    let global = schedule.global_site;
    if schedule.selected_locals.iter().all(|t| *t == global) {
        return None;
    }
    std::iter::once(global)
        .chain(schedule.selected_locals.iter().copied())
        .find(|t| {
            topo.node(*t).unwrap().kind != NodeKind::Roadm
                && topo
                    .neighbors(*t)
                    .unwrap()
                    .iter()
                    .all(|&(_, l)| net.is_down(l) || !optical.can_carry(l, schedule.demand_gbps))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `consider` ≡ the pre-workspace reference, verdict for verdict: kind,
    /// savings, bandwidth delta, repair delta and the whole proposal —
    /// schedule, claims, snapshot versions — compared through `Debug`
    /// (exact for `f64`). One
    /// workspace and one scratch pool per side live across the whole case,
    /// and migrations are installed, so a buffer that keeps anything from
    /// an earlier consideration shows up as a diverging later one.
    ///
    /// The one exception is step 0 of `consider_in`. When down links cut a
    /// selected local off from the global site, `consider` answers
    /// `Unreachable` for the first such local; otherwise, when an
    /// electrical terminal has no incident link that is up and can carry
    /// the demand, it answers `Unreachable` for the first such terminal.
    /// The reference — which has neither rule — must fail as well. Kinds 0
    /// and 1 down ring spans and access links, and kinds 3 and 5
    /// spectrally kill them, so cases cover both sides of both rules.
    #[test]
    fn consider_matches_reference(
        backbone in proptest::bool::ANY,
        (which, n, seed) in (0usize..3, 2usize..10, 0u64..400),
        others in proptest::collection::vec((0u64..400, 2usize..8), 0..4),
        steps in proptest::collection::vec((0u8..6, 0u64..100_000, 1.0f64..80.0), 1..6),
        (knobs, remaining) in (0u8..8, 1u32..40),
    ) {
        let mut live = Live::new(fabric(backbone));
        let sched = policy(which);
        for (other_seed, k) in &others {
            let other = make_task(&live.topo, *k, *other_seed);
            let _ = live.admit(&FlexibleMst::paper(), &other);
        }
        let task = make_task(&live.topo, n, seed);
        let Some(mut current) = live.admit(&*sched, &task) else {
            return Ok(()); // the preload blocked the task under test
        };
        let policy = ReschedulePolicy {
            interruption_ns: if knobs & 1 == 0 { 5_000_000 } else { 1_000 },
            threshold: if knobs & 2 == 0 { 1.5 } else { 1.0 },
            prefer_repair: knobs & 4 == 0,
            ..ReschedulePolicy::default()
        };
        let mut repairs = 0u32;
        let mut ws = ConsiderWorkspace::default();
        let (mut pool, mut ref_pool) = (ScratchPool::new(), ScratchPool::new());
        for (kind, pick, gbps) in steps {
            live.perturb(kind, pick, gbps, &current);
            let got = consider_in(
                &mut ws, &policy, &*sched, &task, &current, remaining, repairs, 0,
                &live.net, Some(&live.optical), &live.cluster, &Transport::tcp(), &mut pool,
            );
            let want = reference::consider(
                &policy, &*sched, &task, &current, remaining, repairs, 0,
                &live.net, Some(&live.optical), &live.cluster, &Transport::tcp(), &mut ref_pool,
            );
            let unreachable = first_cut_local(&live.net, &current)
                .or_else(|| first_isolated_terminal(&live.net, &live.optical, &current));
            match unreachable {
                Some(site) => {
                    prop_assert!(
                        matches!(&got, Err(SchedError::Unreachable { task: t, site: s })
                            if *t == task.id && *s == site),
                        "{site} is unreachable, yet consider says {got:?}"
                    );
                    prop_assert!(want.is_err(), "{site} is unreachable, yet the reference says {want:?}");
                }
                None => prop_assert_eq!(format!("{got:?}"), format!("{want:?}")),
            }
            // Install a migration the way the committer would, so later
            // steps reconsider the repaired / re-solved schedule.
            if let Ok(RescheduleVerdict::Migrate { new_proposal, repair_delta, .. }) = got {
                current.release(&mut live.net).unwrap();
                if new_proposal.schedule.apply(&mut live.net).is_ok() {
                    current = new_proposal.schedule;
                    repairs = if repair_delta.is_some() { repairs + 1 } else { 0 };
                } else {
                    current.apply(&mut live.net).unwrap();
                }
            }
        }
    }

    /// `evaluate_schedule` ≡ the pre-pooling reference, field for field, on
    /// every installed schedule after every change of the world, through
    /// one reused set of buffers.
    #[test]
    fn evaluate_matches_reference(
        backbone in proptest::bool::ANY,
        which in 0usize..4,
        n in 1usize..12,
        seed in 0u64..400,
        others in proptest::collection::vec((0u64..400, 1usize..10, 0usize..4), 0..4),
        steps in proptest::collection::vec((0u8..5, 0u64..100_000, 1.0f64..80.0), 0..5),
    ) {
        let mut live = Live::new(fabric(backbone));
        let mut installed: Vec<(AiTask, Schedule)> = Vec::new();
        for (other_seed, k, other_policy) in &others {
            let other = make_task(&live.topo, *k, *other_seed);
            if let Some(s) = live.admit(&*policy(*other_policy), &other) {
                installed.push((other, s));
            }
        }
        let task = make_task(&live.topo, n, seed);
        let Some(s) = live.admit(&*policy(which), &task) else {
            return Ok(());
        };
        // Containers on the task's sites, so training sees colocation.
        for site in &task.local_sites {
            let local = flexsched_compute::server::ResourceRequest::local_model();
            let _ = live.cluster.place_task(task.id.0, vec![(*site, local)]);
        }
        installed.push((task, s));
        let mut bufs = EvalScratch::default();
        let mut steps = steps.into_iter();
        loop {
            for (t, s) in &installed {
                let got = evaluate_schedule_in(
                    &mut bufs, t, s, &live.net, &live.cluster, &Transport::tcp(),
                ).unwrap();
                let want = reference::evaluate_schedule(
                    t, s, &live.net, &live.cluster, &Transport::tcp(),
                ).unwrap();
                prop_assert_eq!(got.bandwidth_gbps.to_bits(), want.bandwidth_gbps.to_bits());
                prop_assert_eq!(&got, &want);
                let fresh = evaluate_schedule(t, s, &live.net, &live.cluster, &Transport::tcp());
                prop_assert_eq!(&fresh.unwrap(), &want);
            }
            let Some((kind, pick, gbps)) = steps.next() else {
                break;
            };
            let target = &installed[(pick % installed.len() as u64) as usize].1;
            live.perturb(kind, pick, gbps, target);
        }
    }
}

/// The tree plans of `schedule` walked with node-keyed copies
/// ([`reference`]) give bit for bit its `reservations` and
/// `aggregated_reservations`.
fn assert_node_keyed_reservations(
    schedule: &Schedule,
    topo: &Topology,
) -> Result<(), TestCaseError> {
    let bits = |r: Vec<(DirLink, f64)>| -> Vec<(DirLink, u64)> {
        r.into_iter().map(|(dl, g)| (dl, g.to_bits())).collect()
    };
    prop_assert_eq!(
        bits(schedule.reservations(topo).unwrap()),
        bits(reference::reservations(schedule, topo).unwrap())
    );
    prop_assert_eq!(
        bits(schedule.aggregated_reservations(topo).unwrap()),
        bits(reference::aggregated_reservations(schedule, topo).unwrap())
    );
    Ok(())
}

/// The two trees and the uniform rate of a flexible schedule.
fn trees_and_rate(s: &Schedule) -> (&SteinerTree, &SteinerTree, &[u32], f64) {
    let (
        RoutingPlan::Tree {
            tree: b,
            rate_gbps,
            copies: bc,
        },
        RoutingPlan::Tree {
            tree: u, copies, ..
        },
    ) = (&s.broadcast, &s.upload)
    else {
        panic!("flexible schedules carry tree plans");
    };
    assert!(bc.is_empty(), "the broadcast tree is multicast");
    (b, u, copies, *rate_gbps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Copies indexed by tree position are the node-keyed copies they
    /// replaced: on random metro decisions with one ring fiber down and
    /// background load that squeezes some links of the running schedule
    /// and of the rings to near the demand (so rates bind where copy counts
    /// differ), the
    /// schedules of `FlexibleMst::paper()` and `FlexibleMst::default()` and
    /// the repair of the running schedule reserve, aggregate and rate
    /// bit-equal to the reference walks.
    #[test]
    fn positional_copies_match_the_node_keyed_walks(
        n in 2usize..14,
        seed in 0u64..400,
        squeezes in proptest::collection::vec((0u64..100_000, 0.3f64..3.0), 1..16),
        cut in 0u64..1_000,
    ) {
        let topo = fabric(false);
        let mut net = NetworkState::new(Arc::clone(&topo));
        let task = make_task(&topo, n, seed);
        let demand = task.demand_gbps();
        let paper = FlexibleMst::paper();
        // The running schedule, proposed on an idle fabric and installed.
        let current = paper
            .propose_once(&task, &task.local_sites, &NetworkSnapshot::capture(&net))
            .unwrap()
            .schedule;
        current.apply(&mut net).unwrap();
        let ring_span = |l: &LinkId| {
            let link = topo.link(*l).unwrap();
            [link.a, link.b].iter().all(|v| topo.node(*v).unwrap().kind == NodeKind::Roadm)
        };
        // Squeezed: the schedule's own links and every ring span, where
        // the repair's grafts run.
        let mut links = Vec::new();
        current.links_into(&mut links);
        let squeezable: Vec<LinkId> = links
            .iter()
            .copied()
            .chain(topo.link_ids().filter(ring_span))
            .collect();
        for (pick, factor) in squeezes {
            let l = squeezable[(pick % squeezable.len() as u64) as usize];
            for dir in [Direction::AtoB, Direction::BtoA] {
                let dl = DirLink::new(l, dir);
                let squeeze = net.residual_gbps(dl).unwrap() - demand * factor;
                if squeeze > 0.0 {
                    net.add_background(dl, squeeze).unwrap();
                }
            }
        }
        // One ROADM-to-ROADM fiber of its trees goes down: the rings keep
        // a detour, so the repair has work to do.
        links.retain(ring_span);
        if links.is_empty() {
            return Err(TestCaseError::Reject("no ring span".into()));
        }
        net.set_down(links[(cut % links.len() as u64) as usize], true).unwrap();
        let snap = NetworkSnapshot::capture(&net);

        for sched in [FlexibleMst::paper(), FlexibleMst::default()] {
            let Ok(p) = sched.propose_once(&task, &task.local_sites, &snap) else {
                continue;
            };
            assert_node_keyed_reservations(&p.schedule, &topo)?;
            let (b, u, copies, rate) = trees_and_rate(&p.schedule);
            let want = reference::feasible_rate(&net, b, &BTreeMap::new(), demand).min(
                reference::feasible_rate(&net, u, &reference::keyed_copies(u, copies), demand),
            );
            prop_assert_eq!(rate.to_bits(), want.to_bits(), "{} rate", sched.name());
        }

        if let Ok(Some(rp)) =
            paper.propose_repair(&task, &current, &snap, &mut ScratchPool::new())
        {
            let repaired = &rp.proposal.schedule;
            assert_node_keyed_reservations(repaired, &topo)?;
            let credit = reference::aggregated_reservations(&current, &topo).unwrap();
            let (b, u, copies, rate) = trees_and_rate(repaired);
            let rated = |tree, copies: &BTreeMap<NodeId, u32>, up| {
                reference::feasible_rate_with_credit(&net, tree, copies, demand, &credit, up)
                    .unwrap()
            };
            let want = rated(b, &BTreeMap::new(), false)
                .min(rated(u, &reference::keyed_copies(u, copies), true));
            prop_assert_eq!(rate.to_bits(), want.to_bits(), "repaired rate");
        }
    }
}
