//! Typed-conflict coverage for the migration intents.
//!
//! PR 2's tests exercised every [`Conflict`] variant through the *install*
//! path; the migration path only had happy-path coverage. These tests
//! drive every variant through [`Committer::apply`] with
//! [`Intent::migrate`] / [`Intent::migrate_speculated`] and pin the repair
//! pipeline's contract: a rejected migration leaves the database
//! bit-identical — validation (with the old schedule's reservations
//! credited) runs before any rule is touched, so not even a version stamp
//! moves. The `repair_*` tests hold [`Intent::repair`] to the same
//! contract and to its delta-scoping: a foreign write on the claims delta
//! or the read region rejects it, one on an unchanged tree link does not.
//!
//! The last two tests are the (formerly `#[ignore]`d) read-footprint gap
//! witnesses: with read regions recorded in every proposal, a commit on a
//! link a decision merely *consulted* now rejects the stale speculation on
//! both the admission and the migration paths.

use flexsched_compute::{ClusterManager, ModelProfile, ServerSpec};
use flexsched_optical::{OpticalState, WavelengthPolicy};
use flexsched_orchestrator::{Committer, Conflict, Database, Intent, OrchError};
use flexsched_sched::{FlexibleMst, Proposal, RepairProposal, Scheduler};
use flexsched_simnet::{DirLink, NetworkState};
use flexsched_task::{AiTask, TaskId};
use flexsched_topo::algo::ScratchPool;
use flexsched_topo::{builders, Direction, LinkId, NodeId, NodeKind, Path};
use std::sync::Arc;

fn rig() -> (Database, AiTask) {
    let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
    let db = Database::new(
        NetworkState::new(Arc::clone(&topo)),
        OpticalState::new(Arc::clone(&topo)),
        ClusterManager::from_topology(&topo, ServerSpec::default()),
    );
    let servers = topo.servers();
    let task = AiTask {
        id: TaskId(0),
        model: ModelProfile::mobilenet(),
        global_site: servers[0],
        local_sites: servers[1..=8].to_vec(),
        data_utility: Default::default(),
        iterations: 3,
        comm_budget_ms: 10.0,
        arrival_ns: 0,
        class: Default::default(),
    };
    (db, task)
}

/// Propose for `locals` of the task's sites against the live snapshot
/// (claims carry live stamps — what the repair path produces).
fn propose_live(db: &Database, task: &AiTask, locals: usize) -> Proposal {
    let snap = db.snapshot();
    FlexibleMst::paper()
        .propose_once(task, &task.local_sites[..locals], &snap)
        .unwrap()
}

/// Install a 3-local schedule, then build a wider live replacement whose
/// claims include links the old schedule does not cover.
fn committed_pair(db: &Database, task: &AiTask) -> (Committer, Proposal, Proposal) {
    let mut committer = Committer::new();
    let p1 = propose_live(db, task, 3);
    committer.apply(db, Intent::admit(&p1)).unwrap();
    let p2 = propose_live(db, task, 8);
    (committer, p1, p2)
}

/// A link claimed by `p` but not reserved by `old` — sabotage target whose
/// damage the old schedule's credit cannot repair.
fn fresh_claimed_link(old: &Proposal, p: &Proposal) -> LinkId {
    let old_footprint = old.claims.footprint();
    p.claims
        .links
        .iter()
        .map(|c| c.link.link)
        .find(|l| !old_footprint.contains(l))
        .expect("wider schedule claims links beyond the old footprint")
}

fn world_fmt(db: &Database) -> (String, String) {
    db.read(|net, opt, _| (format!("{net:?}"), format!("{opt:?}")))
}

/// Assert `migrate` (or strict `migrate_speculated`) rejects with the
/// expected conflict and leaves both layers bit-identical.
fn assert_rejected(
    db: &Database,
    committer: &mut Committer,
    old: &Proposal,
    p: &Proposal,
    strict: bool,
    check: impl Fn(&Conflict) -> bool,
) {
    let intent = if strict {
        Intent::migrate_speculated(&old.schedule, p)
    } else {
        Intent::migrate(&old.schedule, p)
    };
    assert_intent_rejected(db, committer, intent, check);
}

/// Assert `intent` (replacing an installed schedule) rejects with the
/// expected conflict and leaves both layers bit-identical.
fn assert_intent_rejected(
    db: &Database,
    committer: &mut Committer,
    intent: Intent<'_>,
    check: impl Fn(&Conflict) -> bool,
) {
    let (Intent::Migrate { old, .. } | Intent::Repair { old, .. }) = intent else {
        panic!("an admission replaces nothing");
    };
    let before = world_fmt(db);
    let (commits_before, rejections_before) = committer.counters();
    let outcome = committer.apply(db, intent);
    match outcome {
        Err(OrchError::Rejected(c)) => assert!(check(&c), "unexpected conflict: {c}"),
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    let after = world_fmt(db);
    assert_eq!(
        before.0, after.0,
        "NetworkState changed on rejected migrate"
    );
    assert_eq!(
        before.1, after.1,
        "OpticalState changed on rejected migrate"
    );
    assert_eq!(
        committer.counters(),
        (commits_before, rejections_before + 1)
    );
    // The old schedule's rules are still installed — the task kept running.
    assert!(committer.sdn().rules_of(old.task).is_some());
}

#[test]
fn migrate_link_down_is_typed_and_mutation_free() {
    let (db, task) = rig();
    let (mut committer, p1, p2) = committed_pair(&db, &task);
    let victim = fresh_claimed_link(&p1, &p2);
    db.write(|net, _, _| net.set_down(victim, true).unwrap());
    assert_rejected(
        &db,
        &mut committer,
        &p1,
        &p2,
        false,
        |c| matches!(c, Conflict::LinkDown { link } if *link == victim),
    );
}

#[test]
fn migrate_stale_link_is_typed_and_credit_cannot_save_fresh_links() {
    let (db, task) = rig();
    let (mut committer, p1, p2) = committed_pair(&db, &task);
    // Fill a link the old schedule does not reserve on: no credit there.
    let victim = fresh_claimed_link(&p1, &p2);
    db.write(|net, _, _| {
        for dir in [
            flexsched_topo::Direction::AtoB,
            flexsched_topo::Direction::BtoA,
        ] {
            let dl = flexsched_simnet::DirLink::new(victim, dir);
            let res = net.residual_gbps(dl).unwrap();
            net.add_background(dl, res).unwrap();
        }
    });
    assert_rejected(
        &db,
        &mut committer,
        &p1,
        &p2,
        false,
        |c| matches!(c, Conflict::StaleLink { link, .. } if *link == victim),
    );
}

#[test]
fn migrate_credits_the_old_reservations() {
    // The inverse of the stale-link case: the replacement claims exactly
    // the links the old schedule holds, on links left with zero residual —
    // only crediting the outgoing reservations makes the swap valid (the
    // validation runs before any rule is removed, so without credit this
    // would be a guaranteed StaleLink).
    let (db, task) = rig();
    let mut committer = Committer::new();
    let p1 = propose_live(&db, &task, 3);
    committer.apply(&db, Intent::admit(&p1)).unwrap();
    // Exhaust every claimed link's residual: no slack beyond the credit.
    db.write(|net, _, _| {
        for c in &p1.claims.links {
            let res = net.residual_gbps(c.link).unwrap();
            net.add_background(c.link, res).unwrap();
        }
    });
    let p2 = p1.clone();
    let reserved_before = db.total_reserved_gbps();
    committer
        .apply(&db, Intent::migrate(&p1.schedule, &p2))
        .expect("identical swap must validate purely on credit");
    assert!((db.total_reserved_gbps() - reserved_before).abs() < 1e-9);
}

#[test]
fn migrate_wavelength_taken_is_typed_and_mutation_free() {
    let (db, task) = rig();
    let (mut committer, p1, p2) = committed_pair(&db, &task);
    assert!(!p2.claims.wavelengths.is_empty());
    // A claimed multi-wavelength link outside the old footprint: exhaust
    // and fill every wavelength so no groomable headroom is left.
    let old_footprint = p1.claims.footprint();
    let victim = p2
        .claims
        .wavelengths
        .iter()
        .map(|w| w.link)
        .find(|l| {
            !old_footprint.contains(l)
                && db.read(|net, _, _| net.topo().link(*l).unwrap().wavelengths > 1)
        })
        .expect("wider metro schedules cross fresh WDM spans");
    db.write(|net, opt, _| {
        let link = net.topo().link(victim).unwrap().clone();
        let hop = Path::new(vec![link.a, link.b], vec![victim]).unwrap();
        while let Ok(id) = opt.establish(hop.clone(), WavelengthPolicy::FirstFit) {
            let cap = opt.lightpath(id).unwrap().capacity_gbps;
            opt.add_groomed(id, cap).unwrap();
        }
    });
    assert_rejected(
        &db,
        &mut committer,
        &p1,
        &p2,
        false,
        |c| matches!(c, Conflict::WavelengthTaken { link } if *link == victim),
    );
}

#[test]
fn strict_migrate_stale_optical_is_typed_and_mutation_free() {
    let (db, task) = rig();
    let (mut committer, p1, p2) = committed_pair(&db, &task);
    // Move a claimed link's spectrum stamp without exhausting it: light one
    // wavelength on a multi-wavelength span. Fit-mode would accept; the
    // strict gate must reject with StaleOptical.
    let victim = p2
        .claims
        .wavelengths
        .iter()
        .map(|w| w.link)
        .find(|l| db.read(|net, _, _| net.topo().link(*l).unwrap().wavelengths > 2))
        .expect("metro schedules cross multi-wavelength spans");
    db.write(|net, opt, _| {
        let link = net.topo().link(victim).unwrap().clone();
        let hop = Path::new(vec![link.a, link.b], vec![victim]).unwrap();
        opt.establish(hop, WavelengthPolicy::FirstFit).unwrap();
    });
    assert_rejected(
        &db,
        &mut committer,
        &p1,
        &p2,
        true,
        |c| matches!(c, Conflict::StaleOptical { link } if *link == victim),
    );
}

#[test]
fn strict_migrate_stale_link_stamp_is_typed_and_mutation_free() {
    let (db, task) = rig();
    let (mut committer, p1, p2) = committed_pair(&db, &task);
    // A tiny background blip on a claimed link: still fits, but the stamp
    // moved, so the strict gate rejects.
    let victim = p2.claims.links[0].link;
    db.write(|net, _, _| {
        net.add_background(victim, 0.001).unwrap();
        net.add_background(victim, -0.001).unwrap();
    });
    assert_rejected(
        &db,
        &mut committer,
        &p1,
        &p2,
        true,
        |c| matches!(c, Conflict::StaleLink { link, .. } if *link == victim.link),
    );
}

#[test]
fn migrate_rate_floor_violation_is_typed_and_mutation_free() {
    let (db, task) = rig();
    let (mut committer, p1, mut p2) = committed_pair(&db, &task);
    p2.claims.rate_floor_gbps = f64::INFINITY;
    assert_rejected(&db, &mut committer, &p1, &p2, false, |c| {
        matches!(c, Conflict::RateFloorViolated { .. })
    });
}

#[test]
fn migrate_missing_server_is_typed_and_mutation_free() {
    let (db, task) = rig();
    let (mut committer, p1, mut p2) = committed_pair(&db, &task);
    p2.claims.server_slots.push(NodeId(0)); // a ROADM, not a server
    assert_rejected(
        &db,
        &mut committer,
        &p1,
        &p2,
        false,
        |c| matches!(c, Conflict::MissingServer { node } if *node == NodeId(0)),
    );
}

#[test]
fn migrate_succeeds_after_rejections() {
    // The rejections above must not wedge the committer: a clean migration
    // still goes through and the swap is atomic.
    let (db, task) = rig();
    let (mut committer, p1, p2) = committed_pair(&db, &task);
    let mut poisoned = p2.clone();
    poisoned.claims.rate_floor_gbps = f64::INFINITY;
    assert!(committer
        .apply(&db, Intent::migrate(&p1.schedule, &poisoned))
        .is_err());
    let receipt = committer
        .apply(&db, Intent::migrate(&p1.schedule, &p2))
        .unwrap();
    assert_eq!(receipt.task, task.id);
    let reserved: f64 = db.total_reserved_gbps();
    let expected: f64 = p2.claims.total_gbps();
    assert!(
        (reserved - expected).abs() < 1e-6,
        "live reservations {reserved} != migrated claims {expected}"
    );
}

/// Install an 8-local tree, cut one of its ring spans and speculate the
/// incremental repair against the live (faulted) state.
fn broken_tree_and_repair(db: &Database, task: &AiTask) -> (Committer, Proposal, RepairProposal) {
    let mut committer = Committer::new();
    let installed = propose_live(db, task, 8);
    committer.apply(db, Intent::admit(&installed)).unwrap();
    let topo = db.read(|net, _, _| net.topo_arc());
    let on_ring = |n| topo.node(n).unwrap().kind == NodeKind::Roadm;
    let victim = installed
        .claims
        .footprint()
        .into_iter()
        .find(|l| {
            let link = topo.link(*l).unwrap();
            on_ring(link.a) && on_ring(link.b)
        })
        .expect("metro schedules cross the WDM ring");
    db.write(|net, _, _| net.set_down(victim, true)).unwrap();
    let repair = FlexibleMst::paper()
        .propose_repair(
            task,
            &installed.schedule,
            &db.snapshot(),
            &mut ScratchPool::new(),
        )
        .unwrap()
        .expect("a cut tree link must repair");
    (committer, installed, repair)
}

/// Another tenant's reservation: moves `link`'s stamp, takes next to no
/// capacity — every claim still fits, only a stamp check can object.
fn foreign_reservation(db: &Database, link: LinkId) {
    db.write(|net, _, _| net.reserve(DirLink::new(link, Direction::AtoB), 0.001))
        .unwrap();
}

#[test]
fn repair_stale_delta_link_is_typed_and_mutation_free() {
    let (db, task) = rig();
    let (mut committer, installed, rp) = broken_tree_and_repair(&db, &task);
    // A link the graft newly claims: in the delta and in the claims.
    let claimed = rp.proposal.claims.footprint();
    let victim = rp
        .delta
        .touched_links()
        .into_iter()
        .find(|l| claimed.contains(l))
        .expect("a graft claims at least one link");
    foreign_reservation(&db, victim);
    assert_intent_rejected(
        &db,
        &mut committer,
        Intent::repair(&installed.schedule, &rp.proposal, &rp.delta),
        |c| matches!(c, Conflict::StaleLink { link, .. } if *link == victim),
    );
}

#[test]
fn repair_stale_read_region_is_typed_and_mutation_free() {
    let (db, task) = rig();
    let (mut committer, installed, rp) = broken_tree_and_repair(&db, &task);
    let delta = rp.delta.touched_links();
    let victim = rp
        .proposal
        .claims
        .reads
        .iter()
        .map(|r| r.link)
        .find(|l| !delta.contains(l) && !db.read(|net, _, _| net.is_down(*l)))
        .expect("the frontier search consults links it does not graft");
    foreign_reservation(&db, victim);
    assert_intent_rejected(
        &db,
        &mut committer,
        Intent::repair(&installed.schedule, &rp.proposal, &rp.delta),
        |c| matches!(c, Conflict::StaleRead { link } if *link == victim),
    );
}

#[test]
fn repair_ignores_a_foreign_write_on_an_unchanged_tree_link() {
    let (db, task) = rig();
    let (mut committer, installed, rp) = broken_tree_and_repair(&db, &task);
    // The delta-scoping: the bulk of the tree is the task's own standing
    // reservation, outside the repair's stamp scope...
    let delta = rp.delta.touched_links();
    let victim = rp
        .proposal
        .claims
        .footprint()
        .into_iter()
        .find(|l| !delta.contains(l))
        .expect("a repair keeps most of the tree");
    foreign_reservation(&db, victim);
    // ...so the repair commits where the whole-footprint strict migration
    // of the same proposal is refused on exactly that link.
    assert_intent_rejected(
        &db,
        &mut committer,
        Intent::migrate_speculated(&installed.schedule, &rp.proposal),
        |c| matches!(c, Conflict::StaleLink { link, .. } if *link == victim),
    );
    committer
        .apply(
            &db,
            Intent::repair(&installed.schedule, &rp.proposal, &rp.delta),
        )
        .expect("a write outside delta and read region must not reject the repair");
    let reserved = db.total_reserved_gbps();
    let expected = rp.proposal.claims.total_gbps() + 0.001;
    assert!(
        (reserved - expected).abs() < 1e-6,
        "live reservations {reserved} != repaired claims {expected}"
    );
}

/// Shared rig for the read-footprint witnesses:
/// g —(short: s1,s2 via a)— t   and   g —(detour: d1,d2 via b)— t,
/// with the short route loaded so fresh decisions detour around it.
fn steering_rig() -> (
    Database,
    AiTask,
    flexsched_topo::LinkId,
    flexsched_topo::LinkId,
) {
    use flexsched_topo::NodeKind;
    let mut t = flexsched_topo::Topology::new();
    let g = t.add_node(NodeKind::Server, "g");
    let a = t.add_node(NodeKind::IpRouter, "a");
    let b = t.add_node(NodeKind::IpRouter, "b");
    let l = t.add_node(NodeKind::Server, "t");
    let s1 = t.add_link(g, a, 1.0, 100.0).unwrap();
    let s2 = t.add_link(a, l, 1.0, 100.0).unwrap();
    let _d1 = t.add_link(g, b, 1.0, 100.0).unwrap();
    let _d2 = t.add_link(b, l, 1.0, 100.0).unwrap();
    let topo = Arc::new(t);
    let db = Database::new(
        NetworkState::new(Arc::clone(&topo)),
        OpticalState::new(Arc::clone(&topo)),
        ClusterManager::from_topology(&topo, ServerSpec::default()),
    );
    let task = AiTask {
        id: TaskId(0),
        model: ModelProfile::lenet(),
        global_site: g,
        local_sites: vec![l],
        data_utility: Default::default(),
        iterations: 1,
        comm_budget_ms: 10.0,
        arrival_ns: 0,
        class: Default::default(),
    };
    // Load the short route so decisions against this state detour.
    set_short_route_load(&db, s1, s2, 80.0);
    (db, task, s1, s2)
}

fn set_short_route_load(
    db: &Database,
    s1: flexsched_topo::LinkId,
    s2: flexsched_topo::LinkId,
    gbps: f64,
) {
    db.write(|net, _, _| {
        for link in [s1, s2] {
            for dir in [
                flexsched_topo::Direction::AtoB,
                flexsched_topo::Direction::BtoA,
            ] {
                net.add_background(flexsched_simnet::DirLink::new(link, dir), gbps)
                    .unwrap();
            }
        }
    });
}

/// PR 3's `#[ignore]`d witness for the ROADMAP's "read-footprint conflict
/// detection" gap, now un-ignored with the expectation flipped: background
/// load on a short route steers the speculated tree onto a detour; the
/// load is then removed — a write that moves only the **non-claimed**
/// short route's stamps. A fresh decision now prefers the short route, so
/// the speculation is no longer what sequential scheduling would produce —
/// and the strict gate, which now stamps the proposal's recorded *read
/// region* as well as its claims, rejects it with the typed
/// [`Conflict::StaleRead`].
#[test]
fn read_footprint_gap_commit_on_non_claimed_link_steers_fresh_decision() {
    let (db, task, s1, s2) = steering_rig();
    let snap = db.snapshot();
    let speculated = FlexibleMst::paper()
        .propose_once(&task, &task.local_sites, &snap)
        .unwrap();
    let claimed = speculated.claims.footprint();
    assert!(
        !claimed.contains(&s1) && !claimed.contains(&s2),
        "speculation must detour around the loaded short route"
    );
    // The searches consulted the short route while rejecting it, so it
    // must appear in the recorded read region.
    assert!(
        speculated.claims.reads.iter().any(|r| r.link == s1),
        "read region must cover the consulted short route"
    );
    // A write that touches ONLY the non-claimed short route: unload it.
    set_short_route_load(&db, s1, s2, -80.0);
    // A fresh decision now takes the short route — the speculation is no
    // longer what sequential scheduling would produce.
    let fresh = FlexibleMst::paper()
        .propose_once(&task, &task.local_sites, &db.snapshot())
        .unwrap();
    assert!(
        fresh.claims.footprint().contains(&s1),
        "fresh decision must prefer the unloaded short route"
    );
    // The gap is closed: the strict gate stamps the read region too, so
    // the steered speculation is rejected with the typed read conflict.
    let mut committer = Committer::new();
    let outcome = committer.apply(&db, Intent::admit_speculated(&speculated));
    assert!(
        matches!(
            outcome,
            Err(OrchError::Rejected(Conflict::StaleRead { link })) if link == s1 || link == s2
        ),
        "strict commit must reject the steered speculation, got {outcome:?}"
    );
    // The un-steered fit-mode admission still works: the claims fit.
    committer.apply(&db, Intent::admit(&speculated)).unwrap();
}

/// The symmetric migrate-path witness: a task *running* on the detour
/// speculates a same-shape replacement while the short route is loaded;
/// the load then drains (moving only non-claimed stamps). A fresh
/// replacement decision would now take the short route, so the strict
/// migration gate must reject the stale speculation — [`Intent::migrate`]
/// (fit mode) remains free to install it.
#[test]
fn read_footprint_gap_is_closed_on_the_migrate_path_too() {
    let (db, task, s1, s2) = steering_rig();
    // Commit the task onto the detour (fit mode, current state).
    let installed = FlexibleMst::paper()
        .propose_once(&task, &task.local_sites, &db.snapshot())
        .unwrap();
    let mut committer = Committer::new();
    committer.apply(&db, Intent::admit(&installed)).unwrap();
    // Speculate a replacement against the loaded live state: it re-picks
    // the detour and *reads* the short route while rejecting it.
    let speculated = FlexibleMst::paper()
        .propose_once(&task, &task.local_sites, &db.snapshot())
        .unwrap();
    assert!(!speculated.claims.footprint().contains(&s1));
    // Only the non-claimed short route's stamps move.
    set_short_route_load(&db, s1, s2, -80.0);
    let outcome = committer.apply(
        &db,
        Intent::migrate_speculated(&installed.schedule, &speculated),
    );
    assert!(
        matches!(
            outcome,
            Err(OrchError::Rejected(Conflict::StaleRead { link })) if link == s1 || link == s2
        ),
        "strict migrate must reject the steered replacement, got {outcome:?}"
    );
    // The task kept running on its installed schedule, and a fit-mode
    // migration of the same replacement is still allowed.
    assert!(committer.sdn().rules_of(task.id).is_some());
    committer
        .apply(&db, Intent::migrate(&installed.schedule, &speculated))
        .unwrap();
}

/// The full admit → migrate → strict-migrate lifecycle through the one
/// typed-intent gate (the sequence the removed PR 2 shim quartet covered).
#[test]
fn intent_lifecycle_commits_and_migrates() {
    let (db, task) = rig();
    let mut committer = Committer::new();
    let p1 = propose_live(&db, &task, 3);
    committer.apply(&db, Intent::admit(&p1)).unwrap();
    let p2 = propose_live(&db, &task, 3);
    committer
        .apply(&db, Intent::migrate(&p1.schedule, &p2))
        .unwrap();
    let p3 = propose_live(&db, &task, 3);
    committer
        .apply(&db, Intent::migrate_speculated(&p2.schedule, &p3))
        .unwrap();
    let (commits, rejections) = committer.counters();
    assert_eq!((commits, rejections), (3, 0));
}
