//! Typed-conflict coverage for the migration intents.
//!
//! PR 2's tests exercised every [`Conflict`] variant through the *install*
//! path; the migration path only had happy-path coverage. These tests
//! drive every variant through [`Committer::apply`] with
//! [`Intent::migrate`] and pin the repair pipeline's contract: a rejected
//! migration leaves the database bit-identical — validation (with the old
//! schedule's reservations credited) runs before the stored schedule is
//! swapped, so not even a version counter moves. The `repair_*` tests hold
//! [`Intent::repair`] to the same contract: a graft that no longer fits, or
//! whose link went down, is rejected; a foreign tenant filling an
//! unchanged tree link up to the task's own credit is not.

use flexsched_compute::{ClusterManager, ModelProfile, ServerSpec};
use flexsched_optical::OpticalState;
use flexsched_orchestrator::{Committer, Conflict, Database, Intent, OrchError};
use flexsched_sched::{
    ClaimsDelta, FlexibleMst, NetworkSnapshot, Proposal, RoutingPlan, Scheduler,
};
use flexsched_simnet::{DirLink, NetworkState};
use flexsched_task::{AiTask, TaskId};
use flexsched_topo::algo::ScratchPool;
use flexsched_topo::{builders, LinkId, NodeId, NodeKind, Path};
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

/// The live network and optical state, frozen.
fn snapshot(db: &Database) -> NetworkSnapshot {
    db.read(|net, opt, _| NetworkSnapshot::capture(net).with_optical(opt))
}

/// Propose for `locals` of the task's sites against the live snapshot.
fn propose_live(db: &Database, task: &AiTask, locals: usize) -> Proposal {
    let snap = snapshot(db);
    FlexibleMst::paper()
        .propose_once(task, &task.local_sites[..locals], &snap)
        .unwrap()
}

/// Install a 3-local schedule, then build a wider live replacement that
/// routes over links the old schedule does not use.
fn committed_pair(db: &Database, task: &AiTask) -> (Committer, Proposal, Proposal) {
    let mut committer = Committer::new();
    let p1 = propose_live(db, task, 3);
    committer.apply(db, Intent::admit(&p1)).unwrap();
    let p2 = propose_live(db, task, 8);
    (committer, p1, p2)
}

/// The distinct links `p`'s schedule routes over.
fn links(p: &Proposal) -> Vec<LinkId> {
    let mut links = Vec::new();
    p.schedule.links_into(&mut links);
    links
}

/// `p`'s reservations aggregated per directed link.
fn rates(db: &Database, p: &Proposal) -> Vec<(DirLink, f64)> {
    db.read(|net, _, _| p.schedule.aggregated_reservations(net.topo()))
        .unwrap()
}

/// The total rate `p`'s schedule reserves, Gbit/s·link.
fn total_gbps(db: &Database, p: &Proposal) -> f64 {
    rates(db, p).iter().map(|(_, gbps)| gbps).sum()
}

/// Starve `p`'s broadcast tree to a zero rate, below any rate floor.
fn starve(p: &mut Proposal) {
    let RoutingPlan::Tree { rate_gbps, .. } = &mut p.schedule.broadcast else {
        panic!("tree plan expected");
    };
    *rate_gbps = 0.0;
}

/// A link `p` routes over but `old` does not reserve — sabotage target
/// whose damage the old schedule's credit cannot repair.
fn fresh_claimed_link(old: &Proposal, p: &Proposal) -> LinkId {
    let old_footprint = links(old);
    links(p)
        .into_iter()
        .find(|l| !old_footprint.contains(l))
        .expect("wider schedule routes over links beyond the old footprint")
}

fn world_fmt(db: &Database) -> (String, String) {
    db.read(|net, opt, _| (format!("{net:?}"), format!("{opt:?}")))
}

/// Assert `migrate` rejects with the expected conflict and leaves both
/// layers bit-identical.
fn assert_rejected(
    db: &Database,
    committer: &mut Committer,
    old: &Proposal,
    p: &Proposal,
    check: impl Fn(&Conflict) -> bool,
) {
    assert_intent_rejected(db, committer, Intent::migrate(&old.schedule, p), check);
}

/// Assert `intent` (replacing an installed schedule) rejects with the
/// expected conflict and leaves both layers bit-identical.
fn assert_intent_rejected(
    db: &Database,
    committer: &mut Committer,
    intent: Intent<'_>,
    check: impl Fn(&Conflict) -> bool,
) {
    let Intent::Migrate { old, .. } = intent else {
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
    // The old schedule is still stored — the task kept running: taking it
    // out returns it and releases every reservation the fixture made.
    let kept = db
        .take_schedule(old.task)
        .expect("the old schedule stays stored");
    assert_eq!(&kept, old);
    assert!(db.total_reserved_gbps().abs() < 1e-9);
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
    // Exhaust the residual of every directed link it reserves: no slack
    // beyond the credit.
    let held = rates(&db, &p1);
    db.write(|net, _, _| {
        for (dl, _) in &held {
            let res = net.residual_gbps(*dl).unwrap();
            net.add_background(*dl, res).unwrap();
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
    assert!(p2.optical_version.is_some());
    // A multi-wavelength link of the replacement outside the old
    // footprint: exhaust and fill every wavelength so no groomable
    // headroom is left.
    let old_footprint = links(&p1);
    let victim = links(&p2)
        .into_iter()
        .find(|l| {
            !old_footprint.contains(l)
                && db.read(|net, _, _| net.topo().link(*l).unwrap().wavelengths > 1)
        })
        .expect("wider metro schedules cross fresh WDM spans");
    db.write(|net, opt, _| {
        let link = net.topo().link(victim).unwrap().clone();
        let hop = Path::new(vec![link.a, link.b], vec![victim]).unwrap();
        while let Ok(id) = opt.establish(hop.clone()) {
            let cap = opt.lightpath(id).unwrap().capacity_gbps;
            opt.add_groomed(id, cap).unwrap();
        }
    });
    assert_rejected(
        &db,
        &mut committer,
        &p1,
        &p2,
        |c| matches!(c, Conflict::WavelengthTaken { link } if *link == victim),
    );
}

#[test]
fn migrate_rate_floor_violation_is_typed_and_mutation_free() {
    let (db, task) = rig();
    let (mut committer, p1, mut p2) = committed_pair(&db, &task);
    starve(&mut p2);
    assert_rejected(&db, &mut committer, &p1, &p2, |c| {
        matches!(c, Conflict::RateFloorViolated { .. })
    });
}

#[test]
fn migrate_missing_server_is_typed_and_mutation_free() {
    let (db, task) = rig();
    let (mut committer, p1, mut p2) = committed_pair(&db, &task);
    p2.schedule.selected_locals.push(NodeId(0)); // a ROADM, not a server
    assert_rejected(
        &db,
        &mut committer,
        &p1,
        &p2,
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
    starve(&mut poisoned);
    assert!(committer
        .apply(&db, Intent::migrate(&p1.schedule, &poisoned))
        .is_err());
    let receipt = committer
        .apply(&db, Intent::migrate(&p1.schedule, &p2))
        .unwrap();
    assert_eq!(receipt.task, task.id);
    let reserved: f64 = db.total_reserved_gbps();
    let expected = total_gbps(&db, &p2);
    assert!(
        (reserved - expected).abs() < 1e-6,
        "live reservations {reserved} != the stored schedule's {expected}"
    );
}

/// Install an 8-local tree, cut one of its ring spans and propose the
/// incremental repair against the live (faulted) state.
fn broken_tree_and_repair(db: &Database, task: &AiTask) -> (Committer, Proposal, Proposal) {
    let mut committer = Committer::new();
    let installed = propose_live(db, task, 8);
    committer.apply(db, Intent::admit(&installed)).unwrap();
    let topo = db.read(|net, _, _| net.topo_arc());
    let on_ring = |n| topo.node(n).unwrap().kind == NodeKind::Roadm;
    let victim = links(&installed)
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
            &snapshot(db),
            &mut ScratchPool::new(),
        )
        .unwrap()
        .expect("a cut tree link must repair");
    (committer, installed, repair)
}

/// The directed links whose aggregate rate `new` changes from `old`'s:
/// grown ones first (ascending), then shrunk ones.
fn changed_rates(db: &Database, old: &Proposal, new: &Proposal) -> (Vec<DirLink>, Vec<DirLink>) {
    let (old, new) = (rates(db, old), rates(db, new));
    let rate_on = |rates: &[(DirLink, f64)], dl: DirLink| {
        let at = rates.binary_search_by_key(&dl, |(d, _)| *d);
        at.map_or(0.0, |i| rates[i].1)
    };
    let grown = (new.iter())
        .filter(|(dl, gbps)| *gbps - rate_on(&old, *dl) > 1e-9)
        .map(|(dl, _)| *dl)
        .collect();
    let shrunk = (old.iter())
        .filter(|(dl, gbps)| *gbps - rate_on(&new, *dl) > 1e-9)
        .map(|(dl, _)| *dl)
        .collect();
    (grown, shrunk)
}

/// Another tenant takes everything that is left on `dl`.
fn fill_residual(db: &Database, dl: DirLink) {
    db.write(|net, _, _| {
        let residual = net.residual_gbps(dl)?;
        net.add_background(dl, residual)
    })
    .unwrap();
}

#[test]
fn repair_stale_delta_link_is_typed_and_mutation_free() {
    let (db, task) = rig();
    let (mut committer, installed, rp) = broken_tree_and_repair(&db, &task);
    // A directed link whose rate the graft raises: whatever the old
    // schedule held there, its credit cannot cover the new rate.
    let (grown, _) = changed_rates(&db, &installed, &rp);
    let victim = *grown.first().expect("a graft adds rate");
    fill_residual(&db, victim);
    assert_intent_rejected(
        &db,
        &mut committer,
        Intent::repair(&installed.schedule, &rp, &ClaimsDelta),
        |c| {
            matches!(c, Conflict::StaleLink { link, claimed_gbps, available_gbps }
                if *link == victim.link && available_gbps < claimed_gbps)
        },
    );
}

#[test]
fn repair_link_down_on_a_grafted_link_is_typed_and_mutation_free() {
    let (db, task) = rig();
    let (mut committer, installed, rp) = broken_tree_and_repair(&db, &task);
    let (grown, _) = changed_rates(&db, &installed, &rp);
    let victim = grown.first().expect("a graft adds rate").link;
    db.write(|net, _, _| net.set_down(victim, true)).unwrap();
    assert_intent_rejected(
        &db,
        &mut committer,
        Intent::repair(&installed.schedule, &rp, &ClaimsDelta),
        |c| matches!(c, Conflict::LinkDown { link } if *link == victim),
    );
}

#[test]
fn repair_ignores_a_foreign_write_on_an_unchanged_tree_link() {
    let (db, task) = rig();
    let (mut committer, installed, rp) = broken_tree_and_repair(&db, &task);
    // The bulk of the tree is the task's own standing reservation: a
    // claim the repair leaves unchanged is covered by the old schedule's
    // credit, however little the foreign tenant leaves beside it.
    let (grown, shrunk) = changed_rates(&db, &installed, &rp);
    let changed: Vec<LinkId> = grown.iter().chain(&shrunk).map(|dl| dl.link).collect();
    let victim = rates(&db, &rp)
        .into_iter()
        .map(|(dl, _)| dl)
        .find(|dl| !changed.contains(&dl.link))
        .expect("a repair keeps most of the tree");
    fill_residual(&db, victim);
    committer
        .apply(&db, Intent::repair(&installed.schedule, &rp, &ClaimsDelta))
        .expect("an unchanged rate validates on the old schedule's credit");
    let reserved = db.total_reserved_gbps();
    let expected = total_gbps(&db, &rp);
    assert!(
        (reserved - expected).abs() < 1e-6,
        "live reservations {reserved} != the repaired schedule's {expected}"
    );
}

/// The full admit → migrate → repair lifecycle through the one
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
        .apply(&db, Intent::repair(&p2.schedule, &p3, &ClaimsDelta))
        .unwrap();
    let (commits, rejections) = committer.counters();
    assert_eq!((commits, rejections), (3, 0));
}
