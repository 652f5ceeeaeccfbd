//! Gang-admission atomicity (the PR 10 DAG contract).
//!
//! A stage frontier commits as one gang — one proposal per stage,
//! all-or-nothing. These properties pin the failure half of that
//! contract: a gang with ONE conflicting member (a cut link under its
//! tree, or a claimed link another tenant filled) must leave the
//! database **bit-identical** — IP reservations, spectrum state, their
//! version counters, and the grooming ledger.
//!
//! Run with `PROPTEST_CASES=256` in nightly-deep.

use flexsched_compute::{ClusterManager, ModelProfile, ServerSpec};
use flexsched_optical::OpticalState;
use flexsched_orchestrator::{Committer, Database, GangConflict, Intent, OrchError, Validation};
use flexsched_sched::{FlexibleMst, NetworkSnapshot, Proposal, Scheduler};
use flexsched_simnet::NetworkState;
use flexsched_task::{AiTask, TaskId};
use flexsched_topo::{builders, Topology};
use proptest::prelude::*;
use std::sync::Arc;

fn metro_topo() -> Arc<Topology> {
    Arc::new(builders::metro(&builders::MetroParams::default()))
}

fn fresh_db(topo: &Arc<Topology>) -> Database {
    Database::new(
        NetworkState::new(Arc::clone(topo)),
        OpticalState::new(Arc::clone(topo)),
        ClusterManager::from_topology(topo, ServerSpec::default()),
    )
}

/// A stage-like task whose locals span `sites` metro sites.
fn stage_task(topo: &Topology, id: u64, seed: u64, sites: usize, locals: usize) -> AiTask {
    let servers = topo.servers();
    let per_site = 4; // MetroParams::default().servers_per_router
    let n_sites = servers.len() / per_site;
    let first = (seed as usize) % n_sites;
    let pool: Vec<_> = (0..sites.max(1))
        .flat_map(|s| {
            let site = (first + s) % n_sites;
            servers[site * per_site..(site + 1) * per_site].to_vec()
        })
        .collect();
    let g = pool[(seed as usize) % pool.len()];
    let mut local_sites = Vec::new();
    let mut k = seed as usize + 1;
    while local_sites.len() < locals.min(pool.len() - 1) {
        let cand = pool[k % pool.len()];
        if cand != g && !local_sites.contains(&cand) {
            local_sites.push(cand);
        }
        k += 1;
    }
    local_sites.sort();
    AiTask {
        id: TaskId(id),
        model: ModelProfile::mobilenet(),
        global_site: g,
        local_sites,
        data_utility: Default::default(),
        iterations: 1,
        comm_budget_ms: 10.0,
        arrival_ns: id,
        class: Default::default(),
    }
}

fn propose(db: &Database, task: &AiTask) -> Option<Proposal> {
    let snap = db.read(|net, opt, _| NetworkSnapshot::capture(net).with_optical(opt));
    FlexibleMst::paper()
        .propose_once(task, &task.local_sites, &snap)
        .ok()
}

fn fingerprint(db: &Database) -> String {
    db.read(|net, opt, _| format!("{net:?}|{opt:?}"))
}

/// Render a gang outcome for failure messages: receipts' task ids, or the
/// rejected member + conflict, or another error's display.
fn gang_key(r: &Result<Vec<flexsched_orchestrator::CommitReceipt>, OrchError>) -> String {
    match r {
        Ok(receipts) => format!(
            "ok:{:?}",
            receipts.iter().map(|g| g.task).collect::<Vec<_>>()
        ),
        Err(OrchError::GangRejected(g)) => format!("gang-rejected:{g:?}"),
        Err(e) => format!("err:{e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A gang with one member crossing a down link, or claiming a link
    /// another tenant filled, rejects and mutates nothing: fingerprint
    /// before == after, grooming ledger untouched.
    /// Clearing the conflict makes the same gang commit, and tearing it
    /// down drains to zero.
    #[test]
    fn rejected_gang_is_a_pure_no_op(
        specs in proptest::collection::vec((0u64..300, 2usize..4, 2usize..8), 2..5),
        cut_link in proptest::bool::ANY,
        victim_sel in 0usize..8,
    ) {
        let topo = metro_topo();
        let db = fresh_db(&topo);
        let mut single = Committer::new();

        // The gang: one proposal per "stage", all from one fresh snapshot
        // (the DAG drivers snapshot once per frontier the same way).
        let mut proposals: Vec<Proposal> = Vec::new();
        for (i, (seed, sites, locals)) in specs.iter().enumerate() {
            let t = stage_task(&topo, i as u64, *seed, *sites, *locals);
            if let Some(p) = propose(&db, &t) {
                proposals.push(p);
            }
        }
        prop_assume!(proposals.len() >= 2);
        let victim = victim_sel % proposals.len();
        let vclaim = proposals[victim].claims.links.first().copied();
        prop_assume!(vclaim.is_some());
        let vdir = vclaim.unwrap().link;
        let vlink = vdir.link;

        // Manufacture the conflict.
        let filled = db.read(|net, _, _| net.residual_gbps(vdir)).unwrap();
        if cut_link {
            db.write(|net, _, _| net.set_down(vlink, true)).unwrap();
        } else {
            db.write(|net, _, _| net.add_background(vdir, filled)).unwrap();
        }

        let fp_single = fingerprint(&db);
        let groom_single = single.groom_stats();

        let refs: Vec<&Proposal> = proposals.iter().collect();
        let rejected = single.apply_gang(&db, &refs, Validation::Fit);
        prop_assert!(
            matches!(&rejected, Err(OrchError::GangRejected(GangConflict { member, .. }))
                if *member <= victim),
            "gang must reject at or before the victim, got {}", gang_key(&rejected)
        );

        // The atomicity pin: zero mutation.
        prop_assert_eq!(fingerprint(&db), fp_single,
            "database mutated by a rejected gang");
        prop_assert_eq!(single.groom_stats(), groom_single);

        // Positive control: clear the conflict and the same frontier
        // commits.
        if cut_link {
            db.write(|net, _, _| net.set_down(vlink, false)).unwrap();
        } else {
            db.write(|net, _, _| net.add_background(vdir, -filled)).unwrap();
        }
        let committed = single.apply_gang(&db, &refs, Validation::Fit);
        prop_assert!(committed.is_ok(), "cleared gang must commit, got {}", gang_key(&committed));

        prop_assert!(db.total_reserved_gbps() > 0.0);
        for r in committed.unwrap().iter() {
            db.take_schedule(r.task).unwrap();
            single.release(&db, &r.groomed);
        }
        prop_assert!(db.total_reserved_gbps().abs() < 1e-9);
    }
}

/// Deterministic atomicity pin: in a two-member gang where only the LATER
/// member's tree crosses the cut, the earlier (individually committable)
/// member must not be left installed — and committing it alone afterwards
/// succeeds, proving the joint rejection was the later member's fault.
#[test]
fn later_member_conflict_uninstalls_earlier_members() {
    let topo = metro_topo();
    let db = fresh_db(&topo);
    let mut committer = Committer::new();

    // Two disjoint-site stages: sites {0,1} and sites {3,4} — their trees
    // share no metro access links.
    let a = stage_task(&topo, 0, 0, 2, 3);
    let b = stage_task(&topo, 1, 12, 2, 3);
    let pa = propose(&db, &a).unwrap();
    let pb = propose(&db, &b).unwrap();
    let b_only: Vec<_> = pb
        .claims
        .links
        .iter()
        .filter(|c| !pa.claims.links.iter().any(|ac| ac.link.link == c.link.link))
        .collect();
    let cut = b_only
        .first()
        .expect("disjoint stages share no links")
        .link
        .link;

    db.write(|net, _, _| net.set_down(cut, true)).unwrap();
    let before = fingerprint(&db);
    let err = committer
        .apply_gang(&db, &[&pa, &pb], Validation::Fit)
        .unwrap_err();
    match err {
        OrchError::GangRejected(g) => {
            assert_eq!(g.member, 1, "the cut is under member 1's tree");
        }
        other => panic!("expected GangRejected, got {other}"),
    }
    assert_eq!(fingerprint(&db), before, "member 0 left installed");

    // Member 0 alone commits fine — the rejection was collective.
    let receipt = committer.apply(&db, Intent::admit(&pa)).unwrap();
    assert!(db.total_reserved_gbps() > 0.0);
    db.take_schedule(receipt.task).unwrap();
    committer.release(&db, &receipt.groomed);
    assert!(db.total_reserved_gbps().abs() < 1e-9);
}
