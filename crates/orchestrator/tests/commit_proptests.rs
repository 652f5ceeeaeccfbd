//! Property tests for the snapshot → propose → commit semantics.
//!
//! **Rejection is mutation-free.** A proposal the committer rejects —
//! stale capacity, a downed link, exhausted spectrum — leaves both the
//! `NetworkState` and the `OpticalState` bit-identical: no partial
//! application, no moved version counters.

use flexsched_compute::{ClusterManager, ModelProfile, ServerSpec};
use flexsched_optical::OpticalState;
use flexsched_orchestrator::{Committer, Conflict, Database, Intent, OrchError};
use flexsched_sched::{FlexibleMst, Scheduler};
use flexsched_simnet::NetworkState;
use flexsched_task::{AiTask, TaskId};
use flexsched_topo::{builders, NodeId, Topology};
use proptest::prelude::*;
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
        _ => builders::fat_tree(4, 400.0),
    })
}

fn fresh_db(topo: &Arc<Topology>) -> Database {
    Database::new(
        NetworkState::new(Arc::clone(topo)),
        OpticalState::new(Arc::clone(topo)),
        ClusterManager::from_topology(topo, ServerSpec::default()),
    )
}

/// Tasks with seeded (global, locals) placement and a communication budget
/// that sets their demand.
fn make_batch(topo: &Topology, specs: &[(usize, u64, u8)]) -> Vec<(AiTask, Vec<NodeId>)> {
    let servers = topo.servers();
    specs
        .iter()
        .enumerate()
        .map(|(i, (n_locals, seed, budget))| {
            let g = servers[(*seed as usize) % servers.len()];
            let mut locals = Vec::new();
            let mut k = *seed as usize + 1;
            while locals.len() < (*n_locals).min(servers.len() - 1) {
                let cand = servers[k % servers.len()];
                if cand != g && !locals.contains(&cand) {
                    locals.push(cand);
                }
                k += 1;
            }
            locals.sort();
            let task = AiTask {
                id: TaskId(i as u64),
                model: ModelProfile::mobilenet(),
                global_site: g,
                local_sites: locals.clone(),
                data_utility: Default::default(),
                iterations: 1,
                comm_budget_ms: 10.0 + f64::from(*budget),
                arrival_ns: i as u64,
                class: Default::default(),
            };
            (task, locals)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any rejected proposal leaves network and optical state
    /// bit-identical, whatever invalidated it. Every accepted case is a
    /// fit rejection: each sabotage leaves the victim claim uncovered.
    #[test]
    fn rejected_proposal_leaves_state_bit_identical(
        pick in 0u8..4,
        n_locals in 2usize..10,
        seed in 0u64..300,
        sabotage in 0u8..3,
        claim_idx in 0usize..64,
    ) {
        let topo = scenario_topology(pick);
        let db = fresh_db(&topo);
        let batch = make_batch(&topo, &[(n_locals, seed, 0)]);
        let (task, selected) = &batch[0];
        let snap = db.snapshot();
        let proposal = FlexibleMst::paper().propose_once(task, selected, &snap);
        // Nothing schedulable here means nothing to reject: draw again.
        prop_assume!(proposal.is_ok());
        let proposal = proposal.unwrap();

        // Invalidate one claimed resource behind the proposal's back.
        let victim = proposal.claims.links[claim_idx % proposal.claims.links.len()].link;
        match sabotage {
            0 => db.write(|net, _, _| {
                let res = net.residual_gbps(victim).unwrap();
                net.add_background(victim, (res - 1e-6).max(0.0)).unwrap();
            }),
            1 => db.write(|net, _, _| net.set_down(victim.link, true).unwrap()),
            _ => db.write(|net, opt, _| {
                // Exhaust and fill every wavelength of the victim link.
                let link = net.topo().link(victim.link).unwrap().clone();
                let hop = flexsched_topo::Path::new(vec![link.a, link.b], vec![victim.link])
                    .unwrap();
                while let Ok(id) = opt.establish(hop.clone()) {
                    let cap = opt.lightpath(id).unwrap().capacity_gbps;
                    opt.add_groomed(id, cap).unwrap();
                }
            }),
        }

        let before = db.read(|net, opt, _| (format!("{net:?}"), format!("{opt:?}")));
        let mut committer = Committer::new();
        // The victim claim no longer fits, so the commit MUST be rejected
        // with the conflict its sabotage calls for.
        let err = committer.apply(&db, Intent::admit(&proposal)).unwrap_err();
        prop_assert!(match sabotage {
            0 => matches!(err, OrchError::Rejected(Conflict::StaleLink { .. })),
            1 => matches!(err, OrchError::Rejected(Conflict::LinkDown { .. })),
            _ => matches!(err, OrchError::Rejected(Conflict::WavelengthTaken { .. })),
        }, "unexpected rejection: {err}");
        let after = db.read(|net, opt, _| (format!("{net:?}"), format!("{opt:?}")));
        prop_assert_eq!(before.0, after.0, "NetworkState changed on rejection");
        prop_assert_eq!(before.1, after.1, "OpticalState changed on rejection");
        let (commits, rejections) = committer.counters();
        prop_assert_eq!((commits, rejections), (0, 1));
    }
}
