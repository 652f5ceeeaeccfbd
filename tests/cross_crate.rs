//! Cross-crate integration: scheduler output driving the optical layer
//! and the orchestrator's database.

use flexsched::compute::{ClusterManager, ModelProfile, ServerSpec};
use flexsched::optical::{GroomingManager, OpticalState};
use flexsched::orchestrator::Database;
use flexsched::sched::{FlexibleMst, NetworkSnapshot, RoutingPlan, Scheduler};
use flexsched::simnet::NetworkState;
use flexsched::task::{AiTask, TaskId};
use flexsched::topo::builders;
use std::sync::Arc;

fn rig() -> (Arc<flexsched::topo::Topology>, NetworkState, AiTask) {
    let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
    let state = NetworkState::new(Arc::clone(&topo));
    let servers = topo.servers();
    let task = AiTask {
        id: TaskId(0),
        model: ModelProfile::mobilenet(),
        global_site: servers[0],
        local_sites: servers[1..9].to_vec(),
        data_utility: Default::default(),
        iterations: 3,
        comm_budget_ms: 10.0,
        arrival_ns: 0,
        class: Default::default(),
    };
    (topo, state, task)
}

/// A flexible schedule's tree chains groom onto wavelengths, sharing
/// lightpaths between broadcast and upload where endpoints coincide.
#[test]
fn schedule_grooms_onto_wavelengths() {
    let (topo, state, task) = rig();
    let schedule = {
        let snap = NetworkSnapshot::capture(&state);
        FlexibleMst::paper()
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap()
            .schedule
    };
    let mut optical = OpticalState::new(Arc::clone(&topo));
    let mut groom = GroomingManager::new();
    let mut demands = Vec::new();
    for plan in [&schedule.broadcast, &schedule.upload] {
        if let RoutingPlan::Tree { tree, .. } = plan {
            for chain in tree.chains() {
                demands.push(
                    groom
                        .groom(&mut optical, &chain, schedule.demand_gbps)
                        .expect("idle WDM metro fits one task"),
                );
            }
        }
    }
    assert!(optical.lightpath_count() > 0);
    assert!(
        groom.reuse_hits() > 0,
        "upload must reuse the broadcast tree's lightpaths"
    );
    for d in demands {
        groom.release(&mut optical, d).unwrap();
    }
    assert_eq!(optical.lightpath_count(), 0);
}

/// Storing a schedule in the database reserves the schedule's own
/// accounting on the network, and taking it out releases it cleanly.
#[test]
fn stored_schedule_reserves_its_bandwidth_and_taking_it_releases() {
    let (topo, state, task) = rig();
    let schedule = {
        let snap = NetworkSnapshot::capture(&state);
        FlexibleMst::paper()
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap()
            .schedule
    };
    let db = Database::new(
        state,
        OpticalState::new(Arc::clone(&topo)),
        ClusterManager::from_topology(&topo, ServerSpec::default()),
    );
    db.store_schedule(schedule.clone()).unwrap();
    let total = schedule.total_bandwidth_gbps(&topo).unwrap();
    assert!((db.total_reserved_gbps() - total).abs() < 1e-6);

    assert_eq!(db.take_schedule(schedule.task).unwrap().task, schedule.task);
    assert!(db.total_reserved_gbps().abs() < 1e-9);
    assert!(db.ledger_leftovers().is_empty());
}

/// Soft failures shrink the flexible scheduler's options but it still
/// schedules around them.
#[test]
fn soft_failures_are_routed_around() {
    use flexsched::optical::softfail::{apply, SoftFailure};
    let (topo, state, task) = rig();
    let mut optical = OpticalState::new(Arc::clone(&topo));
    // Impair most wavelengths of the first core ring span.
    let span = topo
        .find_link(flexsched::topo::NodeId(0), flexsched::topo::NodeId(1))
        .unwrap();
    apply(
        &mut optical,
        SoftFailure {
            link: span,
            severity: 7,
        },
    )
    .unwrap();
    let snap = NetworkSnapshot::capture(&state).with_optical(&optical);
    // One wavelength still free -> scheduling must still succeed.
    let s = FlexibleMst::paper()
        .propose_once(&task, &task.local_sites, &snap)
        .unwrap()
        .schedule;
    assert!(s.total_bandwidth_gbps(&topo).unwrap() > 0.0);
}
