//! E3 — the Figure-1 scenario: fixed vs flexible connectivity sets.
//!
//! Reproduces the poster's motivating picture: a global model `G` and three
//! locals `L1..L3`, where the flexible scheduler serves `L3` *through* `L2`
//! (connectivity set `G->L1, G->L2->L3`) instead of three end-to-end paths.
//!
//! ```text
//! cargo run --example fixed_vs_flexible
//! ```

use flexsched::compute::ModelProfile;
use flexsched::sched::{FixedSpff, FlexibleMst, NetworkSnapshot, RoutingPlan, Scheduler};
use flexsched::simnet::NetworkState;
use flexsched::task::{AiTask, TaskId};
use flexsched::topo::{NodeKind, Topology};
use std::sync::Arc;

fn main() {
    // The Figure-1 topology: L3 reachable cheaply via L2, expensively direct.
    let mut t = Topology::new();
    let g = t.add_node(NodeKind::Server, "G");
    let r1 = t.add_node(NodeKind::IpRouter, "r1");
    let r2 = t.add_node(NodeKind::IpRouter, "r2");
    let l1 = t.add_node(NodeKind::Server, "L1");
    let l2 = t.add_node(NodeKind::Server, "L2");
    let l3 = t.add_node(NodeKind::Server, "L3");
    t.add_link(g, r1, 1.0, 100.0).unwrap();
    t.add_link(r1, l1, 1.0, 100.0).unwrap();
    t.add_link(g, r2, 1.0, 100.0).unwrap();
    t.add_link(r2, l2, 1.0, 100.0).unwrap();
    t.add_link(l2, l3, 1.0, 100.0).unwrap();
    t.add_link(r2, l3, 6.0, 100.0).unwrap(); // the long direct detour
    let topo = Arc::new(t);
    let state = NetworkState::new(Arc::clone(&topo));

    let task = AiTask {
        id: TaskId(0),
        model: ModelProfile::mobilenet(),
        global_site: g,
        local_sites: vec![l1, l2, l3],
        data_utility: Default::default(),
        iterations: 1,
        comm_budget_ms: 10.0,
        arrival_ns: 0,
        class: Default::default(),
    };

    let snap = NetworkSnapshot::capture(&state);
    for sched in [&FixedSpff as &dyn Scheduler, &FlexibleMst::paper()] {
        let s = sched
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap()
            .schedule;
        println!("{} connectivity set:", s.scheduler);
        match &s.broadcast {
            RoutingPlan::Paths(map) => {
                for (local, rp) in map {
                    println!("  G -> {}: {}", topo.node(*local).unwrap().name, rp.path);
                }
            }
            RoutingPlan::Tree { tree, .. } => {
                for local in &s.selected_locals {
                    let p = tree.path_from_root(*local).unwrap();
                    println!("  G -> {}: {}", topo.node(*local).unwrap().name, p);
                }
                println!(
                    "  upload aggregation at: {:?}",
                    s.aggregation_points(&topo)
                        .iter()
                        .map(|n| topo.node(*n).unwrap().name.clone())
                        .collect::<Vec<_>>()
                );
            }
        }
        let mut links = Vec::new();
        s.links_into(&mut links);
        println!(
            "  total bandwidth: {:.0} Gbps over {} links\n",
            s.total_bandwidth_gbps(&topo).unwrap(),
            links.len()
        );
    }
    println!("The flexible tree relays L3 via L2, exactly as in Figure 1 of the poster.");
}
