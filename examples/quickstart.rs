//! Quickstart: schedule one distributed AI task two ways and compare.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use flexsched::compute::{ClusterManager, ModelProfile, ServerSpec};
use flexsched::sched::{evaluate_schedule, FixedSpff, FlexibleMst, NetworkSnapshot, Scheduler};
use flexsched::simnet::{NetworkState, Transport};
use flexsched::task::{AiTask, TaskId};
use flexsched::topo::builders;
use std::sync::Arc;

fn main() {
    // 1. Build the metro testbed topology: 6 ROADMs in a WDM ring, one IP
    //    router each, 4 servers per router.
    let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
    let state = NetworkState::new(Arc::clone(&topo));
    let cluster = ClusterManager::from_topology(&topo, ServerSpec::default());

    // 2. Describe a distributed AI task: a global model and 8 local models.
    let servers = topo.servers();
    let task = AiTask {
        id: TaskId(0),
        model: ModelProfile::mobilenet(),
        global_site: servers[0],
        local_sites: servers[1..9].to_vec(),
        data_utility: Default::default(),
        iterations: 5,
        comm_budget_ms: 10.0,
        arrival_ns: 0,
        class: Default::default(),
    };
    println!(
        "task: {} locals, {:.1} MB per update, {:.1} Gbps demand",
        task.num_locals(),
        task.update_bytes() as f64 / 1e6,
        task.demand_gbps()
    );

    // 3. Schedule it with both policies and evaluate.
    for sched in [&FixedSpff as &dyn Scheduler, &FlexibleMst::paper()] {
        let mut state = state.clone();
        let schedule = {
            let snap = NetworkSnapshot::capture(&state);
            sched
                .propose_once(&task, &task.local_sites, &snap)
                .expect("the idle metro network can fit one task")
                .schedule
        };
        schedule.apply(&mut state).expect("reservation fits");
        let mut links = Vec::new();
        schedule.links_into(&mut links);
        let report = evaluate_schedule(&task, &schedule, &state, &cluster, &Transport::tcp())
            .expect("evaluation succeeds");
        println!(
            "{:>13}: iteration {:.2} ms (train {:.2} + bcast {:.2} + upload {:.2}), \
             bandwidth {:.0} Gbps over {} links, aggregation at {:?}",
            report.scheduler,
            report.iteration_ms(),
            report.training_ns as f64 / 1e6,
            report.broadcast_ns as f64 / 1e6,
            report.upload_ns as f64 / 1e6,
            report.bandwidth_gbps,
            links.len(),
            schedule.aggregation_points(&topo)
        );
    }
}
