//! E4 — the Figure-2 experimental framework, end to end.
//!
//! Walks the full control loop: the AI task manager admits tasks into the
//! database, the computing manager places containers, the scheduling policy
//! computes routing, the SDN controller installs flow rules, the optical
//! layer grooms wavelengths, background traffic and link faults perturb the
//! network, and the rescheduler migrates broken schedules.
//!
//! ```text
//! cargo run --release --example testbed_walkthrough
//! ```

use flexsched::orchestrator::{EventTestbed, TestbedConfig};
use flexsched::sched::{FlexibleMst, ReschedulePolicy};
use flexsched::simnet::{traffic::TrafficConfig, SimTime};
use flexsched::task::WorkloadConfig;

fn main() {
    let cfg = TestbedConfig {
        workload: WorkloadConfig {
            num_tasks: 12,
            locals_per_task: 6,
            mean_interarrival_ns: 50_000_000,
            ..WorkloadConfig::default()
        },
        traffic: Some(TrafficConfig {
            mean_rate_gbps: 5.0,
            ..TrafficConfig::default()
        }),
        fault_count: 3,
        mean_repair: SimTime::from_ms(40),
        reschedule: Some(ReschedulePolicy::default()),
        ..TestbedConfig::default()
    };
    println!("running the Figure-2 testbed: 12 tasks, live traffic, 3 link outages...");
    let summary = EventTestbed::new(cfg, Box::new(FlexibleMst::paper()))
        .run()
        .expect("scenario completes");

    println!("scheduler          : {}", summary.scheduler);
    println!("tasks completed    : {}", summary.reports.len());
    println!("tasks blocked      : {}", summary.blocked);
    println!("schedule retries   : {}", summary.retries);
    println!("reschedules        : {}", summary.reschedules);
    println!("mean iteration     : {:.2} ms", summary.mean_iteration_ms);
    println!(
        "peak reserved bw   : {:.0} Gbps",
        summary.peak_reserved_gbps
    );
    println!(
        "mean reserved bw   : {:.0} Gbps",
        summary.mean_reserved_gbps
    );
    println!(
        "wavelength grooming: {} reuses, {} new lightpaths",
        summary.groom_reuse_hits, summary.groom_new_lights
    );
    println!("simulated duration : {}", summary.duration);
    println!("events processed   : {}", summary.events);

    println!("\nper-task reports:");
    for r in &summary.reports {
        println!(
            "  {:>7} [{}] locals={:<2} iter={:.2}ms (train {:.2} / comm {:.2}) bw={:.0}G resched={}",
            r.task.to_string(),
            r.scheduler,
            r.locals_scheduled,
            r.iteration_ms(),
            r.training_ns as f64 / 1e6,
            (r.broadcast_ns + r.upload_ns) as f64 / 1e6,
            r.bandwidth_gbps,
            r.reschedules,
        );
    }
}
