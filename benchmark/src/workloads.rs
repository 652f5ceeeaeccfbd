//! The four benchmark workloads: closed-form seeded scenario generators.
//!
//! Arrivals are an open loop in *simulated* time (Poisson gaps from the
//! seeded stream); the host runs the simulation flat out. The seed feeds
//! `WorkloadConfig.seed` and `fault_seed` and nothing else, so the program
//! under test only ever sees generated inputs.

use crate::layers::{
    AdmissionConfig, BackboneParams, ClassBucket, DagConfig, DagTestbedConfig, DagTopology,
    FlexibleMst, RepairScope, ReschedulePolicy, Scheduler, ServiceClass, SimTime, TestbedConfig,
    WorkloadConfig, PRODUCTION_CLASS_MIX,
};

/// One of the benchmark's four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper metro fabric in steady state (~35 % load): no layer dominates.
    MetroSteady,
    /// 2x overload through the admission gate: gate, engine and the commit
    /// reject path do the work.
    MetroOverload,
    /// Link-fault storm with periodic reschedule checks: the repair path.
    MetroFaults,
    /// DAG jobs gang-admitted on a 20k-link backbone: O(links) decisions.
    BackboneDag,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::MetroSteady,
        Workload::MetroOverload,
        Workload::MetroFaults,
        Workload::BackboneDag,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MetroSteady => "metro_steady",
            Workload::MetroOverload => "metro_overload",
            Workload::MetroFaults => "metro_faults",
            Workload::BackboneDag => "backbone_dag",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the DAG driver (units are jobs, the
    /// schedulable unit is a stage).
    pub fn is_dag(self) -> bool {
        self == Workload::BackboneDag
    }

    /// Arrivals (tasks, or jobs on `backbone_dag`) offered per repeat.
    /// Sized on the 2-core reference host so one repeat takes 0.3-0.6 s: the
    /// calibration kernel runs between repeats (see `calib`), and it follows
    /// the host's speed the better the finer the two are interleaved — the
    /// host's slowdown moves within a second. Each repeat is still 2.5-40
    /// simulated seconds on the metro workloads, against a time in system
    /// of 0.4 s. The DAG driver places every job's containers up front, so
    /// its population is capacity-bound and stages/s falls as it grows;
    /// repeats, not more jobs, fill the time.
    pub fn units(self) -> usize {
        match self {
            Workload::MetroSteady => 3_750,
            Workload::MetroOverload => 10_000,
            Workload::MetroFaults => 250,
            Workload::BackboneDag => 10,
        }
    }
}

/// Mean simulated gap between task arrivals on the steady and fault
/// workloads (~35 % of the metro fabric's capacity).
const STEADY_INTERARRIVAL_NS: u64 = 10_000_000;
/// The metro fabric serves about 250 tasks/s; the overload workload offers
/// twice that.
const FABRIC_TASKS_PER_S: f64 = 250.0;
const OVERLOAD_INTERARRIVAL_NS: u64 = 2_000_000;
/// Simulated time `metro_faults` leaves after the arrival window for the
/// last tasks to finish: the p99 time in system under faults is 1.1 s.
const FAULTS_DRAIN_MS: u64 = 5_000;
/// Link outages per 15 simulated seconds on `metro_faults`: 50 per 1 000
/// tasks' arrival window and drain tail, 3.3 a second.
const FAULTS_PER_15_S: u64 = 50;
/// Local models per task on the metro workloads (the horizon-sweep shape).
const METRO_LOCALS: usize = 4;
/// Local models per stage on the backbone: above the scheduler's
/// 12-terminal switch to the Mehlhorn closure and its cache.
const BACKBONE_LOCALS: usize = 16;
const BACKBONE_LINKS: usize = 20_000;

/// A workload instantiated at a seed and size.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Which workload.
    pub workload: Workload,
    /// The scenario seed (a sub-seed of the run's `--seed`).
    pub seed: u64,
    /// Arrivals offered (tasks or jobs).
    pub units: usize,
}

impl Scenario {
    /// The workload at its full per-repeat size.
    pub fn full(workload: Workload, seed: u64) -> Self {
        Scenario {
            workload,
            seed,
            units: workload.units(),
        }
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        self.workload.name()
    }

    /// The scenario the set-up phase warms up on, two fifths of a repeat.
    pub fn warmup(workload: Workload, seed: u64) -> Self {
        Scenario {
            workload,
            seed,
            units: workload.units() * 2 / 5,
        }
    }

    /// The scenario of the traced run, four repeats long: a layer's tail
    /// percentile needs ten samples beyond it, and one `backbone_dag`
    /// repeat makes under fifty proposals.
    pub fn traced(workload: Workload, seed: u64) -> Self {
        Scenario {
            workload,
            seed,
            units: workload.units() * 4,
        }
    }

    /// The scheduler every driver and replay of this workload uses.
    pub fn scheduler(&self) -> Box<dyn Scheduler> {
        match self.workload {
            // Mehlhorn closure + closure cache from 12 terminals.
            Workload::BackboneDag => Box::new(FlexibleMst::default()),
            // The poster's configuration: KMB closure at every scale.
            _ => Box::new(FlexibleMst::paper()),
        }
    }

    /// Monolithic-task scenario configuration (the three metro workloads).
    pub fn testbed_config(&self) -> TestbedConfig {
        let workload = |interarrival_ns| WorkloadConfig {
            num_tasks: self.units,
            locals_per_task: METRO_LOCALS,
            seed: self.seed,
            mean_interarrival_ns: interarrival_ns,
            ..WorkloadConfig::default()
        };
        let base = TestbedConfig {
            fault_seed: self.seed,
            // Far past the last departure: no run is clipped.
            horizon: SimTime::from_secs(1_000_000),
            ..TestbedConfig::default()
        };
        match self.workload {
            Workload::MetroSteady => TestbedConfig {
                workload: workload(STEADY_INTERARRIVAL_NS),
                ..base
            },
            Workload::MetroOverload => TestbedConfig {
                workload: WorkloadConfig {
                    class_mix: PRODUCTION_CLASS_MIX,
                    ..workload(OVERLOAD_INTERARRIVAL_NS)
                },
                admission: Some(overload_gate()),
                ..base
            },
            Workload::MetroFaults => {
                // The arrival window plus a drain tail. The run is cut at
                // the horizon, and the fault schedule is drawn over it.
                let horizon_ms =
                    self.units as u64 * STEADY_INTERARRIVAL_NS / 1_000_000 + FAULTS_DRAIN_MS;
                TestbedConfig {
                    workload: workload(STEADY_INTERARRIVAL_NS),
                    reschedule: Some(ReschedulePolicy::default()),
                    fault_count: (horizon_ms * FAULTS_PER_15_S).div_ceil(15_000) as usize,
                    mean_repair: SimTime::from_ms(200),
                    horizon: SimTime::from_ms(horizon_ms),
                    ..base
                }
            }
            Workload::BackboneDag => unreachable!("backbone_dag runs the DAG driver"),
        }
    }

    /// The backbone fabric of `backbone_dag` (20 181 links).
    pub fn backbone_params(&self) -> BackboneParams {
        BackboneParams::default().with_target_links(BACKBONE_LINKS)
    }

    /// DAG scenario configuration (`backbone_dag`).
    pub fn dag_config(&self) -> DagTestbedConfig {
        DagTestbedConfig {
            topology: DagTopology::Backbone(self.backbone_params()),
            workload: WorkloadConfig {
                // One model (mobilenet). A data item drains at its
                // producer's demand, and a lenet stage's demand is so small
                // that its hand-offs take minutes: with the default mix a
                // job's makespan is a lottery over which stages drew lenet
                // (median makespan 6-34 s across seeds), not a measure of
                // the scheduling under test.
                model_mix: vec![1],
                ..WorkloadConfig::seeded_scenario(self.seed, self.units, BACKBONE_LOCALS)
            },
            dag: DagConfig {
                num_jobs: self.units,
                ..DagConfig::default()
            },
            fault_seed: self.seed,
            repair_scope: RepairScope::Stage,
            horizon: SimTime::from_secs(1_000_000),
            ..DagTestbedConfig::default()
        }
    }
}

/// The overload workload's admission gate: Critical unmetered, Standard and
/// BestEffort buckets at 0.66 / 0.33 of the fabric's 1x rate. The queue
/// watermarks are tuned so that all three verdicts occur (traced scenario of
/// `--seed 2024`: 11.4 % admit, 2.5 % degrade, 86.1 % shed of 182 k
/// presentations, 31 % of tasks complete); at 24/6 and above the gate
/// hardly ever degrades, at 16/4 and below under a quarter complete.
fn overload_gate() -> AdmissionConfig {
    AdmissionConfig {
        queue_high: 20,
        queue_low: 5,
        latency_marks_ns: None,
        ..AdmissionConfig::default()
    }
    .with_bucket(
        ServiceClass::Standard,
        ClassBucket {
            rate_per_sec: 0.66 * FABRIC_TASKS_PER_S,
            burst: 8.0,
        },
    )
    .with_bucket(
        ServiceClass::BestEffort,
        ClassBucket {
            rate_per_sec: 0.33 * FABRIC_TASKS_PER_S,
            burst: 4.0,
        },
    )
}
