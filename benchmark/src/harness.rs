//! Runs of the *real* drivers: construction, one timed run, the output
//! checks, and the digest of simulated results the metrics are read from.

use crate::layers::{
    DagEventTestbed, Database, EventTestbed, MemoryMode, RunSummary, Scheduler, TimedScheduler,
};
use crate::stats::Fnv;
use crate::workloads::{Scenario, Workload};
use std::time::Instant;

/// In-flight state must not grow with the horizon: the event heap's
/// high-water mark on the bounded-memory metro workloads stays below this.
const PEAK_PENDING_LIMIT: u64 = 2_000;

/// The simulated outcome of one run. Every field repeats bit-exactly for a
/// given seed; `fingerprint` folds them all.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    /// Arrivals offered: tasks, or jobs on the DAG workload.
    pub offered: u64,
    /// Arrivals that ran to completion.
    pub completed: u64,
    /// Arrivals that exhausted the plain retry budget.
    pub blocked: u64,
    /// Arrivals turned away by the gate or its retry budget.
    pub shed: u64,
    /// Schedulable units brought to a terminal state: the offered tasks, or
    /// the committed stages on the DAG workload.
    pub units: u64,
    /// Re-presentations (retried arrivals or gangs).
    pub retries: u64,
    /// Events the engine dispatched.
    pub events: u64,
    /// High-water mark of the event heap (0 where the driver hides it).
    pub peak_pending: u64,
    /// Median time in system (per task; per job = makespan), ns.
    pub sojourn_p50_ns: u64,
    /// 99th-percentile time in system, ns.
    pub sojourn_p99_ns: u64,
    /// Samples behind the sojourn percentiles.
    pub sojourn_samples: u64,
    /// Mean per-iteration latency over started units, ms.
    pub iteration_ms_mean: f64,
    /// Mean bandwidth a started unit's schedule reserves, Gbit/s.
    pub task_bw_gbps_mean: f64,
    /// Critical-path inflation x1000 (DAG only; 0 elsewhere).
    pub inflation_p99_milli: u64,
    /// Mean critical-path inflation x1000 (DAG only; 0 elsewhere).
    pub inflation_mean_milli: f64,
    /// Decisions routed to the degraded scheduler.
    pub degraded: u64,
    /// Successful migrations.
    pub reschedules: u64,
    /// Migrations installed through the repair path.
    pub repairs: u64,
    /// Gate verdicts (admit, degrade, shed), summed over classes.
    pub verdicts: [u64; 3],
    /// Gang commits (succeeded, rejected); DAG only.
    pub gangs: (u64, u64),
    /// Grooming placements (reused lightpath, new wavelength).
    pub groom: (u64, u64),
    /// FNV fold of everything above.
    pub fingerprint: u64,
}

/// The scalars a monolithic-task run (real or replayed) is digested from.
pub struct MonoParts {
    pub completed: u64,
    pub blocked: u64,
    pub shed: u64,
    pub retries: u64,
    pub events: u64,
    pub peak_pending: u64,
    pub sojourn_p50_ns: u64,
    pub sojourn_p99_ns: u64,
    pub mean_iteration_ms: f64,
    pub sum_task_bandwidth_gbps: f64,
    pub degraded: u64,
    pub reschedules: u64,
    pub repairs: u64,
    pub verdicts: [u64; 3],
    pub groom: (u64, u64),
    pub duration_ns: u64,
    pub peak_reserved_gbps: f64,
    pub mean_reserved_gbps: f64,
}

/// The scalars a DAG run (real or replayed) is digested from.
pub struct DagParts {
    pub jobs: u64,
    pub jobs_completed: u64,
    pub jobs_shed: u64,
    pub stages_committed: u64,
    pub gang_commits: u64,
    pub gang_rejections: u64,
    pub retries: u64,
    pub events: u64,
    pub makespan_p50_ns: u64,
    pub makespan_p99_ns: u64,
    pub inflation_p50_milli: u64,
    pub inflation_p99_milli: u64,
    pub inflation_mean_milli: f64,
    pub mean_iteration_ms: f64,
    pub sum_task_bandwidth_gbps: f64,
    pub reschedules: u64,
    pub repairs: u64,
    pub groom: (u64, u64),
    pub duration_ns: u64,
    pub peak_reserved_gbps: f64,
    pub mean_reserved_gbps: f64,
}

impl Digest {
    /// Check a monolithic-task run's accounting and digest it.
    pub fn monolithic(scn: &Scenario, p: MonoParts) -> Result<Digest, String> {
        let name = scn.name();
        let offered = scn.units as u64;
        if p.completed + p.blocked + p.shed != offered {
            return Err(format!(
                "{name}: completed {} + blocked {} + shed {} != offered {offered}",
                p.completed, p.blocked, p.shed
            ));
        }
        if matches!(scn.workload, Workload::MetroSteady | Workload::MetroFaults)
            && p.peak_pending >= PEAK_PENDING_LIMIT
        {
            return Err(format!(
                "{name}: peak pending events {} >= {PEAK_PENDING_LIMIT}",
                p.peak_pending
            ));
        }
        // No reschedule retry budget is configured, so no running task is
        // ever shed: every started task completes, started == completed.
        let started = p.completed.max(1) as f64;
        Ok(Digest {
            offered,
            completed: p.completed,
            blocked: p.blocked,
            shed: p.shed,
            units: offered,
            retries: p.retries,
            events: p.events,
            peak_pending: p.peak_pending,
            sojourn_p50_ns: p.sojourn_p50_ns,
            sojourn_p99_ns: p.sojourn_p99_ns,
            sojourn_samples: p.completed,
            iteration_ms_mean: p.mean_iteration_ms,
            task_bw_gbps_mean: p.sum_task_bandwidth_gbps / started,
            inflation_p99_milli: 0,
            inflation_mean_milli: 0.0,
            degraded: p.degraded,
            reschedules: p.reschedules,
            repairs: p.repairs,
            verdicts: p.verdicts,
            gangs: (0, 0),
            groom: p.groom,
            fingerprint: 0,
        }
        .seal([
            p.duration_ns as f64,
            p.sum_task_bandwidth_gbps,
            p.peak_reserved_gbps,
            p.mean_reserved_gbps,
        ]))
    }

    /// Check a DAG run's accounting and digest it.
    pub fn dag(scn: &Scenario, p: DagParts) -> Result<Digest, String> {
        let name = scn.name();
        if p.jobs != scn.units as u64 || p.jobs_completed + p.jobs_shed != p.jobs {
            return Err(format!(
                "{name}: jobs completed {} + shed {} != jobs {} (offered {})",
                p.jobs_completed, p.jobs_shed, p.jobs, scn.units
            ));
        }
        if p.jobs_completed > 0 && p.inflation_p50_milli < 1000 {
            return Err(format!(
                "{name}: makespan beat the ideal critical path (inflation p50 {})",
                p.inflation_p50_milli
            ));
        }
        let started = p.stages_committed.max(1) as f64;
        Ok(Digest {
            offered: p.jobs,
            completed: p.jobs_completed,
            blocked: 0,
            shed: p.jobs_shed,
            units: p.stages_committed,
            retries: p.retries,
            events: p.events,
            peak_pending: 0,
            sojourn_p50_ns: p.makespan_p50_ns,
            sojourn_p99_ns: p.makespan_p99_ns,
            sojourn_samples: p.jobs_completed,
            iteration_ms_mean: p.mean_iteration_ms,
            task_bw_gbps_mean: p.sum_task_bandwidth_gbps / started,
            inflation_p99_milli: p.inflation_p99_milli,
            inflation_mean_milli: p.inflation_mean_milli,
            degraded: 0,
            reschedules: p.reschedules,
            repairs: p.repairs,
            verdicts: [0; 3],
            gangs: (p.gang_commits, p.gang_rejections),
            groom: p.groom,
            fingerprint: 0,
        }
        .seal([
            p.duration_ns as f64,
            p.sum_task_bandwidth_gbps,
            p.peak_reserved_gbps,
            p.mean_reserved_gbps,
        ]))
    }

    /// Fold every field, plus run-level scalars that are no metric of
    /// their own, into the fingerprint.
    fn seal(mut self, extra: [f64; 4]) -> Self {
        let mut h = Fnv::default();
        for w in [
            self.offered,
            self.completed,
            self.blocked,
            self.shed,
            self.units,
            self.retries,
            self.events,
            self.peak_pending,
            self.sojourn_p50_ns,
            self.sojourn_p99_ns,
            self.sojourn_samples,
            self.inflation_p99_milli,
            self.degraded,
            self.reschedules,
            self.repairs,
            self.verdicts[0],
            self.verdicts[1],
            self.verdicts[2],
            self.gangs.0,
            self.gangs.1,
            self.groom.0,
            self.groom.1,
        ] {
            h.fold(w);
        }
        for f in [
            self.iteration_ms_mean,
            self.task_bw_gbps_mean,
            self.inflation_mean_milli,
        ]
        .into_iter()
        .chain(extra)
        {
            h.fold_f64(f);
        }
        self.fingerprint = h.finish();
        self
    }
}

/// A constructed, not yet run, real driver.
pub enum Driver {
    /// `EventTestbed` in bounded-memory mode (the metro workloads).
    Event(Box<EventTestbed>, Scenario),
    /// `DagEventTestbed` (the backbone workload).
    Dag(Box<DagEventTestbed>, Scenario),
}

/// Build the scenario's driver: topology, `Database`, commit plane,
/// workload stream (and on the DAG workload every job's containers).
pub fn build(scn: Scenario) -> Result<Driver, String> {
    build_with(scn, scn.scheduler())
}

/// [`build`] with the scheduler wrapped in the span-recording
/// [`TimedScheduler`] (the traced run's in-situ instrument).
pub fn build_timed(scn: Scenario) -> Result<Driver, String> {
    build_with(scn, Box::new(TimedScheduler(scn.scheduler())))
}

fn build_with(scn: Scenario, scheduler: Box<dyn Scheduler>) -> Result<Driver, String> {
    if scn.workload.is_dag() {
        let tb = DagEventTestbed::new(scn.dag_config(), scheduler)
            .map_err(|e| format!("{}: driver construction failed: {e}", scn.name()))?;
        Ok(Driver::Dag(Box::new(tb), scn))
    } else {
        let tb = EventTestbed::new(scn.testbed_config(), scheduler)
            .with_memory_mode(MemoryMode::Bounded);
        Ok(Driver::Event(Box::new(tb), scn))
    }
}

impl Driver {
    /// Run to the horizon, check the outputs, and digest them. Returns the
    /// digest and the run's host wall time in seconds.
    pub fn run(self) -> Result<(Digest, f64), String> {
        match self {
            Driver::Event(tb, scn) => {
                let db = tb.database().clone();
                let start = Instant::now();
                let outcome = tb.run_detailed(false);
                let wall = start.elapsed().as_secs_f64();
                let outcome = outcome.map_err(|e| format!("{}: run failed: {e}", scn.name()))?;
                let digest =
                    digest_event(&scn, &outcome.summary, outcome.peak_pending_events as u64)?;
                check_drained(&scn, &db)?;
                Ok((digest, wall))
            }
            Driver::Dag(tb, scn) => {
                let db = tb.database().clone();
                let start = Instant::now();
                let summary = tb.run();
                let wall = start.elapsed().as_secs_f64();
                let summary = summary.map_err(|e| format!("{}: run failed: {e}", scn.name()))?;
                let digest = digest_dag(&scn, &summary)?;
                check_drained(&scn, &db)?;
                Ok((digest, wall))
            }
        }
    }
}

/// Digest a real monolithic-task run's summary.
fn digest_event(scn: &Scenario, s: &RunSummary, peak_pending: u64) -> Result<Digest, String> {
    let sojourn = s
        .sojourn
        .ok_or_else(|| format!("{}: event run reported no sojourn stats", scn.name()))?;
    let verdicts = s.admission.as_ref().map_or([0; 3], |a| {
        [
            a.admitted.iter().sum(),
            a.degraded.iter().sum(),
            a.shed.iter().sum(),
        ]
    });
    Digest::monolithic(
        scn,
        MonoParts {
            completed: sojourn.completed,
            blocked: u64::from(s.blocked),
            shed: u64::from(s.shed),
            retries: u64::from(s.retries),
            events: s.events,
            peak_pending,
            sojourn_p50_ns: sojourn.sojourn_p50_ns,
            sojourn_p99_ns: sojourn.sojourn_p99_ns,
            mean_iteration_ms: s.mean_iteration_ms,
            sum_task_bandwidth_gbps: s.sum_task_bandwidth_gbps,
            degraded: u64::from(s.degraded_decisions),
            reschedules: u64::from(s.reschedules),
            repairs: u64::from(s.repairs),
            verdicts,
            groom: (s.groom_reuse_hits, s.groom_new_lights),
            duration_ns: s.duration.as_ns(),
            peak_reserved_gbps: s.peak_reserved_gbps,
            mean_reserved_gbps: s.mean_reserved_gbps,
        },
    )
}

/// Digest a real DAG run's summary.
fn digest_dag(scn: &Scenario, s: &RunSummary) -> Result<Digest, String> {
    let d = s
        .dag
        .ok_or_else(|| format!("{}: DAG run reported no DAG stats", scn.name()))?;
    Digest::dag(
        scn,
        DagParts {
            jobs: d.jobs,
            jobs_completed: d.jobs_completed,
            jobs_shed: d.jobs_shed,
            stages_committed: d.stages_committed,
            gang_commits: d.gang_commits,
            gang_rejections: d.gang_rejections,
            retries: u64::from(s.retries),
            events: s.events,
            makespan_p50_ns: d.makespan_p50_ns,
            makespan_p99_ns: d.makespan_p99_ns,
            inflation_p50_milli: d.inflation_p50_milli,
            inflation_p99_milli: d.inflation_p99_milli,
            inflation_mean_milli: d.inflation_mean_milli,
            mean_iteration_ms: s.mean_iteration_ms,
            sum_task_bandwidth_gbps: s.sum_task_bandwidth_gbps,
            reschedules: u64::from(s.reschedules),
            repairs: u64::from(s.repairs),
            groom: (s.groom_reuse_hits, s.groom_new_lights),
            duration_ns: s.duration.as_ns(),
            peak_reserved_gbps: s.peak_reserved_gbps,
            mean_reserved_gbps: s.mean_reserved_gbps,
        },
    )
}

/// After the drain nothing may be left reserved, and no per-task
/// bookkeeping may survive. (The DAG driver keeps its task records by
/// design — it never prunes — so only those are tolerated there.)
pub fn check_drained(scn: &Scenario, db: &Database) -> Result<(), String> {
    let name = scn.name();
    let reserved = db.total_reserved_gbps();
    if reserved.abs() >= 1e-6 {
        return Err(format!(
            "{name}: {reserved} Gbit/s still reserved after the drain"
        ));
    }
    let leftovers: Vec<String> = db
        .ledger_leftovers()
        .into_iter()
        .filter(|l| !(scn.workload.is_dag() && l.starts_with("task record")))
        .collect();
    if let Some(first) = leftovers.first() {
        return Err(format!(
            "{name}: ledger not empty after the drain ({} leftovers, first: {first})",
            leftovers.len()
        ));
    }
    Ok(())
}
