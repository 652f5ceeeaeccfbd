//! Stage-frontier tracking for DAG-structured jobs.
//!
//! [`JobTracker`] is the per-job state machine both testbed drivers share:
//! it knows which stages are released (their input data items have
//! drained), running, or completed, computes each successor's release time
//! from the data-edge transfer model when a stage finishes, and folds the
//! job's measured makespan against its ideal critical path — the
//! critical-path-inflation metric the DAG benches report.
//!
//! The tracker is pure bookkeeping: admission, commits and repair all run
//! through the ordinary snapshot → propose → commit pipeline on the
//! per-stage tasks.

use flexsched_task::AiJob;
use std::collections::{BTreeMap, BTreeSet};

/// Per-job progress: released / running / completed stages plus the
/// timing needed for makespan and critical-path-inflation metrics.
#[derive(Debug, Clone)]
pub struct JobTracker {
    job: AiJob,
    /// Stage → time its inputs finished draining (ready to gang-admit).
    released: BTreeMap<u32, u64>,
    running: BTreeSet<u32>,
    completed: BTreeSet<u32>,
    /// Stage → completion time.
    done_ns: BTreeMap<u32, u64>,
    /// Stage → duration estimate captured at admission (first report),
    /// the per-stage input to the ideal critical path.
    ideal_ns: BTreeMap<u32, u64>,
    shed: bool,
}

impl JobTracker {
    /// Track a validated job; its root stages release at `job.arrival_ns`.
    pub fn new(job: AiJob) -> Self {
        let released = job
            .roots()
            .into_iter()
            .map(|r| (r, job.arrival_ns))
            .collect();
        JobTracker {
            job,
            released,
            running: BTreeSet::new(),
            completed: BTreeSet::new(),
            done_ns: BTreeMap::new(),
            ideal_ns: BTreeMap::new(),
            shed: false,
        }
    }

    /// The tracked job.
    pub fn job(&self) -> &AiJob {
        &self.job
    }

    /// Released stages not yet running or completed — the frontier to
    /// gang-admit next.
    pub fn ready(&self) -> Vec<u32> {
        self.released
            .keys()
            .copied()
            .filter(|s| !self.running.contains(s) && !self.completed.contains(s))
            .collect()
    }

    /// When `sid`'s inputs finished draining, if released.
    pub fn release_time(&self, sid: u32) -> Option<u64> {
        self.released.get(&sid).copied()
    }

    /// Mark a released stage as admitted and running.
    pub fn start(&mut self, sid: u32) {
        debug_assert!(
            self.released.contains_key(&sid),
            "starting an unreleased stage"
        );
        self.running.insert(sid);
    }

    /// Record the duration estimate the stage was admitted with (its
    /// first report's total); feeds the ideal critical path.
    pub fn note_ideal_duration(&mut self, sid: u32, ns: u64) {
        self.ideal_ns.entry(sid).or_insert(ns);
    }

    /// Complete a stage at `now`; returns the successors this completion
    /// released, each with the time its last input finishes draining
    /// (`max` over in-edges of producer completion + edge transfer).
    pub fn complete(&mut self, sid: u32, now: u64) -> Vec<(u32, u64)> {
        self.running.remove(&sid);
        self.completed.insert(sid);
        self.done_ns.insert(sid, now);
        let mut freed = Vec::new();
        for succ in self.job.successors(sid).collect::<Vec<_>>() {
            if self.released.contains_key(&succ) {
                continue;
            }
            if !self
                .job
                .predecessors(succ)
                .all(|p| self.completed.contains(&p))
            {
                continue;
            }
            let release_at = self
                .job
                .edges
                .iter()
                .filter(|e| e.to == succ)
                .map(|e| self.done_ns[&e.from] + self.job.edge_transfer_ns(e))
                .max()
                .unwrap_or(now);
            self.released.insert(succ, release_at);
            freed.push((succ, release_at));
        }
        freed
    }

    /// Every stage completed.
    pub fn is_done(&self) -> bool {
        self.completed.len() == self.job.stages.len()
    }

    /// Give up on the job (gang-admission retries exhausted).
    pub fn mark_shed(&mut self) {
        self.shed = true;
    }

    /// Whether the job was shed.
    pub fn is_shed(&self) -> bool {
        self.shed
    }

    /// Arrival → last stage completion, once done.
    pub fn makespan_ns(&self) -> Option<u64> {
        if !self.is_done() {
            return None;
        }
        let last = self.done_ns.values().max().copied()?;
        Some(last.saturating_sub(self.job.arrival_ns))
    }

    /// The job's ideal makespan: longest DAG path under the duration
    /// estimates captured at admission (unlimited resources, no faults,
    /// no queueing).
    pub(crate) fn ideal_critical_path_ns(&self) -> u64 {
        self.job
            .critical_path_ns(|s| self.ideal_ns.get(&s).copied().unwrap_or(0))
    }

    /// Critical-path inflation ×1000: measured makespan over ideal
    /// critical path, in milli-units (1000 = no inflation). `None` until
    /// the job completes or when no ideal durations were recorded.
    pub fn inflation_milli(&self) -> Option<u64> {
        let actual = self.makespan_ns()? as f64;
        let ideal = self.ideal_critical_path_ns() as f64;
        if ideal <= 0.0 {
            return None;
        }
        Some((actual / ideal * 1000.0).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_task::{AiTask, DataEdge, JobId, Stage, StageKind, TaskId};

    fn job() -> AiJob {
        let task = |id: u64| AiTask {
            id: TaskId(id),
            model: flexsched_compute::ModelProfile::mobilenet(),
            global_site: flexsched_topo::NodeId(0),
            local_sites: vec![flexsched_topo::NodeId(1)],
            data_utility: Default::default(),
            iterations: 1,
            comm_budget_ms: 10.0,
            arrival_ns: 0,
            class: Default::default(),
        };
        AiJob {
            id: JobId(0),
            stages: (0..3)
                .map(|i| Stage {
                    id: i,
                    kind: StageKind::Compute,
                    task: task(i as u64),
                })
                .collect(),
            edges: vec![
                DataEdge {
                    from: 0,
                    to: 1,
                    gbit: 1.0,
                },
                DataEdge {
                    from: 0,
                    to: 2,
                    gbit: 1.0,
                },
            ],
            arrival_ns: 100,
            class: Default::default(),
        }
    }

    #[test]
    fn tracker_walks_the_dag() {
        let mut t = JobTracker::new(job());
        assert_eq!(t.ready(), vec![0]);
        t.start(0);
        assert!(t.ready().is_empty());
        let freed = t.complete(0, 1_000);
        assert_eq!(freed.len(), 2);
        let transfer = t.job().edge_transfer_ns(&t.job().edges[0]);
        assert_eq!(freed[0], (1, 1_000 + transfer));
        assert_eq!(t.ready(), vec![1, 2]);
        t.start(1);
        t.start(2);
        t.complete(1, 5_000);
        assert!(!t.is_done());
        t.complete(2, 9_000);
        assert!(t.is_done());
        assert_eq!(t.makespan_ns(), Some(8_900));
    }

    #[test]
    fn inflation_compares_measured_to_ideal() {
        let mut t = JobTracker::new(job());
        for s in 0..3 {
            t.note_ideal_duration(s, 1_000);
        }
        t.start(0);
        t.complete(0, 100 + 1_000);
        let transfer = t.job().edge_transfer_ns(&t.job().edges[0]);
        t.start(1);
        t.start(2);
        // A second layer far slower than its ideal duration (the edge
        // transfer itself is ~10 ms here, so the slowdown must dwarf it).
        t.complete(1, 100 + 1_000 + transfer + 1_000_000_000);
        t.complete(2, 100 + 1_000 + transfer + 1_000_000_000);
        let ideal = t.ideal_critical_path_ns();
        assert_eq!(ideal, 2_000 + transfer);
        let inflation = t.inflation_milli().unwrap();
        assert!(inflation > 1000, "slower-than-ideal run must inflate");
    }
}
