//! Measured task outcomes: the raw data behind Figures 3a and 3b.

use crate::task::TaskId;
use serde::{Deserialize, Serialize};

/// What one scheduled task cost, per iteration and in total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskReport {
    /// The task measured.
    pub task: TaskId,
    /// Scheduler that produced the schedule (for labelling output).
    pub scheduler: &'static str,
    /// Number of local models actually scheduled (after selection).
    pub locals_scheduled: usize,
    /// Per-iteration local training latency, ns (max across locals).
    pub training_ns: u64,
    /// Per-iteration broadcast completion latency, ns.
    pub broadcast_ns: u64,
    /// Per-iteration upload completion latency, ns (includes in-network
    /// aggregation time along the tree).
    pub upload_ns: u64,
    /// Aggregation compute on the critical path, ns (already included in
    /// `upload_ns`; broken out for ablation reporting).
    pub aggregation_ns: u64,
    /// Iterations executed.
    pub iterations: u32,
    /// Bandwidth the schedule holds while active: sum over directed links of
    /// reserved Gbit/s (the Figure-3b metric).
    pub bandwidth_gbps: f64,
    /// Times the task was rescheduled during its lifetime.
    pub reschedules: u32,
}

impl TaskReport {
    /// Per-iteration total latency, ns: training + communication.
    pub fn iteration_ns(&self) -> u64 {
        self.training_ns + self.broadcast_ns + self.upload_ns
    }

    /// Total latency over all iterations, ns (the Figure-3a quantity, which
    /// the paper reports per-iteration-averaged; see `iteration_ms`).
    pub fn total_ns(&self) -> u64 {
        self.iteration_ns() * u64::from(self.iterations.max(1))
    }

    /// Per-iteration latency in milliseconds (the units of Figure 3a).
    pub fn iteration_ms(&self) -> f64 {
        self.iteration_ns() as f64 / 1e6
    }
}

/// Aggregate a slice of reports into (mean iteration latency ms, total
/// bandwidth Gbps) — one point of Figures 3a/3b.
pub fn aggregate(reports: &[TaskReport]) -> (f64, f64) {
    if reports.is_empty() {
        return (0.0, 0.0);
    }
    let mean_ms = reports.iter().map(TaskReport::iteration_ms).sum::<f64>() / reports.len() as f64;
    let bw = reports.iter().map(|r| r.bandwidth_gbps).sum::<f64>();
    (mean_ms, bw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(training: u64, bcast: u64, upload: u64) -> TaskReport {
        TaskReport {
            task: TaskId(0),
            scheduler: "test",
            locals_scheduled: 3,
            training_ns: training,
            broadcast_ns: bcast,
            upload_ns: upload,
            aggregation_ns: 0,
            iterations: 4,
            bandwidth_gbps: 10.0,
            reschedules: 0,
        }
    }

    #[test]
    fn iteration_sums_components() {
        let r = report(100, 30, 50);
        assert_eq!(r.iteration_ns(), 180);
        assert_eq!(r.total_ns(), 720);
    }

    #[test]
    fn iteration_ms_converts_units() {
        let r = report(1_000_000, 500_000, 500_000);
        assert!((r.iteration_ms() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_means_latency_and_sums_bandwidth() {
        let (ms, bw) = aggregate(&[report(1_000_000, 0, 0), report(3_000_000, 0, 0)]);
        assert!((ms - 2.0).abs() < 1e-12);
        assert!((bw - 20.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_of_empty_is_zero() {
        assert_eq!(aggregate(&[]), (0.0, 0.0));
    }
}
