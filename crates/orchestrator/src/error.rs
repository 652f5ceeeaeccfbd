//! Error type for the orchestrator.

use flexsched_task::TaskId;
use std::fmt;

/// Errors produced by control-plane operations.
#[derive(Debug, Clone, PartialEq)]
pub enum OrchError {
    /// A task id was not found in the database.
    UnknownTask(TaskId),
    /// The committer rejected a proposal: its schedule no longer fits
    /// live state. Carries the precise typed conflict so callers can decide
    /// to propose again, back off or drop the task.
    Rejected(crate::commit::Conflict),
    /// A gang commit rejected all-or-nothing: one member's schedule no
    /// longer hold, so none of the gang was installed.
    GangRejected(crate::commit::GangConflict),
    /// Scheduling failed (wraps the scheduler's error text).
    Scheduling(String),
    /// A scenario enables periodic checks (`reschedule` or `admission`)
    /// with a zero `reschedule_check`: each check would re-arm at the same
    /// instant and the run would never advance.
    ZeroCheckInterval,
    /// A DAG scenario asks for a fat-tree whose pod arity `k` is odd or
    /// below 2: no k-ary fat-tree has it.
    FatTreeArity(usize),
    /// Underlying subsystem failure.
    Sched(flexsched_sched::SchedError),
    /// Simulator failure.
    Sim(flexsched_simnet::SimError),
    /// Optical failure.
    Optical(flexsched_optical::OpticalError),
    /// Compute failure.
    Compute(flexsched_compute::ComputeError),
    /// Topology failure.
    Topo(flexsched_topo::TopoError),
}

impl fmt::Display for OrchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchError::UnknownTask(t) => write!(f, "unknown task {t}"),
            OrchError::Rejected(c) => write!(f, "proposal rejected: {c}"),
            OrchError::GangRejected(g) => write!(f, "{g}"),
            OrchError::Scheduling(s) => write!(f, "scheduling failed: {s}"),
            OrchError::ZeroCheckInterval => {
                write!(f, "periodic checks need a non-zero reschedule_check")
            }
            OrchError::FatTreeArity(k) => {
                write!(f, "fat-tree arity {k} is not even and >= 2")
            }
            OrchError::Sched(e) => write!(f, "{e}"),
            OrchError::Sim(e) => write!(f, "{e}"),
            OrchError::Optical(e) => write!(f, "{e}"),
            OrchError::Compute(e) => write!(f, "{e}"),
            OrchError::Topo(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OrchError {}

impl From<flexsched_sched::SchedError> for OrchError {
    fn from(e: flexsched_sched::SchedError) -> Self {
        OrchError::Sched(e)
    }
}
impl From<flexsched_simnet::SimError> for OrchError {
    fn from(e: flexsched_simnet::SimError) -> Self {
        OrchError::Sim(e)
    }
}
impl From<flexsched_optical::OpticalError> for OrchError {
    fn from(e: flexsched_optical::OpticalError) -> Self {
        OrchError::Optical(e)
    }
}
impl From<flexsched_compute::ComputeError> for OrchError {
    fn from(e: flexsched_compute::ComputeError) -> Self {
        OrchError::Compute(e)
    }
}
impl From<flexsched_topo::TopoError> for OrchError {
    fn from(e: flexsched_topo::TopoError) -> Self {
        OrchError::Topo(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(OrchError::UnknownTask(TaskId(3))
            .to_string()
            .contains("task3"));
    }

    #[test]
    fn conversions_wrap() {
        let e: OrchError = flexsched_simnet::SimError::UnknownFlow(2).into();
        assert!(matches!(e, OrchError::Sim(_)));
        let e: OrchError = flexsched_optical::OpticalError::NoFreeWavelength.into();
        assert!(matches!(e, OrchError::Optical(_)));
    }
}
