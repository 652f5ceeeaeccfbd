//! Error type for scheduling.

use flexsched_task::TaskId;
use flexsched_topo::NodeId;
use std::fmt;

/// Why a propose found no feasible routing. `Copy`: blocked proposes are
/// the common case under load (thousands per run), so the reason is data,
/// formatted only if someone prints it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockReason {
    /// The trees exist but their uniform feasible rate is under the floor.
    RateBelowFloor {
        /// Feasible per-update rate, Gbit/s.
        rate_gbps: f64,
        /// The floor it fell below, Gbit/s.
        floor_gbps: f64,
    },
    /// A repaired tree exists but its credited rate is under the floor.
    RepairedRateBelowFloor {
        /// Feasible per-update rate, Gbit/s.
        rate_gbps: f64,
        /// The floor it fell below, Gbit/s.
        floor_gbps: f64,
    },
    /// No candidate path to `local` has a free or groomable wavelength.
    NoWavelengthFeasiblePath {
        /// The local site that could not be reached optically.
        local: NodeId,
    },
    /// The fair-share rate towards `local` is under the floor.
    FairShareBelowFloor {
        /// Fair-share rate, Gbit/s.
        rate_gbps: f64,
        /// The starved local site.
        local: NodeId,
    },
}

impl fmt::Display for BlockReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockReason::RateBelowFloor { rate_gbps, .. } => {
                write!(f, "feasible tree rate {rate_gbps:.3} Gbps below floor")
            }
            BlockReason::RepairedRateBelowFloor { rate_gbps, .. } => {
                write!(f, "repaired tree rate {rate_gbps:.3} Gbps below floor")
            }
            BlockReason::NoWavelengthFeasiblePath { local } => {
                write!(f, "no wavelength-feasible path to {local}")
            }
            BlockReason::FairShareBelowFloor { rate_gbps, local } => {
                write!(
                    f,
                    "fair-share rate {rate_gbps:.3} Gbps to {local} below floor"
                )
            }
        }
    }
}

/// Errors produced while computing or applying schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// The task cannot be scheduled right now (no feasible routing).
    Blocked {
        /// The task that failed.
        task: TaskId,
        /// Why no routing was feasible.
        reason: BlockReason,
    },
    /// A local site is unreachable from the global site.
    Unreachable { task: TaskId, site: NodeId },
    /// No local sites remain after selection.
    NothingSelected(TaskId),
    /// Topology-level failure.
    Topo(flexsched_topo::TopoError),
    /// Network-state failure while applying a schedule.
    Sim(flexsched_simnet::SimError),
    /// Optical-layer failure while applying a schedule.
    Optical(flexsched_optical::OpticalError),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Blocked { task, reason } => write!(f, "{task} blocked: {reason}"),
            SchedError::Unreachable { task, site } => {
                write!(f, "{task}: site {site} unreachable")
            }
            SchedError::NothingSelected(t) => write!(f, "{t}: no local models selected"),
            SchedError::Topo(e) => write!(f, "topology error: {e}"),
            SchedError::Sim(e) => write!(f, "network state error: {e}"),
            SchedError::Optical(e) => write!(f, "optical error: {e}"),
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Topo(e) => Some(e),
            SchedError::Sim(e) => Some(e),
            SchedError::Optical(e) => Some(e),
            _ => None,
        }
    }
}

impl From<flexsched_topo::TopoError> for SchedError {
    fn from(e: flexsched_topo::TopoError) -> Self {
        SchedError::Topo(e)
    }
}

impl From<flexsched_simnet::SimError> for SchedError {
    fn from(e: flexsched_simnet::SimError) -> Self {
        SchedError::Sim(e)
    }
}

impl From<flexsched_optical::OpticalError> for SchedError {
    fn from(e: flexsched_optical::OpticalError) -> Self {
        SchedError::Optical(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = SchedError::Blocked {
            task: TaskId(3),
            reason: BlockReason::RateBelowFloor {
                rate_gbps: 0.25,
                floor_gbps: 0.5,
            },
        };
        assert!(e.to_string().contains("task3"));
        assert!(e.to_string().contains("below floor"));
        assert!(SchedError::NothingSelected(TaskId(1))
            .to_string()
            .contains("task1"));
    }

    #[test]
    fn block_reasons_print_the_text_they_replaced() {
        let (rate_gbps, floor_gbps, local) = (0.25, 0.5, NodeId(7));
        for (reason, text) in [
            (
                BlockReason::RateBelowFloor {
                    rate_gbps,
                    floor_gbps,
                },
                format!("feasible tree rate {rate_gbps:.3} Gbps below floor"),
            ),
            (
                BlockReason::RepairedRateBelowFloor {
                    rate_gbps,
                    floor_gbps,
                },
                format!("repaired tree rate {rate_gbps:.3} Gbps below floor"),
            ),
            (
                BlockReason::NoWavelengthFeasiblePath { local },
                format!("no wavelength-feasible path to {local}"),
            ),
            (
                BlockReason::FairShareBelowFloor { rate_gbps, local },
                format!("fair-share rate {rate_gbps:.3} Gbps to {local} below floor"),
            ),
        ] {
            assert_eq!(reason.to_string(), text);
        }
    }

    #[test]
    fn conversions_wrap_sources() {
        let t: SchedError = flexsched_topo::TopoError::UnknownNode(NodeId(0)).into();
        assert!(matches!(t, SchedError::Topo(_)));
        let s: SchedError = flexsched_simnet::SimError::UnknownFlow(1).into();
        assert!(matches!(s, SchedError::Sim(_)));
        let o: SchedError = flexsched_optical::OpticalError::NoFreeWavelength.into();
        assert!(matches!(o, SchedError::Optical(_)));
    }
}
