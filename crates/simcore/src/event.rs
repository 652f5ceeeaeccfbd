//! Typed event payloads.
//!
//! One closed enum rather than `Box<dyn Any>` payloads: every variant is
//! `Copy`, so the event queue stores plain values (no per-event allocation)
//! and traces can be compared with `==` in determinism tests. Components
//! ignore variants they don't handle.

use flexsched_topo::LinkId;

/// A simulation event, delivered to exactly one component at its timestamp.
///
/// Task- and flow-identifying fields are raw `u64`/`usize` so the engine
/// stays independent of the orchestrator's id newtypes; drivers convert at
/// the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A task enters the system. `index` is the driver's workload index,
    /// `attempt` counts admission attempts (0 = first arrival).
    TaskArrival { index: u64, attempt: u32 },
    /// A running task finishes at its actual completion time.
    TaskDeparture { task: u64 },
    /// A shed task's `retry_after` deadline elapsed; re-run admission.
    RetryDue { index: u64, attempt: u32 },
    /// A link hard-fails (goes down).
    LinkFault { link: LinkId },
    /// A previously failed link is repaired (comes back up).
    LinkRepair { link: LinkId },
    /// A background traffic flow arrives (cross-traffic generator).
    TrafficArrival,
    /// Background traffic flow `flow` departs.
    TrafficDeparture { flow: u64 },
    /// Periodic prompt to re-evaluate the admission gate's degrade state.
    AdmissionReevaluate,
    /// Periodic prompt to scan running tasks for profitable rescheduling.
    RescheduleCheck,
}

/// The variant of an [`Event`], without its payload. Used in traces and
/// per-kind counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    TaskArrival,
    TaskDeparture,
    RetryDue,
    LinkFault,
    LinkRepair,
    TrafficArrival,
    TrafficDeparture,
    AdmissionReevaluate,
    RescheduleCheck,
}

impl Event {
    /// The payload-free kind of this event.
    pub(crate) fn kind(&self) -> EventKind {
        match self {
            Event::TaskArrival { .. } => EventKind::TaskArrival,
            Event::TaskDeparture { .. } => EventKind::TaskDeparture,
            Event::RetryDue { .. } => EventKind::RetryDue,
            Event::LinkFault { .. } => EventKind::LinkFault,
            Event::LinkRepair { .. } => EventKind::LinkRepair,
            Event::TrafficArrival => EventKind::TrafficArrival,
            Event::TrafficDeparture { .. } => EventKind::TrafficDeparture,
            Event::AdmissionReevaluate => EventKind::AdmissionReevaluate,
            Event::RescheduleCheck => EventKind::RescheduleCheck,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_strips_payload() {
        assert_eq!(
            Event::TaskArrival {
                index: 7,
                attempt: 2
            }
            .kind(),
            EventKind::TaskArrival
        );
        assert_eq!(
            Event::TaskArrival {
                index: 9,
                attempt: 0
            }
            .kind(),
            EventKind::TaskArrival
        );
        assert_eq!(Event::TrafficArrival.kind(), EventKind::TrafficArrival);
    }
}
