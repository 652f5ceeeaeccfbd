//! Link fault injection.
//!
//! Generates deterministic fault schedules (link down at `t`, repaired at
//! `t + repair`) used by the rescheduling experiments and failure-injection
//! tests. The authors' companion work localises ROADM soft failures; here
//! faults are hard up/down transitions, which is the signal the scheduler
//! reacts to either way.

use crate::time::SimTime;
use flexsched_topo::{LinkId, Topology};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A single fault transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the transition happens.
    pub at: SimTime,
    /// Affected link.
    pub link: LinkId,
    /// `true` = link goes down, `false` = link restored.
    pub down: bool,
}

/// A deterministic schedule of fault transitions, ordered by time.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a down+up pair for `link` at `at`, repaired after `repair`.
    pub(crate) fn add_outage(&mut self, link: LinkId, at: SimTime, repair: SimTime) {
        self.events.push(FaultEvent {
            at,
            link,
            down: true,
        });
        self.events.push(FaultEvent {
            at: at + repair,
            link,
            down: false,
        });
        self.events.sort_by_key(|e| (e.at, e.link, e.down));
    }

    /// Generate `count` random outages over `horizon` with mean repair time
    /// `mean_repair`, uniformly over the topology's links.
    pub fn random(
        topo: &Topology,
        count: usize,
        horizon: SimTime,
        mean_repair: SimTime,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = FaultSchedule::new();
        if topo.link_count() == 0 {
            return s;
        }
        for _ in 0..count {
            let link = LinkId(rng.random_range(0..topo.link_count() as u32));
            let at = SimTime::from_ns(rng.random_range(0..horizon.as_ns().max(1)));
            let u: f64 = rng.random_range(f64::EPSILON..1.0);
            let repair =
                SimTime::from_ns((-u.ln() * mean_repair.as_ns() as f64).round().max(1.0) as u64);
            s.add_outage(link, at, repair);
        }
        s
    }

    /// The scheduled transitions, time-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_topo::builders;

    #[test]
    fn outage_produces_ordered_pair() {
        let mut s = FaultSchedule::new();
        s.add_outage(LinkId(2), SimTime::from_ms(5), SimTime::from_ms(3));
        let ev = s.events();
        assert_eq!(ev.len(), 2);
        assert!(ev[0].down && !ev[1].down);
        assert_eq!(ev[1].at, SimTime::from_ms(8));
    }

    #[test]
    fn random_schedule_is_deterministic_per_seed() {
        let topo = builders::nsfnet();
        let a = FaultSchedule::random(&topo, 5, SimTime::from_secs(1), SimTime::from_ms(10), 42);
        let b = FaultSchedule::random(&topo, 5, SimTime::from_secs(1), SimTime::from_ms(10), 42);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 10);
    }

    #[test]
    fn random_schedule_respects_horizon_start() {
        let topo = builders::nsfnet();
        let s = FaultSchedule::random(&topo, 20, SimTime::from_ms(100), SimTime::from_ms(1), 3);
        for e in s.events() {
            if e.down {
                assert!(e.at < SimTime::from_ms(100));
            }
        }
    }
}
