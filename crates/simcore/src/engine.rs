//! The discrete-event engine: event queue, component registry, dispatch loop.
//!
//! The design follows the dslab-core idiom: a binary-heap event queue keyed
//! by `(SimTime, seq)` where `seq` is a monotone counter, so simultaneous
//! events dispatch in exactly the order they were scheduled — on every run,
//! on every machine. Handlers receive a [`SimContext`] through which they
//! schedule further events (`schedule_at` / `schedule_after`), which is how
//! arrival generators self-perpetuate and how retries, repairs, and
//! departures chain off the events that cause them.
//!
//! # Determinism contract
//!
//! Given the same components, the same seeded initial events, and the same
//! RNG seeds inside the components, a run produces a bit-identical event
//! trace (kind, time, seq, destination) and therefore bit-identical final
//! component state. The engine itself contains no randomness and no
//! wall-clock reads; ties never consult hash order.

use crate::event::{Event, EventKind};
use flexsched_simnet::SimTime;
use std::any::Any;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifies a registered component; returned by [`Simulation::add_component`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub u32);

/// One dispatched event, as recorded in a trace (see [`Simulation::with_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Dispatch time.
    pub at: SimTime,
    /// The monotone tie-break sequence number assigned at schedule time.
    pub seq: u64,
    /// Destination component.
    pub dst: ComponentId,
    /// Event kind (payload-free; payloads live in component state).
    pub kind: EventKind,
}

/// A queued event. Ordered as a min-heap on `(at, seq)`.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    dst: ComponentId,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest (then lowest
        // seq) first. `seq` is unique, so total order never consults payload.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The event queue and simulated clock, split from [`Simulation`] so a
/// component can be taken out of the registry while it schedules into the
/// queue (no aliasing between handler and engine state).
#[derive(Debug, Default)]
pub(crate) struct Clock {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
    now: SimTime,
    processed: u64,
    peak_pending: usize,
}

impl Clock {
    fn schedule_at(&mut self, at: SimTime, dst: ComponentId, event: Event) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled {
            at,
            seq,
            dst,
            event,
        });
        self.peak_pending = self.peak_pending.max(self.heap.len());
    }
}

/// Handler-side view of the engine: the clock plus scheduling operations.
///
/// Borrowed mutably for the duration of one `handle` call; everything a
/// component may do to the engine goes through here.
pub struct SimContext<'a> {
    clock: &'a mut Clock,
    self_id: ComponentId,
    halted: &'a mut bool,
}

impl SimContext<'_> {
    /// The id of the component currently handling an event.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Schedule `event` for `dst` at absolute time `at`.
    ///
    /// Panics if `at` is before the current time — a causality violation
    /// is a driver bug, not a recoverable condition.
    pub fn schedule_at(&mut self, at: SimTime, dst: ComponentId, event: Event) {
        self.clock.schedule_at(at, dst, event);
    }

    /// Schedule `event` for `dst` after `delay` from now (overflow panics,
    /// see `SimTime`'s checked `Add`).
    pub fn schedule_after(&mut self, delay: SimTime, dst: ComponentId, event: Event) {
        let at = self.clock.now + delay;
        self.clock.schedule_at(at, dst, event);
    }

    /// Schedule `event` for the handling component itself after `delay`.
    pub fn schedule_self_after(&mut self, delay: SimTime, event: Event) {
        let id = self.self_id;
        self.schedule_after(delay, id, event);
    }

    /// Stop the simulation after the current event: remaining queued events
    /// are dropped by `run`/`run_until`.
    pub fn halt(&mut self) {
        *self.halted = true;
    }
}

/// An event handler registered with the engine.
///
/// The `as_any` methods are boilerplate for [`Simulation::component`] /
/// [`Simulation::component_mut`], which let drivers extract results from
/// their components after the run without the engine knowing their types.
pub trait Component: Any {
    /// Handle one event addressed to this component at time `at`.
    fn handle(&mut self, at: SimTime, event: Event, ctx: &mut SimContext<'_>);
    /// Upcast for downcasting in [`Simulation::component`].
    fn as_any(&self) -> &dyn Any;
    /// Upcast for downcasting in [`Simulation::component_mut`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A deterministic discrete-event simulation: components plus a time-ordered
/// event queue.
#[derive(Default)]
pub struct Simulation {
    clock: Clock,
    components: Vec<(String, Option<Box<dyn Component>>)>,
    trace: Option<Vec<TraceEntry>>,
    halted: bool,
}

impl Simulation {
    /// An empty simulation at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Like [`Simulation::new`], but records a [`TraceEntry`] per dispatched
    /// event (determinism tests compare these traces across runs).
    pub fn with_trace() -> Self {
        Simulation {
            trace: Some(Vec::new()),
            ..Self::default()
        }
    }

    /// Register `component` under `name`; the returned id addresses events
    /// to it. Registration order fixes the id, so build simulations in a
    /// deterministic order.
    pub fn add_component(&mut self, name: &str, component: Box<dyn Component>) -> ComponentId {
        let id = ComponentId(self.components.len() as u32);
        self.components.push((name.to_string(), Some(component)));
        id
    }

    /// Seed `event` for `dst` at absolute time `at` (driver-side scheduling,
    /// before or between runs).
    pub fn schedule_at(&mut self, at: SimTime, dst: ComponentId, event: Event) {
        self.clock.schedule_at(at, dst, event);
    }

    /// Dispatch the single earliest event. Returns `false` if the queue is
    /// empty or the simulation has halted.
    pub fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        let Some(sch) = self.clock.heap.pop() else {
            return false;
        };
        debug_assert!(sch.at >= self.clock.now, "heap yielded out-of-order event");
        self.clock.now = sch.at;
        self.clock.processed += 1;
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry {
                at: sch.at,
                seq: sch.seq,
                dst: sch.dst,
                kind: sch.event.kind(),
            });
        }
        let slot = self
            .components
            .get_mut(sch.dst.0 as usize)
            .unwrap_or_else(|| panic!("event addressed to unregistered component {:?}", sch.dst));
        let mut component = slot
            .1
            .take()
            .unwrap_or_else(|| panic!("component {:?} ({}) re-entered", sch.dst, slot.0));
        let mut ctx = SimContext {
            clock: &mut self.clock,
            self_id: sch.dst,
            halted: &mut self.halted,
        };
        component.handle(sch.at, sch.event, &mut ctx);
        self.components[sch.dst.0 as usize].1 = Some(component);
        true
    }

    /// Run until the queue drains or a component halts the simulation.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run every event scheduled at or before `horizon`, then advance the
    /// clock to `horizon`. Later events stay queued.
    pub fn run_until(&mut self, horizon: SimTime) {
        while !self.halted {
            match self.clock.heap.peek() {
                Some(sch) if sch.at <= horizon => {
                    self.step();
                }
                _ => break,
            }
        }
        if !self.halted && self.clock.now < horizon {
            self.clock.now = horizon;
        }
    }

    /// Total events dispatched so far.
    pub fn processed(&self) -> u64 {
        self.clock.processed
    }

    /// High-water mark of the queue length — the memory bound for a run:
    /// the engine never retains dispatched events, so peak heap size is
    /// peak *pending* events, not total events.
    pub fn peak_pending(&self) -> usize {
        self.clock.peak_pending
    }

    /// The recorded dispatch trace (empty unless built via
    /// [`Simulation::with_trace`]).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Borrow a registered component, downcast to its concrete type.
    pub fn component<T: Component>(&self, id: ComponentId) -> Option<&T> {
        self.components
            .get(id.0 as usize)?
            .1
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutably borrow a registered component, downcast to its concrete type.
    pub fn component_mut<T: Component>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.components
            .get_mut(id.0 as usize)?
            .1
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test component: relays `TaskArrival` to itself `hops` more times with
    /// a fixed delay, recording every (time, index) it sees.
    struct Relay {
        delay: SimTime,
        hops: u32,
        seen: Vec<(SimTime, u64)>,
    }

    impl Component for Relay {
        fn handle(&mut self, at: SimTime, event: Event, ctx: &mut SimContext<'_>) {
            if let Event::TaskArrival { index, attempt } = event {
                self.seen.push((at, index));
                if attempt < self.hops {
                    ctx.schedule_self_after(
                        self.delay,
                        Event::TaskArrival {
                            index,
                            attempt: attempt + 1,
                        },
                    );
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn relay_sim(hops: u32) -> (Simulation, ComponentId) {
        let mut sim = Simulation::with_trace();
        let id = sim.add_component(
            "relay",
            Box::new(Relay {
                delay: SimTime::from_ms(1),
                hops,
                seen: Vec::new(),
            }),
        );
        (sim, id)
    }

    #[test]
    fn events_chain_and_advance_time() {
        let (mut sim, id) = relay_sim(3);
        sim.schedule_at(
            SimTime::from_ms(5),
            id,
            Event::TaskArrival {
                index: 1,
                attempt: 0,
            },
        );
        sim.run();
        let relay = sim.component::<Relay>(id).unwrap();
        assert_eq!(relay.seen.len(), 4);
        assert_eq!(relay.seen[0].0, SimTime::from_ms(5));
        assert_eq!(relay.seen[3].0, SimTime::from_ms(8));
        assert_eq!(sim.clock.now, SimTime::from_ms(8));
        assert_eq!(sim.processed(), 4);
    }

    #[test]
    fn ties_dispatch_in_schedule_order() {
        let (mut sim, id) = relay_sim(0);
        for index in 0..16 {
            sim.schedule_at(
                SimTime::from_ms(1),
                id,
                Event::TaskArrival { index, attempt: 0 },
            );
        }
        sim.run();
        let relay = sim.component::<Relay>(id).unwrap();
        let order: Vec<u64> = relay.seen.iter().map(|&(_, i)| i).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
        // Trace seqs are strictly increasing even at equal timestamps.
        let seqs: Vec<u64> = sim.trace().iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn run_until_stops_at_horizon_and_keeps_later_events() {
        let (mut sim, id) = relay_sim(10);
        sim.schedule_at(
            SimTime::ZERO,
            id,
            Event::TaskArrival {
                index: 0,
                attempt: 0,
            },
        );
        sim.run_until(SimTime::from_ms(4));
        assert_eq!(sim.clock.now, SimTime::from_ms(4));
        assert_eq!(sim.processed(), 5); // t = 0,1,2,3,4 ms
        assert_eq!(sim.clock.heap.len(), 1);
        sim.run();
        assert_eq!(sim.processed(), 11);
    }

    /// Moved from the deleted `simnet` queue: an empty queue still lets the
    /// clock reach the horizon.
    #[test]
    fn run_until_advances_clock_even_with_no_events() {
        let mut sim = Simulation::new();
        sim.run_until(SimTime::from_ms(1));
        assert_eq!(sim.clock.now, SimTime::from_ms(1));
        assert_eq!(sim.processed(), 0);
    }

    #[test]
    fn peak_pending_tracks_high_water_mark() {
        let (mut sim, id) = relay_sim(0);
        for index in 0..8 {
            sim.schedule_at(
                SimTime::from_ms(1),
                id,
                Event::TaskArrival { index, attempt: 0 },
            );
        }
        sim.run();
        assert_eq!(sim.peak_pending(), 8);
        assert_eq!(sim.clock.heap.len(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let (mut sim, id) = relay_sim(0);
        sim.schedule_at(
            SimTime::from_ms(5),
            id,
            Event::TaskArrival {
                index: 0,
                attempt: 0,
            },
        );
        sim.run();
        sim.schedule_at(
            SimTime::from_ms(1),
            id,
            Event::TaskArrival {
                index: 1,
                attempt: 0,
            },
        );
    }

    /// Halts as soon as it sees its trigger event.
    struct Halter;
    impl Component for Halter {
        fn handle(&mut self, _at: SimTime, event: Event, ctx: &mut SimContext<'_>) {
            if matches!(event, Event::AdmissionReevaluate) {
                ctx.halt();
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn halt_stops_the_run_with_events_pending() {
        let mut sim = Simulation::new();
        let id = sim.add_component("halter", Box::new(Halter));
        sim.schedule_at(SimTime::from_ms(1), id, Event::AdmissionReevaluate);
        sim.schedule_at(SimTime::from_ms(2), id, Event::AdmissionReevaluate);
        sim.run();
        assert!(sim.halted);
        assert!(!sim.step(), "a halted simulation dispatches nothing");
        assert_eq!(sim.processed(), 1);
        assert_eq!(sim.clock.heap.len(), 1);
    }

    #[test]
    fn two_components_address_each_other() {
        struct Ping {
            peer: Option<ComponentId>,
            got: u32,
        }
        impl Component for Ping {
            fn handle(&mut self, _at: SimTime, event: Event, ctx: &mut SimContext<'_>) {
                if let (Event::TaskArrival { index, attempt }, Some(peer)) = (event, self.peer) {
                    self.got += 1;
                    if attempt < 6 {
                        ctx.schedule_after(
                            SimTime::from_us(10),
                            peer,
                            Event::TaskArrival {
                                index,
                                attempt: attempt + 1,
                            },
                        );
                    }
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulation::new();
        let a = sim.add_component("a", Box::new(Ping { peer: None, got: 0 }));
        let b = sim.add_component("b", Box::new(Ping { peer: None, got: 0 }));
        sim.component_mut::<Ping>(a).unwrap().peer = Some(b);
        sim.component_mut::<Ping>(b).unwrap().peer = Some(a);
        sim.schedule_at(
            SimTime::ZERO,
            a,
            Event::TaskArrival {
                index: 0,
                attempt: 0,
            },
        );
        sim.run();
        assert_eq!(sim.component::<Ping>(a).unwrap().got, 4);
        assert_eq!(sim.component::<Ping>(b).unwrap().got, 3);
    }
}
