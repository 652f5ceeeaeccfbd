//! Optical time-slice (OTS) sub-wavelength timeslots.
//!
//! Open challenge #3 of the poster asks "how to collaboratively manage
//! optical wavelengths and timeslots". This module implements the timeslot
//! half: each lightpath's wavelength is divided into a fixed TDM frame of
//! `slots_per_frame` slots; demands reserve whole slots. The
//! `ocs_or_ots` helper captures the collaboration policy: big demands get
//! a whole wavelength (OCS), small ones share a wavelength via slots (OTS).

use crate::lightpath::LightpathId;
use crate::OpticalError;
use crate::Result;
use std::collections::BTreeMap;

/// A set of timeslots held by one demand on one lightpath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotAllocation {
    /// Table-scoped allocation id.
    pub id: u64,
    /// The lightpath whose frame is sliced.
    pub lightpath: LightpathId,
    /// Slot indices held (ascending).
    pub slots: Vec<u16>,
}

/// Per-lightpath TDM frame occupancy.
#[derive(Debug, Clone)]
pub struct TimeslotTable {
    slots_per_frame: u16,
    /// `frames[lp][slot]` = holding allocation id.
    frames: BTreeMap<LightpathId, Vec<Option<u64>>>,
    allocations: BTreeMap<u64, SlotAllocation>,
    next_id: u64,
}

impl TimeslotTable {
    /// A table slicing every registered lightpath into `slots_per_frame`.
    ///
    /// # Panics
    /// Panics if `slots_per_frame == 0`.
    pub fn new(slots_per_frame: u16) -> Self {
        assert!(slots_per_frame > 0, "a frame needs at least one slot");
        TimeslotTable {
            slots_per_frame,
            frames: BTreeMap::new(),
            allocations: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Slots per frame.
    pub(crate) fn slots_per_frame(&self) -> u16 {
        self.slots_per_frame
    }

    /// Register a lightpath (idempotent).
    pub fn register(&mut self, lp: LightpathId) {
        self.frames
            .entry(lp)
            .or_insert_with(|| vec![None; self.slots_per_frame as usize]);
    }

    /// Number of free slots on `lp` (0 if unregistered).
    pub fn free_slots(&self, lp: LightpathId) -> u16 {
        self.frames
            .get(&lp)
            .map(|f| f.iter().filter(|s| s.is_none()).count() as u16)
            .unwrap_or(0)
    }

    /// Allocate `count` slots on `lp` (first-fit slot indices).
    ///
    /// # Errors
    /// [`OpticalError::InsufficientTimeslots`] if fewer than `count` free.
    pub fn allocate(&mut self, lp: LightpathId, count: u16) -> Result<SlotAllocation> {
        let frame = self
            .frames
            .get_mut(&lp)
            .ok_or(OpticalError::UnknownLightpath(lp))?;
        let free: Vec<u16> = frame
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i as u16)
            .collect();
        if (free.len() as u16) < count {
            return Err(OpticalError::InsufficientTimeslots {
                requested: count,
                available: free.len() as u16,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        let slots: Vec<u16> = free.into_iter().take(count as usize).collect();
        for s in &slots {
            frame[*s as usize] = Some(id);
        }
        let alloc = SlotAllocation {
            id,
            lightpath: lp,
            slots,
        };
        self.allocations.insert(id, alloc.clone());
        Ok(alloc)
    }

    /// Release an allocation.
    pub fn release(&mut self, alloc_id: u64) -> Result<()> {
        let alloc = self
            .allocations
            .remove(&alloc_id)
            .ok_or(OpticalError::UnknownAllocation(alloc_id))?;
        if let Some(frame) = self.frames.get_mut(&alloc.lightpath) {
            for s in &alloc.slots {
                frame[*s as usize] = None;
            }
        }
        Ok(())
    }
}

/// The OCS/OTS collaboration decision for a demand of `demand_gbps` against
/// wavelength channels of `channel_gbps` sliced into `slots_per_frame`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitGrain {
    /// Use a whole wavelength (optical circuit switching).
    FullWavelength,
    /// Use this many timeslots of a shared wavelength (optical time slicing).
    Timeslots(u16),
}

/// Decide OCS vs OTS: demands above `ocs_threshold` (fraction of a channel)
/// take a whole wavelength; smaller ones take the minimal slot count.
pub(crate) fn ocs_or_ots(
    demand_gbps: f64,
    channel_gbps: f64,
    slots_per_frame: u16,
    ocs_threshold: f64,
) -> CircuitGrain {
    if channel_gbps <= 0.0 || demand_gbps >= channel_gbps * ocs_threshold {
        return CircuitGrain::FullWavelength;
    }
    let slot = channel_gbps / f64::from(slots_per_frame.max(1));
    let n = (demand_gbps / slot).ceil().max(1.0) as u16;
    if n >= slots_per_frame {
        CircuitGrain::FullWavelength
    } else {
        CircuitGrain::Timeslots(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(n: u64) -> LightpathId {
        LightpathId(n)
    }

    #[test]
    fn allocate_and_release_round_trip() {
        let mut t = TimeslotTable::new(10);
        t.register(lp(0));
        assert_eq!(t.free_slots(lp(0)), 10);
        let a = t.allocate(lp(0), 4).unwrap();
        assert_eq!(a.slots, vec![0, 1, 2, 3]);
        assert_eq!(t.free_slots(lp(0)), 6);
        t.release(a.id).unwrap();
        assert_eq!(t.free_slots(lp(0)), 10);
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut t = TimeslotTable::new(4);
        t.register(lp(0));
        t.allocate(lp(0), 3).unwrap();
        let err = t.allocate(lp(0), 2).unwrap_err();
        assert_eq!(
            err,
            OpticalError::InsufficientTimeslots {
                requested: 2,
                available: 1
            }
        );
    }

    #[test]
    fn slots_do_not_overlap() {
        let mut t = TimeslotTable::new(8);
        t.register(lp(0));
        let a = t.allocate(lp(0), 3).unwrap();
        let b = t.allocate(lp(0), 3).unwrap();
        for s in &a.slots {
            assert!(!b.slots.contains(s));
        }
    }

    #[test]
    fn release_reuses_freed_slots_first_fit() {
        let mut t = TimeslotTable::new(4);
        t.register(lp(0));
        let a = t.allocate(lp(0), 2).unwrap();
        let _b = t.allocate(lp(0), 2).unwrap();
        t.release(a.id).unwrap();
        let c = t.allocate(lp(0), 1).unwrap();
        assert_eq!(c.slots, vec![0]);
    }

    #[test]
    fn unknown_lightpath_errors() {
        let mut t = TimeslotTable::new(4);
        assert!(t.allocate(lp(9), 1).is_err());
    }

    #[test]
    fn slot_rate_divides_capacity() {
        // Ten slots of a 100 G channel carry 10 G each: a 10 G demand fits
        // one slot, a little more needs two.
        assert_eq!(ocs_or_ots(10.0, 100.0, 10, 0.5), CircuitGrain::Timeslots(1));
        assert_eq!(ocs_or_ots(10.5, 100.0, 10, 0.5), CircuitGrain::Timeslots(2));
    }

    #[test]
    fn ocs_for_big_demands_ots_for_small() {
        assert_eq!(
            ocs_or_ots(80.0, 100.0, 10, 0.5),
            CircuitGrain::FullWavelength
        );
        assert_eq!(ocs_or_ots(25.0, 100.0, 10, 0.5), CircuitGrain::Timeslots(3));
        assert_eq!(ocs_or_ots(0.5, 100.0, 10, 0.5), CircuitGrain::Timeslots(1));
    }

    #[test]
    fn ots_rounds_up_and_degenerates_to_ocs() {
        assert_eq!(ocs_or_ots(31.0, 100.0, 10, 0.5), CircuitGrain::Timeslots(4));
        // 9.6 slots needed -> would be 10 of 10 -> full wavelength.
        assert_eq!(
            ocs_or_ots(96.0, 100.0, 10, 1.1),
            CircuitGrain::FullWavelength
        );
    }

    #[test]
    #[should_panic]
    fn zero_slot_frame_panics() {
        let _ = TimeslotTable::new(0);
    }
}
