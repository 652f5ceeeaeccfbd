//! # flexsched-optical — the optical layer substrate
//!
//! Models the ROADM/WDM part of the paper's testbed: wavelength-granular
//! switching with the continuity constraint, routing-and-wavelength
//! assignment (RWA) by first fit (the wavelength rule of the SPFF baseline
//! and of the flexible scheduler alike), traffic grooming of sub-wavelength
//! demands onto established lightpaths, optical-time-slice (OTS)
//! sub-wavelength timeslots and their collaboration with optical-circuit
//! switching (OCS)
//! — open challenge #3 of the poster — plus a soft-failure model that
//! degrades individual wavelengths.
//!
//! Layering contract: [`OpticalState`] tracks which wavelength of which
//! fiber is held by which lightpath. IP-layer bandwidth accounting stays in
//! `flexsched-simnet`; the schedulers keep both views consistent.

pub mod error;
pub mod groom;
pub mod lightpath;
pub(crate) mod rwa;
pub mod snapshot;
pub mod softfail;
pub mod spineleaf;
pub mod timeslot;
pub mod wavelength;

pub use error::OpticalError;
pub use groom::{GroomWork, GroomingManager};
pub use lightpath::{Lightpath, LightpathId};
pub use rwa::{split_at_electrical, OpticalState};
pub use snapshot::OpticalSnapshot;
pub use softfail::SoftFailure;
pub use timeslot::{SlotAllocation, TimeslotTable};
pub use wavelength::WavelengthId;

/// Convenience result alias for optical operations.
pub type Result<T> = std::result::Result<T, OpticalError>;
