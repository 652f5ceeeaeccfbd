//! Soft failures: gradual optical impairments that knock out individual
//! wavelengths rather than whole fibers.
//!
//! The authors' companion work (JOCN'24) localises ROADM soft failures with
//! digital twins; here we model the *effect* the scheduler cares about: some
//! wavelengths of a fiber become unusable while the link stays up, shrinking
//! the RWA solution space until the failure is healed.

use crate::rwa::OpticalState;
use crate::wavelength::WavelengthId;
use crate::Result;
use flexsched_topo::LinkId;

/// A soft failure affecting the top `severity` wavelengths of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftFailure {
    /// Impaired fiber.
    pub link: LinkId,
    /// Number of wavelengths impaired (from the top of the grid downward —
    /// edge channels degrade first as amplifier gain tilts).
    pub severity: u16,
}

impl SoftFailure {
    /// The wavelengths this failure impairs on a grid of `grid` channels.
    pub(crate) fn affected(&self, grid: u16) -> Vec<WavelengthId> {
        let n = self.severity.min(grid);
        ((grid - n)..grid).map(WavelengthId).collect()
    }
}

/// Apply a soft failure: impair the affected wavelengths.
pub fn apply(state: &mut OpticalState, failure: SoftFailure) -> Result<Vec<WavelengthId>> {
    let grid = state.topo().link(failure.link)?.wavelengths.max(1);
    let affected = failure.affected(grid);
    for w in &affected {
        state.set_impaired(failure.link, *w, true)?;
    }
    Ok(affected)
}

/// Heal a soft failure: restore the affected wavelengths.
pub fn heal(state: &mut OpticalState, failure: SoftFailure) -> Result<()> {
    let grid = state.topo().link(failure.link)?.wavelengths.max(1);
    for w in failure.affected(grid) {
        state.set_impaired(failure.link, w, false)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_topo::{NodeKind, Path, Topology};
    use std::sync::Arc;

    fn rig() -> (OpticalState, Path) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Roadm, "a");
        let b = t.add_node(NodeKind::Roadm, "b");
        t.add_wdm_link(a, b, 10.0, 400.0, 4).unwrap();
        let t = Arc::new(t);
        let p = flexsched_topo::algo::shortest_path(&t, a, b, flexsched_topo::algo::hop_weight)
            .unwrap();
        (OpticalState::new(t), p)
    }

    #[test]
    fn affected_set_comes_from_top_of_grid() {
        let f = SoftFailure {
            link: LinkId(0),
            severity: 2,
        };
        assert_eq!(f.affected(4), vec![WavelengthId(2), WavelengthId(3)]);
    }

    #[test]
    fn severity_clamps_to_grid() {
        let f = SoftFailure {
            link: LinkId(0),
            severity: 99,
        };
        assert_eq!(f.affected(4).len(), 4);
    }

    #[test]
    fn apply_shrinks_rwa_space_heal_restores() {
        let (mut s, p) = rig();
        let f = SoftFailure {
            link: LinkId(0),
            severity: 3,
        };
        apply(&mut s, f).unwrap();
        assert_eq!(s.free_wavelength_count(p.links[0]).unwrap(), 1);
        heal(&mut s, f).unwrap();
        assert_eq!(s.free_wavelength_count(p.links[0]).unwrap(), 4);
    }

    #[test]
    fn existing_lightpaths_are_flagged_for_reschedule() {
        let (mut s, p) = rig();
        // Establish on the top wavelength.
        let id = s.establish_on(p, WavelengthId(3)).unwrap();
        let f = SoftFailure {
            link: LinkId(0),
            severity: 1,
        };
        let impaired = apply(&mut s, f).unwrap();
        assert!(impaired.contains(&s.lightpath(id).unwrap().wavelength));
    }

    #[test]
    fn unaffected_lightpaths_are_not_flagged() {
        let (mut s, p) = rig();
        let id = s.establish(p).unwrap(); // w0
        let f = SoftFailure {
            link: LinkId(0),
            severity: 1,
        }; // impairs w3 only
        let impaired = apply(&mut s, f).unwrap();
        assert!(!impaired.contains(&s.lightpath(id).unwrap().wavelength));
    }
}
