//! Wavelength identifiers and grid helpers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a wavelength within a fiber's WDM grid (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WavelengthId(pub u16);

impl WavelengthId {
    /// The identifier as a `usize`, for vector indexing.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WavelengthId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(WavelengthId(3).to_string(), "w3");
        assert_eq!(WavelengthId(3).index(), 3);
    }
}
