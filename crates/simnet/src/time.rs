//! Simulated time: a nanosecond counter from simulation start.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time, in nanoseconds since simulation start.
///
/// `SimTime` is also used for durations (the arithmetic is identical); the
/// zero value is both "simulation start" and "zero duration".
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation start / zero duration.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds (saturates at `u64::MAX` ns).
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    /// Construct from milliseconds (saturates at `u64::MAX` ns).
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000_000))
    }

    /// Construct from seconds (saturates at `u64::MAX` ns).
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000_000))
    }

    /// Value in nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Value in (fractional) microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in (fractional) milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in (fractional) seconds.
    #[inline]
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction (durations can't go negative).
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow past `u64::MAX` ns (~584 years).
    #[inline]
    pub(crate) fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Checked subtraction; `None` if `rhs` is later than `self`.
    #[inline]
    pub(crate) fn checked_sub(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_sub(rhs.0).map(SimTime)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    /// Panics on overflow in every build profile: a wrapped clock would
    /// silently reorder the event queue, which is far worse than aborting.
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        self.checked_add(rhs).expect("SimTime addition overflowed")
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Panics on underflow in every build profile (instants never precede
    /// simulation start; a wrapped duration would be absurdly large).
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        self.checked_sub(rhs)
            .expect("SimTime subtraction underflowed")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
    }

    #[test]
    fn float_views() {
        let t = SimTime::from_ms(2) + SimTime::from_us(500);
        assert!((t.as_ms_f64() - 2.5).abs() < 1e-12);
        assert!((t.as_us_f64() - 2_500.0).abs() < 1e-9);
        assert!((t.as_secs_f64() - 0.0025).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(40);
        assert_eq!(a + b, SimTime::from_ns(140));
        assert_eq!(a - b, SimTime::from_ns(60));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_ns(140));
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(SimTime::from_ns(5).to_string(), "5ns");
        assert_eq!(SimTime::from_us(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_ms(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_ns(1) < SimTime::from_us(1));
        assert!(SimTime::ZERO < SimTime::from_ns(1));
    }

    #[test]
    fn checked_ops_at_boundaries() {
        let max = SimTime(u64::MAX);
        assert_eq!(max.checked_add(SimTime::from_ns(1)), None);
        assert_eq!(max.checked_add(SimTime::ZERO), Some(max));
        assert_eq!(SimTime::ZERO.checked_sub(SimTime::from_ns(1)), None);
        assert_eq!(max.checked_sub(max), Some(SimTime::ZERO));
        assert_eq!(
            SimTime(u64::MAX - 1).checked_add(SimTime::from_ns(1)),
            Some(max)
        );
    }

    #[test]
    fn saturating_ops_pin_at_boundaries() {
        let max = SimTime(u64::MAX);
        assert_eq!(SimTime::ZERO.saturating_sub(max), SimTime::ZERO);
        assert_eq!(
            SimTime::from_ns(12).saturating_sub(SimTime::from_ns(7)),
            SimTime::from_ns(5)
        );
    }

    #[test]
    fn constructors_saturate_instead_of_wrapping() {
        assert_eq!(SimTime::from_secs(u64::MAX), SimTime(u64::MAX));
        assert_eq!(SimTime::from_ms(u64::MAX), SimTime(u64::MAX));
        assert_eq!(SimTime::from_us(u64::MAX), SimTime(u64::MAX));
        // Largest exactly-representable horizon: ~584 years of nanoseconds.
        assert_eq!(
            SimTime::from_secs(18_446_744_073),
            SimTime(18_446_744_073_000_000_000)
        );
    }

    #[test]
    #[should_panic(expected = "SimTime addition overflowed")]
    fn add_panics_on_overflow() {
        let _ = SimTime(u64::MAX) + SimTime::from_ns(1);
    }

    #[test]
    #[should_panic(expected = "SimTime subtraction underflowed")]
    fn sub_panics_on_underflow() {
        let _ = SimTime::ZERO - SimTime::from_ns(1);
    }
}
