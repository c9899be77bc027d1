//! Simulation time primitives.
//!
//! All simulation time is kept as an integer number of **microseconds** so
//! that event ordering is exact and runs are bit-reproducible across
//! platforms. Floating-point seconds are accepted and produced at the API
//! boundary only.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// An absolute instant on the simulation clock.
///
/// `SimTime` is a newtype over integer microseconds since the start of the
/// simulation (time zero). It is totally ordered and cheap to copy.
///
/// # Examples
///
/// ```
/// use cocoa_sim::time::{SimTime, SimDuration};
///
/// let t = SimTime::from_secs_f64(1.5);
/// assert_eq!(t.as_micros(), 1_500_000);
/// let later = t + SimDuration::from_millis(250);
/// assert_eq!(later.as_secs_f64(), 1.75);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulation time (always non-negative).
///
/// # Examples
///
/// ```
/// use cocoa_sim::time::SimDuration;
///
/// let d = SimDuration::from_secs(3);
/// assert_eq!(d * 2, SimDuration::from_secs(6));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from integer microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from integer milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant from integer seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Creates an instant from floating-point seconds, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "SimTime requires finite non-negative seconds, got {s}"
        );
        SimTime((s * MICROS_PER_SEC as f64).round() as u64)
    }

    /// This instant as integer microseconds since time zero.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant as floating-point seconds since time zero.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// This instant as whole seconds since time zero (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// The duration elapsed since an `earlier` instant.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is in the future,
    /// mirroring `std::time::Instant::saturating_duration_since`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from integer microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from integer milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from integer seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Creates a duration from floating-point seconds, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "SimDuration requires finite non-negative seconds, got {s}"
        );
        SimDuration((s * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Creates a duration from seconds read off a command line or a
    /// request, rounding to the nearest microsecond. `None` for negative,
    /// NaN or infinite seconds and for durations past `u64::MAX`
    /// microseconds, where [`from_secs`](Self::from_secs) would overflow
    /// and [`from_secs_f64`](Self::from_secs_f64) would panic. Whole
    /// seconds below 2⁵³ µs convert exactly.
    pub fn checked_from_secs_f64(s: f64) -> Option<Self> {
        let us = (s * MICROS_PER_SEC as f64).round();
        // NaN fails both tests. `u64::MAX as f64` rounds up to 2⁶⁴, the
        // first value that no longer fits.
        (s >= 0.0 && us < u64::MAX as f64).then_some(SimDuration(us as u64))
    }

    /// This duration as integer microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration as floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Integer division of one duration by another: how many `other`s fit.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_duration(self, other: SimDuration) -> u64 {
        assert!(!other.is_zero(), "division by zero duration");
        self.0 / other.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl From<SimDuration> for f64 {
    fn from(d: SimDuration) -> f64 {
        d.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip_micros() {
        let t = SimTime::from_micros(1_234_567);
        assert_eq!(t.as_micros(), 1_234_567);
        assert!((t.as_secs_f64() - 1.234567).abs() < 1e-12);
    }

    #[test]
    fn time_from_secs_f64_rounds() {
        let t = SimTime::from_secs_f64(0.000_000_4);
        assert_eq!(t.as_micros(), 0);
        let t = SimTime::from_secs_f64(0.000_000_6);
        assert_eq!(t.as_micros(), 1);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn time_rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn checked_seconds_refuse_what_no_duration_holds() {
        let ok = SimDuration::checked_from_secs_f64;
        assert_eq!(ok(1800.0), Some(SimDuration::from_secs(1800)));
        assert_eq!(ok(0.2), Some(SimDuration::from_millis(200)));
        assert_eq!(ok(0.0), Some(SimDuration::ZERO));
        assert!(ok(18_446_744_073_709.0).is_some());
        for bad in [
            -1.0,
            -1e-9,
            f64::NAN,
            f64::INFINITY,
            18_446_744_073_710.0,
            1e300,
        ] {
            assert_eq!(ok(bad), None, "{bad}");
        }
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(1500);
        assert_eq!((t + d).as_micros(), 11_500_000);
        assert_eq!((t + d) - t, SimDuration::from_millis(1500));
        assert_eq!(d * 4, SimDuration::from_secs(6));
        assert_eq!(d / 3, SimDuration::from_micros(500_000));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_on_order() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        let _ = a.since(b);
    }

    #[test]
    fn div_duration_counts() {
        let period = SimDuration::from_secs(100);
        let total = SimDuration::from_secs(1800);
        assert_eq!(total.div_duration(period), 18);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(3),
            SimTime::ZERO,
            SimTime::from_millis(1),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_secs(3));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_micros(1).to_string(), "0.000001s");
    }
}
