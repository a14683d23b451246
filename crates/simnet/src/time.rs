//! Virtual-time primitives for the discrete-event simulator.
//!
//! All simulated time is kept in integer nanoseconds, which makes event
//! ordering exact and runs deterministic: two simulations with the same
//! inputs produce bit-identical schedules. [`SimTime`] is an absolute
//! point on the virtual clock, [`SimDuration`] a span between two points.
//!
//! ```
//! use simnet::time::{SimTime, SimDuration};
//!
//! let t0 = SimTime::ZERO;
//! let t1 = t0 + SimDuration::from_micros(5);
//! assert_eq!(t1 - t0, SimDuration::from_nanos(5_000));
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An absolute point in virtual time, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the virtual clock.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant; useful as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier instant is later than self"),
        )
    }

    /// Like [`SimTime::duration_since`] but clamps to zero instead of panicking.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// `self + d`, clamped at [`SimTime::MAX`] instead of overflowing: a
    /// time past the horizon is never due.
    pub const fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// `self - d`, clamped at [`SimTime::ZERO`] instead of underflowing.
    pub const fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a span of `secs` whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a span from fractional seconds, rounding to whole nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration::from_secs_f64: seconds must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1e9).round() as u64)
    }

    /// The span in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span in fractional milliseconds (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Addition that clamps at [`SimDuration::MAX`] instead of overflowing.
    pub const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Subtraction that clamps at zero instead of underflowing.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: simulation ran past u64 nanoseconds"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: subtracted duration before simulation start"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("SimDuration overflow in addition"),
        )
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration underflow in subtraction"),
        )
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
        SimDuration(
            self.0
                .checked_mul(rhs)
                .expect("SimDuration overflow in multiplication"),
        )
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: f64) -> SimDuration {
        assert!(
            rhs.is_finite() && rhs >= 0.0,
            "SimDuration * f64: factor must be finite and non-negative, got {rhs}"
        );
        SimDuration((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}µs", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

impl From<std::time::Duration> for SimDuration {
    fn from(d: std::time::Duration) -> Self {
        SimDuration(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

impl From<SimDuration> for std::time::Duration {
    fn from(d: SimDuration) -> Self {
        std::time::Duration::from_nanos(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1_000);
        let d = SimDuration::from_nanos(234);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1_500)
        );
    }

    #[test]
    fn duration_since_saturates() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(50);
        assert_eq!(late.saturating_duration_since(early).as_nanos(), 40);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_when_reversed() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(50);
        let _ = early.duration_since(late);
    }

    #[test]
    fn float_seconds_round_trip() {
        let d = SimDuration::from_secs_f64(0.123_456_789);
        assert!((d.as_secs_f64() - 0.123_456_789).abs() < 1e-9);
    }

    #[test]
    fn scalar_multiplication_scales() {
        let d = SimDuration::from_micros(3);
        assert_eq!(d * 4u64, SimDuration::from_micros(12));
        assert_eq!(d * 0.5f64, SimDuration::from_nanos(1_500));
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(
            SimDuration::MAX.saturating_add(SimDuration::from_nanos(1)),
            SimDuration::MAX
        );
        assert_eq!(
            SimDuration::ZERO.saturating_sub(SimDuration::from_nanos(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total, SimDuration::from_nanos(10));
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000µs");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn std_duration_conversion() {
        let d: SimDuration = std::time::Duration::from_millis(7).into();
        assert_eq!(d, SimDuration::from_millis(7));
        let back: std::time::Duration = d.into();
        assert_eq!(back, std::time::Duration::from_millis(7));
    }

    #[test]
    fn min_max_order() {
        let a = SimDuration::from_nanos(3);
        let b = SimDuration::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
