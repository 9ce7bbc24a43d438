//! Virtual time for the simulation engine.
//!
//! Time is kept as an integer count of picoseconds so that event ordering is
//! exact and runs are reproducible: no floating-point summation order can
//! perturb the schedule. One `u64` of picoseconds covers ~213 days of
//! simulated time, far beyond any experiment in this repository.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

const PS_PER_NS: u64 = 1_000;
const PS_PER_US: u64 = 1_000_000;
const PS_PER_MS: u64 = 1_000_000_000;
const PS_PER_S: u64 = 1_000_000_000_000;

/// An absolute instant on the virtual clock, in picoseconds since the start
/// of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub(crate) u64);

/// A span of virtual time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub(crate) u64);

impl SimTime {
    /// The origin of the virtual clock.
    pub const ZERO: SimTime = SimTime(0);

    /// Raw picosecond count.
    pub fn as_ps(self) -> u64 {
        self.0
    }

    /// Time in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Time in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Time in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; virtual time never runs
    /// backwards, so this indicates a logic error in the caller.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw picoseconds.
    pub fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Construct from nanoseconds (rounded to the nearest picosecond).
    pub fn from_ns(ns: f64) -> Self {
        Self::from_secs_f64(ns * 1e-9)
    }

    /// Construct from microseconds (rounded to the nearest picosecond).
    pub fn from_us(us: f64) -> Self {
        Self::from_secs_f64(us * 1e-6)
    }

    /// Construct from milliseconds (rounded to the nearest picosecond).
    pub fn from_ms(ms: f64) -> Self {
        Self::from_secs_f64(ms * 1e-3)
    }

    /// Construct from seconds (rounded to the nearest picosecond).
    ///
    /// # Panics
    /// Panics on negative or non-finite input: durations model physical
    /// service times and must be well-formed.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration must be finite and non-negative, got {secs}"
        );
        let ps = secs * PS_PER_S as f64;
        // `u64::MAX as f64` rounds up to 2^64, so the bound is strict; the
        // largest f64 below it, 2^64 - 2048, still fits.
        assert!(
            ps < u64::MAX as f64,
            "SimDuration overflow: {secs} s exceeds the u64 picosecond range"
        );
        SimDuration(ps.round() as u64)
    }

    /// Raw picosecond count.
    pub fn as_ps(self) -> u64 {
        self.0
    }

    /// Span in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Span in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Span in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Saturating multiplication by an integer count (e.g. per-iteration
    /// cost times iteration count).
    pub fn saturating_mul(self, n: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(n))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: simulated time exceeded the u64 picosecond range"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
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

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

fn format_ps(ps: u64) -> String {
    if ps >= PS_PER_S {
        format!("{:.6}s", ps as f64 / PS_PER_S as f64)
    } else if ps >= PS_PER_MS {
        format!("{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else if ps >= PS_PER_US {
        format!("{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps >= PS_PER_NS {
        format!("{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else {
        format!("{ps}ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let d = SimDuration::from_us(3.5);
        assert_eq!(d.as_ps(), 3_500_000);
        assert!((d.as_us() - 3.5).abs() < 1e-12);
        assert!((d.as_ns() - 3500.0).abs() < 1e-9);
        assert!((d.as_secs_f64() - 3.5e-6).abs() < 1e-18);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_ns(10.0) + SimDuration::from_ns(5.0);
        assert_eq!(t.as_ps(), 15_000);
        assert_eq!(t.since(SimTime::ZERO).as_ns(), 15.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_ps(12)), "12ps");
        assert_eq!(format!("{}", SimDuration::from_ns(1.5)), "1.500ns");
        assert_eq!(format!("{}", SimDuration::from_us(2.0)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_ms(7.25)), "7.250ms");
        assert_eq!(format!("{}", SimDuration::from_secs_f64(1.0)), "1.000000s");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "SimDuration overflow")]
    fn duration_of_two_to_the_64_picoseconds_rejected() {
        // 2^64 ps to the nearest f64, not u64::MAX saturated.
        let _ = SimDuration::from_secs_f64(18_446_744.073_709_55);
    }

    #[test]
    fn largest_duration_below_two_to_the_64_picoseconds_fits() {
        let secs = 18_446_744.073_709_55_f64.next_down();
        assert_eq!(SimDuration::from_secs_f64(secs).as_ps(), u64::MAX - 4095);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_rejects_backwards_time() {
        let early = SimTime::ZERO;
        let late = early + SimDuration::from_ns(1.0);
        let _ = early.since(late);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_ns(i as f64)).sum();
        assert_eq!(total.as_ns(), 10.0);
    }

    #[test]
    fn saturating_mul_caps_at_max() {
        let d = SimDuration::from_ps(u64::MAX / 2);
        assert_eq!(d.saturating_mul(4).as_ps(), u64::MAX);
    }
}
