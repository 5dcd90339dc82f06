//! Virtual time: instants, durations, and a shared monotonic clock.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// An instant on the simulated timeline, in nanoseconds since simulation
/// start.
///
/// `SimTime` is a monotonic virtual instant — it has no relationship to the
/// wall clock. Two `SimTime` values from the same simulation are directly
/// comparable; subtracting them yields a [`SimDuration`].
///
/// # Examples
///
/// ```
/// use reo_sim::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_millis(5);
/// assert_eq!(t1 - t0, SimDuration::from_millis(5));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (lossy for display and
    /// rate computations).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration elapsed since `earlier`, saturating to zero if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({})", format_nanos(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_nanos(self.0))
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

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use reo_sim::SimDuration;
///
/// let d = SimDuration::from_micros(250) * 4;
/// assert_eq!(d, SimDuration::from_millis(1));
/// assert_eq!(d.as_secs_f64(), 0.001);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from a floating-point number of seconds, rounding
    /// to the nearest nanosecond and saturating at zero for negative input.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1e9).round() as u64)
    }

    /// The duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns `self - rhs`, or [`SimDuration::ZERO`] if `rhs > self`.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({})", format_nanos(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_nanos(self.0))
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
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
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

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

/// A shared, monotonically advancing virtual clock.
///
/// The clock is the single source of "now" for a simulation. Devices advance
/// it as they service requests; the experiment runner reads it to compute
/// bandwidth (bytes transferred per simulated second).
///
/// Cloning a `SimClock` yields a handle to the *same* underlying clock.
///
/// # Examples
///
/// ```
/// use reo_sim::{SimClock, SimDuration};
///
/// let clock = SimClock::new();
/// let handle = clock.clone();
/// clock.advance(SimDuration::from_millis(3));
/// assert_eq!(handle.now().as_nanos(), 3_000_000);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now_nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        SimClock::default()
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        SimTime(self.now_nanos.load(Ordering::Relaxed))
    }

    /// Moves the clock forward by `d` and returns the new instant.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let prev = self.now_nanos.fetch_add(d.0, Ordering::Relaxed);
        SimTime(prev + d.0)
    }

    /// Moves the clock forward to `t` if `t` is later than now; otherwise
    /// leaves the clock unchanged. Returns the (possibly unchanged) current
    /// instant.
    ///
    /// This is useful when several parallel device operations complete at
    /// different instants and the simulation should resume at the latest one.
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        let mut cur = self.now_nanos.load(Ordering::Relaxed);
        while t.0 > cur {
            match self.now_nanos.compare_exchange_weak(
                cur,
                t.0,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
        SimTime(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1_500);
        let d = SimDuration::from_nanos(500);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
    }

    #[test]
    fn duration_from_secs_f64_saturates() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d * 3, SimDuration::from_micros(30));
        assert_eq!(d / 2, SimDuration::from_micros(5));
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(30);
        assert_eq!(late.saturating_since(early), SimDuration::from_nanos(20));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn clock_advance_is_shared_between_clones() {
        let clock = SimClock::new();
        let other = clock.clone();
        clock.advance(SimDuration::from_nanos(7));
        other.advance(SimDuration::from_nanos(5));
        assert_eq!(clock.now(), SimTime::from_nanos(12));
    }

    #[test]
    fn clock_advance_to_never_rewinds() {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_millis(10));
        let before = clock.now();
        clock.advance_to(SimTime::from_nanos(5));
        assert_eq!(clock.now(), before);
        let later = SimTime::ZERO + SimDuration::from_millis(20);
        assert_eq!(clock.advance_to(later), later);
        assert_eq!(clock.now(), later);
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimDuration::from_nanos(42).to_string(), "42ns");
        assert_eq!(SimDuration::from_micros(42).to_string(), "42.000us");
        assert_eq!(SimDuration::from_millis(42).to_string(), "42.000ms");
        assert_eq!(SimDuration::from_secs(42).to_string(), "42.000s");
    }
}
