//! Virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The zero value.
    pub const ZERO: Time = Time(0);

    /// From millis.
    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }
    /// From micros.
    #[inline]
    pub fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }
    /// As secs f64.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Saturating difference.
    #[inline]
    pub(crate) fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The zero value.
    pub const ZERO: Duration = Duration(0);

    /// From secs.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }
    /// From millis.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }
    /// From micros.
    #[inline]
    pub fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }
    /// As secs f64.
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("time went backwards"))
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Time::from_millis(1_000) + Duration::from_millis(500);
        assert_eq!(t, Time(1_500_000_000));
        assert_eq!(t - Time::from_millis(1_000), Duration::from_millis(500));
    }

    #[test]
    fn since_saturates() {
        assert_eq!(
            Time::from_millis(1_000).since(Time::from_millis(2_000)),
            Duration::ZERO
        );
        assert_eq!(
            Time::from_millis(2_000).since(Time::from_millis(1_000)),
            Duration::from_secs(1)
        );
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn sub_underflow_panics() {
        let _ = Time::from_millis(1_000) - Time::from_millis(2_000);
    }

    #[test]
    fn display() {
        assert_eq!(Time::from_millis(1500).to_string(), "1.500000s");
    }
}
