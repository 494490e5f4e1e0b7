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

    /// From secs.
    #[inline]
    pub fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }
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
    /// As millis.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }
    /// Saturating difference.
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The zero value.
    pub const ZERO: Duration = Duration(0);

    /// From secs.
    #[inline]
    pub fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }
    /// From millis.
    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }
    /// From micros.
    #[inline]
    pub fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }
    /// As secs f64.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Multiply by a non-negative float (e.g. jitter factors).
    pub fn mul_f64(self, f: f64) -> Duration {
        assert!(f >= 0.0, "negative duration factor");
        Duration((self.0 as f64 * f) as u64)
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
        let t = Time::from_secs(1) + Duration::from_millis(500);
        assert_eq!(t, Time(1_500_000_000));
        assert_eq!(t - Time::from_secs(1), Duration::from_millis(500));
        assert_eq!(t.as_millis(), 1500);
    }

    #[test]
    fn since_saturates() {
        assert_eq!(Time::from_secs(1).since(Time::from_secs(2)), Duration::ZERO);
        assert_eq!(
            Time::from_secs(2).since(Time::from_secs(1)),
            Duration::from_secs(1)
        );
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn sub_underflow_panics() {
        let _ = Time::from_secs(1) - Time::from_secs(2);
    }

    #[test]
    fn mul_f64() {
        assert_eq!(Duration::from_secs(2).mul_f64(0.5), Duration::from_secs(1));
        assert_eq!(Duration::from_secs(1).mul_f64(0.0), Duration::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(Time::from_millis(1500).to_string(), "1.500000s");
    }
}
