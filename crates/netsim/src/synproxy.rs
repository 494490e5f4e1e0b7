//! A SYN-proxy middlebox model.
//!
//! §5.1 of the paper diagnoses one APD anomaly (a /80 with 3–5 of 16
//! probes answered, different branches on different days) as a SYN proxy
//! "activated only after a certain threshold of connection attempts is
//! reached. Once active, the SYN proxy responds to every incoming TCP SYN,
//! no matter the destination." (cf. RFC 4987 mitigations.)
//!
//! This model counts SYNs in a sliding activation window; once the count
//! crosses `threshold`, the proxy answers *every* SYN for `active_for`.

use crate::time::{Duration, Time};
use std::collections::VecDeque;

/// Stateful SYN proxy for one protected prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct SynProxy {
    /// SYNs within this window count toward activation.
    pub window: Duration,
    /// Activation threshold (SYNs per window).
    pub threshold: usize,
    /// Once activated, answer everything for this long.
    pub active_for: Duration,
    arrivals: VecDeque<Time>,
    active_until: Option<Time>,
}

impl SynProxy {
    /// Create a new instance.
    pub fn new(window: Duration, threshold: usize, active_for: Duration) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        SynProxy {
            window,
            threshold,
            active_for,
            arrivals: VecDeque::new(),
            active_until: None,
        }
    }

    /// Record a SYN arriving at `now`; returns `true` if the proxy answers
    /// it (i.e. the proxy is in the active state after this SYN).
    pub fn on_syn(&mut self, now: Time) -> bool {
        // Expire old arrivals.
        while let Some(&front) = self.arrivals.front() {
            if now.since(front) > self.window {
                self.arrivals.pop_front();
            } else {
                break;
            }
        }
        self.arrivals.push_back(now);
        if self.arrivals.len() >= self.threshold {
            self.active_until = Some(now + self.active_for);
        }
        self.is_active(now)
    }

    /// Is the proxy currently answering everything?
    pub(crate) fn is_active(&self, now: Time) -> bool {
        self.active_until.is_some_and(|t| now <= t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proxy() -> SynProxy {
        SynProxy::new(Duration::from_secs(10), 3, Duration::from_secs(60))
    }

    #[test]
    fn inactive_below_threshold() {
        let mut p = proxy();
        assert!(!p.on_syn(Time::ZERO));
        assert!(!p.on_syn(Time::from_millis(1_000)));
        assert!(!p.is_active(Time::from_millis(2_000)));
    }

    #[test]
    fn activates_at_threshold() {
        let mut p = proxy();
        p.on_syn(Time::ZERO);
        p.on_syn(Time::from_millis(1_000));
        assert!(
            p.on_syn(Time::from_millis(2_000)),
            "third SYN within window activates"
        );
        assert!(p.is_active(Time::from_millis(30_000)));
        assert!(
            !p.is_active(Time::from_millis(100_000)),
            "deactivates after active_for"
        );
    }

    #[test]
    fn slow_syns_never_activate() {
        let mut p = proxy();
        for i in 0..10 {
            assert!(!p.on_syn(Time::from_millis(i * 100_000)), "syn {i}");
        }
    }

    #[test]
    fn reactivation_extends() {
        let mut p = proxy();
        for i in 0..3 {
            p.on_syn(Time::from_millis(i * 1000));
        }
        assert!(p.is_active(Time::from_millis(60_000)));
        // Burst again near expiry: extends.
        for i in 0..3 {
            p.on_syn(Time::from_millis((61 + i) * 1000));
        }
        assert!(p.is_active(Time::from_millis(120_000)));
    }
}
