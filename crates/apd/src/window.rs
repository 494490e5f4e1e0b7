//! Multi-day sliding window over branch responses (§5.2, Table 4).
//!
//! "We introduce a sliding window over several past days, and require
//! each IP address to have responded to any protocol in the past days."
//! The window trades reaction speed for stability: Table 4 shows 3 days
//! cutting unstable prefixes by ~80 %.

use std::collections::VecDeque;

/// Per-prefix window state.
///
/// Fields are crate-visible for the snapshot codec (`crate::persist`):
/// the whole struct is persistent detector state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowState {
    /// Days kept *in addition to* today (window = 0 ⇒ today only).
    pub(crate) window: usize,
    /// Most recent day last.
    pub(crate) days: VecDeque<u16>,
    /// Classification of the previous day (after windowing).
    pub(crate) last: Option<bool>,
    pub(crate) flips: u32,
}

impl WindowState {
    /// Create a new instance.
    pub fn new(window: usize) -> Self {
        WindowState {
            window,
            days: VecDeque::new(),
            last: None,
            flips: 0,
        }
    }

    /// Record one day's merged branch bitmap.
    pub fn push_day(&mut self, merged: u16) {
        self.days.push_back(merged);
        while self.days.len() > self.window + 1 {
            self.days.pop_front();
        }
        let class = self.aliased();
        if let Some(prev) = self.last {
            if prev != class {
                self.flips += 1;
            }
        }
        self.last = Some(class);
    }

    /// Branch bitmap merged over the window.
    pub(crate) fn windowed(&self) -> u16 {
        self.days.iter().fold(0, |acc, d| acc | d)
    }

    /// Aliased under the windowed view: every branch responded.
    pub(crate) fn aliased(&self) -> bool {
        !self.days.is_empty() && self.windowed() == 0xffff
    }

    /// Number of classification flips observed.
    pub fn flips(&self) -> u32 {
        self.flips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_zero_is_today_only() {
        let mut w = WindowState::new(0);
        w.push_day(0xffff);
        assert!(w.aliased());
        w.push_day(0xfffe);
        assert!(!w.aliased());
        assert_eq!(w.flips(), 1);
    }

    #[test]
    fn window_merges_days() {
        let mut w = WindowState::new(2);
        w.push_day(0x00ff);
        assert!(!w.aliased());
        w.push_day(0xff00);
        assert!(w.aliased(), "two half-days merge to full");
        // A third empty day doesn't break it (window still covers both).
        w.push_day(0x0000);
        assert!(w.aliased());
        // Fourth day: the 0x00ff day falls out.
        w.push_day(0x0000);
        assert!(!w.aliased());
    }

    #[test]
    fn flip_counting() {
        let mut w = WindowState::new(0);
        for d in [0xffffu16, 0x0001, 0xffff, 0x0001] {
            w.push_day(d);
        }
        assert_eq!(w.flips(), 3);
        // Stable prefix: no flips.
        let mut s = WindowState::new(3);
        for _ in 0..10 {
            s.push_day(0xffff);
        }
        assert_eq!(s.flips(), 0);
    }

    #[test]
    fn longer_window_stabilizes_flaky_prefix() {
        // An aliased prefix behind a lossy path: most days all 16
        // branches answer, but every third day one branch drops (the
        // Table 4 scenario).
        let days: Vec<u16> = (0..12)
            .map(|d| if d % 3 == 2 { !(1 << (d % 16)) } else { 0xffff })
            .collect();
        let flips_with = |window: usize| {
            let mut w = WindowState::new(window);
            for &d in &days {
                w.push_day(d);
            }
            w.flips()
        };
        assert!(flips_with(0) >= 6, "day-only view flaps: {}", flips_with(0));
        assert_eq!(flips_with(3), 0, "3-day window should be stable");
    }

    #[test]
    fn empty_is_not_aliased() {
        assert!(!WindowState::new(3).aliased());
    }
}
