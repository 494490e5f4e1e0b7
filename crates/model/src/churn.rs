//! Sub-day availability: client uptime sessions and QUIC flapping.
//!
//! §9.3 of the paper: crowdsourced client addresses are short-lived —
//! 19 % active under an hour, 39.4 % for ≤ 8 hours, median ≈ 3 h/day for
//! dynamic addresses. §6.3: two CDN prefixes flap their QUIC service
//! day-to-day (suspected staged rollout or rate limiting).

use expanse_addr::fanout::splitmix64;

/// Seconds in a day.
pub(crate) const DAY_SECS: u64 = 86_400;

/// Map a hash to [0, 1).
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A client's uptime session for one day: `[start, start+len)` in seconds
/// since local midnight, or `None` for an offline day.
///
/// Session lengths are log-uniform between ~33 minutes and 16 hours,
/// giving median ≈ 3 h and a mean pulled toward the paper's ≈ 8 h by the
/// long tail (§9.3).
pub(crate) fn client_session(salt: u64, day: u16) -> Option<(u64, u64)> {
    let k = splitmix64(salt ^ (u64::from(day) << 32) ^ 0x5e55_1044);
    // 15 % of days a dynamic client never shows up.
    if unit(k) < 0.15 {
        return None;
    }
    let start = splitmix64(k ^ 1) % (DAY_SECS - 600);
    // Log-uniform duration: exp(U * (ln hi - ln lo) + ln lo).
    let lo = 2000.0f64; // ~33 min
    let hi: f64 = 16.0 * 3600.0;
    let u = unit(splitmix64(k ^ 2));
    let len = (lo.ln() + u * (hi.ln() - lo.ln())).exp() as u64;
    Some((start, len.min(DAY_SECS - start)))
}

/// Is a dynamic client online at `(day, secs)`?
pub(crate) fn client_online(salt: u64, day: u16, secs: u64) -> bool {
    match client_session(salt, day) {
        Some((start, len)) => secs >= start && secs < start + len,
        None => false,
    }
}

/// Does a QUIC-flaky prefix serve QUIC on `day`? (§6.3's Akamai/HDNet
/// flapping: up with probability `up_rate`, independently per day.)
pub(crate) fn quic_up(salt: u64, day: u16, up_rate: f64) -> bool {
    unit(splitmix64(salt ^ u64::from(day) ^ 0x41c4_a41a)) < up_rate
}

/// Rotation epoch of a delegated prefix on probing day `day`: the epoch
/// advances every `period` days (the delegating ISP renumbers the
/// customer, and every host inside the prefix moves to fresh addresses).
/// A zero period means "never rotates" and pins epoch 0.
pub(crate) fn rotation_epoch(day: u16, period: u16) -> u16 {
    day.checked_div(period).unwrap_or(0)
}

/// Daily jitter for ICMP-rate-limited prefixes: the number of tokens the
/// bucket starts the day with (4..=10), so the set of answered fan-out
/// branches varies day-to-day (§5.1 case 4).
pub(crate) fn rate_limit_day_tokens(salt: u64, day: u16) -> u32 {
    4 + (splitmix64(salt ^ (u64::from(day) << 16) ^ 0x7a7e) % 7) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_deterministic_and_bounded() {
        for day in 0..50u16 {
            let a = client_session(42, day);
            assert_eq!(a, client_session(42, day));
            if let Some((start, len)) = a {
                assert!(start < DAY_SECS);
                assert!(start + len <= DAY_SECS);
                assert!(len >= 1);
            }
        }
    }

    #[test]
    fn session_length_distribution() {
        let mut lens: Vec<f64> = Vec::new();
        for salt in 0..2000u64 {
            if let Some((_, len)) = client_session(salt, 3) {
                lens.push(len as f64 / 3600.0);
            }
        }
        let median = expanse_stats::median(&lens).unwrap();
        let mean = expanse_stats::mean(&lens).unwrap();
        // Paper §9.3: median ≈ 3 h, mean ≈ 8 h. Midnight truncation pulls
        // our mean below the untruncated log-uniform value; the shape
        // that matters (long tail, mean ≫ median is preserved) holds.
        assert!((1.5..=5.0).contains(&median), "median={median}");
        assert!((3.0..=9.0).contains(&mean), "mean={mean}");
        assert!(median < mean, "long tail expected");
    }

    #[test]
    fn some_days_offline() {
        let offline = (0..1000u16)
            .filter(|d| client_session(7, *d).is_none())
            .count();
        assert!((100..220).contains(&offline), "offline={offline}");
    }

    #[test]
    fn online_follows_session() {
        for day in 0..20u16 {
            if let Some((start, len)) = client_session(9, day) {
                assert!(client_online(9, day, start));
                assert!(client_online(9, day, start + len - 1));
                assert!(!client_online(9, day, start + len));
                if start > 0 {
                    assert!(!client_online(9, day, start - 1));
                }
            }
        }
    }

    #[test]
    fn quic_flap_rate() {
        let ups = (0..2000u16).filter(|d| quic_up(3, *d, 0.78)).count();
        let rate = ups as f64 / 2000.0;
        assert!((rate - 0.78).abs() < 0.04, "rate={rate}");
        // Degenerate rates.
        assert!((0..100u16).all(|d| quic_up(3, d, 1.0)));
        assert!((0..100u16).all(|d| !quic_up(3, d, 0.0)));
    }

    #[test]
    fn rotation_epochs_advance_every_period() {
        assert_eq!(rotation_epoch(0, 3), 0);
        assert_eq!(rotation_epoch(2, 3), 0);
        assert_eq!(rotation_epoch(3, 3), 1);
        assert_eq!(rotation_epoch(8, 3), 2);
        assert_eq!(rotation_epoch(9, 3), 3);
        // Degenerate period: never rotates.
        assert_eq!(rotation_epoch(500, 0), 0);
    }

    #[test]
    fn day_tokens_vary() {
        let toks: std::collections::BTreeSet<u32> =
            (0..50u16).map(|d| rate_limit_day_tokens(1, d)).collect();
        assert!(toks.len() > 3, "tokens should vary across days: {toks:?}");
        assert!(toks.iter().all(|t| (4..=10).contains(t)));
    }
}
