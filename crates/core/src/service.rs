//! The hitlist service outputs (§11): daily responsive-address lists and
//! the aliased-prefix list, in the file formats the paper publishes at
//! ipv6hitlist.github.io.

use crate::pipeline::DailySnapshot;
use expanse_addr::format::{prefix_lines, write_expanded, EXPANDED_LEN};
use expanse_packet::Protocol;
use std::fmt::Write as _;

/// One fully-expanded address line: 39 hex/colon characters plus the
/// newline. Body sizes are exact, so rendering a million-line daily
/// file is one allocation, not a realloc-and-copy ladder.
const ADDR_LINE: usize = EXPANDED_LEN + 1;

/// Headroom for a file's `#`-comment header lines.
const HEADER_ROOM: usize = 160;

/// Render the daily responsive hitlist file: one expanded address per
/// line, preceded by a provenance header.
///
/// The body is written with `write!` into a pre-sized buffer — the
/// publish path renders this for every protocol view every day, and a
/// per-line `format!` temporary is an allocation per address.
pub fn hitlist_file(snap: &DailySnapshot) -> String {
    let mut out = String::with_capacity(HEADER_ROOM + snap.responsive.len() * ADDR_LINE);
    let _ = writeln!(
        out,
        "# expanse IPv6 hitlist — day {} — {} responsive of {} non-aliased targets",
        snap.day,
        snap.responsive.len(),
        snap.report.kept,
    );
    let _ = writeln!(
        out,
        "# scan digest {:016x} — identical for serial and parallel probing",
        snap.battery_digest,
    );
    for &(a, _) in &snap.responsive {
        push_expanded_line(&mut out, a);
    }
    out
}

/// Render the aliased-prefix file. Detection granularity (thousands of
/// sibling /64s under one aliased /48) is aggregated away so the file
/// describes the phenomenon, not the probing schedule.
pub fn aliased_prefixes_file(snap: &DailySnapshot) -> String {
    let aggregated = expanse_trie::aggregate(&snap.aliased_prefixes);
    let body = prefix_lines(&aggregated);
    let mut out = String::with_capacity(HEADER_ROOM + body.len());
    let _ = writeln!(
        out,
        "# expanse aliased prefixes — day {} — {} prefixes ({} before aggregation)",
        snap.day,
        aggregated.len(),
        snap.aliased_prefixes.len()
    );
    out.push_str(&body);
    out
}

/// Render per-protocol responsive lists (the service offers per-service
/// views, e.g. only HTTPS servers — "Hitlist Tailoring", §11).
pub fn protocol_file(snap: &DailySnapshot, proto: Protocol) -> String {
    let addrs: Vec<_> = snap
        .responsive
        .iter()
        .filter(|(_, set)| set.contains(proto))
        .map(|&(a, _)| a)
        .collect();
    let mut out = String::with_capacity(HEADER_ROOM + addrs.len() * ADDR_LINE);
    let _ = writeln!(
        out,
        "# expanse {} responders — day {} — {} addresses",
        proto,
        snap.day,
        addrs.len()
    );
    for a in addrs {
        push_expanded_line(&mut out, a);
    }
    out
}

/// Append one expanded-address line without a `format!` temporary.
#[inline]
fn push_expanded_line(out: &mut String, a: std::net::Ipv6Addr) {
    write_expanded(out, a);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StageReport;
    use expanse_packet::ProtoSet;

    fn snap() -> DailySnapshot {
        let responsive = vec![
            (
                "2001:db8::1".parse().unwrap(),
                ProtoSet::only(Protocol::Icmp).with(Protocol::Tcp443),
            ),
            (
                "2001:db8::2".parse().unwrap(),
                ProtoSet::only(Protocol::Icmp),
            ),
        ];
        DailySnapshot {
            day: 3,
            hitlist_total: 100,
            aliased_prefixes: vec!["2001:db8:47::/48".parse().unwrap()],
            responsive,
            expired_today: 0,
            probes_sent: 500,
            battery_digest: 0xfeed_beef_0042_0777,
            report: StageReport {
                kept: 50,
                ..StageReport::default()
            },
        }
    }

    #[test]
    fn hitlist_file_format() {
        let f = hitlist_file(&snap());
        assert!(f.starts_with("# expanse IPv6 hitlist — day 3"));
        assert!(f.contains("# scan digest feedbeef00420777"));
        assert!(f.contains("2001:0db8:0000:0000:0000:0000:0000:0001\n"));
        assert_eq!(f.lines().count(), 4);
        // Strictly ascending.
        let lines: Vec<&str> = f.lines().skip(2).collect();
        assert!(lines.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn aliased_file_format() {
        let f = aliased_prefixes_file(&snap());
        assert!(f.contains("1 prefixes"));
        assert!(f.contains("2001:db8:47::/48\n"));
    }

    #[test]
    fn protocol_views() {
        let https = protocol_file(&snap(), Protocol::Tcp443);
        assert!(https.contains("0001"));
        assert!(!https.contains("0002"));
        let icmp = protocol_file(&snap(), Protocol::Icmp);
        assert_eq!(icmp.lines().count(), 3);
        let dns = protocol_file(&snap(), Protocol::Udp53);
        assert_eq!(dns.lines().count(), 1, "header only");
    }
}
