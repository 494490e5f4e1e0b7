//! Formatting helpers for measurement output files.

use crate::Prefix;
use std::fmt::Write as _;
use std::net::Ipv6Addr;

/// Byte length of one fully-expanded address: 8 × 4 hex digits + 7
/// colons. Callers pre-sizing line-oriented buffers add one for the
/// newline.
pub const EXPANDED_LEN: usize = 39;

/// Fully expanded lowercase representation, `2001:0db8:0000:...:0001`.
///
/// Hitlist files in the paper's data release use the expanded form so that
/// line-oriented tools can slice nybbles by column.
pub fn expanded(a: Ipv6Addr) -> String {
    let mut out = String::with_capacity(EXPANDED_LEN);
    write_expanded(&mut out, a);
    out
}

/// Append the fully-expanded form of `a` to `out` without a temporary
/// allocation — the unit of the daily publish path, which renders
/// millions of these lines per file.
pub fn write_expanded(out: &mut String, a: Ipv6Addr) {
    let s = a.segments();
    // Writing into a String cannot fail.
    let _ = write!(
        out,
        "{:04x}:{:04x}:{:04x}:{:04x}:{:04x}:{:04x}:{:04x}:{:04x}",
        s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
    );
}

/// Render a prefix list, one per line, sorted — the aliased-prefix file
/// format of the paper's hitlist service.
pub fn prefix_lines(prefixes: &[Prefix]) -> String {
    let mut sorted: Vec<Prefix> = prefixes.to_vec();
    sorted.sort();
    let mut out = String::new();
    for p in sorted {
        out.push_str(&p.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expanded_form() {
        let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
        assert_eq!(expanded(a), "2001:0db8:0000:0000:0000:0000:0000:0001");
    }

    #[test]
    fn prefix_lines_sorted() {
        let out = prefix_lines(&[
            "2001:db9::/32".parse().unwrap(),
            "2001:db8::/32".parse().unwrap(),
        ]);
        assert_eq!(out, "2001:db8::/32\n2001:db9::/32\n");
    }
}
