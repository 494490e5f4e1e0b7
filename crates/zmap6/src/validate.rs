//! Stateless probe validation.
//!
//! ZMap keeps no per-target state: probe header fields (ICMP ident/seq,
//! TCP source port and sequence number, UDP source port, DNS id) are a
//! keyed hash of the destination. A reply validates iff the echoed fields
//! match the recomputed hash — off-path junk, stale replies, and
//! misdirected packets are rejected in O(1).

use expanse_addr::{addr_to_u128, fanout::splitmix64};
use std::net::Ipv6Addr;

/// Validation codec keyed by a scan secret.
#[derive(Debug, Clone, Copy)]
pub struct Validator {
    secret: u64,
}

/// Fields derived for one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeFields {
    /// ICMP ident / DNS transaction id.
    pub ident: u16,
    /// ICMP sequence number.
    pub seq: u16,
    /// TCP/UDP ephemeral source port (32768..=61000 range).
    pub src_port: u16,
    /// TCP sequence number.
    pub tcp_seq: u32,
}

impl Validator {
    /// Create a new instance.
    pub fn new(secret: u64) -> Self {
        Validator { secret }
    }

    /// Hash of a destination under the scan secret.
    fn hash(&self, dst: Ipv6Addr) -> u64 {
        let v = addr_to_u128(dst);
        splitmix64(v as u64 ^ splitmix64((v >> 64) as u64 ^ self.secret))
    }

    /// The probe fields for `dst`.
    pub fn fields(&self, dst: Ipv6Addr) -> ProbeFields {
        let h = self.hash(dst);
        ProbeFields {
            ident: (h & 0xffff) as u16,
            seq: ((h >> 16) & 0xffff) as u16,
            src_port: 32768 + ((h >> 32) % 28233) as u16,
            tcp_seq: (h >> 24) as u32,
        }
    }

    /// Validate an ICMP echo reply's ident/seq against target `dst`.
    pub(crate) fn check_echo(&self, dst: Ipv6Addr, ident: u16, seq: u16) -> bool {
        let f = self.fields(dst);
        f.ident == ident && f.seq == seq
    }

    /// Validate a TCP reply: destination port must be our ephemeral port
    /// and the peer must acknowledge `tcp_seq + 1`.
    pub(crate) fn check_tcp(&self, dst: Ipv6Addr, dst_port: u16, ack: u32) -> bool {
        let f = self.fields(dst);
        f.src_port == dst_port && ack == f.tcp_seq.wrapping_add(1)
    }

    /// Validate a UDP reply's destination port.
    pub(crate) fn check_udp(&self, dst: Ipv6Addr, dst_port: u16) -> bool {
        self.fields(dst).src_port == dst_port
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn fields_deterministic_per_target() {
        let v = Validator::new(99);
        let a = v.fields(addr("2001:db8::1"));
        assert_eq!(a, v.fields(addr("2001:db8::1")));
        let b = v.fields(addr("2001:db8::2"));
        assert_ne!(a, b);
        assert!(a.src_port >= 32768);
    }

    #[test]
    fn echo_validation() {
        let v = Validator::new(1);
        let dst = addr("2001:db8::5");
        let f = v.fields(dst);
        assert!(v.check_echo(dst, f.ident, f.seq));
        assert!(!v.check_echo(dst, f.ident.wrapping_add(1), f.seq));
        // Fields of another target never validate for dst.
        let g = v.fields(addr("2001:db8::6"));
        assert!(!v.check_echo(dst, g.ident, g.seq) || (g.ident, g.seq) == (f.ident, f.seq));
    }

    #[test]
    fn tcp_validation() {
        let v = Validator::new(2);
        let dst = addr("2001:db8::7");
        let f = v.fields(dst);
        assert!(v.check_tcp(dst, f.src_port, f.tcp_seq.wrapping_add(1)));
        assert!(!v.check_tcp(dst, f.src_port, f.tcp_seq)); // wrong ack
        assert!(!v.check_tcp(dst, f.src_port.wrapping_add(1), f.tcp_seq.wrapping_add(1)));
    }

    #[test]
    fn secrets_differ() {
        let dst = addr("2001:db8::9");
        assert_ne!(Validator::new(1).fields(dst), Validator::new(2).fields(dst));
    }
}
