//! Machine fingerprints: what §5.4 of the paper measures.
//!
//! Every responding address is backed by a *machine*. A machine has one
//! TCP/IP personality — initial TTL, MSS, window size/scale, option
//! layout, and timestamp behaviour. Aliased prefixes map entire address
//! ranges to one machine, which is exactly what the paper's consistency
//! tests detect. A small fraction of machines carry a *pathology* that
//! makes one field time-variant (the CDN TCP-proxy cases behind Table 5's
//! inconsistent counts).

use expanse_addr::fanout::splitmix64;
use expanse_packet::{TcpFlags, TcpOption, TcpOptionBlock, TcpView};

/// Index into the model's machine table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub u32);

/// The SYN-ACK a machine answers a SYN with, built on the stack: the
/// reply's fields and its options' wire bytes.
#[derive(Debug, Clone, Copy)]
pub struct SynAck {
    /// Source port (the probe's destination port).
    pub src_port: u16,
    /// Destination port (the probe's source port).
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment: the probe's sequence number plus one.
    pub ack: u32,
    /// Advertised receive window.
    pub window: u16,
    /// The options, in the machine's layout.
    pub options: TcpOptionBlock,
}

impl SynAck {
    /// The segment to emit.
    pub(crate) fn segment(&self) -> TcpView<'_> {
        TcpView {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq: self.seq,
            ack: self.ack,
            flags: TcpFlags::SYN_ACK,
            window: self.window,
            urgent: 0,
            options: self.options.as_bytes(),
            payload: &[],
        }
    }
}

/// TCP timestamp option behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TsBehavior {
    /// No timestamp option in replies.
    None,
    /// One global monotonic counter for the whole machine (pre-4.10
    /// Linux, BSDs): the strongest aliasing signal (§5.4: R² test).
    GlobalMonotonic {
        /// Counter frequency in Hz.
        rate_hz: u32,
        /// Counter value at simulation epoch.
        offset: u32,
    },
    /// Monotonic rate but with a random offset per `<SRC-IP, DST-IP>`
    /// tuple (Linux ≥ 4.10) — defeats the same-counter test by design.
    PerTupleRandom {
        /// Counter frequency in Hz.
        rate_hz: u32,
    },
    /// Fully random per reply (middlebox pathologies).
    RandomEach,
}

/// Which options a SYN-ACK carries, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLayout {
    /// `MSS-SACK-TS-N-WS` — 99.5 % of responsive hosts in the paper.
    Standard,
    /// `MSS-SACK-N-WS` (timestamps disabled).
    NoTimestamps,
    /// `MSS-N-WS-TS` (SACK disabled, reordered as some stacks do).
    NoSack,
    /// `MSS` only (minimal embedded stacks).
    MssOnly,
}

/// A time-variant defect in one fingerprint dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pathology {
    /// None.
    None,
    /// Alternates initial TTL between 64 and 255 (the paper found 22 such
    /// hosts answering "in direct order" with differing iTTL).
    FlakyIttl,
    /// Oscillates the option layout.
    FlakyOptions,
    /// Oscillates the window-scale value.
    FlakyWscale,
    /// Oscillates the MSS value.
    FlakyMss,
    /// Oscillates the window size.
    FlakyWsize,
}

/// One machine's TCP/IP personality.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Initial TTL of replies.
    pub ittl: u8,
    /// Maximum segment size option value.
    pub mss: u16,
    /// Window-scale option value.
    pub wscale: u8,
    /// TCP window size.
    pub wsize: u16,
    /// Option layout of SYN-ACKs.
    pub layout: OptLayout,
    /// Timestamp option behaviour.
    pub ts: TsBehavior,
    /// Fingerprint pathology, if any.
    pub pathology: Pathology,
    /// Per-machine salt for tuple-keyed randomness.
    pub salt: u64,
}

impl Machine {
    /// A plain Linux-server-like personality.
    pub(crate) fn linux_like(salt: u64) -> Machine {
        Machine {
            ittl: 64,
            mss: 1440,
            wscale: 7,
            wsize: 64240,
            layout: OptLayout::Standard,
            ts: TsBehavior::PerTupleRandom { rate_hz: 1000 },
            pathology: Pathology::None,
            salt,
        }
    }

    /// Timestamp value at absolute time `abs_ns` for a flow identified by
    /// `tuple_key` (hash of src/dst addresses).
    pub(crate) fn tsval(&self, abs_ns: u64, tuple_key: u64) -> Option<u32> {
        match self.ts {
            TsBehavior::None => None,
            TsBehavior::GlobalMonotonic { rate_hz, offset } => {
                let ticks = abs_ns / 1_000_000_000 * u64::from(rate_hz)
                    + abs_ns % 1_000_000_000 * u64::from(rate_hz) / 1_000_000_000;
                Some(offset.wrapping_add(ticks as u32))
            }
            TsBehavior::PerTupleRandom { rate_hz } => {
                let ticks = abs_ns / 1_000_000_000 * u64::from(rate_hz)
                    + abs_ns % 1_000_000_000 * u64::from(rate_hz) / 1_000_000_000;
                let offset = splitmix64(self.salt ^ tuple_key) as u32;
                Some(offset.wrapping_add(ticks as u32))
            }
            TsBehavior::RandomEach => Some(splitmix64(self.salt ^ tuple_key ^ abs_ns) as u32),
        }
    }

    /// Effective fingerprint fields after applying the pathology for a
    /// reply keyed by `flavor_key` (varies per probe for flaky machines).
    fn effective(&self, flavor_key: u64) -> (u8, u16, u8, u16, OptLayout) {
        let flip = splitmix64(self.salt ^ flavor_key) & 1 == 1;
        let mut ittl = self.ittl;
        let mut mss = self.mss;
        let mut wscale = self.wscale;
        let mut wsize = self.wsize;
        let mut layout = self.layout;
        match self.pathology {
            Pathology::None => {}
            Pathology::FlakyIttl => {
                if flip {
                    ittl = if self.ittl == 255 { 64 } else { 255 };
                }
            }
            Pathology::FlakyOptions => {
                if flip {
                    layout = OptLayout::NoTimestamps;
                }
            }
            Pathology::FlakyWscale => {
                if flip {
                    wscale = self.wscale.wrapping_add(1) & 0x0f;
                }
            }
            Pathology::FlakyMss => {
                if flip {
                    mss = self.mss.wrapping_sub(20);
                }
            }
            Pathology::FlakyWsize => {
                wsize = self
                    .wsize
                    .wrapping_add((splitmix64(flavor_key ^ 0x55) % 4096) as u16);
            }
        }
        (ittl, mss, wscale, wsize, layout)
    }

    /// Build the SYN-ACK for `probe`.
    ///
    /// * `abs_ns` — absolute virtual time (for timestamps)
    /// * `tuple_key` — hash of the 〈src, dst〉 address pair
    /// * `flavor_key` — per-probe key (drives pathologies)
    pub(crate) fn syn_ack(
        &self,
        probe: &TcpView<'_>,
        abs_ns: u64,
        tuple_key: u64,
        flavor_key: u64,
    ) -> SynAck {
        let (_, mss, wscale, wsize, layout) = self.effective(flavor_key);
        let mut options = TcpOptionBlock::new();
        let ts = self
            .tsval(abs_ns, tuple_key)
            .map(|tsval| TcpOption::<&[u8]>::Timestamps {
                tsval,
                tsecr: probe.timestamps().map_or(0, |(v, _)| v),
            });
        let mut push = |o: TcpOption<&[u8]>| options.push(&o);
        match layout {
            OptLayout::Standard => {
                push(TcpOption::Mss(mss));
                push(TcpOption::SackPermitted);
                if let Some(t) = ts {
                    push(t);
                }
                push(TcpOption::Nop);
                push(TcpOption::WindowScale(wscale));
            }
            OptLayout::NoTimestamps => {
                push(TcpOption::Mss(mss));
                push(TcpOption::SackPermitted);
                push(TcpOption::Nop);
                push(TcpOption::WindowScale(wscale));
            }
            OptLayout::NoSack => {
                push(TcpOption::Mss(mss));
                push(TcpOption::Nop);
                push(TcpOption::WindowScale(wscale));
                if let Some(t) = ts {
                    push(t);
                }
            }
            OptLayout::MssOnly => push(TcpOption::Mss(mss)),
        }
        SynAck {
            src_port: probe.dst_port,
            dst_port: probe.src_port,
            seq: splitmix64(self.salt ^ tuple_key ^ abs_ns) as u32,
            ack: probe.seq.wrapping_add(1),
            window: wsize,
            options,
        }
    }

    /// The initial TTL a reply leaves the machine with (pathology-aware).
    pub(crate) fn reply_ittl(&self, flavor_key: u64) -> u8 {
        self.effective(flavor_key).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `m`'s SYN-ACK to `probe`, through the wire view a SYN arrives as.
    fn syn_ack(m: &Machine, probe: &TcpView<'_>, abs_ns: u64, tuple: u64, flavor: u64) -> SynAck {
        let a: std::net::Ipv6Addr = "2001:db8::1".parse().unwrap();
        let mut bytes = Vec::new();
        probe.emit_into(a, a, &mut bytes);
        let view = TcpView::parse(a, a, &bytes).unwrap();
        m.syn_ack(&view, abs_ns, tuple, flavor)
    }

    #[test]
    fn syn_ack_echoes_probe() {
        let m = Machine::linux_like(1);
        let options = TcpOptionBlock::fingerprint(777);
        let probe = TcpView::syn(40000, 80, 12345, options.as_bytes());
        let reply = syn_ack(&m, &probe, 0, 9, 9);
        let reply = reply.segment();
        assert_eq!(reply.src_port, 80);
        assert_eq!(reply.dst_port, 40000);
        assert_eq!(reply.ack, 12346);
        assert!(reply.flags.contains(TcpFlags::SYN_ACK));
        assert_eq!(reply.options_text(), "MSS-SACK-TS-N-WS");
        // tsecr echoes our tsval.
        assert_eq!(reply.timestamps().unwrap().1, 777);
    }

    #[test]
    fn global_monotonic_counter_is_shared_and_linear() {
        let m = Machine {
            ts: TsBehavior::GlobalMonotonic {
                rate_hz: 1000,
                offset: 5,
            },
            ..Machine::linux_like(2)
        };
        // Two different tuples see the SAME counter.
        let a = m.tsval(1_000_000_000, 111).unwrap();
        let b = m.tsval(1_000_000_000, 222).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, 1005);
        // Linear in time.
        assert_eq!(m.tsval(2_000_000_000, 111).unwrap(), 2005);
    }

    #[test]
    fn per_tuple_random_differs_across_tuples() {
        let m = Machine::linux_like(3);
        let a = m.tsval(0, 111).unwrap();
        let b = m.tsval(0, 222).unwrap();
        assert_ne!(a, b, "per-tuple offsets must differ");
        // But monotonic within a tuple.
        assert!(m.tsval(5_000_000_000, 111).unwrap() > a);
    }

    #[test]
    fn pathology_flaky_ittl_alternates() {
        let m = Machine {
            pathology: Pathology::FlakyIttl,
            ..Machine::linux_like(4)
        };
        let vals: std::collections::BTreeSet<u8> = (0..32u64).map(|k| m.reply_ittl(k)).collect();
        assert_eq!(vals, [64u8, 255].into_iter().collect());
        // Healthy machine never flips.
        let healthy = Machine::linux_like(4);
        assert!((0..32u64).all(|k| healthy.reply_ittl(k) == 64));
    }

    #[test]
    fn pathology_flaky_options_changes_text() {
        let m = Machine {
            pathology: Pathology::FlakyOptions,
            ..Machine::linux_like(5)
        };
        let options = TcpOptionBlock::fingerprint(1);
        let probe = TcpView::syn(1, 80, 1, options.as_bytes());
        let texts: std::collections::BTreeSet<String> = (0..32u64)
            .map(|k| syn_ack(&m, &probe, 0, 0, k).segment().options_text())
            .collect();
        assert_eq!(texts.len(), 2, "{texts:?}");
    }

    #[test]
    fn mss_only_layout() {
        let m = Machine {
            layout: OptLayout::MssOnly,
            ..Machine::linux_like(6)
        };
        let probe = TcpView::syn(1, 80, 1, &[]);
        let reply = syn_ack(&m, &probe, 0, 0, 0);
        assert_eq!(reply.segment().options_text(), "MSS");
    }

    #[test]
    fn no_timestamp_behavior() {
        let m = Machine {
            ts: TsBehavior::None,
            ..Machine::linux_like(7)
        };
        assert_eq!(m.tsval(123, 1), None);
        let probe = TcpView::syn(1, 80, 1, &[]);
        let reply = syn_ack(&m, &probe, 0, 0, 0);
        assert_eq!(reply.segment().options_text(), "MSS-SACK-N-WS");
    }
}
