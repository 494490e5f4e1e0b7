//! Fingerprint consistency tests over APD results (§5.4, Tables 5–6).
//!
//! The premise: if every address of a prefix terminates at one machine,
//! replies must agree on initial TTL, option layout, option values, and
//! — the high-confidence test — expose one global TCP timestamp counter
//! (same value, strictly monotonic across probes, or linear against
//! receive time with R² > 0.8).
//!
//! The evidence is read off the detector's day reports: a prefix's
//! branch targets are recomputed from the fan-out salt and looked up in
//! each day's ICMPv6 and TCP scan results, counting a reply by the same
//! rule that set the branch's bit.

use crate::detector::{counts, DayReport};
use expanse_addr::{fanout16_iter, Prefix};
use expanse_stats::regress::{non_decreasing, ols};
use expanse_zmap6::{ProbeReply, ReplyKind};

/// Round an observed hop limit up to the initial TTL the stack chose
/// (32, 64, 128, or 255 — §5.4's iTTL).
pub fn ittl(observed: u8) -> u8 {
    match observed {
        0..=32 => 32,
        33..=64 => 64,
        65..=128 => 128,
        _ => 255,
    }
}

/// Evidence collected for one fan-out branch across one or more days.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BranchEvidence {
    /// Observed initial TTLs (rounded, per probe).
    pub ittl: Vec<u8>,
    /// Observed optionstext strings.
    pub opts: Vec<String>,
    /// Observed window-scale options.
    pub wscale: Vec<Option<u8>>,
    /// Observed MSS options.
    pub mss: Vec<Option<u16>>,
    /// Observed TCP window sizes.
    pub wsize: Vec<u16>,
    /// (receive time in seconds, peer tsval).
    pub ts: Vec<(f64, u32)>,
}

/// The evidence of `prefix`'s 16 branches over `days` (one or more
/// day reports that probed it, in order), fanned out under `salt` (the
/// detector's [`crate::ApdConfig::salt`]). Per day and branch: the
/// counted ICMPv6 reply's iTTL, then the counted SYN-ACK
/// ([`BranchEvidence::push_syn_ack`]). A branch no reply counted for
/// adds nothing.
pub fn collect_evidence(prefix: Prefix, salt: u64, days: &[&DayReport]) -> Vec<BranchEvidence> {
    let mut out = vec![BranchEvidence::default(); 16];
    for day in days {
        for (t, ev) in fanout16_iter(prefix, salt).zip(&mut out) {
            if let Some(r) = day.icmp.get(t.addr).filter(|r| counts(r)) {
                ev.ittl.push(ittl(r.ttl));
            }
            if let Some(r) = day.tcp.get(t.addr).filter(|r| counts(r)) {
                ev.push_syn_ack(r);
            }
        }
    }
    out
}

impl BranchEvidence {
    /// Record a SYN-ACK: its iTTL, option values and timestamp. Any
    /// other reply adds nothing.
    pub fn push_syn_ack(&mut self, r: &ProbeReply) {
        let ReplyKind::SynAck(info) = &r.kind else {
            return;
        };
        self.ittl.push(ittl(r.ttl));
        self.opts.push(info.options_text.clone());
        self.wscale.push(info.wscale);
        self.mss.push(info.mss);
        self.wsize.push(info.window);
        if let Some((tsval, _)) = info.timestamps {
            self.ts.push((r.at.as_secs_f64(), tsval));
        }
    }
}

/// Timestamp test verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsVerdict {
    /// All timestamps equal (or all absent on every responding branch).
    SameOrMissing,
    /// Non-decreasing across the whole prefix in receive order.
    Monotonic,
    /// Linear against receive time with R² > 0.8.
    Regression,
    /// None of the tests concluded — says nothing about aliasing.
    Indecisive,
}

impl TsVerdict {
    /// Does the verdict indicate one shared counter?
    pub fn is_consistent(self) -> bool {
        !matches!(self, TsVerdict::Indecisive)
    }
}

/// Full consistency report for one prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Observed initial TTLs (rounded, per probe).
    pub ittl: bool,
    /// Observed optionstext strings.
    pub opts: bool,
    /// Observed window-scale options.
    pub wscale: bool,
    /// Observed MSS options.
    pub mss: bool,
    /// Observed TCP window sizes.
    pub wsize: bool,
    /// (receive time, tsval) samples for the counter tests.
    pub ts: TsVerdict,
    /// Branches contributing TCP evidence.
    pub tcp_branches: usize,
}

/// Overall classification (Table 6 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// At least one value test failed.
    Inconsistent,
    /// Value tests pass and the timestamp test concludes.
    Consistent,
    /// Value tests pass, timestamps indecisive.
    Indecisive,
}

fn all_equal<T: PartialEq>(it: impl IntoIterator<Item = T>) -> bool {
    let mut iter = it.into_iter();
    match iter.next() {
        None => true,
        Some(first) => iter.all(|x| x == first),
    }
}

/// Run the §5.4 test battery over branch evidence.
pub fn analyze(evidence: &[BranchEvidence]) -> ConsistencyReport {
    let ittl_all: Vec<u8> = evidence
        .iter()
        .flat_map(|e| e.ittl.iter().copied())
        .collect();
    let opts_all: Vec<&String> = evidence.iter().flat_map(|e| e.opts.iter()).collect();
    let wscale_all: Vec<Option<u8>> = evidence
        .iter()
        .flat_map(|e| e.wscale.iter().copied())
        .collect();
    let mss_all: Vec<Option<u16>> = evidence
        .iter()
        .flat_map(|e| e.mss.iter().copied())
        .collect();
    let wsize_all: Vec<u16> = evidence
        .iter()
        .flat_map(|e| e.wsize.iter().copied())
        .collect();
    let mut ts_all: Vec<(f64, u32)> = evidence.iter().flat_map(|e| e.ts.iter().copied()).collect();
    ts_all.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite recv times"));

    let ts = if ts_all.is_empty() {
        // All responding branches lack timestamps: "same (or missing)".
        if opts_all.is_empty() {
            TsVerdict::Indecisive
        } else {
            TsVerdict::SameOrMissing
        }
    } else if ts_all.len() >= 2 && all_equal(ts_all.iter().map(|t| t.1)) {
        TsVerdict::SameOrMissing
    } else if ts_all.len() >= 3 {
        let vals: Vec<u32> = ts_all.iter().map(|t| t.1).collect();
        if non_decreasing(&vals) {
            TsVerdict::Monotonic
        } else {
            let pts: Vec<(f64, f64)> = ts_all.iter().map(|(t, v)| (*t, f64::from(*v))).collect();
            match ols(&pts) {
                Some(fit) if fit.r2 > 0.8 => TsVerdict::Regression,
                _ => TsVerdict::Indecisive,
            }
        }
    } else {
        TsVerdict::Indecisive
    };

    ConsistencyReport {
        ittl: all_equal(ittl_all),
        opts: all_equal(opts_all),
        wscale: all_equal(wscale_all),
        mss: all_equal(mss_all),
        wsize: all_equal(wsize_all),
        ts,
        tcp_branches: evidence.iter().filter(|e| !e.opts.is_empty()).count(),
    }
}

impl ConsistencyReport {
    /// Names of failed value tests.
    pub fn failed_tests(&self) -> Vec<&'static str> {
        let mut v = Vec::new();
        if !self.ittl {
            v.push("iTTL");
        }
        if !self.opts {
            v.push("Optionstext");
        }
        if !self.wscale {
            v.push("WScale");
        }
        if !self.mss {
            v.push("MSS");
        }
        if !self.wsize {
            v.push("WSize");
        }
        v
    }

    /// Table 6 classification.
    pub fn class(&self) -> Class {
        if !self.failed_tests().is_empty() {
            Class::Inconsistent
        } else if self.ts.is_consistent() {
            Class::Consistent
        } else {
            Class::Indecisive
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: Vec<(f64, u32)>) -> BranchEvidence {
        BranchEvidence {
            ittl: vec![64],
            opts: vec!["MSS-SACK-TS-N-WS".to_string()],
            wscale: vec![Some(7)],
            mss: vec![Some(1440)],
            wsize: vec![65535],
            ts,
        }
    }

    #[test]
    fn ittl_rounding() {
        assert_eq!(ittl(30), 32);
        assert_eq!(ittl(32), 32);
        assert_eq!(ittl(33), 64);
        assert_eq!(ittl(57), 64);
        assert_eq!(ittl(120), 128);
        assert_eq!(ittl(129), 255);
        assert_eq!(ittl(250), 255);
    }

    #[test]
    fn consistent_machine_with_monotonic_counter() {
        let evidence: Vec<BranchEvidence> = (0..16)
            .map(|b| ev(vec![(b as f64, 1000 + b * 10)]))
            .collect();
        let r = analyze(&evidence);
        assert!(r.ittl && r.opts && r.wscale && r.mss && r.wsize);
        assert_eq!(r.ts, TsVerdict::Monotonic);
        assert_eq!(r.class(), Class::Consistent);
        assert_eq!(r.tcp_branches, 16);
    }

    #[test]
    fn same_timestamp_everywhere() {
        let evidence: Vec<BranchEvidence> = (0..16).map(|b| ev(vec![(b as f64, 777)])).collect();
        let r = analyze(&evidence);
        assert_eq!(r.ts, TsVerdict::SameOrMissing);
        assert_eq!(r.class(), Class::Consistent);
    }

    #[test]
    fn linear_counter_with_noise_passes_regression() {
        // tsval = 100 t + small deviation, out-of-order enough to break
        // strict monotonicity at equal times.
        let evidence: Vec<BranchEvidence> = (0..16)
            .map(|b| {
                let t = b as f64;
                let v = (100.0 * t) as u32 + if b % 2 == 0 { 3 } else { 0 };
                ev(vec![(t, v), (t + 0.001, v.saturating_sub(2))])
            })
            .collect();
        let r = analyze(&evidence);
        assert!(
            matches!(r.ts, TsVerdict::Regression | TsVerdict::Monotonic),
            "{:?}",
            r.ts
        );
        assert_eq!(r.class(), Class::Consistent);
    }

    #[test]
    fn random_timestamps_indecisive() {
        let vals = [9u32, 4_000_000_000, 17, 2_000_000_000, 5, 3_000_000_000];
        let evidence: Vec<BranchEvidence> = vals
            .iter()
            .enumerate()
            .map(|(i, v)| ev(vec![(i as f64, *v)]))
            .collect();
        let r = analyze(&evidence);
        assert_eq!(r.ts, TsVerdict::Indecisive);
        assert_eq!(r.class(), Class::Indecisive);
    }

    #[test]
    fn differing_mss_is_inconsistent() {
        let mut evidence: Vec<BranchEvidence> =
            (0..16).map(|b| ev(vec![(b as f64, 1000 + b)])).collect();
        evidence[3].mss = vec![Some(1400)];
        let r = analyze(&evidence);
        assert!(!r.mss);
        assert_eq!(r.failed_tests(), vec!["MSS"]);
        assert_eq!(r.class(), Class::Inconsistent);
    }

    #[test]
    fn differing_ittl_detected() {
        let mut evidence: Vec<BranchEvidence> =
            (0..16).map(|b| ev(vec![(b as f64, 1000 + b)])).collect();
        evidence[0].ittl = vec![64, 255]; // the paper's 22-host case
        let r = analyze(&evidence);
        assert!(!r.ittl);
        assert_eq!(r.class(), Class::Inconsistent);
    }

    #[test]
    fn missing_timestamps_with_tcp_is_same_or_missing() {
        let evidence: Vec<BranchEvidence> = (0..16)
            .map(|_| BranchEvidence {
                ittl: vec![64],
                opts: vec!["MSS-SACK-N-WS".to_string()],
                wscale: vec![Some(7)],
                mss: vec![Some(1440)],
                wsize: vec![65535],
                ts: vec![],
            })
            .collect();
        let r = analyze(&evidence);
        assert_eq!(r.ts, TsVerdict::SameOrMissing);
        assert_eq!(r.class(), Class::Consistent);
    }

    #[test]
    fn no_evidence_is_indecisive() {
        let r = analyze(&vec![BranchEvidence::default(); 16]);
        assert_eq!(r.ts, TsVerdict::Indecisive);
        assert_eq!(r.class(), Class::Indecisive);
        assert_eq!(r.tcp_branches, 0);
    }
}
