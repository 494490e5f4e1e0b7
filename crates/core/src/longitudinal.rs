//! Longitudinal responsiveness tracking (§6.3, Fig 8).
//!
//! "To analyze address responsiveness over time, we probe an address
//! continuously even if it disappears from our hitlist's daily input
//! sources... As a baseline for each source we take all responsive
//! addresses on the first day."
//!
//! The ledger keys everything by the hitlist's stable [`AddrId`]s:
//! baselines are [`AddrSet`] id runs and each day's survival count is a
//! linear merge-join of the baseline against the day's sorted
//! `(id, protocols)` pass — no per-day hashed membership probing.

use crate::hitlist::Hitlist;
use expanse_addr::codec::{self, CodecError, Decoder, Encoder};
use expanse_addr::{AddrId, AddrSet};
use expanse_model::SourceId;
use expanse_packet::{ProtoSet, Protocol};
use std::io::{Read, Write};

/// Row keys of the Fig 8 matrix: sources, with CT/AXFR split into
/// QUIC and non-QUIC rows (their QUIC response rates flap separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fig8Row {
    /// All-protocol view of one source's baseline.
    Source(SourceId),
    /// QUIC-only view of a source's baseline.
    SourceQuic(SourceId),
}

impl Fig8Row {
    /// Label.
    pub(crate) fn label(self) -> String {
        match self {
            Fig8Row::Source(s) => s.name().to_string(),
            Fig8Row::SourceQuic(s) => format!("{} QUIC", s.name()),
        }
    }

    /// The paper's row set.
    pub fn all() -> Vec<Fig8Row> {
        let mut v = Vec::new();
        for s in SourceId::ALL {
            v.push(Fig8Row::Source(s));
            if matches!(s, SourceId::Ct | SourceId::Axfr) {
                v.push(Fig8Row::SourceQuic(s));
            }
        }
        v
    }

    /// Does a member with these answering protocols count for the row?
    fn counts(self, protos: ProtoSet) -> bool {
        match self {
            Fig8Row::Source(_) => !protos.is_empty(),
            Fig8Row::SourceQuic(_) => protos.contains(Protocol::Udp443),
        }
    }

    /// The source whose baseline this row tracks.
    fn source(self) -> SourceId {
        match self {
            Fig8Row::Source(s) | Fig8Row::SourceQuic(s) => s,
        }
    }
}

/// The responsiveness ledger.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Baseline id set per row, in [`Fig8Row::all`] order, populated on
    /// the first recorded day. An **empty** set means the row has not
    /// established its baseline yet: establishment is per row, on the
    /// first recorded day that row's filtered responders are non-empty.
    /// A single all-rows-at-once establishment day would pin any row
    /// whose protocol happened to be starved that day (QUIC flapped
    /// off, ICMP throttled) to a permanently empty baseline and a NaN
    /// series forever — the Fig 8 analogue of the PR 3 empty-day bug.
    baselines: Vec<(Fig8Row, AddrSet)>,
    /// Per row, in [`Fig8Row::all`] order, per day: surviving fraction of
    /// the baseline (`NaN` before the row's baseline day). Empty until
    /// the first day is recorded or decoded.
    survival: Vec<Vec<f64>>,
    /// First day ever recorded; recording must then stay consecutive.
    first_day: Option<u16>,
    days_recorded: u16,
    /// Days recorded as of the last journal sync point
    /// ([`Ledger::mark_synced`]); the next delta carries the survival
    /// suffix past this count.
    synced_days: u16,
    /// How many rows had established (non-empty) baselines at the last
    /// sync point. Each row's baseline is write-once, but different
    /// rows establish on different days, so a delta carries the block
    /// whenever the count grew inside its window.
    synced_established: u16,
}

impl Ledger {
    /// Create a new instance.
    pub(crate) fn new() -> Self {
        Ledger::default()
    }

    /// Record one day of battery results. `responsive` is the day's
    /// dense pass: `(hitlist id, answering protocols)` sorted ascending
    /// by id (the pipeline resolves the battery's responder run into
    /// hitlist-id space once per day).
    pub(crate) fn record_day(
        &mut self,
        day: u16,
        responsive: &[(AddrId, ProtoSet)],
        hitlist: &Hitlist,
    ) {
        debug_assert!(
            responsive.windows(2).all(|w| w[0].0 < w[1].0),
            "daily pass must be sorted by id"
        );
        // Days must arrive consecutively: survival series are indexed
        // by days-since-first, so a gap or repeat would silently shear
        // every row's series against the calendar.
        match self.first_day {
            None => self.first_day = Some(day),
            Some(first) => assert_eq!(
                day,
                first + self.days_recorded,
                "ledger days must be recorded consecutively (first day {first}, {} recorded)",
                self.days_recorded
            ),
        }
        if self.baselines.is_empty() {
            self.baselines = Fig8Row::all()
                .into_iter()
                .map(|row| (row, AddrSet::new()))
                .collect();
        }
        if !responsive.is_empty() {
            // Per-row baseline establishment: a row whose filtered set
            // is still empty takes today's responders as its baseline —
            // on the first day *that row* has any.
            for (row, baseline) in self.baselines.iter_mut().filter(|(_, set)| set.is_empty()) {
                let ids: Vec<AddrId> = responsive
                    .iter()
                    .filter(|(id, protos)| {
                        hitlist.sources_of_id(*id).contains(row.source()) && row.counts(*protos)
                    })
                    .map(|(id, _)| *id)
                    .collect();
                *baseline = AddrSet::from_sorted(ids);
            }
        }
        // One merge-join per row against the sorted day pass.
        // Unestablished rows stay NaN, keeping every series aligned
        // with days_recorded.
        self.survival.resize(Fig8Row::all().len(), Vec::new());
        for ((row, baseline), series) in self.baselines.iter().zip(&mut self.survival) {
            series.push(if baseline.is_empty() {
                f64::NAN
            } else {
                let mut n = 0usize;
                let base = baseline.as_slice();
                let (mut i, mut j) = (0usize, 0usize);
                while i < base.len() && j < responsive.len() {
                    match base[i].cmp(&responsive[j].0) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            if row.counts(responsive[j].1) {
                                n += 1;
                            }
                            i += 1;
                            j += 1;
                        }
                    }
                }
                n as f64 / baseline.len() as f64
            });
        }
        self.days_recorded += 1;
    }

    /// `Ledger::record_day`: the rows' filters and merge-joins cost
    /// less than starting a worker at any day size the pipeline
    /// reaches. `_threads` is ignored; the signature stays for existing
    /// callers.
    pub fn record_day_threads(
        &mut self,
        day: u16,
        responsive: &[(AddrId, ProtoSet)],
        hitlist: &Hitlist,
        _threads: usize,
    ) {
        self.record_day(day, responsive, hitlist);
    }

    /// The survival series for a row (`NaN` for empty baselines).
    pub fn series(&self, row: Fig8Row) -> &[f64] {
        let at = Fig8Row::all().iter().position(|r| *r == row);
        at.and_then(|i| self.survival.get(i))
            .map_or(&[], Vec::as_slice)
    }

    /// Baseline size for a row.
    pub fn baseline_len(&self, row: Fig8Row) -> usize {
        self.baselines
            .iter()
            .find(|(r, _)| *r == row)
            .map_or(0, |(_, s)| s.len())
    }

    /// Serialize baselines, survival series, and the day counters into
    /// an open snapshot envelope. Rows are written in [`Fig8Row::all`]
    /// order.
    pub fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> Result<(), CodecError> {
        match self.first_day {
            None => enc.put_u8(0)?,
            Some(d) => {
                enc.put_u8(1)?;
                enc.put_u16(d)?;
            }
        }
        enc.put_u16(self.days_recorded)?;
        self.encode_baselines(enc)?;
        for row in Fig8Row::all() {
            let series = self.series(row);
            enc.put_len(series.len())?;
            for &v in series {
                enc.put_f64(v)?;
            }
        }
        Ok(())
    }

    /// Rebuild a ledger from [`Ledger::encode`] output.
    pub(crate) fn decode<R: Read>(dec: &mut Decoder<R>) -> Result<Ledger, CodecError> {
        let first_day = match dec.get_u8()? {
            0 => None,
            1 => Some(dec.get_u16()?),
            _ => return Err(CodecError::Corrupt("ledger first-day tag out of range")),
        };
        let days_recorded = dec.get_u16()?;
        let baselines = Self::decode_baselines(dec)?;
        let mut survival = Vec::new();
        for _ in Fig8Row::all() {
            let len = dec.get_len()?;
            // `record_day` pushes exactly one value per row per day, so
            // every series is exactly `days_recorded` long. A snapshot
            // violating that would make the delta encoder's suffix
            // slicing panic later — reject it here instead (the codec's
            // never-panic contract).
            if len != usize::from(days_recorded) {
                return Err(CodecError::Corrupt(
                    "ledger series length disagrees with day count",
                ));
            }
            let mut series = Vec::with_capacity(Decoder::<R>::reserve_hint(len));
            for _ in 0..len {
                series.push(dec.get_f64()?);
            }
            survival.push(series);
        }
        let synced_established = established(&baselines);
        Ok(Ledger {
            synced_established,
            baselines,
            survival,
            first_day,
            days_recorded,
            // A freshly decoded snapshot is by definition a sync point.
            synced_days: days_recorded,
        })
    }

    /// The write-once baselines block, shared by the full snapshot and
    /// the delta frame that carries their establishment.
    fn encode_baselines<W: Write>(&self, enc: &mut Encoder<W>) -> Result<(), CodecError> {
        enc.put_len(self.baselines.len())?;
        for (row, set) in &self.baselines {
            encode_row(enc, *row)?;
            codec::write_set(enc, set)?;
        }
        Ok(())
    }

    /// Decode a baselines block written by [`Ledger::encode_baselines`];
    /// rows must arrive in [`Fig8Row::all`] order.
    fn decode_baselines<R: Read>(
        dec: &mut Decoder<R>,
    ) -> Result<Vec<(Fig8Row, AddrSet)>, CodecError> {
        let n = dec.get_len()?;
        let rows = Fig8Row::all();
        if n > rows.len() {
            return Err(CodecError::Corrupt("too many ledger baselines"));
        }
        let mut baselines = Vec::with_capacity(n);
        for &expected in rows.iter().take(n) {
            let row = decode_row(dec)?;
            if row != expected {
                return Err(CodecError::Corrupt("ledger baselines out of row order"));
            }
            baselines.push((row, codec::read_set(dec)?));
        }
        Ok(baselines)
    }

    /// Declare the current state a journal sync point: the next
    /// [`Ledger::encode_delta`] is relative to exactly this state.
    pub(crate) fn mark_synced(&mut self) {
        self.synced_days = self.days_recorded;
        self.synced_established = established(&self.baselines);
    }

    /// Serialize everything recorded since the last sync point into an
    /// open delta frame: the day-count pair `(base, new)` for replay
    /// validation, the first-day marker, the baselines iff any row
    /// established its baseline inside the window (each row's baseline
    /// is write-once, but rows establish on different days), and each
    /// row's survival suffix.
    pub(crate) fn encode_delta<W: Write>(&self, enc: &mut Encoder<W>) -> Result<(), CodecError> {
        enc.put_u16(self.synced_days)?;
        enc.put_u16(self.days_recorded)?;
        match self.first_day {
            None => enc.put_u8(0)?,
            Some(d) => {
                enc.put_u8(1)?;
                enc.put_u16(d)?;
            }
        }
        if established(&self.baselines) > self.synced_established {
            enc.put_u8(1)?;
            self.encode_baselines(enc)?;
        } else {
            enc.put_u8(0)?;
        }
        for row in Fig8Row::all() {
            let series = self.series(row);
            for &v in &series[usize::from(self.synced_days)..] {
                enc.put_f64(v)?;
            }
        }
        Ok(())
    }

    /// Apply a delta written by [`Ledger::encode_delta`]. The delta must
    /// follow this exact state (the stored base day count is checked);
    /// afterwards this state *is* the new sync point.
    pub(crate) fn apply_delta<R: Read>(&mut self, dec: &mut Decoder<R>) -> Result<(), CodecError> {
        let base = dec.get_u16()?;
        if base != self.days_recorded {
            return Err(CodecError::Corrupt("ledger delta does not follow its base"));
        }
        let new_days = dec.get_u16()?;
        if new_days < base {
            return Err(CodecError::Corrupt("ledger delta rewinds the day count"));
        }
        let first_day = match dec.get_u8()? {
            0 => None,
            1 => Some(dec.get_u16()?),
            _ => return Err(CodecError::Corrupt("ledger first-day tag out of range")),
        };
        match (self.first_day, first_day) {
            (Some(a), Some(b)) if a == b => {}
            (Some(_), _) => {
                return Err(CodecError::Corrupt("ledger delta changes the first day"));
            }
            (None, d) => self.first_day = d,
        }
        // The ledger sets the first day on its first recorded day and
        // never clears it, so the two must agree after the delta.
        if self.first_day.is_some() != (new_days > 0) {
            return Err(CodecError::Corrupt(
                "ledger first day and day count disagree",
            ));
        }
        match dec.get_u8()? {
            0 => {}
            1 => {
                let carried = Self::decode_baselines(dec)?;
                if self.baselines.is_empty() {
                    self.baselines = carried;
                } else {
                    // Per-row write-once merge: the carried block upserts
                    // rows whose baseline is still empty; established
                    // rows must arrive unchanged.
                    if carried.len() != self.baselines.len() {
                        return Err(CodecError::Corrupt("ledger delta baseline row set changed"));
                    }
                    for ((_, cur), (_, new)) in self.baselines.iter_mut().zip(carried) {
                        if cur.is_empty() {
                            *cur = new;
                        } else if *cur != new {
                            return Err(CodecError::Corrupt(
                                "ledger delta rewrites an established baseline",
                            ));
                        }
                    }
                }
            }
            _ => return Err(CodecError::Corrupt("ledger baseline tag out of range")),
        }
        let delta_days = usize::from(new_days - base);
        self.survival.resize(Fig8Row::all().len(), Vec::new());
        for series in &mut self.survival {
            for _ in 0..delta_days {
                series.push(dec.get_f64()?);
            }
        }
        self.days_recorded = new_days;
        self.mark_synced();
        Ok(())
    }

    /// Render the Fig 8 matrix.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<14} base |", "source"));
        for d in 0..self.days_recorded {
            out.push_str(&format!(" d{d:<4}"));
        }
        out.push('\n');
        for row in Fig8Row::all() {
            let base = self.baseline_len(row);
            if base == 0 {
                continue;
            }
            out.push_str(&format!("{:<14} {:>4} |", row.label(), base));
            for v in self.series(row) {
                if v.is_nan() {
                    out.push_str("    - ");
                } else {
                    out.push_str(&format!(" {v:.2} "));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// How many rows have established (non-empty) baselines.
fn established(baselines: &[(Fig8Row, AddrSet)]) -> u16 {
    baselines.iter().filter(|(_, s)| !s.is_empty()).count() as u16
}

/// Encode a [`Fig8Row`] as `(tag, source)`, sharing the crate's
/// [`SourceId`] wire form ([`crate::hitlist::put_source`]).
fn encode_row<W: Write>(enc: &mut Encoder<W>, row: Fig8Row) -> Result<(), CodecError> {
    let (tag, s) = match row {
        Fig8Row::Source(s) => (0u8, s),
        Fig8Row::SourceQuic(s) => (1u8, s),
    };
    enc.put_u8(tag)?;
    crate::hitlist::put_source(enc, s)
}

/// Decode a [`Fig8Row`] written by [`encode_row`].
fn decode_row<R: Read>(dec: &mut Decoder<R>) -> Result<Fig8Row, CodecError> {
    let tag = dec.get_u8()?;
    let src = crate::hitlist::get_source(dec)?;
    match tag {
        0 => Ok(Fig8Row::Source(src)),
        1 => Ok(Fig8Row::SourceQuic(src)),
        _ => Err(CodecError::Corrupt("ledger row tag out of range")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;

    fn addr(i: u32) -> Ipv6Addr {
        expanse_addr::u128_to_addr((0x2001u128 << 112) | u128::from(i))
    }

    /// The day's sorted id pass for `addrs`, everyone answering ICMP
    /// (plus QUIC when asked).
    fn mk_responsive(h: &Hitlist, addrs: &[Ipv6Addr], quic: bool) -> Vec<(AddrId, ProtoSet)> {
        let mut v: Vec<(AddrId, ProtoSet)> = addrs
            .iter()
            .map(|a| {
                let mut p = ProtoSet::only(Protocol::Icmp);
                if quic {
                    p = p.with(Protocol::Udp443);
                }
                (h.id_of(*a).expect("member"), p)
            })
            .collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }

    #[test]
    fn survival_fractions() {
        let mut h = Hitlist::new();
        let addrs: Vec<Ipv6Addr> = (0..10).map(addr).collect();
        h.add_from(SourceId::DomainLists, &addrs, 0);
        let mut ledger = Ledger::new();

        // Day 0: all 10 respond.
        ledger.record_day(0, &mk_responsive(&h, &addrs, false), &h);
        assert_eq!(
            ledger.baseline_len(Fig8Row::Source(SourceId::DomainLists)),
            10
        );
        // Day 1: 8 respond.
        ledger.record_day(1, &mk_responsive(&h, &addrs[..8], false), &h);
        let series = ledger.series(Fig8Row::Source(SourceId::DomainLists));
        assert_eq!(series.len(), 2);
        assert!((series[0] - 1.0).abs() < 1e-9);
        assert!((series[1] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn quic_rows_track_quic_only() {
        let mut h = Hitlist::new();
        let addrs: Vec<Ipv6Addr> = (0..4).map(addr).collect();
        h.add_from(SourceId::Ct, &addrs, 0);
        let mut ledger = Ledger::new();
        ledger.record_day(0, &mk_responsive(&h, &addrs, true), &h);
        assert_eq!(ledger.baseline_len(Fig8Row::SourceQuic(SourceId::Ct)), 4);
        // Day 1: QUIC flaps off but ICMP persists.
        ledger.record_day(1, &mk_responsive(&h, &addrs, false), &h);
        let q = ledger.series(Fig8Row::SourceQuic(SourceId::Ct));
        assert!((q[1] - 0.0).abs() < 1e-9, "QUIC survival should drop to 0");
        let all = ledger.series(Fig8Row::Source(SourceId::Ct));
        assert!((all[1] - 1.0).abs() < 1e-9, "general survival unaffected");
    }

    /// Regression: an all-quiet first day (tiny/smoke configs) used to
    /// establish empty baselines permanently, pinning every row to a
    /// NaN series even after responders appeared.
    #[test]
    fn baseline_deferred_past_empty_days() {
        let mut h = Hitlist::new();
        let addrs: Vec<Ipv6Addr> = (0..5).map(addr).collect();
        h.add_from(SourceId::DomainLists, &addrs, 0);
        let mut ledger = Ledger::new();

        // Days 3 and 4: nobody answers. No baseline may be pinned.
        ledger.record_day(3, &[], &h);
        ledger.record_day(4, &[], &h);
        assert_eq!(
            ledger.baseline_len(Fig8Row::Source(SourceId::DomainLists)),
            0
        );
        assert_eq!(ledger.days_recorded, 2);
        assert_eq!(ledger.first_day, Some(3));
        // Pre-baseline days are recorded as NaN, keeping series aligned.
        let row = Fig8Row::Source(SourceId::DomainLists);
        assert_eq!(ledger.series(row).len(), 2);
        assert!(ledger.series(row).iter().all(|v| v.is_nan()));

        // Day 5: responders appear — the baseline is established now.
        ledger.record_day(5, &mk_responsive(&h, &addrs, false), &h);
        assert_eq!(ledger.baseline_len(row), 5);
        let series = ledger.series(row);
        assert_eq!(series.len(), 3);
        assert!((series[2] - 1.0).abs() < 1e-9, "day 5 survival must be 1");

        // Day 6: 3 of 5 respond — a real fraction, not NaN.
        ledger.record_day(6, &mk_responsive(&h, &addrs[..3], false), &h);
        assert!((ledger.series(row)[3] - 0.6).abs() < 1e-9);
    }

    /// Regression: baselines used to be established for *all* rows at
    /// once on the first non-empty day, so a row whose protocol was
    /// starved that day (QUIC flapped off, last-hop ICMP throttled away)
    /// was pinned to an empty baseline and a NaN series forever — even
    /// after the protocol recovered. Establishment is now per row.
    #[test]
    fn starved_row_establishes_when_its_protocol_recovers() {
        let mut h = Hitlist::new();
        let addrs: Vec<Ipv6Addr> = (0..6).map(addr).collect();
        h.add_from(SourceId::Ct, &addrs, 0);
        let mut ledger = Ledger::new();
        let all_row = Fig8Row::Source(SourceId::Ct);
        let quic_row = Fig8Row::SourceQuic(SourceId::Ct);

        // Day 0: everyone answers ICMP but QUIC is flapped off — only
        // the all-protocol row may establish.
        ledger.record_day(0, &mk_responsive(&h, &addrs, false), &h);
        assert_eq!(ledger.baseline_len(all_row), 6);
        assert_eq!(ledger.baseline_len(quic_row), 0);
        assert!(ledger.series(quic_row)[0].is_nan());

        // Day 1: QUIC recovers on 4 addresses — the QUIC row gets its
        // baseline now instead of staying NaN forever.
        ledger.record_day(1, &mk_responsive(&h, &addrs[..4], true), &h);
        assert_eq!(ledger.baseline_len(quic_row), 4);
        let q = ledger.series(quic_row);
        assert!(q[0].is_nan());
        assert!((q[1] - 1.0).abs() < 1e-9, "establishment-day survival");

        // Day 2: QUIC flaps off again — a real 0.0, not NaN.
        ledger.record_day(2, &mk_responsive(&h, &addrs, false), &h);
        assert!((ledger.series(quic_row)[2] - 0.0).abs() < 1e-9);
        // The all-protocol row's baseline never moved.
        assert_eq!(ledger.baseline_len(all_row), 6);
        assert!((ledger.series(all_row)[2] - 1.0).abs() < 1e-9);
    }

    /// A delta window in which a late row established its baseline must
    /// carry the (upserted) block to replicas whose copy predates it.
    #[test]
    fn delta_carries_late_established_rows() {
        use expanse_addr::codec::{Decoder, Encoder};
        let mut h = Hitlist::new();
        let addrs: Vec<Ipv6Addr> = (0..5).map(addr).collect();
        h.add_from(SourceId::Axfr, &addrs, 0);
        let mut ledger = Ledger::new();
        // Day 0 establishes the all-protocol row only; sync there.
        ledger.record_day(0, &mk_responsive(&h, &addrs, false), &h);
        ledger.mark_synced();
        let mut replica = ledger.clone();

        // Day 1: the QUIC row establishes inside the delta window.
        ledger.record_day(1, &mk_responsive(&h, &addrs, true), &h);
        let mut delta = Vec::new();
        let mut enc = Encoder::new(&mut delta, b"LEDDTEST", 1).unwrap();
        ledger.encode_delta(&mut enc).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(delta.as_slice(), b"LEDDTEST", 1).unwrap();
        replica.apply_delta(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(full_bytes(&replica), full_bytes(&ledger));
        assert_eq!(replica.baseline_len(Fig8Row::SourceQuic(SourceId::Axfr)), 5);
    }

    #[test]
    #[should_panic(expected = "recorded consecutively")]
    fn non_consecutive_days_rejected() {
        let mut h = Hitlist::new();
        let addrs: Vec<Ipv6Addr> = (0..2).map(addr).collect();
        h.add_from(SourceId::Ct, &addrs, 0);
        let mut ledger = Ledger::new();
        ledger.record_day(0, &mk_responsive(&h, &addrs, false), &h);
        ledger.record_day(2, &mk_responsive(&h, &addrs, false), &h);
    }

    #[test]
    fn codec_roundtrip() {
        use expanse_addr::codec::{Decoder, Encoder};
        let mut h = Hitlist::new();
        let addrs: Vec<Ipv6Addr> = (0..6).map(addr).collect();
        h.add_from(SourceId::Ct, &addrs, 0);
        let mut ledger = Ledger::new();
        ledger.record_day(4, &[], &h); // one pre-baseline NaN day
        ledger.record_day(5, &mk_responsive(&h, &addrs, true), &h);
        ledger.record_day(6, &mk_responsive(&h, &addrs[..4], false), &h);

        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, b"LEDGTEST", 1).unwrap();
        ledger.encode(&mut enc).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(buf.as_slice(), b"LEDGTEST", 1).unwrap();
        let back = Ledger::decode(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(back.days_recorded, ledger.days_recorded);
        assert_eq!(back.first_day, ledger.first_day);
        for row in Fig8Row::all() {
            assert_eq!(back.baseline_len(row), ledger.baseline_len(row));
            let (a, b) = (back.series(row), ledger.series(row));
            assert_eq!(a.len(), b.len(), "{row:?}");
            for (x, y) in a.iter().zip(b) {
                assert!((x.is_nan() && y.is_nan()) || x == y, "{row:?}: {x} vs {y}");
            }
        }
        // The restored ledger keeps recording where it left off.
        let mut back = back;
        back.record_day(7, &mk_responsive(&h, &addrs[..2], false), &h);
        let row = Fig8Row::Source(SourceId::Ct);
        let s = back.series(row);
        assert!((s[s.len() - 1] - 2.0 / 6.0).abs() < 1e-9);
    }

    /// Full state as one envelope, for byte-level equality checks.
    fn full_bytes(l: &Ledger) -> Vec<u8> {
        use expanse_addr::codec::Encoder;
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, b"LEDGTEST", 1).unwrap();
        l.encode(&mut enc).unwrap();
        enc.finish().unwrap();
        buf
    }

    /// A delta spanning the baseline establishment: the replica synced
    /// on a pre-baseline NaN day must catch up to the exact state —
    /// baselines, survival suffixes, day counters — byte for byte.
    #[test]
    fn delta_roundtrip_catches_up_days_and_baselines() {
        use expanse_addr::codec::{Decoder, Encoder};
        let mut h = Hitlist::new();
        let addrs: Vec<Ipv6Addr> = (0..6).map(addr).collect();
        h.add_from(SourceId::Ct, &addrs, 0);
        let mut ledger = Ledger::new();
        ledger.record_day(3, &[], &h); // pre-baseline NaN day
        ledger.mark_synced();
        let mut replica = ledger.clone();

        ledger.record_day(4, &mk_responsive(&h, &addrs, true), &h); // baselines land
        ledger.record_day(5, &mk_responsive(&h, &addrs[..3], false), &h);
        assert_eq!(ledger.days_recorded - ledger.synced_days, 2);

        let mut delta = Vec::new();
        let mut enc = Encoder::new(&mut delta, b"LEDDTEST", 1).unwrap();
        ledger.encode_delta(&mut enc).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(delta.as_slice(), b"LEDDTEST", 1).unwrap();
        replica.apply_delta(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(full_bytes(&replica), full_bytes(&ledger));
        // The caught-up replica keeps recording where the writer is.
        replica.record_day(6, &mk_responsive(&h, &addrs[..2], false), &h);

        // Applying the delta again cannot follow the new state.
        let mut dec = Decoder::new(delta.as_slice(), b"LEDDTEST", 1).unwrap();
        assert!(matches!(
            replica.apply_delta(&mut dec),
            Err(CodecError::Corrupt("ledger delta does not follow its base"))
        ));
    }

    /// A checksummed-but-inconsistent snapshot (day count disagreeing
    /// with the series lengths) must be rejected at decode — otherwise
    /// the delta encoder's suffix slicing would panic later, violating
    /// the codec's never-panic contract.
    #[test]
    fn decode_rejects_series_shorter_than_day_count() {
        use expanse_addr::codec::{Decoder, Encoder};
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, b"LEDGTEST", 1).unwrap();
        enc.put_u8(1).unwrap();
        enc.put_u16(0).unwrap(); // first day 0
        enc.put_u16(5).unwrap(); // claims 5 recorded days
        enc.put_len(0).unwrap(); // no baselines
        for _ in Fig8Row::all() {
            enc.put_len(2).unwrap(); // but only 2 survival values per row
            enc.put_f64(1.0).unwrap();
            enc.put_f64(0.5).unwrap();
        }
        enc.finish().unwrap();
        let mut dec = Decoder::new(buf.as_slice(), b"LEDGTEST", 1).unwrap();
        assert!(matches!(
            Ledger::decode(&mut dec),
            Err(CodecError::Corrupt(
                "ledger series length disagrees with day count"
            ))
        ));
    }

    #[test]
    fn render_has_rows() {
        let mut h = Hitlist::new();
        let addrs: Vec<Ipv6Addr> = (0..3).map(addr).collect();
        h.add_from(SourceId::RipeAtlas, &addrs, 0);
        let mut ledger = Ledger::new();
        ledger.record_day(0, &mk_responsive(&h, &addrs, false), &h);
        let s = ledger.render();
        assert!(s.contains("RA"), "{s}");
        assert!(s.contains("1.00"), "{s}");
    }
}
