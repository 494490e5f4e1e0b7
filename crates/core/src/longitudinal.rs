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

/// The responsiveness ledger: one entry per [`Fig8Row::all`] row, in
/// that order, from construction on, each with the row's baseline and
/// survival series.
#[derive(Debug, Clone)]
pub struct Ledger {
    rows: Vec<Track>,
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

/// One Fig 8 row of the ledger: its baseline and its survival series.
#[derive(Debug, Clone)]
struct Track {
    row: Fig8Row,
    /// An **empty** set means the row has not established its baseline
    /// yet: establishment is per row, on the first recorded day that
    /// row's filtered responders are non-empty. A single all-rows-at-once
    /// establishment day would pin any row whose protocol happened to be
    /// starved that day (QUIC flapped off, ICMP throttled) to a
    /// permanently empty baseline and a NaN series forever.
    baseline: AddrSet,
    /// Per day: surviving fraction of the baseline (`NaN` before the
    /// row's baseline day), one value per recorded day.
    survival: Vec<f64>,
}

impl Ledger {
    /// Create a new instance.
    pub(crate) fn new() -> Self {
        let rows = Fig8Row::all()
            .into_iter()
            .map(|row| Track {
                row,
                baseline: AddrSet::new(),
                survival: Vec::new(),
            })
            .collect();
        Ledger {
            rows,
            first_day: None,
            days_recorded: 0,
            synced_days: 0,
            synced_established: 0,
        }
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
        for t in &mut self.rows {
            let row = t.row;
            // Per-row baseline establishment: a row whose filtered set
            // is still empty takes today's responders as its baseline —
            // on the first day *that row* has any.
            if t.baseline.is_empty() {
                let ids: Vec<AddrId> = responsive
                    .iter()
                    .filter(|(id, protos)| {
                        hitlist.sources_of_id(*id).contains(row.source()) && row.counts(*protos)
                    })
                    .map(|(id, _)| *id)
                    .collect();
                t.baseline = AddrSet::from_sorted(ids);
            }
            // One merge-join against the sorted day pass; an
            // unestablished row records NaN.
            t.survival.push(if t.baseline.is_empty() {
                f64::NAN
            } else {
                let mut n = 0usize;
                let base = t.baseline.as_slice();
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
                n as f64 / base.len() as f64
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

    /// The ledger's entry for a row, if the row is one of
    /// [`Fig8Row::all`].
    fn track(&self, row: Fig8Row) -> Option<&Track> {
        self.rows.iter().find(|t| t.row == row)
    }

    /// The survival series for a row (`NaN` for empty baselines).
    pub fn series(&self, row: Fig8Row) -> &[f64] {
        self.track(row).map_or(&[], |t| &t.survival)
    }

    /// Baseline size for a row.
    pub fn baseline_len(&self, row: Fig8Row) -> usize {
        self.track(row).map_or(0, |t| t.baseline.len())
    }

    /// Would the next recorded day be `day`? A ledger with no recorded
    /// day takes any day next, since APD warm-up days advance the
    /// pipeline's day without recording one.
    pub(crate) fn records_next(&self, day: u16) -> bool {
        self.first_day
            .is_none_or(|first| first.checked_add(self.days_recorded) == Some(day))
    }

    /// How many rows have established (non-empty) baselines.
    fn established(&self) -> u16 {
        self.rows.iter().filter(|t| !t.baseline.is_empty()).count() as u16
    }

    /// Serialize baselines, survival series, and the day counters into
    /// an open snapshot envelope. Rows are written in [`Fig8Row::all`]
    /// order.
    pub fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> Result<(), CodecError> {
        put_first_day(enc, self.first_day)?;
        enc.put_u16(self.days_recorded)?;
        self.encode_baselines(enc)?;
        for t in &self.rows {
            enc.put_len(t.survival.len())?;
            for &v in &t.survival {
                enc.put_f64(v)?;
            }
        }
        Ok(())
    }

    /// Rebuild a ledger from [`Ledger::encode`] output.
    pub(crate) fn decode<R: Read>(dec: &mut Decoder<R>) -> Result<Ledger, CodecError> {
        let mut ledger = Ledger::new();
        ledger.first_day = get_first_day(dec)?;
        ledger.days_recorded = dec.get_u16()?;
        ledger.fill_baselines(dec)?;
        for t in &mut ledger.rows {
            let len = dec.get_len()?;
            // `record_day` pushes exactly one value per row per day, so
            // every series is exactly `days_recorded` long. A snapshot
            // violating that would make the delta encoder's suffix
            // slicing panic later — reject it here instead (the codec's
            // never-panic contract).
            if len != usize::from(ledger.days_recorded) {
                return Err(CodecError::Corrupt(
                    "ledger series length disagrees with day count",
                ));
            }
            t.survival.reserve(Decoder::<R>::reserve_hint(len));
            for _ in 0..len {
                t.survival.push(dec.get_f64()?);
            }
        }
        ledger.check_days()?;
        // A freshly decoded snapshot is by definition a sync point.
        ledger.mark_synced();
        Ok(ledger)
    }

    /// The write-once baselines block, shared by the full snapshot and
    /// the delta frame that carries their establishment: every row once
    /// the first day is known (a day is recorded), none before.
    fn encode_baselines<W: Write>(&self, enc: &mut Encoder<W>) -> Result<(), CodecError> {
        let b = self.first_day.map_or(0, |_| self.rows.len());
        enc.put_len(b)?;
        for t in self.rows.iter().take(b) {
            encode_row(enc, t.row)?;
            codec::write_set(enc, &t.baseline)?;
        }
        Ok(())
    }

    /// Read a baselines block written by [`Ledger::encode_baselines`]
    /// into the rows. The block lists the first `b` rows in
    /// [`Fig8Row::all`] order, and each row after them has no baseline.
    /// A row whose baseline is still empty takes the carried one; an
    /// established row must arrive unchanged.
    fn fill_baselines<R: Read>(&mut self, dec: &mut Decoder<R>) -> Result<(), CodecError> {
        let b = dec.get_len()?;
        if b > self.rows.len() {
            return Err(CodecError::Corrupt("too many ledger baselines"));
        }
        for (i, t) in self.rows.iter_mut().enumerate() {
            let carried = if i < b {
                if decode_row(dec)? != t.row {
                    return Err(CodecError::Corrupt("ledger baselines out of row order"));
                }
                codec::read_set(dec)?
            } else {
                AddrSet::new()
            };
            if t.baseline.is_empty() {
                t.baseline = carried;
            } else if t.baseline != carried {
                return Err(CodecError::Corrupt(
                    "ledger delta rewrites an established baseline",
                ));
            }
        }
        Ok(())
    }

    /// The day rules both readers enforce, as the recorder keeps them:
    /// the first day is known exactly when a day is recorded, and no row
    /// has a baseline before then.
    fn check_days(&self) -> Result<(), CodecError> {
        if self.first_day.is_some() != (self.days_recorded > 0) {
            Err(CodecError::Corrupt(
                "ledger first day and day count disagree",
            ))
        } else if self.days_recorded == 0 && self.established() > 0 {
            Err(CodecError::Corrupt(
                "ledger baseline precedes the first day",
            ))
        } else {
            Ok(())
        }
    }

    /// Declare the current state a journal sync point: the next
    /// [`Ledger::encode_delta`] is relative to exactly this state.
    pub(crate) fn mark_synced(&mut self) {
        self.synced_days = self.days_recorded;
        self.synced_established = self.established();
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
        put_first_day(enc, self.first_day)?;
        if self.established() > self.synced_established {
            enc.put_u8(1)?;
            self.encode_baselines(enc)?;
        } else {
            enc.put_u8(0)?;
        }
        for t in &self.rows {
            for &v in &t.survival[usize::from(self.synced_days)..] {
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
        match (self.first_day, get_first_day(dec)?) {
            (Some(a), Some(b)) if a == b => {}
            (Some(_), _) => {
                return Err(CodecError::Corrupt("ledger delta changes the first day"));
            }
            (None, d) => self.first_day = d,
        }
        self.days_recorded = new_days;
        match dec.get_u8()? {
            0 => {}
            1 => self.fill_baselines(dec)?,
            _ => return Err(CodecError::Corrupt("ledger baseline tag out of range")),
        }
        self.check_days()?;
        for t in &mut self.rows {
            for _ in base..new_days {
                t.survival.push(dec.get_f64()?);
            }
        }
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
        for t in self.rows.iter().filter(|t| !t.baseline.is_empty()) {
            out.push_str(&format!("{:<14} {:>4} |", t.row.label(), t.baseline.len()));
            for v in &t.survival {
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

/// Write the first-day marker: tag 0, or tag 1 and the day.
fn put_first_day<W: Write>(enc: &mut Encoder<W>, first_day: Option<u16>) -> Result<(), CodecError> {
    match first_day {
        None => enc.put_u8(0),
        Some(d) => {
            enc.put_u8(1)?;
            enc.put_u16(d)
        }
    }
}

/// Read a first-day marker written by [`put_first_day`].
fn get_first_day<R: Read>(dec: &mut Decoder<R>) -> Result<Option<u16>, CodecError> {
    match dec.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(dec.get_u16()?)),
        _ => Err(CodecError::Corrupt("ledger first-day tag out of range")),
    }
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
    use proptest::prelude::*;
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

    /// One journal record of everything since the last sync point.
    fn delta_bytes(l: &Ledger) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, b"LEDDTEST", 1).unwrap();
        l.encode_delta(&mut enc).unwrap();
        enc.finish().unwrap();
        buf
    }

    fn apply(l: &mut Ledger, delta: &[u8]) -> Result<(), CodecError> {
        let mut dec = Decoder::new(delta, b"LEDDTEST", 1)?;
        l.apply_delta(&mut dec)?;
        dec.finish().map(drop)
    }

    fn decode_bytes(bytes: &[u8]) -> Result<Ledger, CodecError> {
        let mut dec = Decoder::new(bytes, b"LEDGTEST", 1)?;
        let l = Ledger::decode(&mut dec)?;
        dec.finish()?;
        Ok(l)
    }

    /// A hand-built full ledger: the first-day marker, the day count, a
    /// block over the first `block.len()` rows, and one series per row.
    fn base_bytes(
        first_day: Option<u16>,
        days: u16,
        block: &[AddrSet],
        series: &[Vec<f64>],
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, b"LEDGTEST", 1).unwrap();
        put_first_day(&mut enc, first_day).unwrap();
        enc.put_u16(days).unwrap();
        enc.put_len(block.len()).unwrap();
        for (row, set) in Fig8Row::all().into_iter().zip(block) {
            encode_row(&mut enc, row).unwrap();
            codec::write_set(&mut enc, set).unwrap();
        }
        for s in series {
            enc.put_len(s.len()).unwrap();
            for &v in s {
                enc.put_f64(v).unwrap();
            }
        }
        enc.finish().unwrap();
        buf
    }

    /// A replica synced before a first day on which nobody answered
    /// must come out of that day's record in the live ledger's state:
    /// the live ledger writes every row's (empty) baseline from then on,
    /// and so must the replica.
    #[test]
    fn replica_matches_live_after_a_responder_free_first_day() {
        let mut h = Hitlist::new();
        h.add_from(SourceId::Ct, &[addr(1)], 0);
        let mut live = Ledger::new();
        let mut replica = decode_bytes(&full_bytes(&live)).unwrap();
        live.record_day(0, &[], &h);
        apply(&mut replica, &delta_bytes(&live)).unwrap();
        live.mark_synced();
        assert_eq!(full_bytes(&replica), full_bytes(&live));
    }

    /// A block over the first rows only leaves the later rows without a
    /// baseline; the decoded ledger then records and journals every row.
    #[test]
    fn prefix_block_records_and_journals_two_days() {
        let mut h = Hitlist::new();
        let addrs: Vec<Ipv6Addr> = (0..4).map(addr).collect();
        h.add_from(SourceId::Ct, &addrs, 0);
        let block: Vec<AddrSet> = (0..3u8)
            .map(|i| AddrSet::from_sorted(vec![AddrId::from_index(usize::from(i))]))
            .collect();
        let series = vec![vec![1.0]; Fig8Row::all().len()];
        let bytes = base_bytes(Some(5), 1, &block, &series);
        let mut live = decode_bytes(&bytes).unwrap();
        let mut replica = decode_bytes(&bytes).unwrap();
        for day in [6, 7] {
            live.record_day(day, &mk_responsive(&h, &addrs, true), &h);
            apply(&mut replica, &delta_bytes(&live)).unwrap();
            live.mark_synced();
        }
        assert_eq!(full_bytes(&replica), full_bytes(&live));
        for row in Fig8Row::all() {
            assert_eq!(live.series(row).len(), 3, "{row:?}");
        }
        assert_eq!(live.baseline_len(Fig8Row::SourceQuic(SourceId::Ct)), 4);
    }

    /// The first day is known exactly when a day is recorded, and no
    /// baseline precedes it: a base breaking either rule is refused
    /// instead of panicking in the next `record_day`.
    #[test]
    fn decode_refuses_a_first_day_that_disagrees_with_the_day_count() {
        let rows = Fig8Row::all().len();
        for (first_day, days, block) in [
            (None, 2, vec![]),
            (Some(5), 0, vec![]),
            (
                None,
                0,
                vec![AddrSet::from_sorted(vec![AddrId::from_index(0)])],
            ),
        ] {
            let series = vec![vec![0.5; usize::from(days)]; rows];
            let err = decode_bytes(&base_bytes(first_day, days, &block, &series));
            assert!(
                matches!(
                    err,
                    Err(CodecError::Corrupt(
                        "ledger first day and day count disagree"
                            | "ledger baseline precedes the first day"
                    ))
                ),
                "{first_day:?}, {days} days: {err:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every hand-built base either fails to decode or decodes to a
        /// ledger that records two more days and journals each one; a
        /// replica decoded from the same bytes applies those records and
        /// ends in the same state, and so does a ledger resumed from the
        /// decoded ledger's own full bytes.
        #[test]
        fn decoded_bases_record_and_journal_like_the_live_ledger(
            tag in 0u8..2,
            first in 0u16..1000,
            days in 0u16..=8,
            block in collection::vec(collection::vec(0usize..16, 0..4), 0..=9),
            lens in collection::vec(0usize..=8, 9),
            aligned in any::<bool>(),
            values in collection::vec(0u8..4, 72),
            passes in collection::vec(collection::vec((0u8..3, any::<bool>()), 16), 2),
        ) {
            let mut h = Hitlist::new();
            for (i, s) in SourceId::ALL.iter().cycle().take(16).enumerate() {
                h.add_from(*s, &[addr(i as u32)], 0);
            }
            let first_day = (tag == 1).then_some(first);
            let block: Vec<AddrSet> = block
                .iter()
                .map(|ids| ids.iter().map(|&i| AddrId::from_index(i)).collect())
                .collect();
            let mut values = values.iter().map(|v| [f64::NAN, 0.0, 0.5, 1.0][usize::from(*v)]);
            let series: Vec<Vec<f64>> = lens
                .iter()
                .map(|&len| {
                    let len = if aligned { usize::from(days) } else { len };
                    values.by_ref().take(len).collect()
                })
                .collect();
            let bytes = base_bytes(first_day, days, &block, &series);
            let Ok(mut live) = decode_bytes(&bytes) else {
                return Ok(());
            };
            let mut replica = decode_bytes(&bytes).unwrap();
            let mut resumed = decode_bytes(&full_bytes(&live)).unwrap();
            let next = live.first_day.map_or(first, |f| f + live.days_recorded);
            for (day, pass) in (next..).zip(&passes) {
                // Member i answers ICMP (1) or nothing (0 and 2), QUIC
                // as drawn.
                let pass: Vec<(AddrId, ProtoSet)> = pass
                    .iter()
                    .enumerate()
                    .filter(|(_, (answers, _))| *answers == 1)
                    .map(|(i, &(_, quic))| {
                        let mut p = ProtoSet::only(Protocol::Icmp);
                        if quic {
                            p = p.with(Protocol::Udp443);
                        }
                        (h.id_of(addr(i as u32)).unwrap(), p)
                    })
                    .collect();
                live.record_day(day, &pass, &h);
                resumed.record_day(day, &pass, &h);
                apply(&mut replica, &delta_bytes(&live)).unwrap();
                live.mark_synced();
            }
            prop_assert_eq!(full_bytes(&replica), full_bytes(&live));
            prop_assert_eq!(full_bytes(&resumed), full_bytes(&live));
        }
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
