//! The accumulated hitlist with per-source provenance.
//!
//! §3: "We accumulate all sources, i.e., IP addresses will stay
//! indefinitely in our scanning list." Addresses carry a source bitmask
//! so Table 2's "new IPs" column (what each source added beyond earlier
//! sources) and per-source AS statistics can be derived.
//!
//! # Representation
//!
//! The hitlist is a struct-of-arrays over an interned address store:
//! one [`AddrTable`] assigns every unique address a dense [`AddrId`]
//! (see `ARCHITECTURE.md` for the id invariants), and
//! provenance/responsiveness live in parallel columns indexed by
//! that id. Ids are stable for the lifetime of the hitlist — expiry
//! tombstones a row rather than renumbering — so the pipeline, ledger,
//! and daily snapshot can key state by id across days, and every daily
//! pass is a sequential column walk.

use expanse_addr::codec::{self, CodecError, Decoder, Encoder, PrefixRun};
use expanse_addr::{AddrId, AddrSet, AddrTable, Prefix};
use expanse_model::SourceId;
use expanse_packet::ProtoSet;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::Ipv6Addr;

/// Bitmask of sources (bit = SourceId order).
///
/// `u16`-wide: 7 sources today, with headroom enforced at compile time
/// (`SourceId::ALL` must fit the mask width — see the assert below).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourceMask(pub u16);

// `with`/`contains` shift by the SourceId discriminant; a variant added
// beyond the mask width would silently alias. Fail the build instead.
const _: () = assert!(
    SourceId::ALL.len() <= u16::BITS as usize,
    "SourceMask too narrow for SourceId::ALL; widen the mask type"
);

impl SourceMask {
    /// Add a source to the set.
    pub(crate) fn with(self, s: SourceId) -> SourceMask {
        SourceMask(self.0 | (1 << s as u16))
    }

    /// Contains.
    pub(crate) fn contains(self, s: SourceId) -> bool {
        self.0 & (1 << s as u16) != 0
    }
}

/// Column sentinel: the address never answered a probe.
const NEVER: u16 = u16::MAX;

/// A borrowed struct-of-arrays view of every hitlist column, as handed
/// out by [`Hitlist::columns`]. Row `i` is `AddrId` `i`.
#[derive(Debug, Clone, Copy)]
pub struct HitlistColumns<'a> {
    /// The interner (id ↔ address).
    pub table: &'a AddrTable,
    /// Source bitmask per row.
    pub sources: &'a [SourceMask],
    /// First contributing source per row.
    pub first_source: &'a [SourceId],
    /// Last responsive day per row ([`Hitlist::NEVER_RESPONSIVE`] if none).
    pub last_responsive: &'a [u16],
    /// Protocols answered on the last responsive day per row.
    pub protos: &'a [ProtoSet],
    /// Insertion (or last revival) day per row.
    pub added_day: &'a [u16],
    /// Tombstone flag per row (`false` = expired).
    pub alive: &'a [bool],
}

/// Snapshot wire form of a [`SourceId`]: its [`SourceId::ALL`] index as
/// one byte. Shared by every snapshot section in this crate (hitlist
/// first-source column, ledger rows) so the mapping and its validation
/// live in one place.
///
/// The write side uses the enum discriminant, the read side indexes
/// `ALL`; this is a *persistent* format, so the two orderings agreeing
/// is load-bearing — `source_wire_form_matches_all_order` pins it.
pub(crate) fn put_source<W: Write>(enc: &mut Encoder<W>, s: SourceId) -> Result<(), CodecError> {
    enc.put_u8(s as u8)
}

/// Decode a [`SourceId`] written by [`put_source`]; unknown indices are
/// corruption.
pub(crate) fn get_source<R: Read>(dec: &mut Decoder<R>) -> Result<SourceId, CodecError> {
    let idx = dec.get_u8()? as usize;
    SourceId::ALL
        .get(idx)
        .copied()
        .ok_or(CodecError::Corrupt("unknown source id"))
}

/// Decode a [`ProtoSet`] stored as its bitmask byte; bits beyond the
/// protocol universe are corruption. Validation is
/// [`ProtoSet::from_bits`], the one gate every decoder of a protocol
/// byte shares.
fn get_protos<R: Read>(dec: &mut Decoder<R>) -> Result<ProtoSet, CodecError> {
    ProtoSet::from_bits(dec.get_u8()?).ok_or(CodecError::Corrupt("protocol set has unknown bits"))
}

/// Write the base snapshot's run of `(prefix, cumulative spend)`
/// counters, ascending.
fn write_spent<W: Write>(
    enc: &mut Encoder<W>,
    counters: impl ExactSizeIterator<Item = (Prefix, u64)>,
) -> Result<(), CodecError> {
    enc.put_len(counters.len())?;
    for (p, n) in counters {
        codec::write_prefix(enc, p)?;
        enc.put_u64(n)?;
    }
    Ok(())
}

/// Decode a run written by [`write_spent`], enforcing strict ascending
/// order and non-zero counts (a zero counter is never minted — see
/// [`Hitlist::charge_probes`]).
fn read_spent<R: Read>(dec: &mut Decoder<R>) -> Result<BTreeMap<Prefix, u64>, CodecError> {
    let n = dec.get_len()?;
    let mut out = BTreeMap::new();
    let mut prev = None;
    for _ in 0..n {
        let p = codec::read_prefix(dec)?;
        if prev.is_some_and(|q| q >= p) {
            return Err(CodecError::Corrupt("spend prefixes not strictly sorted"));
        }
        prev = Some(p);
        let count = dec.get_u64()?;
        if count == 0 {
            return Err(CodecError::Corrupt("zero probe-spend counter"));
        }
        out.insert(p, count);
    }
    Ok(out)
}

/// Write a column as run lengths over its rows: `(count varint, value
/// u16)` per maximal run of equal values, nothing at all for no rows.
/// The day's responders all share one `last_responsive`, so a one-day
/// record spends three bytes here instead of two a row.
fn write_runs<W: Write>(
    enc: &mut Encoder<W>,
    values: impl Iterator<Item = u16>,
) -> Result<(), CodecError> {
    let mut values = values.peekable();
    while let Some(v) = values.next() {
        let mut n = 1u64;
        while values.next_if_eq(&v).is_some() {
            n += 1;
        }
        enc.put_varint(n)?;
        enc.put_u16(v)?;
    }
    Ok(())
}

/// Read `rows` values written by [`write_runs`]. Runs must be
/// non-empty, differ from their predecessor and add up to exactly
/// `rows` — one encoding per column.
fn read_runs<R: Read>(dec: &mut Decoder<R>, rows: usize) -> Result<Vec<u16>, CodecError> {
    let mut out = Vec::with_capacity(Decoder::<R>::reserve_hint(rows));
    while out.len() < rows {
        let n = dec.get_varint_len()?;
        let v = dec.get_u16()?;
        if n == 0 || n > rows - out.len() {
            return Err(CodecError::Corrupt("column run does not fit its rows"));
        }
        if out.last() == Some(&v) {
            return Err(CodecError::Corrupt("column run repeats its predecessor"));
        }
        out.resize(out.len() + n, v);
    }
    Ok(out)
}

/// The accumulated hitlist.
#[derive(Debug, Clone, Default)]
pub struct Hitlist {
    /// The interner: id ↔ address.
    table: AddrTable,
    /// Id → sources that contributed the address.
    sources: Vec<SourceMask>,
    /// Id → first source that contributed it (for "new IPs").
    first_source: Vec<SourceId>,
    /// Id → last probing day the address answered ([`NEVER`] if none).
    last_responsive: Vec<u16>,
    /// Id → protocols the address answered on its last responsive day
    /// (empty if it never answered). Persisted alongside
    /// `last_responsive`, so per-protocol views can be served straight
    /// from a snapshot journal without replaying any probing.
    protos: Vec<ProtoSet>,
    /// Id → day the address was inserted (or last revived). Retention
    /// grants every member a full unresponsiveness window from this
    /// day, so a never-responsive address is not expired the moment an
    /// expiry pass happens to run after its insertion.
    added_day: Vec<u16>,
    /// Id → still a member (expiry tombstones instead of renumbering).
    alive: Vec<bool>,
    /// Live member count.
    live: usize,
    /// Rows that existed at the last journal sync point
    /// ([`Hitlist::mark_synced`]); rows at or beyond this index are
    /// "appended since" and travel whole in the next delta record.
    synced_rows: usize,
    /// Per-row dirty bits ([`DIRTY_ROW`]/[`DIRTY_LAST`]/[`DIRTY_TOMB`])
    /// for rows < `synced_rows`, classifying what the next delta record
    /// must carry: a full row rewrite, a `last_responsive` column
    /// write, or a bare tombstone flip.
    dirty: Vec<u8>,
    /// Prefix → cumulative battery target slots spent probing under it
    /// (discovery-cost accounting; the scheduler's yield-per-probe
    /// denominator). Keyed by whatever granularity the charger uses —
    /// the pipeline charges /48s. Counters only grow.
    probes_spent: BTreeMap<Prefix, u64>,
    /// Prefixes whose spend counter moved since the last sync point.
    spent_dirty: BTreeSet<Prefix>,
}

/// Dirty bit: the row needs a full rewrite in the next delta (revival
/// or a new source bit — the provenance columns changed).
const DIRTY_ROW: u8 = 1;
/// Dirty bit: only `last_responsive` changed — the delta carries a
/// 2-byte column write instead of the whole row.
const DIRTY_LAST: u8 = 2;
/// Dirty bit: only the tombstone flipped (retention expiry) — the delta
/// carries the bare id.
const DIRTY_TOMB: u8 = 4;

/// Does the row need a full rewrite in the next delta? A rewrite
/// carries every column, so it subsumes the cheaper encodings below.
fn needs_rewrite(d: u8) -> bool {
    d & DIRTY_ROW != 0
}

/// Does the row need a bare `last_responsive` column write (and not a
/// full rewrite)?
fn needs_last_write(d: u8) -> bool {
    d & DIRTY_LAST != 0 && d & DIRTY_ROW == 0
}

/// Does the row need a bare tombstone flip (and not a full rewrite)?
fn needs_tombstone(d: u8) -> bool {
    d & DIRTY_TOMB != 0 && d & DIRTY_ROW == 0
}

impl Hitlist {
    /// The `last_responsive` column value meaning "never answered".
    pub const NEVER_RESPONSIVE: u16 = NEVER;

    /// Create a new instance.
    pub fn new() -> Self {
        Hitlist::default()
    }

    /// Add addresses from a source on probing day `day`; returns how
    /// many were new. An address re-added after expiry revives its old
    /// id (and counts as new, with fresh provenance and a fresh
    /// `added_day`, so retention grants it a full grace window again).
    /// The table's address order takes the batch in one merge.
    pub fn add_from(&mut self, source: SourceId, addrs: &[Ipv6Addr], day: u16) -> usize {
        let mut new = 0;
        for &a in addrs {
            let (id, inserted) = self.table.intern_u128(expanse_addr::addr_to_u128(a));
            if inserted {
                self.sources.push(SourceMask::default().with(source));
                self.first_source.push(source);
                self.last_responsive.push(NEVER);
                self.protos.push(ProtoSet::EMPTY);
                self.added_day.push(day);
                self.alive.push(true);
                self.dirty.push(0);
                self.live += 1;
                new += 1;
            } else if !self.alive[id.index()] {
                // Revival: provenance restarts with the re-adding source.
                self.sources[id.index()] = SourceMask::default().with(source);
                self.first_source[id.index()] = source;
                self.last_responsive[id.index()] = NEVER;
                self.protos[id.index()] = ProtoSet::EMPTY;
                self.added_day[id.index()] = day;
                self.alive[id.index()] = true;
                self.touch(id.index(), DIRTY_ROW);
                self.live += 1;
                new += 1;
            } else {
                let m = &mut self.sources[id.index()];
                let widened = m.with(source);
                if widened != *m {
                    *m = widened;
                    self.touch(id.index(), DIRTY_ROW);
                }
            }
        }
        self.table.merge_order();
        new
    }

    /// Merge rows a decode or replay appended into the table's address
    /// order: once per load, not once per record.
    pub(crate) fn merge_order(&mut self) {
        self.table.merge_order();
    }

    /// Total unique live addresses.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the hitlist empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The backing interner. Ids issued by it are valid for the
    /// hitlist's lifetime (expired rows keep their id, tombstoned).
    pub fn table(&self) -> &AddrTable {
        &self.table
    }

    /// The id of a live member.
    pub fn id_of(&self, a: Ipv6Addr) -> Option<AddrId> {
        self.table.lookup(a).filter(|id| self.alive[id.index()])
    }

    /// The set of live ids, ascending (= insertion order).
    pub fn live_set(&self) -> AddrSet {
        AddrSet::from_sorted(
            (0..self.table.len())
                .filter(|&i| self.alive[i])
                .map(AddrId::from_index)
                .collect(),
        )
    }

    /// All live addresses in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Ipv6Addr> + '_ {
        self.table
            .iter()
            .filter(|(id, _)| self.alive[id.index()])
            .map(|(_, a)| a)
    }

    /// Sources of one member by id.
    pub(crate) fn sources_of_id(&self, id: AddrId) -> SourceMask {
        self.sources[id.index()]
    }

    /// Addresses a source contributed (whether or not first).
    pub(crate) fn of_source(&self, s: SourceId) -> Vec<Ipv6Addr> {
        self.table
            .iter()
            .filter(|(id, _)| self.alive[id.index()] && self.sources[id.index()].contains(s))
            .map(|(_, a)| a)
            .collect()
    }

    /// Addresses a source contributed *first* (Table 2's "new IPs").
    pub(crate) fn new_of_source(&self, s: SourceId) -> Vec<Ipv6Addr> {
        self.table
            .iter()
            .filter(|(id, _)| self.alive[id.index()] && self.first_source[id.index()] == s)
            .map(|(_, a)| a)
            .collect()
    }

    /// Record that `addr` answered a probe on `day` on `protos`.
    pub fn mark_responsive(&mut self, addr: Ipv6Addr, day: u16, protos: ProtoSet) {
        if let Some(id) = self.id_of(addr) {
            self.mark_responsive_id(id, day, protos);
        }
    }

    /// [`Hitlist::mark_responsive`] by id: two column writes, the unit
    /// of the pipeline's dense daily responsiveness pass. A later day
    /// replaces the protocol set; a repeated mark on the same day
    /// unions into it.
    pub(crate) fn mark_responsive_id(&mut self, id: AddrId, day: u16, protos: ProtoSet) {
        debug_assert!(day < NEVER, "day saturates the sentinel");
        let e = &mut self.last_responsive[id.index()];
        if *e == NEVER || *e < day {
            *e = day;
            self.protos[id.index()] = protos;
            self.touch(id.index(), DIRTY_LAST);
        } else if *e == day {
            let p = &mut self.protos[id.index()];
            let widened = p.union(protos);
            if widened != *p {
                *p = widened;
                self.touch(id.index(), DIRTY_LAST);
            }
        }
    }

    /// `Hitlist::mark_responsive_id` over a whole day's pass, strictly
    /// ascending by id. `_threads` is ignored. The repo benchmark's
    /// staged twin of the pipeline day is its only caller; the
    /// pipeline's own day pass runs the same loop inline.
    pub fn mark_responsive_batch(
        &mut self,
        day: u16,
        pass: &[(AddrId, ProtoSet)],
        _threads: usize,
    ) {
        debug_assert!(
            pass.windows(2).all(|w| w[0].0 < w[1].0),
            "day pass must be strictly ascending by id"
        );
        for &(id, protos) in pass {
            self.mark_responsive_id(id, day, protos);
        }
    }

    /// Last day `addr` answered, if ever.
    pub fn last_responsive(&self, addr: Ipv6Addr) -> Option<u16> {
        self.id_of(addr)
            .map(|id| self.last_responsive[id.index()])
            .filter(|&d| d != NEVER)
    }

    /// Protocols `addr` answered on its last responsive day (empty if
    /// it never answered or is not a live member).
    pub fn protos_of(&self, addr: Ipv6Addr) -> ProtoSet {
        self.id_of(addr)
            .map(|id| self.protos[id.index()])
            .unwrap_or(ProtoSet::EMPTY)
    }

    /// Borrow every column at once, for building immutable serving
    /// views without cloning through per-row accessors. Row `i`
    /// corresponds to `AddrId` `i`; `last_responsive` uses `0xffff` as
    /// the never-answered sentinel.
    pub fn columns(&self) -> HitlistColumns<'_> {
        HitlistColumns {
            table: &self.table,
            sources: &self.sources,
            first_source: &self.first_source,
            last_responsive: &self.last_responsive,
            protos: &self.protos,
            added_day: &self.added_day,
            alive: &self.alive,
        }
    }

    /// Expire addresses that have not answered any probe in the last
    /// `window` days (as of `today`). A member's reference day is
    /// `max(added_day, last_responsive)`: an address that never
    /// answered gets a full `window` days of grace from its insertion
    /// (or revival) before it can expire, instead of being treated as
    /// "last responsive on day 0" and culled immediately. Returns the
    /// number removed.
    ///
    /// This implements the retention policy the paper leaves as future
    /// work (§3: "We may revisit this decision in the future, and remove
    /// IP addresses after a certain window of unresponsiveness").
    /// Removal tombstones the row; the id stays reserved and revives in
    /// place if a source re-contributes the address.
    pub fn expire_unresponsive(&mut self, today: u16, window: u16) -> usize {
        let cutoff = today.saturating_sub(window);
        if cutoff == 0 {
            return 0;
        }
        let before = self.live;
        for i in 0..self.alive.len() {
            if !self.alive[i] {
                continue;
            }
            let last = self.last_responsive[i];
            let effective = if last == NEVER {
                self.added_day[i]
            } else {
                last.max(self.added_day[i])
            };
            if effective < cutoff {
                self.alive[i] = false;
                self.touch(i, DIRTY_TOMB);
                self.live -= 1;
            }
        }
        before - self.live
    }

    /// Charge `n` battery target slots of probing cost to `net`.
    /// Zero-slot charges are dropped (no counter entry is minted), so
    /// every persisted counter is non-zero by construction.
    pub fn charge_probes(&mut self, net: Prefix, n: u64) {
        if n == 0 {
            return;
        }
        *self.probes_spent.entry(net).or_insert(0) += n;
        self.spent_dirty.insert(net);
    }

    /// Every charged prefix with its cumulative spend, ascending.
    pub fn probes_spent(&self) -> impl Iterator<Item = (Prefix, u64)> + '_ {
        self.probes_spent.iter().map(|(p, &n)| (*p, n))
    }

    /// Mark a pre-sync row as mutated since the last sync point.
    #[inline]
    fn touch(&mut self, i: usize, bit: u8) {
        if i < self.synced_rows {
            self.dirty[i] |= bit;
        }
    }

    /// Declare the current state a journal sync point: the next
    /// [`Hitlist::encode_delta`] is relative to exactly this state.
    /// Called by the pipeline after every full save, delta append, and
    /// journal replay.
    pub fn mark_synced(&mut self) {
        self.synced_rows = self.table.len();
        self.dirty.clear();
        self.dirty.resize(self.synced_rows, 0);
        self.spent_dirty.clear();
    }

    /// Rows changed since the last sync point, as the delta record will
    /// carry them: `(appended, rewritten, last-responsive writes,
    /// tombstone flips)`.
    #[cfg(test)]
    fn delta_size(&self) -> (usize, usize, usize, usize) {
        let count = |pred: fn(u8) -> bool| self.dirty.iter().filter(|&&d| pred(d)).count();
        (
            self.table.len() - self.synced_rows,
            count(needs_rewrite),
            count(needs_last_write),
            count(needs_tombstone),
        )
    }

    /// The sorted id run of dirty rows matching `pred`.
    fn dirty_run(&self, pred: fn(u8) -> bool) -> AddrSet {
        AddrSet::from_sorted(
            self.dirty
                .iter()
                .enumerate()
                .filter(|(_, &d)| pred(d))
                .map(|(i, _)| AddrId::from_index(i))
                .collect(),
        )
    }

    /// Write one row's mutable columns, shared by the appended and
    /// rewritten sections of a delta record.
    fn encode_row<W: Write>(&self, i: usize, enc: &mut Encoder<W>) -> Result<(), CodecError> {
        enc.put_u16(self.sources[i].0)?;
        put_source(enc, self.first_source[i])?;
        enc.put_u16(self.last_responsive[i])?;
        enc.put_u8(self.protos[i].0)?;
        enc.put_u16(self.added_day[i])?;
        enc.put_bool(self.alive[i])
    }

    /// Decode one row's mutable columns written by
    /// [`Hitlist::encode_row`].
    fn decode_row<R: Read>(
        dec: &mut Decoder<R>,
    ) -> Result<(SourceMask, SourceId, u16, ProtoSet, u16, bool), CodecError> {
        let m = dec.get_u16()?;
        if m >> SourceId::ALL.len() != 0 {
            return Err(CodecError::Corrupt("source mask has unknown bits"));
        }
        Ok((
            SourceMask(m),
            get_source(dec)?,
            dec.get_u16()?,
            get_protos(dec)?,
            dec.get_u16()?,
            dec.get_bool()?,
        ))
    }

    /// Serialize everything that changed since the last sync point into
    /// an open delta frame, cheapest encoding per mutation class:
    ///
    /// 1. the interner suffix plus full column values for each appended
    ///    row;
    /// 2. a gap-coded id run of *rewritten* rows (revival, new source
    ///    bit) with their full new column values;
    /// 3. a gap-coded id run of rows whose responsiveness alone changed
    ///    — the daily responders — with their `last_responsive` days as
    ///    run lengths (one run when the record spans one day) and one
    ///    protocol-set byte each;
    /// 4. a gap-coded id run of bare tombstone flips (retention expiry),
    ///    no payload at all;
    /// 5. the spend counters charged since, as a front-coded prefix run
    ///    of absolute values.
    ///
    /// Ids never move, so this is the complete difference between the
    /// sync-point state and now.
    pub fn encode_delta<W: Write>(&self, enc: &mut Encoder<W>) -> Result<(), CodecError> {
        codec::write_table_suffix(enc, &self.table, self.synced_rows)?;
        for i in self.synced_rows..self.table.len() {
            self.encode_row(i, enc)?;
        }
        let rewritten = self.dirty_run(needs_rewrite);
        codec::write_set_gaps(enc, &rewritten)?;
        for id in rewritten.iter() {
            self.encode_row(id.index(), enc)?;
        }
        let last_writes = self.dirty_run(needs_last_write);
        codec::write_set_gaps(enc, &last_writes)?;
        write_runs(
            enc,
            last_writes
                .iter()
                .map(|id| self.last_responsive[id.index()]),
        )?;
        for id in last_writes.iter() {
            enc.put_u8(self.protos[id.index()].0)?;
        }
        codec::write_set_gaps(enc, &self.dirty_run(needs_tombstone))?;
        enc.put_varint(self.spent_dirty.len() as u64)?;
        let mut run = PrefixRun::new();
        for p in &self.spent_dirty {
            run.write(enc, *p)?;
            // Chargers never remove counters, so a dirty prefix always
            // resolves; a missing one would be a logic bug upstream —
            // encode it as 0 and let apply reject it.
            enc.put_varint(self.probes_spent.get(p).copied().unwrap_or(0))?;
        }
        Ok(())
    }

    /// Apply a delta written by [`Hitlist::encode_delta`]. The delta
    /// must follow this exact state (the stored base length is checked);
    /// afterwards this state *is* the new sync point.
    pub fn apply_delta<R: Read>(&mut self, dec: &mut Decoder<R>) -> Result<(), CodecError> {
        let appended = codec::read_table_suffix(dec, &mut self.table)?;
        for _ in 0..appended {
            let (m, s, last, protos, added, alive) = Self::decode_row(dec)?;
            self.sources.push(m);
            self.first_source.push(s);
            self.last_responsive.push(last);
            self.protos.push(protos);
            self.added_day.push(added);
            self.alive.push(alive);
            self.live += usize::from(alive);
        }
        let synced = self.synced_rows;
        let in_base = move |id: AddrId, what: &'static str| {
            if id.index() < synced {
                Ok(id.index())
            } else {
                Err(CodecError::Corrupt(what))
            }
        };
        let rewritten = codec::read_set_gaps(dec)?;
        for id in rewritten.iter() {
            let i = in_base(id, "delta rewrites an appended row")?;
            let (m, s, last, protos, added, alive) = Self::decode_row(dec)?;
            self.live -= usize::from(self.alive[i]);
            self.live += usize::from(alive);
            self.sources[i] = m;
            self.first_source[i] = s;
            self.last_responsive[i] = last;
            self.protos[i] = protos;
            self.added_day[i] = added;
            self.alive[i] = alive;
        }
        let last_writes = codec::read_set_gaps(dec)?;
        let days = read_runs(dec, last_writes.len())?;
        for (id, day) in last_writes.iter().zip(days) {
            let i = in_base(id, "delta writes last-responsive past the base")?;
            self.last_responsive[i] = day;
            self.protos[i] = get_protos(dec)?;
        }
        let tombstones = codec::read_set_gaps(dec)?;
        for id in tombstones.iter() {
            let i = in_base(id, "delta tombstones an appended row")?;
            if !self.alive[i] {
                return Err(CodecError::Corrupt("delta tombstones a dead row"));
            }
            self.alive[i] = false;
            self.live -= 1;
        }
        let spent = dec.get_varint_len()?;
        let mut run = PrefixRun::new();
        for _ in 0..spent {
            let p = run.read(dec)?;
            let n = dec.get_varint()?;
            if n == 0 {
                return Err(CodecError::Corrupt("zero probe-spend counter"));
            }
            // Counters only grow: an upsert below the replica's value
            // cannot follow this state.
            if self.probes_spent.get(&p).is_some_and(|&old| n < old) {
                return Err(CodecError::Corrupt("probe-spend counter went backwards"));
            }
            self.probes_spent.insert(p, n);
        }
        self.mark_synced();
        Ok(())
    }

    /// Serialize the full hitlist state — interner plus every
    /// provenance/responsiveness column and the expiry tombstones —
    /// into an open snapshot envelope, one column after another.
    pub fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> Result<(), CodecError> {
        codec::write_table(enc, &self.table)?;
        for m in &self.sources {
            enc.put_u16(m.0)?;
        }
        for &s in &self.first_source {
            put_source(enc, s)?;
        }
        for &d in &self.last_responsive {
            enc.put_u16(d)?;
        }
        for p in &self.protos {
            enc.put_u8(p.0)?;
        }
        for &d in &self.added_day {
            enc.put_u16(d)?;
        }
        for &a in &self.alive {
            enc.put_bool(a)?;
        }
        write_spent(enc, self.probes_spent.iter().map(|(p, &n)| (*p, n)))?;
        Ok(())
    }

    /// Rebuild a hitlist from [`Hitlist::encode`] output. Ids come back
    /// exactly as issued before the save (tombstoned rows included), so
    /// id-keyed state in the ledger and pipeline stays valid.
    pub fn decode<R: Read>(dec: &mut Decoder<R>) -> Result<Hitlist, CodecError> {
        let table = codec::read_table(dec)?;
        let n = table.len();
        let hint = Decoder::<R>::reserve_hint(n);
        let mut sources = Vec::with_capacity(hint);
        for _ in 0..n {
            let m = dec.get_u16()?;
            if m >> SourceId::ALL.len() != 0 {
                return Err(CodecError::Corrupt("source mask has unknown bits"));
            }
            sources.push(SourceMask(m));
        }
        let mut first_source = Vec::with_capacity(hint);
        for _ in 0..n {
            first_source.push(get_source(dec)?);
        }
        let mut last_responsive = Vec::with_capacity(hint);
        for _ in 0..n {
            last_responsive.push(dec.get_u16()?);
        }
        let mut protos = Vec::with_capacity(hint);
        for _ in 0..n {
            protos.push(get_protos(dec)?);
        }
        let mut added_day = Vec::with_capacity(hint);
        for _ in 0..n {
            added_day.push(dec.get_u16()?);
        }
        let mut alive = Vec::with_capacity(hint);
        for _ in 0..n {
            alive.push(dec.get_bool()?);
        }
        let live = alive.iter().filter(|&&a| a).count();
        let probes_spent = read_spent(dec)?;
        Ok(Hitlist {
            table,
            sources,
            first_source,
            last_responsive,
            protos,
            added_day,
            alive,
            live,
            // A freshly decoded snapshot is by definition a sync point.
            synced_rows: n,
            dirty: vec![0; n],
            probes_spent,
            spent_dirty: BTreeSet::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_packet::Protocol;

    fn sources_of(h: &Hitlist, a: Ipv6Addr) -> SourceMask {
        h.id_of(a).map(|id| h.sources_of_id(id)).unwrap_or_default()
    }

    fn probes_spent_under(h: &Hitlist, net: Prefix) -> u64 {
        h.probes_spent.get(&net).copied().unwrap_or(0)
    }

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn icmp() -> ProtoSet {
        ProtoSet::only(Protocol::Icmp)
    }

    #[test]
    fn protocol_column_tracks_last_responsive_day() {
        let mut h = Hitlist::new();
        h.add_from(SourceId::Ct, &[a("::1")], 0);
        assert_eq!(h.protos_of(a("::1")), ProtoSet::EMPTY);
        // Same-day marks union…
        h.mark_responsive(a("::1"), 3, icmp());
        h.mark_responsive(a("::1"), 3, ProtoSet::only(Protocol::Tcp443));
        assert_eq!(
            h.protos_of(a("::1")),
            icmp().union(ProtoSet::only(Protocol::Tcp443))
        );
        // …a later day replaces…
        h.mark_responsive(a("::1"), 5, ProtoSet::only(Protocol::Udp53));
        assert_eq!(h.protos_of(a("::1")), ProtoSet::only(Protocol::Udp53));
        // …and a stale (earlier-day) mark is ignored.
        h.mark_responsive(a("::1"), 4, icmp());
        assert_eq!(h.protos_of(a("::1")), ProtoSet::only(Protocol::Udp53));
        assert_eq!(h.last_responsive(a("::1")), Some(5));
        // Revival clears the column with the rest of the row.
        h.add_from(SourceId::Ct, &[a("::2")], 0);
        h.expire_unresponsive(10, 3);
        assert!(h.id_of(a("::2")).is_none());
        h.add_from(SourceId::Fdns, &[a("::2")], 10);
        assert_eq!(h.protos_of(a("::2")), ProtoSet::EMPTY);
    }

    #[test]
    fn accumulation_and_provenance() {
        let mut h = Hitlist::new();
        let n1 = h.add_from(SourceId::DomainLists, &[a("::1"), a("::2")], 0);
        assert_eq!(n1, 2);
        let n2 = h.add_from(SourceId::Fdns, &[a("::2"), a("::3")], 0);
        assert_eq!(n2, 1, "::2 already present");
        assert_eq!(h.len(), 3);
        assert!(sources_of(&h, a("::2")).contains(SourceId::DomainLists));
        assert!(sources_of(&h, a("::2")).contains(SourceId::Fdns));
        assert!(!sources_of(&h, a("::1")).contains(SourceId::Fdns));
        // New-IP attribution goes to the first source.
        assert_eq!(h.new_of_source(SourceId::Fdns), vec![a("::3")]);
        assert_eq!(h.of_source(SourceId::Fdns).len(), 2);
    }

    #[test]
    fn duplicate_adds_idempotent() {
        let mut h = Hitlist::new();
        h.add_from(SourceId::Ct, &[a("::7"), a("::7")], 0);
        assert_eq!(h.len(), 1);
        assert_eq!(h.add_from(SourceId::Ct, &[a("::7")], 0), 0);
    }

    #[test]
    fn insertion_order_stable() {
        let mut h = Hitlist::new();
        h.add_from(SourceId::Ct, &[a("::9"), a("::1")], 0);
        h.add_from(SourceId::Axfr, &[a("::5")], 0);
        let order: Vec<Ipv6Addr> = h.iter().collect();
        assert_eq!(order, vec![a("::9"), a("::1"), a("::5")]);
        // live_set ids follow the same order and resolve to the same
        // addresses.
        let via_set: Vec<Ipv6Addr> = h.live_set().addrs(h.table()).collect();
        assert_eq!(via_set, order);
    }

    #[test]
    fn responsiveness_tracking_and_expiry() {
        let mut h = Hitlist::new();
        let addrs: Vec<Ipv6Addr> = (1..=4u32)
            .map(|i| expanse_addr::u128_to_addr(u128::from(i)))
            .collect();
        h.add_from(SourceId::DomainLists, &addrs, 0);
        // Days 0..10: only addr 1 and 2 keep answering; 2 stops at day 4.
        for day in 0..10u16 {
            h.mark_responsive(addrs[0], day, icmp());
            if day <= 4 {
                h.mark_responsive(addrs[1], day, icmp());
            }
        }
        assert_eq!(h.last_responsive(addrs[0]), Some(9));
        assert_eq!(h.last_responsive(addrs[1]), Some(4));
        assert_eq!(h.last_responsive(addrs[2]), None);
        // Expire with a 3-day window at day 10: cutoff 7.
        let removed = h.expire_unresponsive(10, 3);
        assert_eq!(removed, 3);
        let left: Vec<Ipv6Addr> = h.iter().collect();
        assert_eq!(left, &addrs[..1]);
        assert!(h.id_of(addrs[0]).is_some());
        assert!(h.id_of(addrs[1]).is_none());
        // Early days: nothing expires (cutoff saturates to 0).
        let mut h2 = Hitlist::new();
        h2.add_from(SourceId::Ct, &addrs, 0);
        assert_eq!(h2.expire_unresponsive(2, 3), 0);
    }

    #[test]
    fn expired_address_revives_in_place() {
        let mut h = Hitlist::new();
        h.add_from(SourceId::Ct, &[a("::1"), a("::2")], 0);
        h.mark_responsive(a("::1"), 8, icmp());
        assert_eq!(h.expire_unresponsive(10, 3), 1);
        assert!(h.id_of(a("::2")).is_none());
        // Re-added by a different source: counts as new, fresh
        // provenance, same id (insertion position preserved).
        assert_eq!(h.add_from(SourceId::Fdns, &[a("::2")], 10), 1);
        assert!(h.id_of(a("::2")).is_some());
        assert_eq!(h.last_responsive(a("::2")), None);
        assert_eq!(h.new_of_source(SourceId::Fdns), vec![a("::2")]);
        assert!(!sources_of(&h, a("::2")).contains(SourceId::Ct));
        let order: Vec<Ipv6Addr> = h.iter().collect();
        assert_eq!(order, vec![a("::1"), a("::2")]);
    }

    #[test]
    fn mark_unknown_address_is_noop() {
        let mut h = Hitlist::new();
        h.mark_responsive("::9".parse().unwrap(), 3, icmp());
        assert_eq!(h.last_responsive("::9".parse().unwrap()), None);
    }

    #[test]
    fn mask_bits() {
        let m = SourceMask::default()
            .with(SourceId::Scamper)
            .with(SourceId::Bitnodes);
        assert!(m.contains(SourceId::Scamper));
        assert!(!m.contains(SourceId::Ct));
        assert_eq!(SourceMask::default().0, 0);
    }

    #[test]
    fn ids_stable_across_expiry() {
        let mut h = Hitlist::new();
        h.add_from(SourceId::Ct, &[a("::1"), a("::2"), a("::3")], 0);
        let id2 = h.id_of(a("::2")).unwrap();
        h.mark_responsive(a("::1"), 9, icmp());
        h.mark_responsive(a("::3"), 9, icmp());
        h.expire_unresponsive(10, 1);
        assert_eq!(h.id_of(a("::2")), None, "expired ids are not live");
        h.add_from(SourceId::Ct, &[a("::2")], 10);
        assert_eq!(h.id_of(a("::2")), Some(id2), "revival reuses the id");
        assert_eq!(h.id_of(a("::3")).map(|i| i.index()), Some(2));
    }

    /// Regression for the retention-expiry churn bug: never-responsive
    /// members used to be treated as `last_responsive = 0`, so an
    /// address added (or revived) just before an expiry pass was
    /// removed immediately and re-entered as "new" on the next add —
    /// an endless churn loop inflating new-IP counts.
    #[test]
    fn expiry_grants_grace_window_from_insertion() {
        let mut h = Hitlist::new();
        // Insert on day 9, expiry pass with a 3-day window on day 10:
        // the address is 1 day old and must survive.
        h.add_from(SourceId::Ct, &[a("::1")], 9);
        assert_eq!(h.expire_unresponsive(10, 3), 0, "1-day-old member culled");
        // It survives the full window after insertion...
        assert_eq!(
            h.expire_unresponsive(12, 3),
            0,
            "cutoff 9: day-9 insert survives"
        );
        // ...and expires only once the window has fully elapsed.
        assert_eq!(h.expire_unresponsive(13, 3), 1, "cutoff 10: grace over");
    }

    #[test]
    fn revive_expire_revive_cycle_respects_grace() {
        let mut h = Hitlist::new();
        h.add_from(SourceId::Ct, &[a("::1")], 0);
        h.mark_responsive(a("::1"), 1, icmp());
        // Goes quiet; expired on day 10 (window 3, cutoff 7).
        assert_eq!(h.expire_unresponsive(10, 3), 1);
        // A source re-contributes it the same day: revival resets
        // last_responsive to NEVER — the bug's trigger.
        assert_eq!(h.add_from(SourceId::Fdns, &[a("::1")], 10), 1);
        // The very next expiry pass must NOT re-expire it: its grace
        // window restarts at the revival day.
        assert_eq!(h.expire_unresponsive(11, 3), 0, "revived member re-expired");
        assert_eq!(
            h.expire_unresponsive(13, 3),
            0,
            "still inside revival grace"
        );
        assert!(h.id_of(a("::1")).is_some());
        // Responding extends its life past the insertion-based grace.
        h.mark_responsive(a("::1"), 12, icmp());
        assert_eq!(h.expire_unresponsive(14, 3), 0);
        // Quiet again: expires a full window after its last answer.
        assert_eq!(h.expire_unresponsive(16, 3), 1);
        // And the cycle can restart cleanly (fresh grace once more).
        assert_eq!(h.add_from(SourceId::Ct, &[a("::1")], 16), 1);
        assert_eq!(h.expire_unresponsive(17, 3), 0);
    }

    /// Full state as one envelope, for byte-level equality checks.
    fn full_bytes(h: &Hitlist) -> Vec<u8> {
        use expanse_addr::codec::Encoder;
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, b"HITLTEST", 1).unwrap();
        h.encode(&mut enc).unwrap();
        enc.finish().unwrap();
        buf
    }

    /// One delta round-trip exercising every mutation class the journal
    /// distinguishes: appends, full rewrites (source widen + revival),
    /// bare `last_responsive` column writes, and bare tombstone flips.
    #[test]
    fn delta_roundtrip_covers_all_mutation_kinds() {
        use expanse_addr::codec::{Decoder, Encoder};
        let mut h = Hitlist::new();
        h.add_from(SourceId::Ct, &[a("::1"), a("::2"), a("::3"), a("::5")], 0);
        h.mark_synced();
        let mut replica = h.clone();

        h.mark_responsive(a("::1"), 4, icmp()); // last-responsive column write
        h.add_from(SourceId::Fdns, &[a("::2"), a("::4")], 2); // widen ::2 + append ::4
        h.mark_responsive(a("::4"), 5, icmp()); // mutation of an appended row
                                                // Cutoff 4: ::2 (rewrite + tombstone), ::3 and ::5 (bare
                                                // tombstones); ::1 (last 4) and ::4 (appended, last 5) survive.
        assert_eq!(h.expire_unresponsive(7, 3), 3);
        // Revival flips ::3 back with fresh provenance: a full rewrite.
        assert_eq!(h.add_from(SourceId::Axfr, &[a("::3")], 8), 1);
        assert_eq!(h.delta_size(), (1, 2, 1, 1));

        let mut delta = Vec::new();
        let mut enc = Encoder::new(&mut delta, b"HITDTEST", 1).unwrap();
        h.encode_delta(&mut enc).unwrap();
        enc.finish().unwrap();

        let mut dec = Decoder::new(delta.as_slice(), b"HITDTEST", 1).unwrap();
        replica.apply_delta(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(full_bytes(&replica), full_bytes(&h));
        assert_eq!(replica.len(), h.len());

        // Applying the same delta again cannot follow the new state:
        // the stored base length no longer matches.
        let mut dec = Decoder::new(delta.as_slice(), b"HITDTEST", 1).unwrap();
        assert!(matches!(
            replica.apply_delta(&mut dec),
            Err(CodecError::Corrupt("table delta does not follow its base"))
        ));
    }

    #[test]
    fn unchanged_state_encodes_an_empty_delta() {
        use expanse_addr::codec::{Decoder, Encoder};
        let mut h = Hitlist::new();
        h.add_from(SourceId::Ct, &[a("::1"), a("::2")], 0);
        h.mark_synced();
        // Idempotent re-adds and same-day re-marks leave nothing dirty.
        h.add_from(SourceId::Ct, &[a("::1")], 3);
        h.mark_responsive(a("::9"), 3, icmp()); // unknown address: no-op
        assert_eq!(h.delta_size(), (0, 0, 0, 0));
        let before = full_bytes(&h);
        let mut delta = Vec::new();
        let mut enc = Encoder::new(&mut delta, b"HITDTEST", 1).unwrap();
        h.encode_delta(&mut enc).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(delta.as_slice(), b"HITDTEST", 1).unwrap();
        let mut replica = h.clone();
        replica.apply_delta(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(full_bytes(&replica), before);
    }

    /// Regression for the discovery-cost satellite: `probes_spent`
    /// counters must survive both the full snapshot and the delta
    /// round-trip (absolute-value upserts of the dirty prefixes only),
    /// and a replayed delta may never move a counter backwards.
    #[test]
    fn probes_spent_delta_roundtrip() {
        use expanse_addr::codec::{Decoder, Encoder};
        let p1: Prefix = "2001:db8:1::/48".parse().unwrap();
        let p2: Prefix = "2001:db8:2::/48".parse().unwrap();
        let p3: Prefix = "2001:db8:3::/48".parse().unwrap();
        let mut h = Hitlist::new();
        h.add_from(SourceId::Ct, &[a("2001:db8:1::1"), a("2001:db8:2::1")], 0);
        h.charge_probes(p1, 10);
        h.charge_probes(p2, 4);
        h.charge_probes(p2, 0); // zero charges mint nothing
        h.mark_synced();
        let mut replica = h.clone();

        // p1 grows, p3 appears; p2 is untouched and must not travel.
        h.charge_probes(p1, 5);
        h.charge_probes(p3, 7);
        assert_eq!(probes_spent_under(&h, p1), 15);

        let mut delta = Vec::new();
        let mut enc = Encoder::new(&mut delta, b"HITDTEST", 1).unwrap();
        h.encode_delta(&mut enc).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(delta.as_slice(), b"HITDTEST", 1).unwrap();
        replica.apply_delta(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(full_bytes(&replica), full_bytes(&h));
        assert_eq!(probes_spent_under(&replica, p1), 15);
        assert_eq!(probes_spent_under(&replica, p2), 4);
        assert_eq!(probes_spent_under(&replica, p3), 7);
        assert_eq!(
            replica.probes_spent().collect::<Vec<_>>(),
            vec![(p1, 15), (p2, 4), (p3, 7)]
        );

        // The full-snapshot round-trip carries the counters too.
        let full = full_bytes(&h);
        let mut dec = Decoder::new(full.as_slice(), b"HITLTEST", 1).unwrap();
        let back = Hitlist::decode(&mut dec).unwrap();
        assert_eq!(
            back.probes_spent().collect::<Vec<_>>(),
            vec![(p1, 15), (p2, 4), (p3, 7)]
        );

        // A delta whose counter is *below* the replica's value cannot
        // follow this state: replaying it must error, not regress.
        let mut h2 = h.clone();
        h2.mark_synced();
        let mut stale = replica.clone();
        stale.charge_probes(p1, 100);
        stale.mark_synced();
        h2.charge_probes(p1, 1); // 16 < stale's 115
        let mut delta2 = Vec::new();
        let mut enc = Encoder::new(&mut delta2, b"HITDTEST", 1).unwrap();
        h2.encode_delta(&mut enc).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(delta2.as_slice(), b"HITDTEST", 1).unwrap();
        assert!(matches!(
            stale.apply_delta(&mut dec),
            Err(CodecError::Corrupt("probe-spend counter went backwards"))
        ));
    }

    /// The snapshot codec writes a `SourceId` as its discriminant and
    /// reads it back as a [`SourceId::ALL`] index (here and in the
    /// ledger rows). Reordering `ALL` against the enum declaration
    /// would silently corrupt every existing snapshot's provenance —
    /// the bytes stay structurally valid and checksummed. Pin the
    /// agreement so such a change fails loudly.
    #[test]
    fn source_wire_form_matches_all_order() {
        for (i, &s) in SourceId::ALL.iter().enumerate() {
            assert_eq!(s as usize, i, "SourceId::ALL order diverged at {s:?}");
        }
    }

    #[test]
    fn codec_roundtrip_preserves_all_columns() {
        use expanse_addr::codec::{Decoder, Encoder};
        let mut h = Hitlist::new();
        h.add_from(SourceId::Ct, &[a("::1"), a("::2"), a("::3")], 0);
        h.add_from(SourceId::Fdns, &[a("::2"), a("::4")], 2);
        h.mark_responsive(a("::1"), 5, icmp());
        h.mark_responsive(a("::3"), 2, icmp());
        // Cutoff 4: ::2 (added 0), ::3 (last 2), ::4 (added 2) expire.
        assert_eq!(h.expire_unresponsive(7, 3), 3);
        h.add_from(SourceId::Axfr, &[a("::4")], 9); // one revival
        h.mark_responsive(a("::1"), 10, icmp());

        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, b"HITLTEST", 1).unwrap();
        h.encode(&mut enc).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(buf.as_slice(), b"HITLTEST", 1).unwrap();
        let back = Hitlist::decode(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(back.len(), h.len());
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            h.iter().collect::<Vec<_>>()
        );
        for addr in h.iter() {
            assert_eq!(back.id_of(addr), h.id_of(addr), "{addr}");
            assert_eq!(sources_of(&back, addr), sources_of(&h, addr), "{addr}");
            assert_eq!(back.last_responsive(addr), h.last_responsive(addr));
            assert_eq!(back.protos_of(addr), h.protos_of(addr), "{addr}");
        }
        // Tombstones preserved: ::2 and ::3 are expired in both.
        assert!(back.id_of(a("::2")).is_none());
        assert!(back.id_of(a("::3")).is_none());
        // added_day preserved: the day-9 revival of ::4 still has its
        // grace window after the round-trip (cutoff 8 < 9)...
        let mut b2 = back.clone();
        assert_eq!(b2.expire_unresponsive(11, 3), 0, "::4 grace lost in codec");
        // ...and runs out exactly when it should (cutoff 10 > 9), while
        // ::1 (last responsive day 10) stays.
        assert_eq!(
            b2.expire_unresponsive(13, 3),
            1,
            "::4 must expire at cutoff 10"
        );
        assert!(b2.id_of(a("::1")).is_some());
        assert!(b2.id_of(a("::4")).is_none());
    }
}
