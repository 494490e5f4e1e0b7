//! Snapshot persistence for the probe scheduler.
//!
//! The scheduler's long-lived state is the per-/48 feedback map (the
//! daily plan is derived from it on demand) plus two scalars that let
//! journal-loaded replicas answer "remaining budget" questions without
//! re-planning: the budget the last plan was drawn against and the
//! slots it allocated. Entries are written in sorted order so the byte
//! stream never depends on anything but the state itself, and deltas
//! carry only the entries touched since the last sync point, keyed by
//! a front-coded prefix run.

use crate::{PrefixEntry, Scheduler, NEVER_SCANNED, SCHED_PREFIX_LEN};
use expanse_addr::codec::{self, CodecError, Decoder, Encoder, PrefixRun};
use expanse_addr::Prefix;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};

/// Write one entry's feedback state (everything but the prefix key).
fn write_entry<W: Write>(enc: &mut Encoder<W>, e: &PrefixEntry) -> Result<(), CodecError> {
    enc.put_u64(e.spent)?;
    enc.put_u64(e.found)?;
    enc.put_u16(e.last_scanned)?;
    enc.put_u8(u8::from(e.aliased) | (u8::from(e.suspect) << 1))
}

/// Decode one entry written by [`write_entry`].
fn read_entry<R: Read>(dec: &mut Decoder<R>) -> Result<PrefixEntry, CodecError> {
    let spent = dec.get_u64()?;
    let found = dec.get_u64()?;
    let last_scanned = dec.get_u16()?;
    let flags = dec.get_u8()?;
    if flags > 0b11 {
        return Err(CodecError::Corrupt("scheduler entry flags out of range"));
    }
    Ok(PrefixEntry {
        spent,
        found,
        last_scanned,
        aliased: flags & 1 != 0,
        suspect: flags & 2 != 0,
    })
}

/// Decode the entry stored under `p`, enforcing the /48 key invariant
/// and the recording path's spend/find consistency.
fn read_keyed_entry<R: Read>(dec: &mut Decoder<R>, p: Prefix) -> Result<PrefixEntry, CodecError> {
    if p.len() != SCHED_PREFIX_LEN {
        return Err(CodecError::Corrupt("scheduler entry key is not a /48"));
    }
    let e = read_entry(dec)?;
    if e.last_scanned != NEVER_SCANNED && e.spent == 0 && e.found > 0 {
        return Err(CodecError::Corrupt(
            "scheduler entry credits finds to zero spend",
        ));
    }
    Ok(e)
}

impl Scheduler {
    /// Serialize the scheduler's feedback state into an open snapshot
    /// envelope.
    pub fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> Result<(), CodecError> {
        enc.put_u64(self.last_budget)?;
        enc.put_u64(self.last_used)?;
        enc.put_len(self.entries.len())?;
        for (p, e) in &self.entries {
            codec::write_prefix(enc, *p)?;
            write_entry(enc, e)?;
        }
        Ok(())
    }

    /// Rebuild a scheduler from [`Scheduler::encode`] output. The
    /// [`crate::SchedConfig`] is not part of the snapshot — it comes
    /// back from the pipeline configuration, like every other knob.
    pub fn decode<R: Read>(dec: &mut Decoder<R>) -> Result<Scheduler, CodecError> {
        let last_budget = dec.get_u64()?;
        let last_used = dec.get_u64()?;
        let n = dec.get_len()?;
        let mut entries = BTreeMap::new();
        let mut prev = None;
        for _ in 0..n {
            let p = codec::read_prefix(dec)?;
            if prev.is_some_and(|q| q >= p) {
                return Err(CodecError::Corrupt(
                    "scheduler entry prefixes not strictly sorted",
                ));
            }
            prev = Some(p);
            entries.insert(p, read_keyed_entry(dec, p)?);
        }
        Ok(Scheduler {
            entries,
            // A freshly decoded snapshot is by definition a sync point.
            dirty: BTreeSet::new(),
            last_budget,
            last_used,
        })
    }

    /// Declare the current state a journal sync point: the next
    /// [`Scheduler::encode_delta`] is relative to exactly this state.
    pub fn mark_synced(&mut self) {
        self.dirty.clear();
    }

    /// Serialize the scalars plus every entry touched since the last
    /// sync point into an open delta frame. Entries are never removed,
    /// so rewriting the touched ones (sorted and front-coded, full
    /// state each — an entry is 19 payload bytes) is the complete
    /// difference.
    pub fn encode_delta<W: Write>(&self, enc: &mut Encoder<W>) -> Result<(), CodecError> {
        enc.put_u64(self.last_budget)?;
        enc.put_u64(self.last_used)?;
        enc.put_varint(self.dirty.len() as u64)?;
        let mut run = PrefixRun::new();
        for p in &self.dirty {
            let Some(e) = self.entries.get(p) else {
                return Err(CodecError::Corrupt("dirty prefix lost its entry state"));
            };
            run.write(enc, *p)?;
            write_entry(enc, e)?;
        }
        Ok(())
    }

    /// Apply a delta written by [`Scheduler::encode_delta`]: adopt the
    /// scalars and upsert each carried entry. Afterwards this state
    /// *is* the new sync point.
    pub fn apply_delta<R: Read>(&mut self, dec: &mut Decoder<R>) -> Result<(), CodecError> {
        let last_budget = dec.get_u64()?;
        let last_used = dec.get_u64()?;
        let n = dec.get_varint_len()?;
        let mut run = PrefixRun::new();
        for _ in 0..n {
            let p = run.read(dec)?;
            let e = read_keyed_entry(dec, p)?;
            self.entries.insert(p, e);
        }
        self.last_budget = last_budget;
        self.last_used = last_used;
        self.mark_synced();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_addr::codec::{Decoder, Encoder};
    use expanse_addr::Prefix;

    fn p48(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Scheduler state as one full envelope, for round-trip replicas.
    fn full_roundtrip(s: &Scheduler) -> Scheduler {
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, b"SCHSTEST", 1).unwrap();
        s.encode(&mut enc).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(buf.as_slice(), b"SCHSTEST", 1).unwrap();
        let back = Scheduler::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        back
    }

    #[test]
    fn roundtrip_preserves_entries_and_scalars() {
        let mut s = Scheduler::new();
        s.record_day(3, &[(p48("2001:db8:1::/48"), 100, 40)]);
        s.record_day(4, &[(p48("2001:db8:2::/48"), 50, 0)]);
        s.entries.get_mut(&p48("2001:db8:1::/48")).unwrap().aliased = true;
        s.entries.get_mut(&p48("2001:db8:2::/48")).unwrap().suspect = true;
        s.last_budget = 500;
        s.last_used = 150;

        let back = full_roundtrip(&s);
        assert_eq!(back.entries, s.entries);
        assert_eq!(back.last_budget, 500);
        assert_eq!(back.last_used, 150);
        assert_eq!(back.dirty.len(), 0, "decode lands at a sync point");
    }

    #[test]
    fn delta_upserts_only_touched_entries() {
        let mut s = Scheduler::new();
        let p1 = p48("2001:db8:1::/48");
        let p2 = p48("2001:db8:2::/48");
        let p3 = p48("2001:db8:3::/48");
        s.record_day(1, &[(p1, 10, 2), (p2, 20, 5)]);
        s.mark_synced();
        let mut replica = full_roundtrip(&s);

        // One existing entry advances, one brand-new prefix appears;
        // p2 is untouched and must not be in the delta.
        s.record_day(2, &[(p1, 5, 1), (p3, 30, 9)]);
        s.last_budget = 64;
        s.last_used = 35;
        assert_eq!(s.dirty.len(), 2);

        let mut delta = Vec::new();
        let mut enc = Encoder::new(&mut delta, b"SCHDTEST", 1).unwrap();
        s.encode_delta(&mut enc).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(delta.as_slice(), b"SCHDTEST", 1).unwrap();
        replica.apply_delta(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(replica.entries, s.entries);
        assert_eq!(replica.last_budget, 64);
        assert_eq!(replica.last_used, 35);
        assert_eq!(replica.dirty.len(), 0, "apply ends at a sync point");
    }

    #[test]
    fn unsorted_and_non_48_keys_rejected() {
        // Two entries out of order.
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, b"SCHSTEST", 1).unwrap();
        enc.put_u64(0).unwrap();
        enc.put_u64(0).unwrap();
        enc.put_len(2).unwrap();
        for p in ["2001:db8:2::/48", "2001:db8:1::/48"] {
            codec::write_prefix(&mut enc, p.parse().unwrap()).unwrap();
            enc.put_u64(0).unwrap();
            enc.put_u64(0).unwrap();
            enc.put_u16(NEVER_SCANNED).unwrap();
            enc.put_u8(0).unwrap();
        }
        enc.finish().unwrap();
        let mut dec = Decoder::new(buf.as_slice(), b"SCHSTEST", 1).unwrap();
        assert!(matches!(
            Scheduler::decode(&mut dec),
            Err(CodecError::Corrupt(
                "scheduler entry prefixes not strictly sorted"
            ))
        ));

        // A /64 key: the scheduler is /48-granular by contract.
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, b"SCHSTEST", 1).unwrap();
        enc.put_u64(0).unwrap();
        enc.put_u64(0).unwrap();
        enc.put_len(1).unwrap();
        codec::write_prefix(&mut enc, "2001:db8::/64".parse().unwrap()).unwrap();
        enc.put_u64(0).unwrap();
        enc.put_u64(0).unwrap();
        enc.put_u16(NEVER_SCANNED).unwrap();
        enc.put_u8(0).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(buf.as_slice(), b"SCHSTEST", 1).unwrap();
        assert!(matches!(
            Scheduler::decode(&mut dec),
            Err(CodecError::Corrupt("scheduler entry key is not a /48"))
        ));
    }

    #[test]
    fn crafted_flags_and_inconsistent_entries_rejected() {
        // Helper: one entry with raw fields.
        let craft = |spent: u64, found: u64, last: u16, flags: u8| {
            let mut buf = Vec::new();
            let mut enc = Encoder::new(&mut buf, b"SCHSTEST", 1).unwrap();
            enc.put_u64(0).unwrap();
            enc.put_u64(0).unwrap();
            enc.put_len(1).unwrap();
            codec::write_prefix(&mut enc, "2001:db8::/48".parse().unwrap()).unwrap();
            enc.put_u64(spent).unwrap();
            enc.put_u64(found).unwrap();
            enc.put_u16(last).unwrap();
            enc.put_u8(flags).unwrap();
            enc.finish().unwrap();
            buf
        };
        // Reserved flag bits set.
        let buf = craft(0, 0, NEVER_SCANNED, 0b100);
        let mut dec = Decoder::new(buf.as_slice(), b"SCHSTEST", 1).unwrap();
        assert!(matches!(
            Scheduler::decode(&mut dec),
            Err(CodecError::Corrupt("scheduler entry flags out of range"))
        ));
        // A scanned entry crediting finds to zero spend is impossible
        // via record_day — reject rather than divide the fiction later.
        let buf = craft(0, 7, 3, 0);
        let mut dec = Decoder::new(buf.as_slice(), b"SCHSTEST", 1).unwrap();
        assert!(matches!(
            Scheduler::decode(&mut dec),
            Err(CodecError::Corrupt(
                "scheduler entry credits finds to zero spend"
            ))
        ));
        // The happy path with all fields at plausible values decodes.
        let buf = craft(9, 7, 3, 0b11);
        let mut dec = Decoder::new(buf.as_slice(), b"SCHSTEST", 1).unwrap();
        let s = Scheduler::decode(&mut dec).unwrap();
        let e = s.entries.get(&"2001:db8::/48".parse().unwrap()).unwrap();
        assert!(e.aliased && e.suspect);
    }

    #[test]
    fn truncated_stream_errors_without_panic() {
        let mut s = Scheduler::new();
        s.record_day(1, &[(p48("2001:db8:1::/48"), 10, 2)]);
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, b"SCHSTEST", 1).unwrap();
        s.encode(&mut enc).unwrap();
        enc.finish().unwrap();
        // Chop the envelope anywhere inside the payload: every cut must
        // error (bad checksum or EOF), never panic.
        for cut in 8..buf.len() - 1 {
            let mut dec = match Decoder::new(&buf[..cut], b"SCHSTEST", 1) {
                Ok(d) => d,
                Err(_) => continue,
            };
            let r = Scheduler::decode(&mut dec).and_then(|_| dec.finish());
            assert!(r.is_err(), "cut at {cut} must not verify");
        }
    }
}
