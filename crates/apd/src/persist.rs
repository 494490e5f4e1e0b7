//! Snapshot persistence for the aliased-prefix detector.
//!
//! The detector's only long-lived state is the per-prefix sliding
//! window map (the LPM filter is derived from it on demand), so a
//! snapshot stores exactly that: each prefix with its window length,
//! the day bitmaps it currently holds, the previous classification,
//! and the flip counter. Prefixes are written in sorted order — the
//! map's own.

use crate::detector::{Apd, ApdConfig};
use crate::window::WindowState;
use expanse_addr::codec::{self, CodecError, Decoder, Encoder};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read, Write};

/// Write one prefix's window state (everything but the prefix key).
fn write_window<W: Write>(enc: &mut Encoder<W>, w: &WindowState) -> Result<(), CodecError> {
    enc.put_u64(w.window as u64)?;
    enc.put_len(w.days.len())?;
    for &d in &w.days {
        enc.put_u16(d)?;
    }
    match w.last {
        None => enc.put_u8(0)?,
        Some(false) => enc.put_u8(1)?,
        Some(true) => enc.put_u8(2)?,
    }
    enc.put_u32(w.flips)
}

/// Decode one window state written by [`write_window`], validating it
/// against the detector configuration.
fn read_window<R: Read>(cfg: &ApdConfig, dec: &mut Decoder<R>) -> Result<WindowState, CodecError> {
    let window = usize::try_from(dec.get_u64()?)
        .map_err(|_| CodecError::Corrupt("window length out of range"))?;
    // Every live WindowState is built with the config's window
    // (`WindowState::new(self.cfg.window)`), so a disagreement
    // means the snapshot was saved under a different ApdConfig
    // — resuming would mix window lengths across prefixes with
    // no error. Surface the mismatch instead.
    if window != cfg.window {
        return Err(CodecError::Corrupt(
            "snapshot window length disagrees with detector config",
        ));
    }
    let held = dec.get_len()?;
    // Saturating guard: a corrupted `window` near usize::MAX
    // must reject as corruption, not overflow the `+ 1`; and
    // the capacity comes from the bounded hint, never the raw
    // length prefix (see the codec's never-panic contract).
    if held > window.saturating_add(1) {
        return Err(CodecError::Corrupt(
            "window holds more days than its length",
        ));
    }
    let mut days = VecDeque::with_capacity(Decoder::<R>::reserve_hint(held));
    for _ in 0..held {
        days.push_back(dec.get_u16()?);
    }
    let last = match dec.get_u8()? {
        0 => None,
        1 => Some(false),
        2 => Some(true),
        _ => {
            return Err(CodecError::Corrupt(
                "window classification tag out of range",
            ))
        }
    };
    let flips = dec.get_u32()?;
    Ok(WindowState {
        window,
        days,
        last,
        flips,
    })
}

impl Apd {
    /// Serialize the detector's window state into an open snapshot
    /// envelope.
    pub fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> Result<(), CodecError> {
        enc.put_len(self.windows.len())?;
        for (p, w) in &self.windows {
            codec::write_prefix(enc, *p)?;
            write_window(enc, w)?;
        }
        Ok(())
    }

    /// Rebuild a detector from [`Apd::encode`] output. The config is
    /// not part of the snapshot — it comes back from the pipeline
    /// configuration, like every other knob.
    pub fn decode<R: Read>(cfg: ApdConfig, dec: &mut Decoder<R>) -> Result<Apd, CodecError> {
        let n = dec.get_len()?;
        let mut windows = BTreeMap::new();
        let mut prev = None;
        for _ in 0..n {
            let p = codec::read_prefix(dec)?;
            if prev.is_some_and(|q| q >= p) {
                return Err(CodecError::Corrupt("window prefixes not strictly sorted"));
            }
            prev = Some(p);
            let w = read_window(&cfg, dec)?;
            windows.insert(p, w);
        }
        Ok(Apd {
            cfg,
            windows,
            // A freshly decoded snapshot is by definition a sync point.
            dirty: BTreeSet::new(),
        })
    }

    /// Declare the current state a journal sync point: the next
    /// [`Apd::encode_delta`] is relative to exactly this state.
    pub fn mark_synced(&mut self) {
        self.dirty.clear();
    }

    /// Prefixes whose window state changed since the last sync point.
    pub fn delta_prefixes(&self) -> usize {
        self.dirty.len()
    }

    /// Serialize every window touched since the last sync point into an
    /// open delta frame. Windows are never removed, so rewriting the
    /// touched entries (sorted, full state each — a window is ≤
    /// `window + 1` small bitmaps) is the complete difference.
    pub fn encode_delta<W: Write>(&self, enc: &mut Encoder<W>) -> Result<(), CodecError> {
        enc.put_len(self.dirty.len())?;
        for p in &self.dirty {
            let w = self
                .windows
                .get(p)
                .expect("dirty prefix lost its window state");
            codec::write_prefix(enc, *p)?;
            write_window(enc, w)?;
        }
        Ok(())
    }

    /// Apply a delta written by [`Apd::encode_delta`]: upsert each
    /// carried window. Afterwards this state *is* the new sync point.
    pub fn apply_delta<R: Read>(&mut self, dec: &mut Decoder<R>) -> Result<(), CodecError> {
        let n = dec.get_len()?;
        let mut prev = None;
        for _ in 0..n {
            let p = codec::read_prefix(dec)?;
            if prev.is_some_and(|q| q >= p) {
                return Err(CodecError::Corrupt("delta prefixes not strictly sorted"));
            }
            prev = Some(p);
            let w = read_window(&self.cfg, dec)?;
            self.windows.insert(p, w);
        }
        self.mark_synced();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_addr::codec::{Decoder, Encoder};
    use expanse_addr::Prefix;

    #[test]
    fn roundtrip_preserves_windows_and_classification() {
        let cfg = ApdConfig {
            window: 3,
            ..ApdConfig::default()
        };
        let mut apd = Apd::new(cfg.clone());
        let p1: Prefix = "2001:db8:1::/48".parse().unwrap();
        let p2: Prefix = "2001:db8:2::/48".parse().unwrap();
        // p1 goes partial mid-way; p2 becomes and stays aliased (its
        // half-days merge inside the window).
        for (d1, d2) in [(0xffffu16, 0x00ff), (0x0001, 0xff00), (0xffff, 0x0000)] {
            let w = cfg.window;
            apd.windows
                .entry(p1)
                .or_insert_with(|| WindowState::new(w))
                .push_day(d1);
            apd.windows
                .entry(p2)
                .or_insert_with(|| WindowState::new(w))
                .push_day(d2);
        }

        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, b"APDSTEST", 1).unwrap();
        apd.encode(&mut enc).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(buf.as_slice(), b"APDSTEST", 1).unwrap();
        let back = Apd::decode(cfg.clone(), &mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(back.windows, apd.windows);
        assert_eq!(back.aliased_prefixes(), apd.aliased_prefixes());
        assert_eq!(back.unstable_prefixes(), apd.unstable_prefixes());

        // Resuming under a different window length is a config
        // mismatch, not a valid restore: classification would mix
        // window lengths across prefixes. Must error.
        let mut dec = Decoder::new(buf.as_slice(), b"APDSTEST", 1).unwrap();
        assert!(matches!(
            Apd::decode(ApdConfig { window: 5, ..cfg }, &mut dec),
            Err(CodecError::Corrupt(
                "snapshot window length disagrees with detector config"
            ))
        ));
    }

    /// Detector state as one full envelope, for round-trip replicas.
    fn full_roundtrip(apd: &Apd) -> Apd {
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, b"APDSTEST", 1).unwrap();
        apd.encode(&mut enc).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(buf.as_slice(), b"APDSTEST", 1).unwrap();
        let back = Apd::decode(apd.cfg.clone(), &mut dec).unwrap();
        dec.finish().unwrap();
        back
    }

    /// Push one day into a prefix's window the way `run_day` does,
    /// dirty tracking included.
    fn push(apd: &mut Apd, p: Prefix, merged: u16) {
        let w = apd.cfg.window;
        apd.windows
            .entry(p)
            .or_insert_with(|| WindowState::new(w))
            .push_day(merged);
        apd.dirty.insert(p);
    }

    #[test]
    fn delta_upserts_only_touched_windows() {
        let cfg = ApdConfig {
            window: 3,
            ..ApdConfig::default()
        };
        let mut apd = Apd::new(cfg.clone());
        let p1: Prefix = "2001:db8:1::/48".parse().unwrap();
        let p2: Prefix = "2001:db8:2::/48".parse().unwrap();
        let p3: Prefix = "2001:db8:3::/48".parse().unwrap();
        push(&mut apd, p1, 0x00ff);
        push(&mut apd, p2, 0xffff);
        apd.mark_synced();
        let mut replica = full_roundtrip(&apd);

        // One existing window advances, one brand-new prefix appears;
        // p2 is untouched and must not be in the delta.
        push(&mut apd, p1, 0xff00);
        push(&mut apd, p3, 0xffff);
        assert_eq!(apd.delta_prefixes(), 2);

        let mut delta = Vec::new();
        let mut enc = Encoder::new(&mut delta, b"APDDTEST", 1).unwrap();
        apd.encode_delta(&mut enc).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(delta.as_slice(), b"APDDTEST", 1).unwrap();
        replica.apply_delta(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(replica.windows, apd.windows);
        assert_eq!(replica.aliased_prefixes(), apd.aliased_prefixes());
        assert_eq!(replica.delta_prefixes(), 0, "apply ends at a sync point");

        // A delta saved under a different window length is a config
        // mismatch on apply, exactly like the full snapshot path.
        let mut dec = Decoder::new(delta.as_slice(), b"APDDTEST", 1).unwrap();
        let mut other = Apd::new(ApdConfig {
            window: 5,
            ..cfg.clone()
        });
        assert!(matches!(
            other.apply_delta(&mut dec),
            Err(CodecError::Corrupt(
                "snapshot window length disagrees with detector config"
            ))
        ));
    }

    #[test]
    fn huge_window_field_rejected_without_panic() {
        // Regression: a corrupted window length of u64::MAX used to
        // overflow the `window + 1` guard (debug panic), and a huge
        // `held` used to reach the allocator — both before the
        // checksum check. Crafted streams must error instead.
        for (window, held) in [(u64::MAX, 1usize), (1 << 50, 1 << 30)] {
            let mut buf = Vec::new();
            let mut enc = Encoder::new(&mut buf, b"APDSTEST", 1).unwrap();
            enc.put_len(1).unwrap();
            codec::write_prefix(&mut enc, "2001:db8::/48".parse().unwrap()).unwrap();
            enc.put_u64(window).unwrap();
            enc.put_len(held).unwrap();
            enc.finish().unwrap();
            let mut dec = Decoder::new(buf.as_slice(), b"APDSTEST", 1).unwrap();
            // Truncated day payload: either the guard fires or the read
            // hits EOF — an error either way, never a panic or abort.
            assert!(Apd::decode(ApdConfig::default(), &mut dec).is_err());
        }
    }

    #[test]
    fn overfull_window_rejected() {
        // days held may not exceed window + 1 (3 ⇒ at most 4 days, the
        // default config's window so the length itself passes).
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, b"APDSTEST", 1).unwrap();
        enc.put_len(1).unwrap();
        codec::write_prefix(&mut enc, "2001:db8::/48".parse().unwrap()).unwrap();
        enc.put_u64(3).unwrap();
        enc.put_len(5).unwrap();
        for d in [1u16, 2, 3, 4, 5] {
            enc.put_u16(d).unwrap();
        }
        enc.put_u8(0).unwrap();
        enc.put_u32(0).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(buf.as_slice(), b"APDSTEST", 1).unwrap();
        assert!(matches!(
            Apd::decode(ApdConfig::default(), &mut dec),
            Err(CodecError::Corrupt(
                "window holds more days than its length"
            ))
        ));
    }
}
