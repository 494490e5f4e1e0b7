//! Snapshot persistence for the aliased-prefix detector.
//!
//! The detector's only long-lived state is the per-prefix sliding
//! window map (the LPM filter is derived from it on demand), so a
//! snapshot stores exactly that: each prefix with its window length,
//! the day bitmaps it currently holds, the previous classification,
//! and the flip counter. Prefixes are written in sorted order — the
//! map's own.
//!
//! A journal delta stores less: per touched prefix, the day bitmaps
//! pushed since the sync point, which the reader feeds through the same
//! [`WindowState::push_day`] the live detector runs — slide,
//! classification and flip counter follow from the replay.

use crate::detector::{Apd, ApdConfig};
use crate::window::WindowState;
use expanse_addr::codec::{self, CodecError, Decoder, Encoder, PrefixRun};
use std::collections::{BTreeMap, VecDeque};
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

/// Decode a stored window length, validating it against the detector
/// configuration.
fn read_window_len<R: Read>(cfg: &ApdConfig, dec: &mut Decoder<R>) -> Result<usize, CodecError> {
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
    Ok(window)
}

/// Decode one window state written by [`write_window`], validating it
/// against the detector configuration.
fn read_window<R: Read>(cfg: &ApdConfig, dec: &mut Decoder<R>) -> Result<WindowState, CodecError> {
    let window = read_window_len(cfg, dec)?;
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
            dirty: BTreeMap::new(),
        })
    }

    /// Declare the current state a journal sync point: the next
    /// [`Apd::encode_delta`] is relative to exactly this state.
    pub fn mark_synced(&mut self) {
        self.dirty.clear();
    }

    /// Serialize what happened to every window touched since the last
    /// sync point into an open delta frame: the window length once,
    /// then per prefix (sorted, front-coded) the day bitmaps pushed
    /// since — the tail of the days it holds. Windows are never
    /// removed, so that is the complete difference. A window pushed
    /// more often than it holds days has lost some of those bitmaps to
    /// the slide; it travels as its full state behind a zero push
    /// count instead, so any number of days between syncs replays
    /// exactly.
    pub fn encode_delta<W: Write>(&self, enc: &mut Encoder<W>) -> Result<(), CodecError> {
        enc.put_u64(self.cfg.window as u64)?;
        enc.put_varint(self.dirty.len() as u64)?;
        let mut run = PrefixRun::new();
        for (p, &pushes) in &self.dirty {
            let Some(w) = self.windows.get(p) else {
                return Err(CodecError::Corrupt("dirty prefix lost its window state"));
            };
            run.write(enc, *p)?;
            match w.days.len().checked_sub(pushes as usize) {
                Some(before) => {
                    enc.put_varint(u64::from(pushes))?;
                    for &d in w.days.iter().skip(before) {
                        enc.put_u16(d)?;
                    }
                }
                None => {
                    enc.put_varint(0)?;
                    write_window(enc, w)?;
                }
            }
        }
        Ok(())
    }

    /// Apply a delta written by [`Apd::encode_delta`]: replay each
    /// carried push through [`WindowState::push_day`] (opening the
    /// window of a prefix first seen since the sync point), or adopt a
    /// full window state where the writer fell back to one. Afterwards
    /// this state *is* the new sync point.
    pub fn apply_delta<R: Read>(&mut self, dec: &mut Decoder<R>) -> Result<(), CodecError> {
        let window = read_window_len(&self.cfg, dec)?;
        let holds = window.saturating_add(1);
        let n = dec.get_varint_len()?;
        let mut run = PrefixRun::new();
        for _ in 0..n {
            let p = run.read(dec)?;
            let pushes = dec.get_varint()?;
            if pushes == 0 {
                let w = read_window(&self.cfg, dec)?;
                // The writer falls back only once more days were
                // pushed than a window holds, which leaves it full.
                if w.days.len() != holds {
                    return Err(CodecError::Corrupt(
                        "full window entry in a delta is not a full window",
                    ));
                }
                self.windows.insert(p, w);
                continue;
            }
            if pushes > holds as u64 {
                return Err(CodecError::Corrupt(
                    "delta pushes more days than a window holds",
                ));
            }
            let w = self
                .windows
                .entry(p)
                .or_insert_with(|| WindowState::new(window));
            for _ in 0..pushes {
                w.push_day(dec.get_u16()?);
            }
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
            apd.push_days([(p1, d1), (p2, d2)]);
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

    /// The detector's pending delta as one sealed envelope.
    fn delta_bytes(apd: &Apd) -> Vec<u8> {
        let mut delta = Vec::new();
        let mut enc = Encoder::new(&mut delta, b"APDDTEST", 1).unwrap();
        apd.encode_delta(&mut enc).unwrap();
        enc.finish().unwrap();
        delta
    }

    fn apply(replica: &mut Apd, delta: &[u8]) -> Result<(), CodecError> {
        let mut dec = Decoder::new(delta, b"APDDTEST", 1).unwrap();
        replica.apply_delta(&mut dec)?;
        dec.finish().map(|_| ())
    }

    #[test]
    fn delta_replays_only_touched_windows() {
        let cfg = ApdConfig {
            window: 3,
            ..ApdConfig::default()
        };
        let mut apd = Apd::new(cfg.clone());
        let p1: Prefix = "2001:db8:1::/48".parse().unwrap();
        let p2: Prefix = "2001:db8:2::/48".parse().unwrap();
        let p3: Prefix = "2001:db8:3::/48".parse().unwrap();
        apd.push_days([(p1, 0x00ff), (p2, 0xffff)]);
        apd.mark_synced();
        let mut replica = full_roundtrip(&apd);

        // One existing window advances, one brand-new prefix appears;
        // p2 is untouched and must not be in the delta.
        apd.push_days([(p1, 0xff00), (p3, 0xffff)]);
        assert_eq!(apd.dirty.len(), 2);

        let delta = delta_bytes(&apd);
        // Envelope (18) + window + count, then per prefix its front
        // coding (8, then 3 bytes), a push count and one bitmap.
        assert_eq!(delta.len(), 18 + 8 + 1 + (8 + 3) + (3 + 3));
        apply(&mut replica, &delta).unwrap();

        assert_eq!(replica.windows, apd.windows);
        assert_eq!(replica.aliased_prefixes(), apd.aliased_prefixes());
        assert_eq!(replica.dirty.len(), 0, "apply ends at a sync point");

        // A delta saved under a different window length is a config
        // mismatch on apply, exactly like the full snapshot path.
        let mut other = Apd::new(ApdConfig {
            window: 5,
            ..cfg.clone()
        });
        assert!(matches!(
            apply(&mut other, &delta),
            Err(CodecError::Corrupt(
                "snapshot window length disagrees with detector config"
            ))
        ));
    }

    #[test]
    fn any_number_of_pushes_between_syncs_replays_exactly() {
        let cfg = ApdConfig {
            window: 2,
            ..ApdConfig::default()
        };
        let old: Prefix = "2001:db8:1::/48".parse().unwrap();
        let new: Prefix = "2001:db8:2::/48".parse().unwrap();
        // Silence until the aliased days slide out, then a full day:
        // `last` and `flips` have something to follow inside the gap.
        let days = [0x0000u16, 0x0000, 0x0000, 0xffff];
        // 1 push, a full window of them, and one more than it holds —
        // the last only the full-entry fallback can carry.
        for gap in [1usize, cfg.window + 1, cfg.window + 2] {
            let mut apd = Apd::new(cfg.clone());
            apd.push_days([(old, 0x0f0f)]);
            apd.push_days([(old, 0xffff)]);
            apd.mark_synced();
            let flips_at_sync = apd.windows[&old].flips();
            let mut replica = full_roundtrip(&apd);
            for &d in &days[..gap] {
                apd.push_days([(old, d), (new, !d)]);
            }
            let delta = delta_bytes(&apd);
            apply(&mut replica, &delta).unwrap();
            assert_eq!(replica.windows, apd.windows, "{gap} pushes between syncs");
            assert_eq!(apd.windows[&old].flips() > flips_at_sync, gap > 1);
        }
    }

    #[test]
    fn dirty_prefix_without_a_window_is_an_encode_error() {
        let mut apd = Apd::new(ApdConfig::default());
        apd.dirty.insert("2001:db8::/48".parse().unwrap(), 1);
        let mut enc = Encoder::new(Vec::new(), b"APDDTEST", 1).unwrap();
        assert!(matches!(
            apd.encode_delta(&mut enc),
            Err(CodecError::Corrupt("dirty prefix lost its window state"))
        ));
    }

    #[test]
    fn crafted_push_counts_and_short_fallbacks_rejected() {
        let cfg = ApdConfig::default();
        let craft = |pushes: u64, body: &dyn Fn(&mut Encoder<&mut Vec<u8>>)| {
            let mut buf = Vec::new();
            let mut enc = Encoder::new(&mut buf, b"APDDTEST", 1).unwrap();
            enc.put_u64(cfg.window as u64).unwrap();
            enc.put_varint(1).unwrap();
            PrefixRun::new()
                .write(&mut enc, "2001:db8::/48".parse().unwrap())
                .unwrap();
            enc.put_varint(pushes).unwrap();
            body(&mut enc);
            enc.finish().unwrap();
            buf
        };
        // More pushes than a window holds: the bitmaps that slid out
        // cannot have been carried, so the count is a lie.
        let over = craft(cfg.window as u64 + 2, &|enc| {
            for _ in 0..cfg.window + 2 {
                enc.put_u16(0xffff).unwrap();
            }
        });
        assert!(matches!(
            apply(&mut Apd::new(cfg.clone()), &over),
            Err(CodecError::Corrupt(
                "delta pushes more days than a window holds"
            ))
        ));
        // A fallback entry whose window is not full never needed to be
        // one.
        let short = craft(0, &|enc| {
            let mut w = WindowState::new(cfg.window);
            w.push_day(0xffff);
            write_window(enc, &w).unwrap();
        });
        assert!(matches!(
            apply(&mut Apd::new(cfg.clone()), &short),
            Err(CodecError::Corrupt(
                "full window entry in a delta is not a full window"
            ))
        ));
        // A huge push count errors on the bound, never loops on it.
        let huge = craft(u64::MAX, &|_| {});
        assert!(apply(&mut Apd::new(cfg.clone()), &huge).is_err());
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
