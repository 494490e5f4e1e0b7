//! Address segmentation by entropy profile (Entropy/IP step 1).
//!
//! Foremski et al. split the 32 nybbles into contiguous segments of
//! homogeneous entropy. We classify each nybble's normalized entropy into
//! bands (constant / low / medium / high) and cut segments at band
//! changes or large jumps, capping segment length so segment values fit
//! in a `u64`.

use expanse_addr::nybbles::nybble;
use expanse_stats::entropy::normalized_entropy16;
use std::net::Ipv6Addr;

/// Entropy band of a nybble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// H < 0.025 — effectively constant.
    Constant,
    /// H < 0.3.
    Low,
    /// H < 0.8.
    Medium,
    /// H ≥ 0.8.
    High,
}

impl Band {
    /// Classify a normalized entropy value into its band.
    pub(crate) fn of(h: f64) -> Band {
        if h < 0.025 {
            Band::Constant
        } else if h < 0.3 {
            Band::Low
        } else if h < 0.8 {
            Band::Medium
        } else {
            Band::High
        }
    }
}

/// One segment: nybbles `start..start+len` (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First nybble of the segment (0-based).
    pub start: usize,
    /// Length in nybbles.
    pub len: usize,
    /// Entropy band of the segment.
    pub band: Band,
}

/// Maximum segment length in nybbles (values fit in u64: 16 nybbles).
pub(crate) const MAX_SEGMENT_LEN: usize = 8;

/// Per-nybble entropy profile of a seed set.
pub fn entropy_profile(addrs: &[Ipv6Addr]) -> [f64; 32] {
    let mut out = [0.0; 32];
    for (j, slot) in out.iter_mut().enumerate() {
        let mut counts = [0u64; 16];
        for a in addrs {
            counts[usize::from(nybble(*a, j))] += 1;
        }
        *slot = normalized_entropy16(&counts);
    }
    out
}

/// Segment the address space given a seed set.
///
/// # Panics
/// Panics if `addrs` is empty.
pub fn segment(addrs: &[Ipv6Addr]) -> Vec<Segment> {
    assert!(!addrs.is_empty(), "cannot segment an empty seed set");
    let profile = entropy_profile(addrs);
    let mut segments: Vec<Segment> = Vec::new();
    let mut start = 0usize;
    let mut band = Band::of(profile[0]);
    for j in 1..32 {
        let b = Band::of(profile[j]);
        let jump = (profile[j] - profile[j - 1]).abs() > 0.3;
        if b != band || jump || j - start >= MAX_SEGMENT_LEN {
            segments.push(Segment {
                start,
                len: j - start,
                band,
            });
            start = j;
            band = b;
        }
    }
    segments.push(Segment {
        start,
        len: 32 - start,
        band,
    });
    segments
}

/// Extract a segment's value from an address.
pub(crate) fn segment_value(addr: Ipv6Addr, seg: &Segment) -> u64 {
    let mut v = 0u64;
    for j in seg.start..seg.start + seg.len {
        v = (v << 4) | u64::from(nybble(addr, j));
    }
    v
}

/// Write a segment value into a partial address (u128, left-aligned).
pub(crate) fn apply_segment(bits: u128, seg: &Segment, value: u64) -> u128 {
    let width = 4 * seg.len as u32;
    let shift = 128 - 4 * seg.start as u32 - width;
    let mask = if width >= 128 {
        u128::MAX
    } else {
        ((1u128 << width) - 1) << shift
    };
    (bits & !mask) | ((u128::from(value) << shift) & mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_addr::u128_to_addr;

    fn counters() -> Vec<Ipv6Addr> {
        (1..=200u128)
            .map(|i| u128_to_addr((0x2001_0db8u128 << 96) | i))
            .collect()
    }

    #[test]
    fn segments_cover_all_nybbles() {
        let segs = segment(&counters());
        let total: usize = segs.iter().map(|s| s.len).sum();
        assert_eq!(total, 32);
        // Contiguous.
        let mut pos = 0;
        for s in &segs {
            assert_eq!(s.start, pos);
            assert!(s.len <= MAX_SEGMENT_LEN);
            pos += s.len;
        }
    }

    #[test]
    fn counter_tail_is_its_own_segment() {
        let segs = segment(&counters());
        // The last segment must not be Constant (counter bits live there).
        let last = segs.last().unwrap();
        assert_ne!(last.band, Band::Constant, "{segs:?}");
        // And the bulk of the address is constant.
        let constant_len: usize = segs
            .iter()
            .filter(|s| s.band == Band::Constant)
            .map(|s| s.len)
            .sum();
        assert!(constant_len >= 24, "{segs:?}");
    }

    #[test]
    fn value_roundtrip() {
        let segs = segment(&counters());
        let addr = counters()[41];
        let mut bits = 0u128;
        for s in &segs {
            bits = apply_segment(bits, s, segment_value(addr, s));
        }
        assert_eq!(u128_to_addr(bits), addr);
    }

    #[test]
    fn apply_segment_is_local() {
        let seg = Segment {
            start: 4,
            len: 4,
            band: Band::Low,
        };
        let bits = apply_segment(u128::MAX, &seg, 0);
        let addr = u128_to_addr(bits);
        for j in 0..32 {
            let want = if (4..8).contains(&j) { 0 } else { 0xf };
            assert_eq!(nybble(addr, j), want, "nybble {j}");
        }
    }

    #[test]
    fn bands() {
        assert_eq!(Band::of(0.0), Band::Constant);
        assert_eq!(Band::of(0.1), Band::Low);
        assert_eq!(Band::of(0.5), Band::Medium);
        assert_eq!(Band::of(0.95), Band::High);
    }
}
