//! Versioned, checksummed binary codec for snapshot persistence.
//!
//! The paper's hitlist accumulates "indefinitely" (§3) and its service
//! publishes daily files for years; a real deployment must survive
//! restarts without replaying months of probing. This module is the
//! wire layer that makes the interned store durable: a tiny
//! little-endian framing ([`Encoder`]/[`Decoder`]) plus raw-column
//! readers and writers for [`AddrTable`], [`AddrSet`], and [`Prefix`].
//!
//! # Format
//!
//! Every envelope is `magic (8 bytes) · version (u16) · payload ·
//! fnv1a64 checksum (u64)`. The checksum covers the magic, version,
//! and payload, so a flipped bit anywhere — header included — fails
//! [`Decoder::finish`]. All integers are little-endian; collections are
//! length-prefixed (`u64`). Layers above compose their own payloads out
//! of the primitive `put_*`/`get_*` calls inside one shared envelope
//! (see `expanse_core::Pipeline::save_full`); [`write_table`] and
//! [`write_set`] are two such payloads.
//!
//! Corrupted input — truncation, wrong magic, unknown version, a failed
//! checksum, or structurally invalid payloads (duplicate table entries,
//! unsorted set ids, over-long prefixes) — is reported as a
//! [`CodecError`], never a panic.
//!
//! The delta codec backs the incremental snapshot journal (see
//! `docs/SNAPSHOT_FORMAT.md`): [`write_table_suffix`] exploits that ids
//! are never reused, so "the table since the last record" is exactly a
//! suffix of the address column.
//!
//! # Example: a checksummed round-trip
//!
//! ```
//! use expanse_addr::codec::{read_table, write_table, CodecError, Decoder, Encoder};
//! use expanse_addr::AddrTable;
//!
//! let mut table = AddrTable::new();
//! let id = table.intern("2001:db8::1".parse().unwrap());
//!
//! let mut enc = Encoder::new(Vec::new(), b"EXAMPLE1", 1).unwrap();
//! write_table(&mut enc, &table).unwrap();
//! let mut bytes = enc.finish().unwrap();
//! let load = |bytes: &[u8]| -> Result<_, CodecError> {
//!     let mut dec = Decoder::new(bytes, b"EXAMPLE1", 1)?;
//!     let table = read_table(&mut dec)?;
//!     dec.finish()?;
//!     Ok(table)
//! };
//! // Every id comes back exactly as issued before the save…
//! let restored = load(&bytes).unwrap();
//! assert_eq!(restored.addr(id), table.addr(id));
//!
//! // …and a single flipped bit in the stored address (the payload
//! // starts after magic + version + length prefix) fails the checksum.
//! bytes[18] ^= 0x01;
//! assert!(matches!(
//!     load(&bytes),
//!     Err(CodecError::ChecksumMismatch { .. })
//! ));
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    reason = "every decoded byte is untrusted: torn or hostile input must map to Err, not a panic"
)]

use crate::prefix::mask;
use crate::set::AddrSet;
use crate::table::{AddrId, AddrTable};
use crate::Prefix;
use std::fmt;
use std::io::{self, Read, Write};

/// Current snapshot format version, shared by every envelope this
/// workspace writes. Version 2 added the hitlist's per-address
/// last-responsive protocol column; version 3 added the hitlist's
/// per-prefix probe-spend counters and the scheduler section; version
/// 4 left every base payload as it was and re-coded the journal's delta
/// sections to carry what changed — [`Encoder::put_varint`] counts,
/// front-coded [`PrefixRun`]s, gap-coded id runs
/// ([`write_set_gaps`]) and APD day bitmaps instead of whole windows
/// (see `docs/SNAPSHOT_FORMAT.md`). Older journals are regenerated by
/// re-running, not migrated.
pub const CODEC_VERSION: u16 = 4;

/// Reject length prefixes beyond this (2^40 entries) as corruption
/// rather than attempting the allocation.
const MAX_LEN: u64 = 1 << 40;

/// Cap up-front `Vec` reservations while decoding: a corrupted length
/// prefix must hit [`CodecError::Io`] (truncation) before it can ask
/// the allocator for implausible capacity.
const RESERVE_CAP: usize = 1 << 16;

/// A decoding (or I/O) failure. Never a panic: corrupted snapshots are
/// operational input, not programmer error.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure; truncated input surfaces as
    /// [`io::ErrorKind::UnexpectedEof`].
    Io(io::Error),
    /// The stream does not start with the expected magic.
    BadMagic {
        /// What the envelope requires.
        expected: [u8; 8],
        /// What the stream held.
        found: [u8; 8],
    },
    /// The stream's format version is not the one this build reads.
    UnsupportedVersion {
        /// What the stream declared.
        found: u16,
        /// The version this build reads.
        supported: u16,
    },
    /// The trailing checksum does not match the decoded bytes.
    ChecksumMismatch {
        /// Checksum stored in the stream.
        stored: u64,
        /// Checksum of what was actually read.
        computed: u64,
    },
    /// Structurally invalid payload (e.g. duplicate table entries).
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            CodecError::BadMagic { expected, found } => write!(
                f,
                "bad snapshot magic: expected {expected:02x?}, found {found:02x?}"
            ),
            CodecError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {supported})"
            ),
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            CodecError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Verify a complete in-memory envelope's trailing checksum without
/// decoding it: `frame` must be a whole `magic · version · payload ·
/// fnv1a64` envelope. This is the journal replayer's pre-flight check —
/// a frame is applied to live state only after its bytes are known
/// good, so a torn tail can never half-apply.
pub fn envelope_checksum_ok(frame: &[u8]) -> bool {
    // Smallest possible envelope: magic + version + empty payload + checksum.
    if frame.len() < 8 + 2 + 8 {
        return false;
    }
    let Some((body, tail)) = frame.split_last_chunk::<8>() else {
        return false;
    };
    let stored = u64::from_le_bytes(*tail);
    fnv1a64(FNV_OFFSET, body) == stored
}

/// Checksummed little-endian writer: one envelope, primitive `put_*`
/// calls, then [`Encoder::finish`] to seal the checksum.
pub struct Encoder<W: Write> {
    w: W,
    hash: u64,
}

impl<W: Write> Encoder<W> {
    /// Start an envelope: writes `magic` and `version`.
    pub fn new(mut w: W, magic: &[u8; 8], version: u16) -> Result<Self, CodecError> {
        let mut hash = FNV_OFFSET;
        hash = fnv1a64(hash, magic);
        hash = fnv1a64(hash, &version.to_le_bytes());
        w.write_all(magic)?;
        w.write_all(&version.to_le_bytes())?;
        Ok(Encoder { w, hash })
    }

    /// Write raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) -> Result<(), CodecError> {
        self.hash = fnv1a64(self.hash, b);
        self.w.write_all(b)?;
        Ok(())
    }

    /// Write a `u8`.
    pub fn put_u8(&mut self, v: u8) -> Result<(), CodecError> {
        self.put_bytes(&[v])
    }

    /// Write a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) -> Result<(), CodecError> {
        self.put_u8(u8::from(v))
    }

    /// Write a `u16`.
    pub fn put_u16(&mut self, v: u16) -> Result<(), CodecError> {
        self.put_bytes(&v.to_le_bytes())
    }

    /// Write a `u32`.
    pub fn put_u32(&mut self, v: u32) -> Result<(), CodecError> {
        self.put_bytes(&v.to_le_bytes())
    }

    /// Write a `u64`.
    pub fn put_u64(&mut self, v: u64) -> Result<(), CodecError> {
        self.put_bytes(&v.to_le_bytes())
    }

    /// Write a `u128`.
    pub fn put_u128(&mut self, v: u128) -> Result<(), CodecError> {
        self.put_bytes(&v.to_le_bytes())
    }

    /// Write an `f64` by bit pattern (NaN payloads round-trip exactly).
    pub fn put_f64(&mut self, v: f64) -> Result<(), CodecError> {
        self.put_u64(v.to_bits())
    }

    /// Write a collection length prefix.
    pub fn put_len(&mut self, n: usize) -> Result<(), CodecError> {
        self.put_u64(n as u64)
    }

    /// Write a `u64` as a LEB128 `varint`: seven value bits per byte,
    /// least significant group first, the high bit set on every byte
    /// but the last. This writer only ever emits the shortest form,
    /// which is the only one [`Decoder::get_varint`] accepts.
    pub fn put_varint(&mut self, mut v: u64) -> Result<(), CodecError> {
        while v >= 0x80 {
            self.put_u8((v & 0x7f) as u8 | 0x80)?;
            v >>= 7;
        }
        self.put_u8(v as u8)
    }

    /// Seal the envelope: append the checksum and hand the writer back.
    pub fn finish(mut self) -> Result<W, CodecError> {
        let h = self.hash;
        self.w.write_all(&h.to_le_bytes())?;
        Ok(self.w)
    }
}

/// A decoded collection length, unless it is beyond [`MAX_LEN`].
fn plausible_len(n: u64) -> Result<usize, CodecError> {
    if n > MAX_LEN {
        return Err(CodecError::Corrupt("implausible length prefix"));
    }
    Ok(n as usize)
}

/// Checksummed little-endian reader mirroring [`Encoder`].
pub struct Decoder<R: Read> {
    r: R,
    hash: u64,
}

impl<R: Read> Decoder<R> {
    /// Open an envelope: checks `magic` and that the stream's version
    /// is **exactly** `version`. Payload readers hardcode one layout,
    /// so an older stream must be rejected here, not mis-parsed; when a
    /// version bump lands, migration means reading old snapshots with
    /// explicit per-version decode paths, not widening this gate.
    pub fn new(mut r: R, magic: &[u8; 8], version: u16) -> Result<Self, CodecError> {
        let mut found = [0u8; 8];
        r.read_exact(&mut found)?;
        if found != *magic {
            return Err(CodecError::BadMagic {
                expected: *magic,
                found,
            });
        }
        let mut v = [0u8; 2];
        r.read_exact(&mut v)?;
        let stream_version = u16::from_le_bytes(v);
        if stream_version != version {
            return Err(CodecError::UnsupportedVersion {
                found: stream_version,
                supported: version,
            });
        }
        let mut hash = FNV_OFFSET;
        hash = fnv1a64(hash, magic);
        hash = fnv1a64(hash, &v);
        Ok(Decoder { r, hash })
    }

    fn fill(&mut self, buf: &mut [u8]) -> Result<(), CodecError> {
        self.r.read_exact(buf)?;
        self.hash = fnv1a64(self.hash, buf);
        Ok(())
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        let mut b = [0u8; 1];
        self.fill(&mut b)?;
        let [v] = b;
        Ok(v)
    }

    /// Read a `bool`; any byte other than 0/1 is corruption.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("bool byte out of range")),
        }
    }

    /// Read a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        let mut b = [0u8; 2];
        self.fill(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let mut b = [0u8; 4];
        self.fill(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let mut b = [0u8; 8];
        self.fill(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Read a `u128`.
    pub fn get_u128(&mut self) -> Result<u128, CodecError> {
        let mut b = [0u8; 16];
        self.fill(&mut b)?;
        Ok(u128::from_le_bytes(b))
    }

    /// Read an `f64` by bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a collection length prefix, rejecting implausible values.
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        plausible_len(self.get_u64()?)
    }

    /// Read a `varint` written by [`Encoder::put_varint`]. The encoding
    /// is canonical: more than ten bytes, a tenth byte carrying bits
    /// beyond `u64`, and a non-minimal form (a trailing zero group) are
    /// all corruption.
    pub fn get_varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.get_u8()?;
            let group = u64::from(b & 0x7f);
            if shift == 63 && group > 1 {
                return Err(CodecError::Corrupt("varint overflows u64"));
            }
            v |= group << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift != 0 {
                    return Err(CodecError::Corrupt("varint not minimal"));
                }
                return Ok(v);
            }
        }
        Err(CodecError::Corrupt("varint longer than ten bytes"))
    }

    /// Read a collection length written as a `varint`, with the same
    /// plausibility bound as [`Decoder::get_len`].
    pub fn get_varint_len(&mut self) -> Result<usize, CodecError> {
        plausible_len(self.get_varint()?)
    }

    /// How much to `Vec::reserve` for a decoded collection of `n`
    /// entries without trusting the length prefix with the allocator.
    pub fn reserve_hint(n: usize) -> usize {
        n.min(RESERVE_CAP)
    }

    /// Verify the trailing checksum. The stored checksum itself is read
    /// raw (it is not part of its own coverage).
    pub fn finish(mut self) -> Result<R, CodecError> {
        let computed = self.hash;
        let mut b = [0u8; 8];
        self.r.read_exact(&mut b)?;
        let stored = u64::from_le_bytes(b);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }
        Ok(self.r)
    }
}

// ---- raw-column codecs (composable inside a larger envelope) --------

/// Write an [`AddrTable`]'s raw address column. Ids are implicit in
/// the order: entry `i` is the address behind `AddrId` `i`.
pub fn write_table<W: Write>(enc: &mut Encoder<W>, t: &AddrTable) -> Result<(), CodecError> {
    enc.put_len(t.len())?;
    for &v in t.raw() {
        enc.put_u128(v)?;
    }
    Ok(())
}

/// Read a table written by [`write_table`], rebuilding the probe
/// index. Every id comes back exactly as issued before the save.
pub fn read_table<R: Read>(dec: &mut Decoder<R>) -> Result<AddrTable, CodecError> {
    let n = dec.get_len()?;
    if n >= u32::MAX as usize {
        // The table's id space is u32 minus the index sentinel; a
        // larger claimed length must reject as corruption here rather
        // than trip the interner's capacity assert mid-decode.
        return Err(CodecError::Corrupt("table length out of handle range"));
    }
    let mut t = AddrTable::with_capacity(Decoder::<R>::reserve_hint(n));
    for _ in 0..n {
        let v = dec.get_u128()?;
        let (_, inserted) = t.intern_u128(v);
        if !inserted {
            return Err(CodecError::Corrupt("duplicate address in table"));
        }
    }
    Ok(t)
}

/// Write an [`AddrSet`] as its strictly-increasing id run.
pub fn write_set<W: Write>(enc: &mut Encoder<W>, s: &AddrSet) -> Result<(), CodecError> {
    enc.put_len(s.len())?;
    for id in s.iter() {
        enc.put_u32(id.index() as u32)?;
    }
    Ok(())
}

/// Read an [`AddrSet`] written by [`write_set`]; ids must be strictly
/// increasing and within handle range.
pub fn read_set<R: Read>(dec: &mut Decoder<R>) -> Result<AddrSet, CodecError> {
    let n = dec.get_len()?;
    let mut ids = Vec::with_capacity(Decoder::<R>::reserve_hint(n));
    let mut prev: Option<u32> = None;
    for _ in 0..n {
        let v = dec.get_u32()?;
        if v == u32::MAX {
            return Err(CodecError::Corrupt("set id out of handle range"));
        }
        if prev.is_some_and(|p| p >= v) {
            return Err(CodecError::Corrupt("set ids not strictly increasing"));
        }
        prev = Some(v);
        ids.push(AddrId::from_index(v as usize));
    }
    Ok(AddrSet::from_sorted(ids))
}

/// Write a [`Prefix`] as `bits (u128) · len (u8)`.
pub fn write_prefix<W: Write>(enc: &mut Encoder<W>, p: Prefix) -> Result<(), CodecError> {
    enc.put_u128(p.bits())?;
    enc.put_u8(p.len())
}

/// Read a [`Prefix`]; over-long lengths and set host bits are rejected
/// (snapshots only hold canonical, masked prefixes).
pub fn read_prefix<R: Read>(dec: &mut Decoder<R>) -> Result<Prefix, CodecError> {
    let bits = dec.get_u128()?;
    let len = dec.get_u8()?;
    if len > 128 {
        return Err(CodecError::Corrupt("prefix length out of range"));
    }
    if bits & !mask(len) != 0 {
        return Err(CodecError::Corrupt("prefix has host bits set"));
    }
    Ok(Prefix::from_bits(bits, len))
}

// ---- delta codec -----------------------------------------------------

/// Write an [`AddrSet`] as a gap-coded id run: `count` as a varint,
/// the first id as a varint, then `gap − 1` to each next id as a
/// varint. Strictly increasing ids make every gap ≥ 1, so a dense run —
/// a day's responders — costs about a byte an id.
pub fn write_set_gaps<W: Write>(enc: &mut Encoder<W>, s: &AddrSet) -> Result<(), CodecError> {
    enc.put_varint(s.len() as u64)?;
    let mut floor = 0u64;
    for id in s.iter() {
        let v = id.index() as u64;
        enc.put_varint(v - floor)?;
        floor = v + 1;
    }
    Ok(())
}

/// Read an [`AddrSet`] written by [`write_set_gaps`]. Ids come out
/// strictly increasing by construction; one at or past the handle
/// range (`0xffff_ffff`, as in [`read_set`]) is corruption.
pub fn read_set_gaps<R: Read>(dec: &mut Decoder<R>) -> Result<AddrSet, CodecError> {
    let n = dec.get_varint_len()?;
    let mut ids = Vec::with_capacity(Decoder::<R>::reserve_hint(n));
    let mut floor = 0u64;
    for _ in 0..n {
        let v = floor
            .checked_add(dec.get_varint()?)
            .filter(|&v| v < u64::from(u32::MAX))
            .ok_or(CodecError::Corrupt("set id out of handle range"))?;
        ids.push(AddrId::from_index(v as usize));
        floor = v + 1;
    }
    Ok(AddrSet::from_sorted(ids))
}

/// Bytes of a prefix's bits that its length makes significant.
fn significant_bytes(len: u8) -> usize {
    usize::from(len).div_ceil(8)
}

/// Front coding over a strictly ascending run of [`Prefix`]es: each is
/// `len (u8) · shared (u8) · tail`, where `shared` counts the leading
/// bytes of its big-endian bits it has in common with the previous
/// prefix and `tail` is the rest of its `⌈len / 8⌉` significant bytes.
/// Sorted /48s and /64s differ in their last byte or two, so a prefix
/// costs 3–4 bytes instead of [`write_prefix`]'s 17.
///
/// One value carries the run's state on either side — a fresh one per
/// run — so callers can interleave each prefix with its own payload.
/// Order is checked on both sides; the reader also keeps
/// [`read_prefix`]'s range and host-bit checks.
#[derive(Debug, Default)]
pub struct PrefixRun {
    prev: Option<Prefix>,
}

impl PrefixRun {
    /// Start a run.
    pub fn new() -> Self {
        PrefixRun::default()
    }

    /// Refuse a prefix that does not sort strictly after the last one.
    fn advance(&mut self, p: Prefix) -> Result<(), CodecError> {
        if self.prev.is_some_and(|q| q >= p) {
            return Err(CodecError::Corrupt("prefix run not strictly sorted"));
        }
        self.prev = Some(p);
        Ok(())
    }

    /// The previous prefix's big-endian bits and how many of those
    /// bytes are significant (none before the first prefix).
    fn held(&self) -> ([u8; 16], usize) {
        self.prev.map_or(([0; 16], 0), |q| {
            (q.bits().to_be_bytes(), significant_bytes(q.len()))
        })
    }

    /// Write the next prefix of the run, sharing as many leading bytes
    /// with the previous one as both hold.
    pub fn write<W: Write>(&mut self, enc: &mut Encoder<W>, p: Prefix) -> Result<(), CodecError> {
        let (prev, held) = self.held();
        self.advance(p)?;
        let bytes = p.bits().to_be_bytes();
        let n = significant_bytes(p.len());
        let shared = bytes
            .iter()
            .zip(&prev)
            .take(n.min(held))
            .take_while(|(a, b)| a == b)
            .count();
        enc.put_u8(p.len())?;
        enc.put_u8(shared as u8)?;
        enc.put_bytes(bytes.get(shared..n).unwrap_or_default())
    }

    /// Read the next prefix of the run.
    pub fn read<R: Read>(&mut self, dec: &mut Decoder<R>) -> Result<Prefix, CodecError> {
        let len = dec.get_u8()?;
        if len > 128 {
            return Err(CodecError::Corrupt("prefix length out of range"));
        }
        let shared = usize::from(dec.get_u8()?);
        let n = significant_bytes(len);
        let (mut bytes, held) = self.held();
        let tail = match bytes.get_mut(shared..n) {
            Some(tail) if shared <= held => tail,
            _ => {
                return Err(CodecError::Corrupt(
                    "prefix run shares more bytes than its neighbours hold",
                ))
            }
        };
        dec.fill(tail)?;
        // Whatever the previous prefix held past this one's length.
        bytes.iter_mut().skip(n).for_each(|b| *b = 0);
        let bits = u128::from_be_bytes(bytes);
        if bits & !mask(len) != 0 {
            return Err(CodecError::Corrupt("prefix has host bits set"));
        }
        let p = Prefix::from_bits(bits, len);
        self.advance(p)?;
        Ok(p)
    }
}

/// Write the tail of an [`AddrTable`]: every address interned after the
/// first `from` entries, prefixed by `from` itself so the reader can
/// verify the delta is applied to the state it was diffed against.
///
/// This is the append-only building block of the snapshot journal: ids
/// are never reused or reordered, so "the table since the last record"
/// is exactly a suffix of the address column.
pub fn write_table_suffix<W: Write>(
    enc: &mut Encoder<W>,
    t: &AddrTable,
    from: usize,
) -> Result<(), CodecError> {
    assert!(from <= t.len(), "suffix start beyond table length");
    enc.put_len(from)?;
    enc.put_len(t.len() - from)?;
    for &v in t.raw().iter().skip(from) {
        enc.put_u128(v)?;
    }
    Ok(())
}

/// Append a suffix written by [`write_table_suffix`] onto `t`, returning
/// how many addresses were appended. The stored base length must match
/// `t.len()` exactly — a delta replayed against the wrong parent state
/// is corruption, not a best-effort merge — and every appended address
/// must be new to the table.
pub fn read_table_suffix<R: Read>(
    dec: &mut Decoder<R>,
    t: &mut AddrTable,
) -> Result<usize, CodecError> {
    let from = dec.get_len()?;
    if from != t.len() {
        return Err(CodecError::Corrupt("table delta does not follow its base"));
    }
    let n = dec.get_len()?;
    if from.saturating_add(n) >= u32::MAX as usize {
        return Err(CodecError::Corrupt("table length out of handle range"));
    }
    for _ in 0..n {
        let v = dec.get_u128()?;
        let (_, inserted) = t.intern_u128(v);
        if !inserted {
            return Err(CodecError::Corrupt("duplicate address in table suffix"));
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut buf = Vec::new();
        let magic = *b"TESTMAGC";
        let mut enc = Encoder::new(&mut buf, &magic, 1).unwrap();
        enc.put_u8(7).unwrap();
        enc.put_u16(0xbeef).unwrap();
        enc.put_u32(0xdead_beef).unwrap();
        enc.put_u64(u64::MAX - 1).unwrap();
        enc.put_u128(1u128 << 100).unwrap();
        enc.put_f64(f64::NAN).unwrap();
        enc.put_bool(true).unwrap();
        enc.put_len(42).unwrap();
        enc.finish().unwrap();

        let mut dec = Decoder::new(buf.as_slice(), &magic, 1).unwrap();
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert_eq!(dec.get_u16().unwrap(), 0xbeef);
        assert_eq!(dec.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.get_u128().unwrap(), 1u128 << 100);
        assert!(dec.get_f64().unwrap().is_nan());
        assert!(dec.get_bool().unwrap());
        assert_eq!(dec.get_len().unwrap(), 42);
        dec.finish().unwrap();
    }

    #[test]
    fn envelope_checksum_ok_handles_short_and_tampered_frames() {
        // Regression for the length guard: anything shorter than the
        // minimal magic + version + checksum envelope is rejected
        // without slicing, including the empty frame and a frame one
        // byte under the floor.
        assert!(!envelope_checksum_ok(&[]));
        assert!(!envelope_checksum_ok(&[0u8; 17]));

        // Minimal valid envelope: empty payload.
        let mut buf = Vec::new();
        let magic = *b"TESTMAGC";
        Encoder::new(&mut buf, &magic, 1).unwrap().finish().unwrap();
        assert_eq!(buf.len(), 18);
        assert!(envelope_checksum_ok(&buf));

        // Tampering with the stored checksum itself must fail.
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        assert!(!envelope_checksum_ok(&buf));
    }

    #[test]
    fn payload_corruption_fails_checksum() {
        let magic = *b"TESTMAGC";
        let load = |bytes: &[u8]| -> Result<AddrTable, CodecError> {
            let mut dec = Decoder::new(bytes, &magic, 1)?;
            let t = read_table(&mut dec)?;
            dec.finish()?;
            Ok(t)
        };
        let mut t = AddrTable::new();
        t.intern_u128(0x2001_0db8 << 96);
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, &magic, 1).unwrap();
        write_table(&mut enc, &t).unwrap();
        enc.finish().unwrap();
        assert!(load(&buf).is_ok());
        // Flip one bit inside the stored address: the table still
        // decodes structurally (one unique entry), so only the checksum
        // can catch it.
        let in_addr = 8 + 2 + 8 + 3; // magic + version + len prefix + 3
        buf[in_addr] ^= 0x10;
        assert!(matches!(
            load(&buf),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn version_gate() {
        let magic = *b"TESTMAGC";
        let mut buf = Vec::new();
        let enc = Encoder::new(&mut buf, &magic, 2).unwrap();
        enc.finish().unwrap();
        assert!(matches!(
            Decoder::new(buf.as_slice(), &magic, 1),
            Err(CodecError::UnsupportedVersion {
                found: 2,
                supported: 1
            })
        ));
        // Version 0 is never valid.
        buf[8] = 0;
        buf[9] = 0;
        assert!(matches!(
            Decoder::new(buf.as_slice(), &magic, 1),
            Err(CodecError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn table_suffix_roundtrip_and_base_mismatch() {
        let mut t = AddrTable::new();
        t.intern_u128(1);
        t.intern_u128(2);
        let base_len = t.len();
        t.intern_u128(3);
        t.intern_u128(4);

        let magic = *b"TESTMAGC";
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, &magic, 1).unwrap();
        write_table_suffix(&mut enc, &t, base_len).unwrap();
        enc.finish().unwrap();

        // Applied to the matching base: ids line up exactly.
        let mut base = AddrTable::new();
        base.intern_u128(1);
        base.intern_u128(2);
        let mut dec = Decoder::new(buf.as_slice(), &magic, 1).unwrap();
        assert_eq!(read_table_suffix(&mut dec, &mut base).unwrap(), 2);
        dec.finish().unwrap();
        assert_eq!(base.raw(), t.raw());

        // Applied to a base of the wrong length: rejected.
        let mut wrong = AddrTable::new();
        wrong.intern_u128(1);
        let mut dec = Decoder::new(buf.as_slice(), &magic, 1).unwrap();
        assert!(matches!(
            read_table_suffix(&mut dec, &mut wrong),
            Err(CodecError::Corrupt("table delta does not follow its base"))
        ));

        // A suffix carrying an address the base already holds: rejected.
        let mut dup = AddrTable::new();
        dup.intern_u128(9);
        dup.intern_u128(3);
        let mut buf2 = Vec::new();
        let mut enc = Encoder::new(&mut buf2, &magic, 1).unwrap();
        write_table_suffix(&mut enc, &dup, 1).unwrap();
        enc.finish().unwrap();
        let mut clash = AddrTable::new();
        clash.intern_u128(3);
        let mut dec = Decoder::new(buf2.as_slice(), &magic, 1).unwrap();
        assert!(matches!(
            read_table_suffix(&mut dec, &mut clash),
            Err(CodecError::Corrupt("duplicate address in table suffix"))
        ));
    }

    #[test]
    fn prefix_validation() {
        let magic = *b"TESTMAGC";
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, &magic, 1).unwrap();
        // Host bits set beyond /64.
        enc.put_u128(0x2001_0db8 << 96 | 0xff).unwrap();
        enc.put_u8(64).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(buf.as_slice(), &magic, 1).unwrap();
        assert!(matches!(
            read_prefix(&mut dec),
            Err(CodecError::Corrupt("prefix has host bits set"))
        ));
    }
}
