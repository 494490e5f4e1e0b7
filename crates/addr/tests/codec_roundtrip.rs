//! Property-based tests for the snapshot codec: round-trips preserve
//! tables and sets (ids included), and corrupted input — truncation,
//! bad magic, bit flips — errors instead of panicking.

use expanse_addr::codec::{
    self, load_set, load_table, save_set, save_table, CodecError, Decoder, Encoder, CODEC_VERSION,
    SET_MAGIC, TABLE_MAGIC,
};
use expanse_addr::{AddrId, AddrSet, AddrTable, Prefix};
use proptest::prelude::*;

fn table_from(vals: &[u128]) -> AddrTable {
    let mut t = AddrTable::new();
    for &v in vals {
        t.intern_u128(v);
    }
    t
}

proptest! {
    #[test]
    fn table_roundtrip_preserves_ids(vals in proptest::collection::vec(any::<u128>(), 0..300)) {
        let t = table_from(&vals);
        let mut buf = Vec::new();
        save_table(&mut buf, &t).unwrap();
        let back = load_table(buf.as_slice()).unwrap();
        prop_assert_eq!(back.len(), t.len());
        for (id, a) in t.iter() {
            // Same id resolves to the same address, and lookup agrees.
            prop_assert_eq!(back.addr(id), a);
            prop_assert_eq!(back.lookup(a), Some(id));
        }
        // The parallel writer is byte-identical to the serial one. Pad
        // past the writer's serial-fallback threshold so the chunked
        // path really runs.
        let pad = (0..4096u128).map(|i| i << 64 | 1);
        let t = table_from(&vals.iter().copied().chain(pad).collect::<Vec<_>>());
        let mut enc = Encoder::new(Vec::new(), b"PROPTEST", 1).unwrap();
        codec::write_table(&mut enc, &t).unwrap();
        let serial = enc.finish().unwrap();
        for threads in [2usize, 8] {
            let mut enc = Encoder::new(Vec::new(), b"PROPTEST", 1).unwrap();
            codec::write_table_par(&mut enc, &t, threads).unwrap();
            let par = enc.finish().unwrap();
            prop_assert_eq!(&par, &serial, "parallel write diverges at {} threads", threads);
        }
    }

    #[test]
    fn set_roundtrip(ids in proptest::collection::vec(0usize..5000, 0..300)) {
        let s: AddrSet = ids.iter().map(|&i| AddrId::from_index(i)).collect();
        let mut buf = Vec::new();
        save_set(&mut buf, &s).unwrap();
        let back = load_set(buf.as_slice()).unwrap();
        prop_assert_eq!(back, s);
    }

    #[test]
    fn truncation_errors_not_panics(
        vals in proptest::collection::vec(any::<u128>(), 0..50),
        cut in any::<u64>(),
    ) {
        let t = table_from(&vals);
        let mut buf = Vec::new();
        save_table(&mut buf, &t).unwrap();
        let keep = cut as usize % buf.len(); // strictly less than the full length
        prop_assert!(load_table(&buf[..keep]).is_err(), "truncated load must error");
    }

    #[test]
    fn bitflip_never_yields_silent_success(
        vals in proptest::collection::vec(any::<u128>(), 1..50),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let t = table_from(&vals);
        let mut buf = Vec::new();
        save_table(&mut buf, &t).unwrap();
        let at = pos as usize % buf.len();
        buf[at] ^= 1 << bit;
        // Any single-bit corruption must surface as an error: the
        // checksum covers magic, version, and payload, and the trailing
        // checksum bytes themselves then disagree with the computed one.
        prop_assert!(load_table(buf.as_slice()).is_err(), "flipped bit at {at} accepted");
    }

    #[test]
    fn set_bitflip_rejected(
        ids in proptest::collection::vec(0usize..5000, 1..100),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let s: AddrSet = ids.iter().map(|&i| AddrId::from_index(i)).collect();
        let mut buf = Vec::new();
        save_set(&mut buf, &s).unwrap();
        let at = pos as usize % buf.len();
        buf[at] ^= 1 << bit;
        prop_assert!(load_set(buf.as_slice()).is_err());
    }

    #[test]
    fn prefix_roundtrip(bits in any::<u128>(), len in 0u8..=128) {
        let p = Prefix::from_bits(bits, len);
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf, &TABLE_MAGIC, CODEC_VERSION).unwrap();
        codec::write_prefix(&mut enc, p).unwrap();
        enc.finish().unwrap();
        let mut dec = Decoder::new(buf.as_slice(), &TABLE_MAGIC, CODEC_VERSION).unwrap();
        prop_assert_eq!(codec::read_prefix(&mut dec).unwrap(), p);
        dec.finish().unwrap();
    }
}

#[test]
fn bad_magic_rejected() {
    let t = table_from(&[1, 2, 3]);
    let mut buf = Vec::new();
    save_table(&mut buf, &t).unwrap();
    // A set envelope is not a table envelope.
    assert!(matches!(
        load_set(buf.as_slice()),
        Err(CodecError::BadMagic { expected, .. }) if expected == SET_MAGIC
    ));
    // Garbage magic.
    buf[0] ^= 0xff;
    assert!(matches!(
        load_table(buf.as_slice()),
        Err(CodecError::BadMagic { .. })
    ));
}

#[test]
fn empty_input_is_truncation() {
    assert!(matches!(load_table(&[][..]), Err(CodecError::Io(_))));
}

#[test]
fn duplicate_table_entries_rejected() {
    // Hand-craft a table payload with a duplicated address; the
    // checksum is valid, so the structural check must catch it.
    let mut buf = Vec::new();
    let mut enc = Encoder::new(&mut buf, &TABLE_MAGIC, CODEC_VERSION).unwrap();
    enc.put_len(2).unwrap();
    enc.put_u128(77).unwrap();
    enc.put_u128(77).unwrap();
    enc.finish().unwrap();
    assert!(matches!(
        load_table(buf.as_slice()),
        Err(CodecError::Corrupt("duplicate address in table"))
    ));
}

#[test]
fn unsorted_set_rejected() {
    let mut buf = Vec::new();
    let mut enc = Encoder::new(&mut buf, &SET_MAGIC, CODEC_VERSION).unwrap();
    enc.put_len(2).unwrap();
    enc.put_u32(9).unwrap();
    enc.put_u32(4).unwrap();
    enc.finish().unwrap();
    assert!(matches!(
        load_set(buf.as_slice()),
        Err(CodecError::Corrupt("set ids not strictly increasing"))
    ));
}

#[test]
fn table_length_beyond_handle_range_rejected() {
    // A claimed length that fits the generic 2^40 cap but exceeds the
    // u32 id space must reject before the interner's capacity assert
    // could trip mid-decode.
    let mut buf = Vec::new();
    let mut enc = Encoder::new(&mut buf, &TABLE_MAGIC, CODEC_VERSION).unwrap();
    enc.put_u64(u64::from(u32::MAX)).unwrap();
    enc.finish().unwrap();
    assert!(matches!(
        load_table(buf.as_slice()),
        Err(CodecError::Corrupt("table length out of handle range"))
    ));
}

#[test]
fn oversized_length_prefix_rejected() {
    let mut buf = Vec::new();
    let mut enc = Encoder::new(&mut buf, &SET_MAGIC, CODEC_VERSION).unwrap();
    enc.put_u64(u64::MAX).unwrap();
    enc.finish().unwrap();
    assert!(matches!(
        load_set(buf.as_slice()),
        Err(CodecError::Corrupt("implausible length prefix"))
    ));
}
