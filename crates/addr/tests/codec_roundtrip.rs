//! Property-based tests for the snapshot codec: round-trips preserve
//! tables and sets (ids included), and corrupted input — truncation,
//! bad magic, bit flips — errors instead of panicking. The delta
//! primitives (varint, front-coded prefix run, gap-coded id run) are
//! checked against the fixed-width encodings they replace.

use expanse_addr::codec::{self, CodecError, Decoder, Encoder, PrefixRun};
use expanse_addr::{AddrId, AddrSet, AddrTable, Prefix};
use proptest::prelude::*;

fn table_from(vals: &[u128]) -> AddrTable {
    let mut t = AddrTable::new();
    for &v in vals {
        t.intern_u128(v);
    }
    t
}

/// One sealed test envelope around whatever `body` writes.
fn sealed(body: impl FnOnce(&mut Encoder<&mut Vec<u8>>)) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut enc = Encoder::new(&mut buf, b"PROPTEST", 1).unwrap();
    body(&mut enc);
    enc.finish().unwrap();
    buf
}

/// Run `read` over a test envelope and verify its checksum.
fn opened<'a, T>(
    bytes: &'a [u8],
    read: impl FnOnce(&mut Decoder<&'a [u8]>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut dec = Decoder::new(bytes, b"PROPTEST", 1)?;
    let out = read(&mut dec)?;
    dec.finish()?;
    Ok(out)
}

/// Every strict prefix of a valid envelope must error — never panic,
/// never decode.
fn assert_truncations_error<'a, T>(
    bytes: &'a [u8],
    read: impl Fn(&mut Decoder<&'a [u8]>) -> Result<T, CodecError>,
) {
    for cut in 0..bytes.len() {
        assert!(
            opened(&bytes[..cut], &read).is_err(),
            "cut at {cut} of {} decoded",
            bytes.len()
        );
    }
}

/// The values a LEB128 group boundary can get wrong.
fn varint_edges() -> Vec<u64> {
    let mut edges = vec![0, u64::MAX];
    for k in 1..=9u32 {
        let b = 1u64 << (7 * k);
        edges.extend([b - 1, b, b + 1]);
    }
    edges
}

fn read_varints(n: usize) -> impl Fn(&mut Decoder<&[u8]>) -> Result<Vec<u64>, CodecError> {
    move |dec| (0..n).map(|_| dec.get_varint()).collect()
}

/// The pool `crates/trie/tests/oracle.rs` walks: a chain nesting down
/// one address (lengths 0, 1, 127 and 128 included), the sibling
/// diverging from it at each depth, and a few prefixes far from all of
/// them.
fn prefix_pool() -> Vec<Prefix> {
    let spine: u128 = 0x2001_0db8_0407_8000_0123_4567_89ab_cdef;
    let chain = [0u8, 1, 2, 3, 16, 31, 32, 33, 48, 64, 96, 126, 127, 128];
    let mut pool: Vec<Prefix> = chain.iter().map(|&l| Prefix::from_bits(spine, l)).collect();
    for &len in &chain[1..] {
        let flipped = spine ^ (1u128 << (128 - u32::from(len)));
        pool.push(Prefix::from_bits(flipped, len));
    }
    for far in [
        "2a00::/12",
        "2a00:1450::/32",
        "2a00:1450:4001::/48",
        "fe80::/10",
    ] {
        pool.push(far.parse().expect("pool prefix"));
    }
    pool
}

fn read_prefix_run(n: usize) -> impl Fn(&mut Decoder<&[u8]>) -> Result<Vec<Prefix>, CodecError> {
    move |dec| {
        let mut run = PrefixRun::new();
        (0..n).map(|_| run.read(dec)).collect()
    }
}

proptest! {
    #[test]
    fn varint_roundtrip(vals in proptest::collection::vec(any::<u64>(), 0..40), shift in 0u32..64) {
        // Uniform u64s are almost all ten bytes long; shifting some
        // down covers every length.
        let vals: Vec<u64> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 2 == 0 { v >> shift } else { v })
            .chain(varint_edges())
            .collect();
        let bytes = sealed(|enc| vals.iter().for_each(|&v| enc.put_varint(v).unwrap()));
        prop_assert_eq!(opened(&bytes, read_varints(vals.len())).unwrap(), vals.clone());
        // Shortest form: one byte per started group of seven bits.
        let groups = |v: u64| (64 - v.leading_zeros()).max(1).div_ceil(7) as usize;
        prop_assert_eq!(bytes.len() - 18, vals.iter().map(|&v| groups(v)).sum::<usize>());
        assert_truncations_error(&bytes, read_varints(vals.len()));
    }

    #[test]
    fn prefix_run_agrees_with_prefix_list(picks in proptest::collection::vec(any::<u8>(), 0..40)) {
        let pool = prefix_pool();
        let mut prefixes: Vec<Prefix> =
            picks.iter().map(|&i| pool[usize::from(i) % pool.len()]).collect();
        prefixes.sort();
        prefixes.dedup();
        let n = prefixes.len();

        // Oracle: the fixed-width list the run replaces.
        let list = sealed(|enc| prefixes.iter().for_each(|&p| codec::write_prefix(enc, p).unwrap()));
        let from_list = opened(&list, |dec| {
            (0..n).map(|_| codec::read_prefix(dec)).collect::<Result<Vec<_>, _>>()
        })
        .unwrap();
        let run = sealed(|enc| {
            let mut w = PrefixRun::new();
            prefixes.iter().for_each(|&p| w.write(enc, p).unwrap());
        });
        prop_assert_eq!(&opened(&run, read_prefix_run(n)).unwrap(), &from_list);
        prop_assert_eq!(&from_list, &prefixes);
        assert_truncations_error(&run, read_prefix_run(n));

        // The writer refuses what the reader would: the same prefixes
        // out of order (or repeated).
        if n >= 2 {
            let mut w = PrefixRun::new();
            let mut enc = Encoder::new(Vec::new(), b"PROPTEST", 1).unwrap();
            w.write(&mut enc, prefixes[1]).unwrap();
            prop_assert!(matches!(
                w.write(&mut enc, prefixes[0]),
                Err(CodecError::Corrupt("prefix run not strictly sorted"))
            ));
        }
    }

    #[test]
    fn gap_run_agrees_with_id_run(
        ids in proptest::collection::vec(0usize..5000, 0..300),
        high in proptest::collection::vec(0usize..64, 0..4),
    ) {
        // Dense low ids (0 and adjacent pairs included by force), plus a
        // few at the very top of the handle range.
        let s: AddrSet = ids
            .iter()
            .copied()
            .chain([0, 1, 2])
            .chain(high.iter().map(|&h| 0xffff_fffe - h))
            .chain([0xffff_fffe])
            .map(AddrId::from_index)
            .collect();
        let oracle = sealed(|enc| codec::write_set(enc, &s).unwrap());
        let gaps = sealed(|enc| codec::write_set_gaps(enc, &s).unwrap());
        prop_assert_eq!(
            opened(&gaps, codec::read_set_gaps).unwrap(),
            opened(&oracle, codec::read_set).unwrap()
        );
        prop_assert!(gaps.len() < oracle.len());
        assert_truncations_error(&gaps, codec::read_set_gaps);
    }

    #[test]
    fn table_roundtrip_preserves_ids(vals in proptest::collection::vec(any::<u128>(), 0..300)) {
        let t = table_from(&vals);
        let buf = sealed(|enc| codec::write_table(enc, &t).unwrap());
        let back = opened(&buf, codec::read_table).unwrap();
        prop_assert_eq!(back.len(), t.len());
        for (id, a) in t.iter() {
            // Same id resolves to the same address, and lookup agrees.
            prop_assert_eq!(back.addr(id), a);
            prop_assert_eq!(back.lookup(a), Some(id));
        }
        // The writer emits the length and then each address's
        // little-endian bytes in id order.
        let mut enc = Encoder::new(Vec::new(), b"PROPTEST", 1).unwrap();
        codec::write_table(&mut enc, &t).unwrap();
        let written = enc.finish().unwrap();
        let mut enc = Encoder::new(Vec::new(), b"PROPTEST", 1).unwrap();
        enc.put_len(t.len()).unwrap();
        for (_, a) in t.iter() {
            enc.put_bytes(&u128::from(a).to_le_bytes()).unwrap();
        }
        prop_assert_eq!(written, enc.finish().unwrap());
    }

    #[test]
    fn set_roundtrip(ids in proptest::collection::vec(0usize..5000, 0..300)) {
        let s: AddrSet = ids.iter().map(|&i| AddrId::from_index(i)).collect();
        let buf = sealed(|enc| codec::write_set(enc, &s).unwrap());
        let back = opened(&buf, codec::read_set).unwrap();
        prop_assert_eq!(back, s);
    }

    #[test]
    fn truncation_errors_not_panics(
        vals in proptest::collection::vec(any::<u128>(), 0..50),
        cut in any::<u64>(),
    ) {
        let t = table_from(&vals);
        let buf = sealed(|enc| codec::write_table(enc, &t).unwrap());
        let keep = cut as usize % buf.len(); // strictly less than the full length
        prop_assert!(opened(&buf[..keep], codec::read_table).is_err(), "truncated load must error");
    }

    #[test]
    fn bitflip_never_yields_silent_success(
        vals in proptest::collection::vec(any::<u128>(), 1..50),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let t = table_from(&vals);
        let mut buf = sealed(|enc| codec::write_table(enc, &t).unwrap());
        let at = pos as usize % buf.len();
        buf[at] ^= 1 << bit;
        // Any single-bit corruption must surface as an error: the
        // checksum covers magic, version, and payload, and the trailing
        // checksum bytes themselves then disagree with the computed one.
        prop_assert!(opened(&buf, codec::read_table).is_err(), "flipped bit at {at} accepted");
    }

    #[test]
    fn set_bitflip_rejected(
        ids in proptest::collection::vec(0usize..5000, 1..100),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let s: AddrSet = ids.iter().map(|&i| AddrId::from_index(i)).collect();
        let mut buf = sealed(|enc| codec::write_set(enc, &s).unwrap());
        let at = pos as usize % buf.len();
        buf[at] ^= 1 << bit;
        prop_assert!(opened(&buf, codec::read_set).is_err());
    }

    #[test]
    fn prefix_roundtrip(bits in any::<u128>(), len in 0u8..=128) {
        let p = Prefix::from_bits(bits, len);
        let buf = sealed(|enc| codec::write_prefix(enc, p).unwrap());
        prop_assert_eq!(opened(&buf, codec::read_prefix).unwrap(), p);
    }
}

#[test]
fn varint_rejects_every_non_canonical_form() {
    let decode = |raw: &[u8]| opened(&sealed(|enc| enc.put_bytes(raw).unwrap()), read_varints(1));
    // u64::MAX is ten bytes ending in 0x01 …
    let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
    assert_eq!(decode(&max).unwrap(), vec![u64::MAX]);
    // … so a tenth byte carrying more than bit 63 overflows,
    let mut over = max;
    over[9] = 0x02;
    assert!(matches!(
        decode(&over),
        Err(CodecError::Corrupt("varint overflows u64"))
    ));
    // an eleventh byte is too long whatever it holds,
    let mut long = [0x80u8; 11];
    long[10] = 0x00;
    assert!(matches!(
        decode(&long),
        Err(CodecError::Corrupt("varint longer than ten bytes"))
    ));
    // and a trailing zero group is a longer spelling of a shorter value
    // (zero itself is the one-byte 0x00).
    assert_eq!(decode(&[0x00]).unwrap(), vec![0]);
    for padded in [
        &[0x80, 0x00][..],
        &[0xff, 0x80, 0x00],
        &[0x81, 0x80, 0x80, 0x00],
    ] {
        assert!(matches!(
            decode(padded),
            Err(CodecError::Corrupt("varint not minimal"))
        ));
    }
}

#[test]
fn prefix_run_rejects_malformed_entries() {
    let decode = |n: usize, raw: &[u8]| {
        opened(
            &sealed(|enc| enc.put_bytes(raw).unwrap()),
            read_prefix_run(n),
        )
    };
    // 2001:db8::/32, then 2001:db8:1::/48 sharing its four bytes.
    let good = [32, 0, 0x20, 0x01, 0x0d, 0xb8, 48, 4, 0x00, 0x01];
    assert_eq!(
        decode(2, &good).unwrap(),
        vec![
            "2001:db8::/32".parse::<Prefix>().unwrap(),
            "2001:db8:1::/48".parse().unwrap()
        ]
    );
    let corrupt = |raw: &[u8], n: usize, what: &str| match decode(n, raw) {
        Err(CodecError::Corrupt(msg)) => assert_eq!(msg, what),
        other => panic!("{raw:?} decoded to {other:?}"),
    };
    let shares = "prefix run shares more bytes than its neighbours hold";
    // Nothing precedes the first prefix, so it can share nothing.
    corrupt(&[32, 1, 0x01, 0x0d, 0xb8], 1, shares);
    // Five bytes of a /32 that holds four.
    corrupt(&[32, 0, 0x20, 0x01, 0x0d, 0xb8, 48, 5, 0x01], 2, shares);
    // Three bytes into a /16 that holds two.
    corrupt(&[32, 0, 0x20, 0x01, 0x0d, 0xb8, 16, 3], 2, shares);
    corrupt(&[129, 0], 1, "prefix length out of range");
    // A /12 whose second byte has bits below the length.
    corrupt(&[12, 0, 0x2a, 0x0f], 1, "prefix has host bits set");
    // Shared bytes count too: a /28 cannot reuse the /32's 0xb8.
    corrupt(
        &[32, 0, 0x20, 0x01, 0x0d, 0xb8, 28, 4],
        2,
        "prefix has host bits set",
    );
    // Descending, and the same prefix twice.
    let sorted = "prefix run not strictly sorted";
    corrupt(&[32, 0, 0x20, 0x01, 0x0d, 0xb8, 32, 3, 0xb7], 2, sorted);
    corrupt(&[32, 0, 0x20, 0x01, 0x0d, 0xb8, 32, 4], 2, sorted);
}

#[test]
fn gap_run_rejects_ids_out_of_handle_range() {
    let decode = |body: &dyn Fn(&mut Encoder<&mut Vec<u8>>)| {
        opened(&sealed(|enc| body(enc)), codec::read_set_gaps)
    };
    let top = decode(&|enc| {
        enc.put_varint(2).unwrap();
        enc.put_varint(0xffff_fffd).unwrap();
        enc.put_varint(0).unwrap();
    })
    .unwrap();
    assert_eq!(
        top.as_slice(),
        [0xffff_fffd, 0xffff_fffe].map(AddrId::from_index)
    );
    // The sentinel itself, reached directly, by a gap, and by a gap
    // that would wrap a u64.
    for (first, gap) in [
        (0xffff_ffffu64, None),
        (0xffff_fffe, Some(0)),
        (5, Some(u64::MAX)),
    ] {
        let r = decode(&|enc| {
            enc.put_varint(1 + u64::from(gap.is_some())).unwrap();
            enc.put_varint(first).unwrap();
            if let Some(g) = gap {
                enc.put_varint(g).unwrap();
            }
        });
        assert!(
            matches!(r, Err(CodecError::Corrupt("set id out of handle range"))),
            "first {first} gap {gap:?}: {r:?}"
        );
    }
    // A count no journal could back errors at the first missing byte;
    // it is never handed to the allocator.
    for count in [1u64 << 40, (1 << 40) + 1, u64::MAX] {
        assert!(decode(&|enc| enc.put_varint(count).unwrap()).is_err());
    }
}

#[test]
fn bad_magic_rejected() {
    let t = table_from(&[1, 2, 3]);
    let mut buf = sealed(|enc| codec::write_table(enc, &t).unwrap());
    // An envelope of another kind is not this one.
    assert!(matches!(
        Decoder::new(buf.as_slice(), b"OTHERENV", 1),
        Err(CodecError::BadMagic { expected, .. }) if expected == *b"OTHERENV"
    ));
    // Garbage magic.
    buf[0] ^= 0xff;
    assert!(matches!(
        opened(&buf, codec::read_table),
        Err(CodecError::BadMagic { .. })
    ));
}

#[test]
fn empty_input_is_truncation() {
    assert!(matches!(
        opened(&[], codec::read_table),
        Err(CodecError::Io(_))
    ));
}

#[test]
fn duplicate_table_entries_rejected() {
    // Hand-craft a table payload with a duplicated address; the
    // checksum is valid, so the structural check must catch it.
    let buf = sealed(|enc| {
        enc.put_len(2).unwrap();
        enc.put_u128(77).unwrap();
        enc.put_u128(77).unwrap();
    });
    assert!(matches!(
        opened(&buf, codec::read_table),
        Err(CodecError::Corrupt("duplicate address in table"))
    ));
}

#[test]
fn unsorted_set_rejected() {
    let buf = sealed(|enc| {
        enc.put_len(2).unwrap();
        enc.put_u32(9).unwrap();
        enc.put_u32(4).unwrap();
    });
    assert!(matches!(
        opened(&buf, codec::read_set),
        Err(CodecError::Corrupt("set ids not strictly increasing"))
    ));
}

#[test]
fn table_length_beyond_handle_range_rejected() {
    // A claimed length that fits the generic 2^40 cap but exceeds the
    // u32 id space must reject before the interner's capacity assert
    // could trip mid-decode.
    let buf = sealed(|enc| enc.put_u64(u64::from(u32::MAX)).unwrap());
    assert!(matches!(
        opened(&buf, codec::read_table),
        Err(CodecError::Corrupt("table length out of handle range"))
    ));
}

#[test]
fn oversized_length_prefix_rejected() {
    let buf = sealed(|enc| enc.put_u64(u64::MAX).unwrap());
    assert!(matches!(
        opened(&buf, codec::read_set),
        Err(CodecError::Corrupt("implausible length prefix"))
    ));
}
