//! The Internet checksum (RFC 1071) with the IPv6 pseudo-header (RFC 8200 §8.1).

use std::net::Ipv6Addr;

/// A one's-complement sum in progress.
///
/// Bytes are summed as 32-bit words into `u64`s and folded to 16 bits
/// once per [`Accum::data`] call: `2^16 ≡ 1 (mod 0xffff)`, so a 32-bit
/// word adds the same as its two 16-bit halves, and the wide sum cannot
/// overflow below 2^32 words. The words are read little-endian into four
/// lanes and the folded sum byte-swapped once — the one's-complement sum
/// commutes with byte order (RFC 1071 §2(B)) — because big-endian loads
/// cost a byte shuffle per word and keep the loop from vectorising. The
/// QUIC probe's 1 200-byte Initial is summed twice per probe (at emit and
/// at the receiver's verify).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Accum(u64);

impl Accum {
    /// Fresh accumulator.
    pub(crate) fn new() -> Self {
        Accum(0)
    }

    /// Add a big-endian byte slice, which starts on a 16-bit word
    /// boundary (an odd tail is zero-padded).
    #[inline]
    pub(crate) fn data(self, bytes: &[u8]) -> Self {
        let le = |w: &[u8]| u64::from(u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
        let mut lanes = [0u64; 4];
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane += le(&b[4 * i..4 * i + 4]);
            }
        }
        let mut sum: u64 = lanes.iter().sum();
        let mut words = blocks.remainder().chunks_exact(4);
        for w in &mut words {
            sum += le(w);
        }
        sum += le(&match *words.remainder() {
            [a, b, c] => [a, b, c, 0],
            [a, b] => [a, b, 0, 0],
            [a] => [a, 0, 0, 0],
            _ => [0; 4],
        });
        // A nonzero sum folds to a nonzero word, so a slice adds zero
        // exactly when the 16-bit walk would.
        self.word(fold(sum).swap_bytes())
    }

    /// Add one 16-bit word.
    #[inline]
    pub(crate) fn word(mut self, w: u16) -> Self {
        self.0 += u64::from(w);
        self
    }

    /// Add a 32-bit value (two 16-bit words).
    #[inline]
    pub(crate) fn dword(mut self, d: u32) -> Self {
        self.0 += u64::from(d);
        self
    }

    /// Add the IPv6 pseudo-header for an upper-layer packet.
    #[inline]
    pub(crate) fn pseudo_header(
        self,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        next_header: u8,
        len: u32,
    ) -> Self {
        // An address is four big-endian 32-bit words.
        let words = |a: Ipv6Addr| {
            let v = u128::from(a);
            (0..4)
                .map(|i| u64::from((v >> (32 * i)) as u32))
                .sum::<u64>()
        };
        Accum(self.0 + words(src) + words(dst))
            .dword(len)
            .dword(u32::from(next_header))
    }

    /// Fold and complement into the final checksum value.
    #[inline]
    pub(crate) fn finish(self) -> u16 {
        !fold(self.0)
    }
}

/// `s` folded to 16 bits with end-around carry: congruent to `s` modulo
/// `0xffff`, and zero only if `s` is.
#[inline]
fn fold(mut s: u64) -> u16 {
    while s >> 16 != 0 {
        s = (s & 0xffff) + (s >> 16);
    }
    s as u16
}

/// Checksum of an upper-layer packet (`payload` must contain the transport
/// header with its checksum field zeroed).
#[inline]
pub(crate) fn transport_checksum(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    next_header: u8,
    payload: &[u8],
) -> u16 {
    Accum::new()
        .pseudo_header(src, dst, next_header, payload.len() as u32)
        .data(payload)
        .finish()
}

/// Verify an upper-layer packet whose checksum field is in place: the sum
/// over pseudo-header + payload must fold to zero (i.e. `finish() == 0`
/// before complementing ⇒ complemented result is 0xffff... we check by
/// recomputing).
#[inline]
pub(crate) fn verify_transport(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    next_header: u8,
    payload: &[u8],
) -> bool {
    // Sum including the transmitted checksum must be 0xffff before the
    // final complement; `finish` complements, so the result must be 0.
    Accum::new()
        .pseudo_header(src, dst, next_header, payload.len() as u32)
        .data(payload)
        .finish()
        == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // RFC 1071 example words: 0x0001 0xf203 0xf4f5 0xf6f7 -> sum 0xddf2,
        // checksum = !0xddf2 = 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(Accum::new().data(&data).finish(), 0x220d);
    }

    /// The big-endian 16-bit word walk the wide kernel replaced.
    fn reference(bytes: &[u8]) -> u16 {
        let mut s: u64 = 0;
        let mut words = bytes.chunks_exact(2);
        for w in &mut words {
            s += u64::from(u16::from_be_bytes([w[0], w[1]]));
        }
        if let [last] = words.remainder() {
            s += u64::from(u16::from_be_bytes([*last, 0]));
        }
        while s >> 16 != 0 {
            s = (s & 0xffff) + (s >> 16);
        }
        !(s as u16)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any length up to 2 KiB, odd ones included, random, all-zero or
        /// all-ones bytes (the worst case for carries), whole or split in two
        /// `data` calls at an even offset.
        #[test]
        fn wide_sum_equals_the_16_bit_walk(
            len in 0usize..=2048,
            seed in proptest::prelude::any::<u64>(),
            fill in 0u8..4,
            split in 0usize..=1024,
        ) {
            let bytes: Vec<u8> = match fill {
                0 => vec![0xff; len],
                1 => vec![0; len],
                _ => (0..len).map(|i| (noise(seed ^ i as u64) >> 56) as u8).collect(),
            };
            let want = reference(&bytes);
            proptest::prop_assert_eq!(Accum::new().data(&bytes).finish(), want, "len {}", len);
            let at = (2 * split).min(len & !1);
            let (a, b) = bytes.split_at(at);
            proptest::prop_assert_eq!(Accum::new().data(a).data(b).finish(), want, "split {}", at);
        }
    }

    /// A splitmix64 step: byte noise without a dependency.
    fn noise(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn every_length_up_to_2k_of_all_ones() {
        let ones = [0xffu8; 2049];
        for len in 0..=2048 {
            assert_eq!(
                Accum::new().data(&ones[..len]).finish(),
                reference(&ones[..len]),
                "{len}"
            );
        }
    }

    #[test]
    fn odd_length_padding() {
        // Trailing odd byte acts as high byte of a zero-padded word.
        let a = Accum::new().data(&[0xab]).finish();
        let b = Accum::new().data(&[0xab, 0x00]).finish();
        assert_eq!(a, b);
    }

    #[test]
    fn verify_roundtrip() {
        let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let mut packet = vec![0x80, 0x00, 0x00, 0x00, 0x12, 0x34, 0x00, 0x01, 0xde, 0xad];
        let ck = transport_checksum(src, dst, 58, &packet);
        packet[2..4].copy_from_slice(&ck.to_be_bytes());
        assert!(verify_transport(src, dst, 58, &packet));
        packet[9] ^= 0xff;
        assert!(!verify_transport(src, dst, 58, &packet));
    }

    #[test]
    fn pseudo_header_depends_on_addrs() {
        let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let b: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let payload = [1u8, 2, 3, 4];
        let c1 = transport_checksum(a, b, 6, &payload);
        let c2 = transport_checksum(a, a, 6, &payload);
        assert_ne!(c1, c2);
    }
}
