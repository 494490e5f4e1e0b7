//! Property tests: emit/parse roundtrips and checksum tamper detection.

use expanse_packet::{
    tcp::options_text, Datagram, Icmpv6Message, TcpFlags, TcpOption, TcpSegment, TransportView,
    UdpDatagram,
};
use proptest::prelude::*;
use std::net::Ipv6Addr;

fn arb_addr() -> impl Strategy<Value = Ipv6Addr> {
    any::<u128>().prop_map(|v| Ipv6Addr::from(v.to_be_bytes()))
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..256)
}

fn arb_tcp_option() -> impl Strategy<Value = TcpOption> {
    prop_oneof![
        Just(TcpOption::Nop),
        any::<u16>().prop_map(TcpOption::Mss),
        any::<u8>().prop_map(TcpOption::WindowScale),
        Just(TcpOption::SackPermitted),
        (any::<u32>(), any::<u32>())
            .prop_map(|(tsval, tsecr)| TcpOption::Timestamps { tsval, tsecr }),
    ]
}

proptest! {
    #[test]
    fn icmpv6_echo_roundtrip(
        src in arb_addr(), dst in arb_addr(),
        ident in any::<u16>(), seq in any::<u16>(), payload in arb_payload(),
    ) {
        let msg = Icmpv6Message::EchoRequest { ident, seq, payload };
        let bytes = msg.emit(src, dst);
        prop_assert_eq!(Icmpv6Message::parse(src, dst, &bytes).unwrap(), msg);
    }

    #[test]
    fn icmpv6_tamper_detected(
        src in arb_addr(), dst in arb_addr(),
        seq in any::<u16>(), flip_bit in 0usize..64,
    ) {
        let msg = Icmpv6Message::EchoRequest { ident: 1, seq, payload: vec![0; 8] };
        let mut bytes = msg.emit(src, dst);
        let byte = flip_bit / 8 % bytes.len();
        bytes[byte] ^= 1 << (flip_bit % 8);
        // Any single-bit flip must be caught by the Internet checksum.
        prop_assert!(Icmpv6Message::parse(src, dst, &bytes).is_err());
    }

    #[test]
    fn tcp_roundtrip(
        src in arb_addr(), dst in arb_addr(),
        sp in any::<u16>(), dp in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(),
        flags in any::<u8>(), window in any::<u16>(),
        opts in proptest::collection::vec(arb_tcp_option(), 0..5),
        payload in arb_payload(),
    ) {
        let seg = TcpSegment {
            src_port: sp, dst_port: dp, seq, ack,
            flags: TcpFlags(flags), window, urgent: 0,
            options: opts, payload,
        };
        if seg.header_len() > 60 { return Ok(()); }
        let bytes = seg.emit(src, dst);
        let parsed = TcpSegment::parse(src, dst, &bytes).unwrap();
        // Padding may append NOP-invisible bytes, but we only pad with
        // zeros after the declared options, and parsing strips EOL, so the
        // roundtrip must be exact.
        prop_assert_eq!(parsed, seg);
    }

    #[test]
    fn udp_roundtrip(
        src in arb_addr(), dst in arb_addr(),
        sp in any::<u16>(), dp in any::<u16>(), payload in arb_payload(),
    ) {
        let u = UdpDatagram::new(sp, dp, payload);
        let bytes = u.emit(src, dst);
        prop_assert_eq!(UdpDatagram::parse(src, dst, &bytes).unwrap(), u);
    }

    #[test]
    fn full_datagram_roundtrip(
        src in arb_addr(), dst in arb_addr(),
        hop in any::<u8>(), payload in arb_payload(),
    ) {
        let u = UdpDatagram::new(1000, 53, payload);
        let d = Datagram::udp(src, dst, hop, &u);
        let bytes = d.emit();
        let (hdr, t) = Datagram::parse_transport(&bytes).unwrap();
        prop_assert_eq!(hdr.src, src);
        prop_assert_eq!(hdr.dst, dst);
        prop_assert_eq!(hdr.hop_limit, hop);
        match t {
            TransportView::Udp(got) => prop_assert_eq!(got.to_owned(), u),
            other => prop_assert!(false, "wrong transport {:?}", other),
        }
    }

    #[test]
    fn options_text_stable_under_roundtrip(
        src in arb_addr(), dst in arb_addr(),
        opts in proptest::collection::vec(arb_tcp_option(), 0..6),
    ) {
        let seg = TcpSegment {
            options: opts.clone(),
            ..TcpSegment::syn(1, 2, 3)
        };
        if seg.header_len() > 60 { return Ok(()); }
        let parsed = TcpSegment::parse(src, dst, &seg.emit(src, dst)).unwrap();
        prop_assert_eq!(parsed.options_text(), options_text(&opts));
    }
}
