//! Property tests: emit/parse roundtrips and checksum tamper detection.

use expanse_packet::{
    proto, Datagram, Icmpv6Message, TcpFlags, TcpOption, TcpOptionBlock, TcpView, TransportView,
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
        // The kinds that never decode as a known option.
        (
            prop_oneof![5u8..=7, 9u8..=255],
            proptest::collection::vec(any::<u8>(), 0..=6),
        )
            .prop_map(|(kind, data)| TcpOption::Unknown { kind, data }),
    ]
}

/// `opts` as an options block, or `None` past the 40 bytes a TCP
/// header has room for.
fn block(opts: &[TcpOption]) -> Option<TcpOptionBlock> {
    if opts.iter().map(TcpOption::wire_len).sum::<usize>() > 40 {
        return None;
    }
    let mut block = TcpOptionBlock::new();
    for opt in opts {
        block.push(opt);
    }
    Some(block)
}

/// `opt` with its data borrowed, as a parsed segment yields it.
fn borrowed(opt: &TcpOption) -> TcpOption<&[u8]> {
    match opt {
        TcpOption::Eol => TcpOption::Eol,
        TcpOption::Nop => TcpOption::Nop,
        TcpOption::Mss(v) => TcpOption::Mss(*v),
        TcpOption::WindowScale(v) => TcpOption::WindowScale(*v),
        TcpOption::SackPermitted => TcpOption::SackPermitted,
        TcpOption::Timestamps { tsval, tsecr } => TcpOption::Timestamps {
            tsval: *tsval,
            tsecr: *tsecr,
        },
        TcpOption::Unknown { kind, data } => TcpOption::Unknown { kind: *kind, data },
    }
}

/// The optionstext §5.4 gives `opts`, spelled out token by token.
fn expected_text(opts: &[TcpOption]) -> String {
    let token = |opt: &TcpOption| match opt {
        TcpOption::Eol => "E".to_string(),
        TcpOption::Nop => "N".to_string(),
        TcpOption::Mss(_) => "MSS".to_string(),
        TcpOption::WindowScale(_) => "WS".to_string(),
        TcpOption::SackPermitted => "SACK".to_string(),
        TcpOption::Timestamps { .. } => "TS".to_string(),
        TcpOption::Unknown { kind, .. } => format!("U{kind}"),
    };
    opts.iter().map(token).collect::<Vec<_>>().join("-")
}

proptest! {
    #[test]
    fn icmpv6_echo_roundtrip(
        src in arb_addr(), dst in arb_addr(),
        ident in any::<u16>(), seq in any::<u16>(), payload in arb_payload(),
    ) {
        let msg = Icmpv6Message::EchoRequest { ident, seq, payload: &payload[..] };
        let mut bytes = Vec::new();
        msg.emit_into(src, dst, &mut bytes);
        prop_assert_eq!(Icmpv6Message::view(src, dst, &bytes), Ok(msg));
    }

    #[test]
    fn icmpv6_tamper_detected(
        src in arb_addr(), dst in arb_addr(),
        seq in any::<u16>(), flip_bit in 0usize..64,
    ) {
        let msg = Icmpv6Message::EchoRequest { ident: 1, seq, payload: &[0; 8][..] };
        let mut bytes = Vec::new();
        msg.emit_into(src, dst, &mut bytes);
        let byte = flip_bit / 8 % bytes.len();
        bytes[byte] ^= 1 << (flip_bit % 8);
        // Any single-bit flip must be caught by the Internet checksum.
        prop_assert!(Icmpv6Message::view(src, dst, &bytes).is_err());
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
        let Some(block) = block(&opts) else { return Ok(()) };
        let seg = TcpView {
            src_port: sp, dst_port: dp, seq, ack,
            flags: TcpFlags(flags), window, urgent: 0,
            options: block.as_bytes(), payload: &payload,
        };
        let mut bytes = Vec::new();
        seg.emit_into(src, dst, &mut bytes);
        let parsed = TcpView::parse(src, dst, &bytes).unwrap();
        // Emission pads with zeros after the declared options, and
        // parsing stops at that EOL, so the roundtrip must be exact.
        prop_assert_eq!(parsed, seg);
        let want: Vec<_> = opts.iter().map(borrowed).collect();
        prop_assert_eq!(parsed.options().collect::<Vec<_>>(), want);
    }

    #[test]
    fn udp_roundtrip(
        src in arb_addr(), dst in arb_addr(),
        sp in any::<u16>(), dp in any::<u16>(), payload in arb_payload(),
    ) {
        let u = UdpDatagram::new(sp, dp, &payload[..]);
        let mut bytes = Vec::new();
        u.emit_into(src, dst, &mut bytes);
        prop_assert_eq!(UdpDatagram::view(src, dst, &bytes), Ok(u));
    }

    #[test]
    fn full_datagram_roundtrip(
        src in arb_addr(), dst in arb_addr(),
        hop in any::<u8>(), payload in arb_payload(),
    ) {
        let u = UdpDatagram::new(1000, 53, &payload[..]);
        let mut bytes = vec![0xee; 9];
        Datagram::emit_with(&mut bytes, src, dst, proto::UDP, hop, |out| {
            u.emit_into(src, dst, out)
        });
        let (hdr, t) = Datagram::parse_transport(&bytes).unwrap();
        prop_assert_eq!(hdr.src, src);
        prop_assert_eq!(hdr.dst, dst);
        prop_assert_eq!(hdr.hop_limit, hop);
        prop_assert_eq!(hdr.next_header, proto::UDP);
        prop_assert_eq!(usize::from(hdr.payload_len), 8 + payload.len());
        prop_assert_eq!(t, TransportView::Udp(u));
    }

    #[test]
    fn options_text_stable_under_roundtrip(
        src in arb_addr(), dst in arb_addr(),
        opts in proptest::collection::vec(arb_tcp_option(), 0..6),
    ) {
        let Some(block) = block(&opts) else { return Ok(()) };
        let mut bytes = Vec::new();
        TcpView::syn(1, 2, 3, block.as_bytes()).emit_into(src, dst, &mut bytes);
        let parsed = TcpView::parse(src, dst, &bytes).unwrap();
        prop_assert_eq!(parsed.options_text(), expected_text(&opts));
    }
}
