//! Property tests: every wire format must roundtrip arbitrary field values,
//! and parsers must never panic on arbitrary bytes.

use l25gc_pkt::{gtpu, ipv4, nas, ngap, pfcp, tcp, udp, Ipv4Addr};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(Ipv4Addr)
}

/// NAS message type octets `nas::NasMessage::decode` knows.
const NAS_TYPES: [u8; 13] = [
    0x41, 0x42, 0x43, 0x45, 0x46, 0x4c, 0x4e, 0x56, 0x57, 0x5d, 0x5e, 0xc1, 0xc2,
];

/// Arbitrary bytes, half of them behind a known type octet so the
/// decoder gets past its type dispatch.
fn arb_message(known: impl Strategy<Value = u8> + 'static, max: usize) -> BoxedStrategy<Vec<u8>> {
    let tag = prop_oneof![any::<u8>(), known];
    (tag, proptest::collection::vec(any::<u8>(), 0..max))
        .prop_map(|(t, rest)| [vec![t], rest].concat())
        .boxed()
}

proptest! {
    #[test]
    fn ipv4_roundtrips(
        src in arb_addr(),
        dst in arb_addr(),
        protocol in any::<u8>(),
        tos in any::<u8>(),
        ttl in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let repr = ipv4::Repr { src, dst, protocol, tos, ttl, payload_len: payload.len() };
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = ipv4::Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut p);
        p.payload_mut().copy_from_slice(&payload);
        // emit writes checksum before payload; recompute after payload fill
        p.fill_checksum();
        let p = ipv4::Packet::new_checked(&buf[..]).unwrap();
        prop_assert_eq!(ipv4::Repr::parse(&p).unwrap(), repr);
        prop_assert_eq!(p.payload(), &payload[..]);
    }

    #[test]
    fn udp_roundtrips(
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        src in arb_addr(),
        dst in arb_addr(),
    ) {
        let repr = udp::Repr { src_port, dst_port, payload_len: payload.len() };
        let mut buf = vec![0u8; repr.total_len()];
        let mut d = udp::Datagram::new_unchecked(&mut buf[..]);
        repr.emit(&mut d);
        d.payload_mut().copy_from_slice(&payload);
        d.fill_checksum(src, dst);
        let d = udp::Datagram::new_checked(&buf[..]).unwrap();
        prop_assert!(d.verify_checksum(src, dst));
        prop_assert_eq!(udp::Repr::parse(&d), repr);
    }

    #[test]
    fn tcp_roundtrips(
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        seq in any::<u32>(),
        ack_num in any::<u32>(),
        window in any::<u16>(),
        flag_bits in 0u8..32,
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        src in arb_addr(),
        dst in arb_addr(),
    ) {
        let flags = tcp::Flags {
            fin: flag_bits & 1 != 0,
            syn: flag_bits & 2 != 0,
            rst: flag_bits & 4 != 0,
            psh: flag_bits & 8 != 0,
            ack: flag_bits & 16 != 0,
        };
        let repr = tcp::Repr { src_port, dst_port, seq, ack_num, flags, window };
        let mut buf = vec![0u8; tcp::HEADER_LEN + payload.len()];
        let mut s = tcp::Segment::new_unchecked(&mut buf[..]);
        repr.emit(&mut s);
        s.payload_mut().copy_from_slice(&payload);
        s.fill_checksum(src, dst);
        let s = tcp::Segment::new_checked(&buf[..]).unwrap();
        prop_assert!(s.verify_checksum(src, dst));
        prop_assert_eq!(tcp::Repr::parse(&s), repr);
    }

    #[test]
    fn gtpu_roundtrips(
        teid in any::<u32>(),
        seq in proptest::option::of(any::<u16>()),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let repr = gtpu::Repr {
            msg_type: gtpu::MessageType::GPdu,
            teid,
            seq,
            payload_len: payload.len(),
        };
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = gtpu::Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut p);
        p.payload_mut().copy_from_slice(&payload);
        let p = gtpu::Packet::new_checked(&buf[..]).unwrap();
        prop_assert_eq!(gtpu::Repr::parse(&p).unwrap(), repr);
        prop_assert_eq!(p.payload(), &payload[..]);
    }

    #[test]
    fn pfcp_sdf_filter_roundtrips(
        src in arb_addr(),
        src_prefix in 0u8..=32,
        dst in arb_addr(),
        dst_prefix in 0u8..=32,
        sp_min in any::<u16>(),
        sp_len in any::<u16>(),
        dp_min in any::<u16>(),
        dp_len in any::<u16>(),
        protocol in proptest::option::of(any::<u8>()),
        tos in any::<u8>(),
        tos_mask in any::<u8>(),
        spi in proptest::option::of(any::<u32>()),
        flow_label in proptest::option::of(0u32..(1 << 20)),
        filter_id in any::<u32>(),
    ) {
        let filter = pfcp::SdfFilter {
            src_addr: src,
            src_prefix,
            dst_addr: dst,
            dst_prefix,
            src_port: pfcp::PortRange { min: sp_min, max: sp_min.saturating_add(sp_len) },
            dst_port: pfcp::PortRange { min: dp_min, max: dp_min.saturating_add(dp_len) },
            protocol,
            tos,
            tos_mask,
            spi,
            flow_label,
            filter_id,
        };
        let msg = pfcp::Message::session(
            pfcp::MsgType::SessionModificationRequest,
            1,
            1,
            pfcp::IeSet {
                update_pdrs: vec![pfcp::UpdatePdr {
                    pdr_id: 1,
                    precedence: None,
                    pdi: Some(pfcp::Pdi { sdf_filters: vec![filter], ..pfcp::Pdi::default() }),
                    far_id: None,
                }],
                ..pfcp::IeSet::default()
            },
        );
        let bytes = msg.encode();
        prop_assert_eq!(pfcp::Message::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn pfcp_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = pfcp::Message::decode(&bytes);
    }

    #[test]
    fn gtpu_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(p) = gtpu::Packet::new_checked(&bytes[..]) {
            let _ = gtpu::Repr::parse(&p);
        }
    }

    #[test]
    fn nas_decode_never_panics(bytes in arb_message((0..NAS_TYPES.len()).prop_map(|i| NAS_TYPES[i]), 48)) {
        let _ = nas::NasMessage::decode(&bytes);
    }

    #[test]
    fn ngap_decode_never_panics(bytes in arb_message(1u8..17, 96)) {
        let _ = ngap::NgapMessage::decode(&bytes);
    }

    #[test]
    fn ipv4_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(p) = ipv4::Packet::new_checked(&bytes[..]) {
            let _ = ipv4::Repr::parse(&p);
        }
    }
}
