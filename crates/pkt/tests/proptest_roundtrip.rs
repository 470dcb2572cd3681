//! Property tests: the PFCP encoder must roundtrip arbitrary field values,
//! and the PFCP, NAS and NGAP decoders must never panic on arbitrary bytes.

use l25gc_pkt::{nas, ngap, pfcp, Ipv4Addr};
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
    fn nas_decode_never_panics(bytes in arb_message((0..NAS_TYPES.len()).prop_map(|i| NAS_TYPES[i]), 48)) {
        let _ = nas::NasMessage::decode(&bytes);
    }

    #[test]
    fn ngap_decode_never_panics(bytes in arb_message(1u8..17, 96)) {
        let _ = ngap::NgapMessage::decode(&bytes);
    }
}
