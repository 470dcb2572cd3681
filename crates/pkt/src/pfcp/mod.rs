//! PFCP — Packet Forwarding Control Protocol (3GPP TS 29.244).
//!
//! The N4 interface between SMF (CP function) and UPF (UP function). The
//! paper keeps PFCP as the N4 message format in L²5GC — only the transport
//! underneath changes from a kernel UDP socket to shared memory — so the
//! same encoder/decoder serves both the free5GC baseline and L²5GC.

pub(crate) mod header;
pub(crate) mod ie;

pub(crate) use header::Header;
pub use header::MsgType;
pub use ie::{
    ApplyAction, Cause, CreateFar, CreatePdr, CreateQer, FTeid, ForwardingParameters, IeSet,
    Interface, OuterHeaderCreation, Pdi, PortRange, SdfFilter, UeIpAddress, UpdateFar, UpdatePdr,
};

use crate::error::Result;

/// A complete PFCP message: header plus decoded IE body.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Message type; decides header shape and meaningful IEs.
    pub msg_type: MsgType,
    /// SEID for session-scoped messages.
    pub seid: Option<u64>,
    /// 24-bit transaction sequence number.
    pub seq: u32,
    /// Body IEs.
    pub ies: IeSet,
}

impl Message {
    /// Creates a session-scoped message.
    pub fn session(msg_type: MsgType, seid: u64, seq: u32, ies: IeSet) -> Message {
        debug_assert!(msg_type.is_session());
        Message {
            msg_type,
            seid: Some(seid),
            seq,
            ies,
        }
    }

    /// Creates a node-scoped message.
    pub fn node(msg_type: MsgType, seq: u32, ies: IeSet) -> Message {
        debug_assert!(!msg_type.is_session());
        Message {
            msg_type,
            seid: None,
            seq,
            ies,
        }
    }

    /// Encodes the whole message to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        self.ies.encode(&mut body);
        let header = Header {
            msg_type: self.msg_type,
            seid: self.seid,
            seq: self.seq,
            body_len: body.len(),
        };
        let mut out = vec![0u8; header.header_len() + body.len()];
        let off = header.emit(&mut out).expect("sized buffer");
        out[off..].copy_from_slice(&body);
        out
    }

    /// Decodes a message from bytes.
    pub fn decode(buf: &[u8]) -> Result<Message> {
        let (header, off) = Header::parse(buf)?;
        let body = &buf[off..off + header.body_len];
        let ies = IeSet::decode(body)?;
        Ok(Message {
            msg_type: header.msg_type,
            seid: header.seid,
            seq: header.seq,
            ies,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Addr;

    #[test]
    fn session_establishment_request_roundtrip() {
        let msg = Message::session(
            MsgType::SessionEstablishmentRequest,
            0x55,
            1,
            IeSet {
                node_id: Some(Ipv4Addr::new(10, 200, 200, 1)),
                f_seid: Some((0x55, Ipv4Addr::new(10, 200, 200, 1))),
                create_pdrs: vec![CreatePdr {
                    pdr_id: 1,
                    precedence: 255,
                    pdi: Pdi {
                        source_interface: Some(Interface::Access),
                        f_teid: Some(FTeid {
                            teid: 1,
                            addr: Ipv4Addr::new(10, 200, 200, 102),
                        }),
                        ..Pdi::default()
                    },
                    outer_header_removal: true,
                    far_id: 1,
                    qer_ids: vec![],
                }],
                create_fars: vec![CreateFar {
                    far_id: 1,
                    apply_action: ApplyAction::FORW,
                    forwarding: Some(ForwardingParameters {
                        dest_interface: Interface::Core,
                        outer_header_creation: None,
                    }),
                }],
                ..IeSet::default()
            },
        );
        let bytes = msg.encode();
        assert_eq!(Message::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn heartbeat_roundtrip() {
        let msg = Message::node(MsgType::HeartbeatRequest, 7, IeSet::default());
        let bytes = msg.encode();
        assert_eq!(Message::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn session_report_request_roundtrip() {
        let msg = Message::session(
            MsgType::SessionReportRequest,
            0x99,
            3,
            IeSet {
                report_downlink_data: true,
                downlink_data_pdr: Some(2),
                ..IeSet::default()
            },
        );
        let bytes = msg.encode();
        let parsed = Message::decode(&bytes).unwrap();
        assert_eq!(parsed, msg);
        assert!(parsed.ies.report_downlink_data);
    }

    #[test]
    fn response_with_cause_roundtrip() {
        let msg = Message::session(
            MsgType::SessionModificationResponse,
            0x42,
            9,
            IeSet {
                cause: Some(Cause::Accepted),
                ..IeSet::default()
            },
        );
        let bytes = msg.encode();
        assert_eq!(Message::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn decode_garbage_fails_cleanly() {
        assert!(Message::decode(&[0u8; 3]).is_err());
        assert!(Message::decode(&[0xff; 64]).is_err());
    }
}
