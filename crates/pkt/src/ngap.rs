//! Simplified NGAP (NG Application Protocol) messages, 3GPP TS 38.413.
//!
//! NGAP runs on the N2 interface between gNB and AMF (over SCTP in real
//! deployments; the paper's UE/RAN simulator speaks exactly this). We model
//! the procedures the paper evaluates — initial UE registration, PDU
//! session resource setup, N2 handover, paging and UE context release — as
//! a typed enum with a compact binary encoding (full ASN.1 PER is out of
//! scope and irrelevant to the latency mechanisms under study).

use crate::error::{Error, Result};
use crate::nas::NasMessage;

/// Identifies a UE within NGAP signalling (RAN/AMF UE NGAP id pair,
/// collapsed to one id in this model).
pub(crate) type UeNgapId = u64;
/// Identifies a gNB.
pub(crate) type GnbId = u32;

/// Tunnel info handed around during session setup and handover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunnelInfo {
    /// Tunnel endpoint id.
    pub teid: u32,
    /// Endpoint IPv4 address (big-endian u32 form).
    pub addr: u32,
}

/// An NGAP message on the N2 interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NgapMessage {
    /// gNB → AMF: first uplink NAS message from a UE.
    InitialUeMessage {
        /// NGAP UE id.
        ue: UeNgapId,
        /// Originating gNB.
        gnb: GnbId,
        /// Piggybacked NAS PDU.
        nas: NasMessage,
    },
    /// AMF → gNB: downlink NAS transport.
    DownlinkNasTransport {
        /// NGAP UE id.
        ue: UeNgapId,
        /// Piggybacked NAS PDU.
        nas: NasMessage,
    },
    /// gNB → AMF: uplink NAS transport.
    UplinkNasTransport {
        /// NGAP UE id.
        ue: UeNgapId,
        /// Piggybacked NAS PDU.
        nas: NasMessage,
    },
    /// AMF → gNB: establish the UE context (ends registration).
    InitialContextSetupRequest {
        /// NGAP UE id.
        ue: UeNgapId,
        /// Piggybacked NAS PDU (Registration Accept).
        nas: NasMessage,
    },
    /// gNB → AMF: context established.
    InitialContextSetupResponse {
        /// NGAP UE id.
        ue: UeNgapId,
    },
    /// AMF → gNB: set up data radio bearers + N3 tunnel for a session.
    PduSessionResourceSetupRequest {
        /// NGAP UE id.
        ue: UeNgapId,
        /// PDU session id.
        session_id: u8,
        /// UPF-side tunnel endpoint for uplink.
        uplink_tunnel: TunnelInfo,
        /// Piggybacked NAS PDU (PDU Session Establishment Accept).
        nas: NasMessage,
    },
    /// gNB → AMF: bearer ready; carries the gNB's downlink tunnel endpoint.
    PduSessionResourceSetupResponse {
        /// NGAP UE id.
        ue: UeNgapId,
        /// PDU session id.
        session_id: u8,
        /// gNB-side tunnel endpoint for downlink.
        downlink_tunnel: TunnelInfo,
    },
    /// Source gNB → AMF: UE should be handed over.
    HandoverRequired {
        /// NGAP UE id.
        ue: UeNgapId,
        /// Target gNB.
        target_gnb: GnbId,
    },
    /// AMF → target gNB: prepare resources for an incoming UE.
    HandoverRequest {
        /// NGAP UE id.
        ue: UeNgapId,
        /// PDU session id being moved.
        session_id: u8,
        /// UPF-side uplink tunnel the target should use.
        uplink_tunnel: TunnelInfo,
    },
    /// Target gNB → AMF: resources ready; carries the target's DL endpoint.
    HandoverRequestAcknowledge {
        /// NGAP UE id.
        ue: UeNgapId,
        /// PDU session id.
        session_id: u8,
        /// Target gNB's downlink tunnel endpoint.
        downlink_tunnel: TunnelInfo,
    },
    /// AMF → source gNB: execute the handover.
    HandoverCommand {
        /// NGAP UE id.
        ue: UeNgapId,
        /// Target gNB.
        target_gnb: GnbId,
    },
    /// Target gNB → AMF: UE has arrived on the target cell.
    HandoverNotify {
        /// NGAP UE id.
        ue: UeNgapId,
        /// The gNB the UE now camps on.
        gnb: GnbId,
    },
    /// AMF → gNB: page an idle UE.
    Paging {
        /// Temporary identity to page.
        guti: u64,
    },
    /// gNB → AMF: request release of an idle UE's context.
    UeContextReleaseRequest {
        /// NGAP UE id.
        ue: UeNgapId,
    },
    /// AMF → gNB: release the UE context.
    UeContextReleaseCommand {
        /// NGAP UE id.
        ue: UeNgapId,
    },
    /// gNB → AMF: context released.
    UeContextReleaseComplete {
        /// NGAP UE id.
        ue: UeNgapId,
    },
}

impl NgapMessage {
    fn discriminant(&self) -> u8 {
        use NgapMessage::*;
        match self {
            InitialUeMessage { .. } => 1,
            DownlinkNasTransport { .. } => 2,
            UplinkNasTransport { .. } => 3,
            InitialContextSetupRequest { .. } => 4,
            InitialContextSetupResponse { .. } => 5,
            PduSessionResourceSetupRequest { .. } => 6,
            PduSessionResourceSetupResponse { .. } => 7,
            HandoverRequired { .. } => 8,
            HandoverRequest { .. } => 9,
            HandoverRequestAcknowledge { .. } => 10,
            HandoverCommand { .. } => 11,
            HandoverNotify { .. } => 12,
            Paging { .. } => 13,
            UeContextReleaseRequest { .. } => 14,
            UeContextReleaseCommand { .. } => 15,
            UeContextReleaseComplete { .. } => 16,
        }
    }

    /// Encodes to bytes: `[type, fields..., nas?]`.
    pub(crate) fn encode(&self) -> Vec<u8> {
        use NgapMessage::*;
        let mut out = vec![self.discriminant()];
        let put_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_be_bytes());
        let put_u32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_be_bytes());
        let put_tun = |out: &mut Vec<u8>, t: &TunnelInfo| {
            out.extend_from_slice(&t.teid.to_be_bytes());
            out.extend_from_slice(&t.addr.to_be_bytes());
        };
        let put_nas = |out: &mut Vec<u8>, nas: &NasMessage| {
            let enc = nas.encode();
            out.extend_from_slice(&(enc.len() as u16).to_be_bytes());
            out.extend_from_slice(&enc);
        };
        match self {
            InitialUeMessage { ue, gnb, nas } => {
                put_u64(&mut out, *ue);
                put_u32(&mut out, *gnb);
                put_nas(&mut out, nas);
            }
            DownlinkNasTransport { ue, nas }
            | UplinkNasTransport { ue, nas }
            | InitialContextSetupRequest { ue, nas } => {
                put_u64(&mut out, *ue);
                put_nas(&mut out, nas);
            }
            InitialContextSetupResponse { ue }
            | UeContextReleaseRequest { ue }
            | UeContextReleaseCommand { ue }
            | UeContextReleaseComplete { ue } => put_u64(&mut out, *ue),
            PduSessionResourceSetupRequest {
                ue,
                session_id,
                uplink_tunnel,
                nas,
            } => {
                put_u64(&mut out, *ue);
                out.push(*session_id);
                put_tun(&mut out, uplink_tunnel);
                put_nas(&mut out, nas);
            }
            PduSessionResourceSetupResponse {
                ue,
                session_id,
                downlink_tunnel,
            } => {
                put_u64(&mut out, *ue);
                out.push(*session_id);
                put_tun(&mut out, downlink_tunnel);
            }
            HandoverRequired { ue, target_gnb } => {
                put_u64(&mut out, *ue);
                put_u32(&mut out, *target_gnb);
            }
            HandoverRequest {
                ue,
                session_id,
                uplink_tunnel,
            } => {
                put_u64(&mut out, *ue);
                out.push(*session_id);
                put_tun(&mut out, uplink_tunnel);
            }
            HandoverRequestAcknowledge {
                ue,
                session_id,
                downlink_tunnel,
            } => {
                put_u64(&mut out, *ue);
                out.push(*session_id);
                put_tun(&mut out, downlink_tunnel);
            }
            HandoverCommand { ue, target_gnb } => {
                put_u64(&mut out, *ue);
                put_u32(&mut out, *target_gnb);
            }
            HandoverNotify { ue, gnb } => {
                put_u64(&mut out, *ue);
                put_u32(&mut out, *gnb);
            }
            Paging { guti } => put_u64(&mut out, *guti),
        }
        out
    }

    /// Decodes from bytes produced by [`NgapMessage::encode`].
    pub fn decode(buf: &[u8]) -> Result<NgapMessage> {
        use NgapMessage::*;
        let (&ty, rest) = buf.split_first().ok_or(Error::Truncated)?;
        let mut r = Reader { buf: rest };
        Ok(match ty {
            1 => InitialUeMessage {
                ue: r.u64()?,
                gnb: r.u32()?,
                nas: r.nas()?,
            },
            2 => DownlinkNasTransport {
                ue: r.u64()?,
                nas: r.nas()?,
            },
            3 => UplinkNasTransport {
                ue: r.u64()?,
                nas: r.nas()?,
            },
            4 => InitialContextSetupRequest {
                ue: r.u64()?,
                nas: r.nas()?,
            },
            5 => InitialContextSetupResponse { ue: r.u64()? },
            6 => PduSessionResourceSetupRequest {
                ue: r.u64()?,
                session_id: r.u8()?,
                uplink_tunnel: r.tunnel()?,
                nas: r.nas()?,
            },
            7 => PduSessionResourceSetupResponse {
                ue: r.u64()?,
                session_id: r.u8()?,
                downlink_tunnel: r.tunnel()?,
            },
            8 => HandoverRequired {
                ue: r.u64()?,
                target_gnb: r.u32()?,
            },
            9 => HandoverRequest {
                ue: r.u64()?,
                session_id: r.u8()?,
                uplink_tunnel: r.tunnel()?,
            },
            10 => HandoverRequestAcknowledge {
                ue: r.u64()?,
                session_id: r.u8()?,
                downlink_tunnel: r.tunnel()?,
            },
            11 => HandoverCommand {
                ue: r.u64()?,
                target_gnb: r.u32()?,
            },
            12 => HandoverNotify {
                ue: r.u64()?,
                gnb: r.u32()?,
            },
            13 => Paging { guti: r.u64()? },
            14 => UeContextReleaseRequest { ue: r.u64()? },
            15 => UeContextReleaseCommand { ue: r.u64()? },
            16 => UeContextReleaseComplete { ue: r.u64()? },
            _ => return Err(Error::UnknownType),
        })
    }

    /// Encoded size in bytes, used by channel cost models.
    pub fn wire_len(&self) -> usize {
        self.encode().len()
    }
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(Error::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn tunnel(&mut self) -> Result<TunnelInfo> {
        Ok(TunnelInfo {
            teid: self.u32()?,
            addr: self.u32()?,
        })
    }

    fn nas(&mut self) -> Result<NasMessage> {
        let len = usize::from(u16::from_be_bytes(self.take(2)?.try_into().expect("2")));
        NasMessage::decode(self.take(len)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<NgapMessage> {
        use NgapMessage::*;
        let tun = TunnelInfo {
            teid: 0x100,
            addr: 0x0ac8_c866,
        };
        vec![
            InitialUeMessage {
                ue: 1,
                gnb: 10,
                nas: NasMessage::RegistrationRequest { supi: 5 },
            },
            DownlinkNasTransport {
                ue: 1,
                nas: NasMessage::SecurityModeCommand,
            },
            UplinkNasTransport {
                ue: 1,
                nas: NasMessage::SecurityModeComplete,
            },
            InitialContextSetupRequest {
                ue: 1,
                nas: NasMessage::RegistrationAccept { guti: 9 },
            },
            InitialContextSetupResponse { ue: 1 },
            PduSessionResourceSetupRequest {
                ue: 1,
                session_id: 1,
                uplink_tunnel: tun,
                nas: NasMessage::PduSessionEstablishmentAccept {
                    session_id: 1,
                    ue_ip: 7,
                },
            },
            PduSessionResourceSetupResponse {
                ue: 1,
                session_id: 1,
                downlink_tunnel: tun,
            },
            HandoverRequired {
                ue: 1,
                target_gnb: 11,
            },
            HandoverRequest {
                ue: 1,
                session_id: 1,
                uplink_tunnel: tun,
            },
            HandoverRequestAcknowledge {
                ue: 1,
                session_id: 1,
                downlink_tunnel: tun,
            },
            HandoverCommand {
                ue: 1,
                target_gnb: 11,
            },
            HandoverNotify { ue: 1, gnb: 11 },
            Paging { guti: 9 },
            UeContextReleaseRequest { ue: 1 },
            UeContextReleaseCommand { ue: 1 },
            UeContextReleaseComplete { ue: 1 },
        ]
    }

    #[test]
    fn all_variants_roundtrip() {
        for msg in all_messages() {
            let bytes = msg.encode();
            assert_eq!(NgapMessage::decode(&bytes).unwrap(), msg, "{msg:?}");
            assert_eq!(msg.wire_len(), bytes.len());
        }
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        for msg in all_messages() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    NgapMessage::decode(&bytes[..cut]).is_err(),
                    "{msg:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn unknown_type_rejected() {
        assert_eq!(NgapMessage::decode(&[200]).unwrap_err(), Error::UnknownType);
    }

    #[test]
    fn discriminants_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in all_messages() {
            assert!(
                seen.insert(m.discriminant()),
                "duplicate discriminant for {m:?}"
            );
        }
    }
}
