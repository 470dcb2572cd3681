//! Message and endpoint model for the simulated 5G system.
//!
//! Every interaction — N1/N2 signalling, SBI transactions, N4/PFCP, and
//! user data — is an [`Envelope`] delivered from one [`Endpoint`] to
//! another. The driver (in `l25gc-testbed`) computes each envelope's
//! delivery delay from the deployment's transport for that edge plus the
//! receiving NF's handler cost; the NFs themselves are pure state
//! machines.

use l25gc_pkt::ngap::{NgapMessage, TunnelInfo};
use l25gc_pkt::pfcp;
use l25gc_sim::SimTime;

/// A user equipment identity (also used as NGAP UE id).
pub type UeId = u64;
/// A gNB identity.
pub type GnbId = u32;

/// Where an envelope comes from / goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A user equipment.
    Ue(UeId),
    /// A base station.
    Gnb(GnbId),
    /// Access and Mobility Management Function.
    Amf,
    /// Session Management Function.
    Smf,
    /// Authentication Server Function.
    Ausf,
    /// Unified Data Management (front-ends the UDR).
    Udm,
    /// Policy Control Function.
    Pcf,
    /// Network Repository Function (NF discovery).
    Nrf,
    /// UPF control-plane half (terminates N4).
    UpfC,
    /// UPF user-plane half (forwards packets).
    UpfU,
    /// The data network (server side).
    Dn,
}

impl Endpoint {
    /// True for the control-plane NFs that speak SBI.
    pub(crate) fn is_control_nf(self) -> bool {
        matches!(
            self,
            Endpoint::Amf
                | Endpoint::Smf
                | Endpoint::Ausf
                | Endpoint::Udm
                | Endpoint::Pcf
                | Endpoint::Nrf
        )
    }
}

/// An SBI operation (service-based interface request or response).
///
/// Each variant is one HTTP exchange leg in free5GC or one descriptor in
/// L²5GC. What is fixed about an operation (its receiver, body size,
/// handler weight, trace label and any hand-off) is its row in
/// [`SbiOp::row`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SbiOp {
    // ---- Authentication (AMF → AUSF → UDM), TS 29.509/29.503 ----
    /// AMF → AUSF: create UE authentication context. Carries the
    /// subscription identity (SUPI/SUCI, TS 33.501 §6.1.2).
    UeAuthCtxCreateReq {
        /// The UE's subscription identity.
        supi: u64,
    },
    /// AUSF → AMF: authentication context (5G-AKA challenge + expected
    /// response for the SEAF-side check).
    UeAuthCtxCreateResp {
        /// Challenge nonce.
        rand: [u8; 16],
        /// AKA sequence number.
        sqn: u64,
        /// Expected UE response (HXRES*, simplified).
        xres: [u8; 16],
    },
    /// AUSF → UDM: generate authentication data for a subscriber.
    GenerateAuthDataReq {
        /// The UE's subscription identity.
        supi: u64,
    },
    /// UDM → AUSF: authentication vector.
    GenerateAuthDataResp {
        /// Challenge nonce.
        rand: [u8; 16],
        /// AKA sequence number.
        sqn: u64,
        /// Expected UE response.
        xres: [u8; 16],
    },
    /// AMF → AUSF: confirm 5G-AKA result.
    Auth5gAkaConfirmReq,
    /// AUSF → AMF: confirmation result.
    Auth5gAkaConfirmResp,

    // ---- Registration data management (AMF → UDM/PCF) ----
    /// AMF → UDM: UE context management registration.
    UecmRegistrationReq,
    /// UDM → AMF: registration stored.
    UecmRegistrationResp,
    /// AMF → UDM: get access & mobility subscription data.
    SdmGetAmDataReq,
    /// UDM → AMF: subscription data.
    SdmGetAmDataResp,
    /// AMF → PCF: create AM policy association.
    AmPolicyCreateReq,
    /// PCF → AMF: policy decision.
    AmPolicyCreateResp,

    // ---- PDU session (AMF ↔ SMF ↔ UDM/PCF), TS 29.502 ----
    /// AMF → SMF: `PostSmContextsRequest` (the Fig 6 message).
    CreateSmContextReq,
    /// SMF → AMF: SM context created.
    CreateSmContextResp,
    /// SMF → UDM: get session management subscription data.
    SdmGetSmDataReq,
    /// UDM → SMF: session subscription data.
    SdmGetSmDataResp,
    /// SMF → PCF: create SM policy association.
    SmPolicyCreateReq,
    /// PCF → SMF: PCC rules.
    SmPolicyCreateResp,
    /// SMF → AMF: transfer N1/N2 payloads toward the RAN. Carries the
    /// UPF-side uplink TEID the gNB must target (session setup) or the
    /// paging indication (when the UE is idle).
    N1N2MessageTransferReq {
        /// UPF-side uplink TEID for the AN tunnel.
        ul_teid: u32,
    },
    /// AMF → SMF: transfer acknowledged.
    N1N2MessageTransferResp,
    /// AMF → NRF: discover/validate a peer NF instance (free5GC hits the
    /// NRF on the handover path; L²5GC sends the same messages over
    /// shared memory).
    NfDiscoveryReq,
    /// NRF → AMF: matching NF profiles (fat JSON bodies).
    NfDiscoveryResp,
    /// AMF → SMF: retrieve the SM context (free5GC queries it during
    /// handover preparation).
    SmContextRetrieveReq,
    /// SMF → AMF: the SM context.
    SmContextRetrieveResp,
    /// AMF → SMF: release the SM context (deregistration).
    ReleaseSmContextReq,
    /// SMF → AMF: context released.
    ReleaseSmContextResp,
    /// AMF → SMF: update SM context (tunnel info, handover phases).
    UpdateSmContextReq(SmContextUpdate),
    /// SMF → AMF: update done.
    UpdateSmContextResp(SmContextUpdate),
}

/// What an `UpdateSmContext` exchange is doing (drives SMF behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmContextUpdate {
    /// Carry the gNB's downlink tunnel endpoint after session setup.
    AnTunnelInfo(TunnelInfo),
    /// Handover preparation: target chosen; the SMF pre-allocates the
    /// target-side UL TEID and piggybacks the BUFF action (§3.3).
    HoPrepare {
        /// The gNB the UE is moving to.
        target_gnb: GnbId,
    },
    /// SMF's acknowledgment of preparation, carrying the fresh UL TEID
    /// the target gNB must use.
    HoPrepareAck {
        /// Pre-allocated UPF-side uplink TEID for the target.
        new_ul_teid: u32,
    },
    /// Handover resource allocation done at the target gNB; carries the
    /// target's downlink tunnel endpoint.
    HoPrepared {
        /// Target gNB's downlink tunnel.
        target_dl: TunnelInfo,
    },
    /// Handover complete: switch the DL path to the target gNB.
    HoComplete,
    /// UE went idle: release the AN tunnel, buffer + notify on DL data.
    Idle,
    /// Service request accepted: activate the UP connection (first leg
    /// of the TS 23.502 §4.2.3.2 service-request flow; the AN tunnel
    /// follows in a second update).
    ActivateUp,
    /// SMF's answer to `ActivateUp`, carrying the CN N3 tunnel's UL TEID
    /// the gNB must target (TS 23.502 §4.2.3.2).
    ActivateUpAck {
        /// The session's UPF-side uplink TEID.
        ul_teid: u32,
    },
    /// UE woke up (service request): reactivate with a new AN tunnel.
    Active {
        /// The fresh AN-side downlink tunnel.
        an_tunnel: TunnelInfo,
    },
}

/// What is fixed about one SBI operation: its row in [`SbiOp::row`].
pub(crate) struct OpRow {
    /// Trace label (the operation's name).
    pub(crate) label: &'static str,
    /// Estimated JSON body size in bytes (shapes the serialization cost;
    /// based on free5GC's OpenAPI bodies).
    pub(crate) wire_len: usize,
    /// The NF that receives and handles it.
    pub(crate) to: Endpoint,
    /// Handler cost in units of `CostModel::handler` (DESIGN.md §5):
    /// heavy for AKA vectors, SM contexts, policies and subscription
    /// fetches, 1 for AMF procedure steps, 0.5 for acks and relays.
    pub(crate) weight: f64,
    /// When the receiver only hands off: the operation it sends next.
    pub(crate) next: Option<SbiOp>,
}

impl SbiOp {
    /// The operation table: one row per operation. Inlined so that each
    /// caller, which reads one field, compiles to a lookup of that field.
    #[inline]
    pub(crate) fn row(&self) -> OpRow {
        use Endpoint::*;
        use SbiOp::*;
        let (label, wire_len, to, weight, next) = match *self {
            UeAuthCtxCreateReq { supi } => (
                "UeAuthCtxCreateReq",
                320,
                Ausf,
                4.0,
                Some(GenerateAuthDataReq { supi }),
            ),
            UeAuthCtxCreateResp { .. } => ("UeAuthCtxCreateResp", 540, Amf, 1.0, None),
            GenerateAuthDataReq { .. } => ("GenerateAuthDataReq", 280, Udm, 8.0, None),
            GenerateAuthDataResp { rand, sqn, xres } => (
                "GenerateAuthDataResp",
                620,
                Ausf,
                0.5,
                Some(UeAuthCtxCreateResp { rand, sqn, xres }),
            ),
            Auth5gAkaConfirmReq => (
                "Auth5gAkaConfirmReq",
                180,
                Ausf,
                3.0,
                Some(Auth5gAkaConfirmResp),
            ),
            Auth5gAkaConfirmResp => ("Auth5gAkaConfirmResp", 160, Amf, 1.0, None),
            UecmRegistrationReq => (
                "UecmRegistrationReq",
                380,
                Udm,
                4.0,
                Some(UecmRegistrationResp),
            ),
            UecmRegistrationResp => ("UecmRegistrationResp", 120, Amf, 1.0, None),
            SdmGetAmDataReq => ("SdmGetAmDataReq", 150, Udm, 5.0, Some(SdmGetAmDataResp)),
            SdmGetAmDataResp => ("SdmGetAmDataResp", 900, Amf, 1.0, None),
            AmPolicyCreateReq => ("AmPolicyCreateReq", 420, Pcf, 6.0, Some(AmPolicyCreateResp)),
            AmPolicyCreateResp => ("AmPolicyCreateResp", 680, Amf, 1.0, None),
            CreateSmContextReq => ("CreateSmContextReq", 1100, Smf, 20.0, None),
            CreateSmContextResp => ("CreateSmContextResp", 260, Amf, 1.0, None),
            SdmGetSmDataReq => ("SdmGetSmDataReq", 150, Udm, 10.0, Some(SdmGetSmDataResp)),
            SdmGetSmDataResp => ("SdmGetSmDataResp", 760, Smf, 0.5, Some(SmPolicyCreateReq)),
            SmPolicyCreateReq => (
                "SmPolicyCreateReq",
                520,
                Pcf,
                15.0,
                Some(SmPolicyCreateResp),
            ),
            SmPolicyCreateResp => ("SmPolicyCreateResp", 940, Smf, 0.5, None),
            N1N2MessageTransferReq { .. } => ("N1N2MessageTransferReq", 720, Amf, 1.0, None),
            N1N2MessageTransferResp => ("N1N2MessageTransferResp", 110, Smf, 0.5, None),
            NfDiscoveryReq => ("NfDiscoveryReq", 250, Nrf, 0.5, Some(NfDiscoveryResp)),
            NfDiscoveryResp => ("NfDiscoveryResp", 1500, Amf, 1.0, None),
            SmContextRetrieveReq => (
                "SmContextRetrieveReq",
                180,
                Smf,
                2.0,
                Some(SmContextRetrieveResp),
            ),
            SmContextRetrieveResp => ("SmContextRetrieveResp", 820, Amf, 1.0, None),
            ReleaseSmContextReq => ("ReleaseSmContextReq", 200, Smf, 0.5, None),
            ReleaseSmContextResp => ("ReleaseSmContextResp", 110, Amf, 1.0, None),
            UpdateSmContextReq(_) => ("UpdateSmContextReq", 640, Smf, 2.0, None),
            UpdateSmContextResp(_) => ("UpdateSmContextResp", 280, Amf, 1.0, None),
        };
        OpRow {
            label,
            wire_len,
            to,
            weight,
            next,
        }
    }
}

/// Direction of a user-plane packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// UE → data network.
    Uplink,
    /// Data network → UE.
    Downlink,
}

/// A user-plane packet (metadata only; payload bytes are represented by
/// `size` — the mempool holds real bytes in the wall-clock benches, but
/// the discrete-event experiments only need sizes and timestamps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataPacket {
    /// Owning UE.
    pub ue: UeId,
    /// Flow id within the UE session (distinguishes QoS subflows).
    pub flow: u32,
    /// Direction of travel.
    pub dir: Direction,
    /// Monotonic per-flow sequence number.
    pub seq: u64,
    /// Size on the wire, bytes.
    pub size: usize,
    /// When the original sender emitted it (for RTT accounting).
    pub sent_at: SimTime,
    /// Destination port of the inner header (classifier dimension).
    pub dst_port: u16,
    /// IP protocol of the inner header.
    pub protocol: u8,
    /// GTP-U tunnel id when traversing N3 (set by the gNB on uplink).
    pub tunnel_teid: Option<u32>,
    /// Cumulative acknowledgment number when this packet is a TCP ACK
    /// (the `l25gc-ran` TCP model rides on data packets).
    pub ack_seq: Option<u64>,
}

/// The payload of an envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// N1/N2 signalling (gNB ↔ AMF, with NAS piggybacked).
    Ngap(NgapMessage),
    /// An SBI operation between control-plane NFs.
    Sbi { op: SbiOp, ue: UeId },
    /// An N4 (PFCP) message between SMF and UPF-C.
    N4(pfcp::Message),
    /// A user-plane packet.
    Data(DataPacket),
}

/// A message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sender.
    pub from: Endpoint,
    /// Receiver.
    pub to: Endpoint,
    /// Payload.
    pub msg: Msg,
}

impl Envelope {
    /// Convenience constructor.
    pub fn new(from: Endpoint, to: Endpoint, msg: Msg) -> Envelope {
        Envelope { from, to, msg }
    }

    /// Bytes this message occupies on its wire (for serialization cost).
    pub fn wire_len(&self) -> usize {
        match &self.msg {
            Msg::Ngap(m) => m.wire_len(),
            Msg::Sbi { op, .. } => op.row().wire_len,
            Msg::N4(m) => m.encode().len(),
            Msg::Data(p) => p.size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_nf_classification() {
        assert!(Endpoint::Amf.is_control_nf());
        assert!(Endpoint::Pcf.is_control_nf());
        assert!(!Endpoint::UpfU.is_control_nf());
        assert!(!Endpoint::Ue(1).is_control_nf());
    }

    #[test]
    fn request_response_pairing() {
        use Endpoint::*;
        let update = SmContextUpdate::HoComplete;
        let auth = ([1; 16], 2, [3; 16]);
        // (requester, request, response)
        for (requester, req, resp) in [
            (
                Amf,
                SbiOp::UeAuthCtxCreateReq { supi: 1 },
                SbiOp::UeAuthCtxCreateResp {
                    rand: auth.0,
                    sqn: auth.1,
                    xres: auth.2,
                },
            ),
            (
                Ausf,
                SbiOp::GenerateAuthDataReq { supi: 1 },
                SbiOp::GenerateAuthDataResp {
                    rand: auth.0,
                    sqn: auth.1,
                    xres: auth.2,
                },
            ),
            (Amf, SbiOp::Auth5gAkaConfirmReq, SbiOp::Auth5gAkaConfirmResp),
            (Amf, SbiOp::UecmRegistrationReq, SbiOp::UecmRegistrationResp),
            (Amf, SbiOp::SdmGetAmDataReq, SbiOp::SdmGetAmDataResp),
            (Amf, SbiOp::AmPolicyCreateReq, SbiOp::AmPolicyCreateResp),
            (Amf, SbiOp::CreateSmContextReq, SbiOp::CreateSmContextResp),
            (Smf, SbiOp::SdmGetSmDataReq, SbiOp::SdmGetSmDataResp),
            (Smf, SbiOp::SmPolicyCreateReq, SbiOp::SmPolicyCreateResp),
            (
                Smf,
                SbiOp::N1N2MessageTransferReq { ul_teid: 1 },
                SbiOp::N1N2MessageTransferResp,
            ),
            (Amf, SbiOp::NfDiscoveryReq, SbiOp::NfDiscoveryResp),
            (
                Amf,
                SbiOp::SmContextRetrieveReq,
                SbiOp::SmContextRetrieveResp,
            ),
            (Amf, SbiOp::ReleaseSmContextReq, SbiOp::ReleaseSmContextResp),
            (
                Amf,
                SbiOp::UpdateSmContextReq(update),
                SbiOp::UpdateSmContextResp(update),
            ),
        ] {
            let (q, p) = (req.row(), resp.row());
            assert_eq!(q.label.strip_suffix("Req"), p.label.strip_suffix("Resp"));
            // The request goes to the NF that answers it, the answer back
            // to the requester.
            assert!(q.to != requester && q.to.is_control_nf(), "{}", q.label);
            assert_eq!(p.to, requester, "{}", p.label);
            if let Some(next) = q.next {
                // A hand-off answers directly, or asks the next NF first.
                let n = next.row();
                assert!(
                    n.label == p.label || n.label.ends_with("Req"),
                    "{}",
                    q.label
                );
            }
        }
    }

    #[test]
    fn wire_lengths_are_plausible_json_sizes() {
        // The Fig 6 message is the biggest; everything is 100 B – 2 KiB.
        assert!(SbiOp::CreateSmContextReq.row().wire_len >= 1000);
        for op in [
            SbiOp::UeAuthCtxCreateReq { supi: 1 },
            SbiOp::SdmGetAmDataResp,
            SbiOp::N1N2MessageTransferReq { ul_teid: 1 },
        ] {
            let len = op.row().wire_len;
            assert!((100..2048).contains(&len), "{op:?} = {len}");
        }
    }
}
