//! Deployment modes: which transport each interface rides on.
//!
//! The Fig 8 comparison has three configurations:
//!
//! | interface | free5GC | ONVM-UPF | L²5GC |
//! |---|---|---|---|
//! | SBI (CP ↔ CP) | HTTP/REST + JSON | HTTP/REST + JSON | shared memory |
//! | N4 (SMF ↔ UPF-C) | UDP + PFCP TLV | UDP + PFCP, one copy less | shared memory (PFCP retained as the message format) |
//! | N3/N6 datapath | kernel gtp5g | DPDK/ONVM | DPDK/ONVM |
//! | N1/N2 (gNB ↔ AMF) | SCTP | SCTP | SCTP |

use l25gc_nfv::cost::{CostModel, DataPath, SerFormat, Transport};
use l25gc_sim::SimDuration;

use crate::msg::{Endpoint, Envelope, Msg};

/// The three systems of Fig 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Deployment {
    /// Vanilla kernel-based free5GC.
    Free5gc,
    /// free5GC control plane, ONVM/DPDK data plane (only N4 touches ONVM).
    OnvmUpf,
    /// The paper's system: consolidated NFs, shared-memory SBI and N4.
    L25gc,
}

impl Deployment {
    /// The SBI transport and format for this deployment.
    pub(crate) fn sbi(self) -> (Transport, SerFormat) {
        match self {
            Deployment::Free5gc | Deployment::OnvmUpf => (Transport::HttpRest, SerFormat::Json),
            Deployment::L25gc => (Transport::SharedMemory, SerFormat::None),
        }
    }

    /// The N4 transport and format for this deployment.
    pub fn n4(self) -> (Transport, SerFormat) {
        match self {
            Deployment::Free5gc | Deployment::OnvmUpf => (Transport::UdpSocket, SerFormat::PfcpTlv),
            // L²5GC keeps PFCP as the message format but moves it onto the
            // descriptor ring (§5.2: "Retaining the N4 interface's use of
            // PFCP ... makes our UPF universally compatible").
            Deployment::L25gc => (Transport::SharedMemory, SerFormat::PfcpTlv),
        }
    }

    /// The user-plane datapath implementation.
    pub fn datapath(self) -> DataPath {
        match self {
            Deployment::Free5gc => DataPath::Kernel,
            Deployment::OnvmUpf | Deployment::L25gc => DataPath::Dpdk,
        }
    }

    /// Which transport a control envelope rides between these endpoints,
    /// or `None` for the air interface (modelled as a flat RTT, not a
    /// transport). The load engine's CPU-occupancy model uses this to
    /// charge per-transport processing shares without re-deriving the
    /// interface table.
    pub fn control_transport(self, env: &Envelope) -> Option<Transport> {
        match (env.from, env.to) {
            (Endpoint::Gnb(_), Endpoint::Amf) | (Endpoint::Amf, Endpoint::Gnb(_)) => {
                Some(Transport::Sctp)
            }
            (Endpoint::Ue(_), Endpoint::Gnb(_)) | (Endpoint::Gnb(_), Endpoint::Ue(_)) => None,
            (Endpoint::Smf, Endpoint::UpfC) | (Endpoint::UpfC, Endpoint::Smf) => Some(self.n4().0),
            (Endpoint::UpfC, Endpoint::UpfU) | (Endpoint::UpfU, Endpoint::UpfC) => match self {
                Deployment::Free5gc => Some(Transport::UdpSocket),
                _ => Some(Transport::SharedMemory),
            },
            (a, b) if a.is_control_nf() && b.is_control_nf() => Some(self.sbi().0),
            (a, b) => panic!("no control channel between {a:?} and {b:?}"),
        }
    }

    /// One-way delivery delay for a control envelope on this deployment.
    ///
    /// Datapath (`Msg::Data`) delays are handled by the driver separately
    /// (they depend on queueing at the UPF); this covers signalling only.
    pub fn control_hop(self, cost: &CostModel, env: &Envelope) -> SimDuration {
        debug_assert!(
            !matches!(env.msg, Msg::Data(_)),
            "data uses the datapath model"
        );
        let len = env.wire_len();
        match (env.from, env.to) {
            // N1/N2: gNB ↔ AMF over SCTP, identical in all deployments.
            (Endpoint::Gnb(_), Endpoint::Amf) | (Endpoint::Amf, Endpoint::Gnb(_)) => {
                cost.message_hop(Transport::Sctp, SerFormat::None, len)
            }
            // Air interface UE ↔ gNB: half the NAS RTT.
            (Endpoint::Ue(_), Endpoint::Gnb(_)) | (Endpoint::Gnb(_), Endpoint::Ue(_)) => {
                cost.ran_nas_rtt / 2
            }
            // N4: SMF ↔ UPF-C (and UPF-C's reports to SMF).
            (Endpoint::Smf, Endpoint::UpfC) | (Endpoint::UpfC, Endpoint::Smf) => {
                let (t, f) = self.n4();
                let hop = cost.message_hop(t, f, len);
                if self == Deployment::OnvmUpf {
                    // ONVM-UPF eliminates one data copy on the N4 path
                    // (§5.2, "a slight improvement").
                    hop.saturating_sub(SimDuration::from_micros(80))
                } else {
                    hop
                }
            }
            // UPF-C ↔ UPF-U share memory in ONVM deployments; in kernel
            // free5GC this is the netlink hop into gtp5g.
            (Endpoint::UpfC, Endpoint::UpfU) | (Endpoint::UpfU, Endpoint::UpfC) => match self {
                Deployment::Free5gc => cost.message_hop(Transport::UdpSocket, SerFormat::None, len),
                _ => cost.message_hop(Transport::SharedMemory, SerFormat::None, len),
            },
            // Everything else between control NFs is SBI.
            (a, b) if a.is_control_nf() && b.is_control_nf() => {
                let (t, f) = self.sbi();
                cost.message_hop(t, f, len)
            }
            (a, b) => panic!("no control channel between {a:?} and {b:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{SbiOp, UeId};
    use l25gc_pkt::ngap::NgapMessage;

    fn sbi_env() -> Envelope {
        Envelope::new(
            Endpoint::Amf,
            Endpoint::Smf,
            Msg::Sbi {
                op: SbiOp::CreateSmContextReq,
                ue: 1 as UeId,
            },
        )
    }

    #[test]
    fn sbi_hop_is_13x_cheaper_on_l25gc() {
        let cost = CostModel::paper();
        let env = sbi_env();
        let free = Deployment::Free5gc.control_hop(&cost, &env);
        let l25 = Deployment::L25gc.control_hop(&cost, &env);
        let ratio = free.as_secs_f64() / l25.as_secs_f64();
        assert!((11.0..16.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn onvm_upf_only_improves_n4() {
        let cost = CostModel::paper();
        let sbi = sbi_env();
        assert_eq!(
            Deployment::Free5gc.control_hop(&cost, &sbi),
            Deployment::OnvmUpf.control_hop(&cost, &sbi),
            "ONVM-UPF keeps the REST SBI"
        );
        let n4 = Envelope::new(
            Endpoint::Smf,
            Endpoint::UpfC,
            Msg::N4(l25gc_pkt::pfcp::Message::session(
                l25gc_pkt::pfcp::MsgType::SessionModificationRequest,
                1,
                1,
                l25gc_pkt::pfcp::IeSet::default(),
            )),
        );
        let free = Deployment::Free5gc.control_hop(&cost, &n4);
        let onvm = Deployment::OnvmUpf.control_hop(&cost, &n4);
        let l25 = Deployment::L25gc.control_hop(&cost, &n4);
        assert!(onvm < free, "ONVM-UPF trims the N4 copy");
        assert!(l25 < onvm, "L25GC's shm N4 is cheapest");
    }

    #[test]
    fn n1n2_is_deployment_invariant() {
        let cost = CostModel::paper();
        let env = Envelope::new(
            Endpoint::Gnb(1),
            Endpoint::Amf,
            Msg::Ngap(NgapMessage::HandoverRequired {
                ue: 1,
                target_gnb: 2,
            }),
        );
        let a = Deployment::Free5gc.control_hop(&cost, &env);
        let b = Deployment::L25gc.control_hop(&cost, &env);
        assert_eq!(a, b, "the paper does not change the RAN-facing interface");
    }

    #[test]
    fn datapath_selection() {
        assert_eq!(Deployment::Free5gc.datapath(), DataPath::Kernel);
        assert_eq!(Deployment::OnvmUpf.datapath(), DataPath::Dpdk);
        assert_eq!(Deployment::L25gc.datapath(), DataPath::Dpdk);
    }
}
