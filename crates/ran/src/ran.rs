//! The UE & RAN simulator (paper §5.1.1): gNB and UE state machines
//! speaking NGAP/NAS toward the AMF over SCTP, plus the gNB data path
//! (GTP encapsulation toward the UPF).
//!
//! Like the paper's simulator, the PHY is not modeled; air-interface
//! latencies are fixed delays from the shared cost model. NAS exchanges
//! between UE and gNB reuse the `Msg::Ngap` NAS-transport variants with
//! `Ue(_)` endpoints.

use std::collections::HashMap;

use l25gc_core::msg::{DataPacket, Direction, Endpoint, Envelope, GnbId, Msg, UeId};
use l25gc_core::net::Output;
use l25gc_nfv::cost::CostModel;
use l25gc_pkt::nas::NasMessage;
use l25gc_pkt::ngap::{NgapMessage, TunnelInfo};
use l25gc_sim::{SimDuration, SimTime};

/// A UE's RAN-side state.
#[derive(Debug, Clone)]
pub struct RanUe {
    /// Identity.
    pub(crate) ue: UeId,
    /// Subscription id used at registration.
    pub(crate) supi: u64,
    /// The gNB currently serving (or about to serve) this UE.
    pub serving_gnb: GnbId,
    /// True once registered.
    pub registered: bool,
    /// True while the UE has a radio connection.
    pub connected: bool,
    /// True once the PDU session is up.
    pub session_up: bool,
}

/// A gNB's state.
#[derive(Debug, Default)]
pub struct RanGnb {
    /// UPF-side uplink TEID per UE (stamped on uplink GTP packets).
    pub ul_teid: HashMap<UeId, u32>,
    /// Downlink tunnel id → UE. A UE context holds one downlink tunnel
    /// at a gNB: a repeated setup replaces it.
    dl_teid_to_ue: HashMap<u32, UeId>,
    /// UE → its downlink tunnel id here, the reverse of `dl_teid_to_ue`
    /// (flat, one entry per UE context, so a context release is one
    /// removal from each map).
    dl_teid_of_ue: HashMap<UeId, u32>,
    /// Next downlink TEID to allocate.
    next_dl_teid: u32,
}

impl RanGnb {
    /// The downlink TEID this gNB allocated for `ue`'s context, if it
    /// holds one.
    pub fn dl_teid_of(&self, ue: UeId) -> Option<u32> {
        self.dl_teid_of_ue.get(&ue).copied()
    }

    fn alloc_dl_teid(&mut self, ue: UeId) -> u32 {
        self.next_dl_teid += 1;
        let teid = 0x8000_0000 | self.next_dl_teid;
        self.dl_teid_to_ue.insert(teid, ue);
        if let Some(replaced) = self.dl_teid_of_ue.insert(ue, teid) {
            self.dl_teid_to_ue.remove(&replaced);
        }
        teid
    }

    fn release_dl_teid(&mut self, ue: UeId) {
        if let Some(teid) = self.dl_teid_of_ue.remove(&ue) {
            self.dl_teid_to_ue.remove(&teid);
        }
    }
}

/// The RAN: all gNBs and UEs.
#[derive(Debug)]
pub struct Ran {
    /// UEs by id.
    pub ues: HashMap<UeId, RanUe>,
    /// GUTI → UE for paging, bound when a UE first presents its SUPI
    /// (`trigger_registration`). Not filled by `add_ue`, so populating a
    /// fleet stays one insert per UE; a UE that was added but never
    /// registered is found by scanning `ues`.
    guti_to_ue: HashMap<u64, UeId>,
    /// gNBs by id.
    pub gnbs: HashMap<GnbId, RanGnb>,
    /// Shared cost model (air-interface and SCTP delays).
    pub(crate) cost: CostModel,
    /// Data-plane delay gNB ↔ UE (the paper's "UE" is the traffic
    /// generator on the RAN server, so this is intra-host).
    pub ue_data_hop: SimDuration,
}

impl Ran {
    /// A RAN with `gnb_count` gNBs (ids `1..=gnb_count`).
    pub fn new(gnb_count: u32, cost: CostModel) -> Ran {
        Ran {
            ues: HashMap::new(),
            guti_to_ue: HashMap::new(),
            gnbs: (1..=gnb_count).map(|id| (id, RanGnb::default())).collect(),
            cost,
            ue_data_hop: SimDuration::from_micros(1),
        }
    }

    /// Adds a UE camped on `gnb` (not yet registered).
    pub fn add_ue(&mut self, ue: UeId, supi: u64, gnb: GnbId) {
        assert!(self.gnbs.contains_key(&gnb), "unknown gNB {gnb}");
        self.ues.insert(
            ue,
            RanUe {
                ue,
                supi,
                serving_gnb: gnb,
                registered: false,
                connected: false,
                session_up: false,
            },
        );
    }

    // ---------------- UE event triggers ----------------

    /// The UE powers on and registers: RACH + RRC setup, then the first
    /// NAS message reaches the AMF.
    pub fn trigger_registration(&mut self, ue: UeId) -> Output {
        let u = self.ues.get_mut(&ue).expect("UE added");
        u.connected = true;
        let gnb = u.serving_gnb;
        let supi = u.supi;
        self.guti_to_ue.insert(guti_of(supi), ue);
        Output {
            delay: self.cost.ran_attach_fixed + self.cost.sctp_hop,
            env: Envelope::new(
                Endpoint::Gnb(gnb),
                Endpoint::Amf,
                Msg::Ngap(NgapMessage::InitialUeMessage {
                    ue,
                    gnb,
                    nas: NasMessage::RegistrationRequest { supi },
                }),
            ),
        }
    }

    /// The UE asks for a PDU session.
    pub fn trigger_session(&self, ue: UeId) -> Output {
        let u = &self.ues[&ue];
        assert!(u.registered, "session request requires registration");
        Output {
            delay: self.cost.ran_nas_rtt / 2 + self.cost.sctp_hop,
            env: Envelope::new(
                Endpoint::Gnb(u.serving_gnb),
                Endpoint::Amf,
                Msg::Ngap(NgapMessage::UplinkNasTransport {
                    ue,
                    nas: NasMessage::PduSessionEstablishmentRequest { session_id: 1 },
                }),
            ),
        }
    }

    /// The gNB notices UE inactivity and asks to release its context.
    pub fn trigger_idle(&self, ue: UeId) -> Output {
        let u = &self.ues[&ue];
        Output {
            delay: self.cost.sctp_hop,
            env: Envelope::new(
                Endpoint::Gnb(u.serving_gnb),
                Endpoint::Amf,
                Msg::Ngap(NgapMessage::UeContextReleaseRequest { ue }),
            ),
        }
    }

    /// The UE deregisters from the network (power-off style).
    pub fn trigger_deregistration(&self, ue: UeId) -> Output {
        let u = &self.ues[&ue];
        assert!(u.registered, "deregistration requires registration");
        Output {
            delay: self.cost.ran_nas_rtt / 2 + self.cost.sctp_hop,
            env: Envelope::new(
                Endpoint::Gnb(u.serving_gnb),
                Endpoint::Amf,
                Msg::Ngap(NgapMessage::UplinkNasTransport {
                    ue,
                    nas: NasMessage::DeregistrationRequest {
                        guti: guti_of(u.supi),
                    },
                }),
            ),
        }
    }

    /// The source gNB decides (measurement report) to hand the UE over.
    pub fn trigger_handover(&self, ue: UeId, target: GnbId) -> Output {
        let u = &self.ues[&ue];
        assert!(self.gnbs.contains_key(&target), "unknown target gNB");
        assert_ne!(u.serving_gnb, target, "target must differ from serving");
        Output {
            delay: self.cost.sctp_hop,
            env: Envelope::new(
                Endpoint::Gnb(u.serving_gnb),
                Endpoint::Amf,
                Msg::Ngap(NgapMessage::HandoverRequired {
                    ue,
                    target_gnb: target,
                }),
            ),
        }
    }

    // ---------------- Envelope handling ----------------

    /// Handles a message delivered to a gNB or UE. No RAN handler reads
    /// the clock; the instant is ignored.
    pub fn handle(&mut self, env: Envelope, _now: SimTime) -> Vec<Output> {
        match (env.to, env.msg) {
            (Endpoint::Gnb(gnb), Msg::Ngap(m)) => self.gnb_ngap(gnb, m),
            (Endpoint::Ue(ue), Msg::Ngap(m)) => self.ue_ngap(ue, m),
            (Endpoint::Gnb(gnb), Msg::Data(p)) => self.gnb_data(gnb, p),
            (to, msg) => panic!("RAN cannot handle {msg:?} at {to:?}"),
        }
    }

    fn gnb_ngap(&mut self, gnb: GnbId, m: NgapMessage) -> Vec<Output> {
        let air = self.cost.ran_nas_rtt / 2;
        let sctp = self.cost.sctp_hop;
        match m {
            NgapMessage::DownlinkNasTransport { ue, nas } => {
                // Relay NAS over the air.
                vec![Output {
                    delay: air,
                    env: Envelope::new(
                        Endpoint::Gnb(gnb),
                        Endpoint::Ue(ue),
                        Msg::Ngap(NgapMessage::DownlinkNasTransport { ue, nas }),
                    ),
                }]
            }
            NgapMessage::InitialContextSetupRequest { ue, nas } => {
                // Respond to the AMF and deliver the NAS accept to the UE.
                vec![
                    Output {
                        delay: sctp,
                        env: Envelope::new(
                            Endpoint::Gnb(gnb),
                            Endpoint::Amf,
                            Msg::Ngap(NgapMessage::InitialContextSetupResponse { ue }),
                        ),
                    },
                    Output {
                        delay: air,
                        env: Envelope::new(
                            Endpoint::Gnb(gnb),
                            Endpoint::Ue(ue),
                            Msg::Ngap(NgapMessage::DownlinkNasTransport { ue, nas }),
                        ),
                    },
                ]
            }
            NgapMessage::PduSessionResourceSetupRequest {
                ue,
                session_id,
                uplink_tunnel,
                nas,
            } => {
                let g = self.gnbs.get_mut(&gnb).expect("known gNB");
                g.ul_teid.insert(ue, uplink_tunnel.teid);
                let dl_teid = g.alloc_dl_teid(ue);
                vec![
                    Output {
                        delay: sctp,
                        env: Envelope::new(
                            Endpoint::Gnb(gnb),
                            Endpoint::Amf,
                            Msg::Ngap(NgapMessage::PduSessionResourceSetupResponse {
                                ue,
                                session_id,
                                downlink_tunnel: TunnelInfo {
                                    teid: dl_teid,
                                    addr: gnb,
                                },
                            }),
                        ),
                    },
                    Output {
                        delay: air,
                        env: Envelope::new(
                            Endpoint::Gnb(gnb),
                            Endpoint::Ue(ue),
                            Msg::Ngap(NgapMessage::DownlinkNasTransport { ue, nas }),
                        ),
                    },
                ]
            }
            NgapMessage::Paging { guti } => {
                // Find the idle UE by GUTI; only a UE that never sent a
                // registration misses the index.
                let found = self.guti_to_ue.get(&guti).copied().or_else(|| {
                    self.ues
                        .values()
                        .find(|u| guti_of(u.supi) == guti)
                        .map(|u| u.ue)
                });
                let Some(ue) = found else {
                    return Vec::new();
                };
                vec![Output {
                    delay: air,
                    env: Envelope::new(
                        Endpoint::Gnb(gnb),
                        Endpoint::Ue(ue),
                        Msg::Ngap(NgapMessage::Paging { guti }),
                    ),
                }]
            }
            NgapMessage::UeContextReleaseCommand { ue } => {
                let g = self.gnbs.get_mut(&gnb).expect("known gNB");
                g.ul_teid.remove(&ue);
                g.release_dl_teid(ue);
                if let Some(u) = self.ues.get_mut(&ue) {
                    if u.serving_gnb == gnb {
                        u.connected = false;
                    }
                }
                vec![Output {
                    delay: sctp,
                    env: Envelope::new(
                        Endpoint::Gnb(gnb),
                        Endpoint::Amf,
                        Msg::Ngap(NgapMessage::UeContextReleaseComplete { ue }),
                    ),
                }]
            }
            NgapMessage::HandoverRequest {
                ue,
                session_id,
                uplink_tunnel,
            } => {
                // Target gNB prepares resources.
                let g = self.gnbs.get_mut(&gnb).expect("known gNB");
                g.ul_teid.insert(ue, uplink_tunnel.teid);
                let dl_teid = g.alloc_dl_teid(ue);
                vec![Output {
                    delay: sctp,
                    env: Envelope::new(
                        Endpoint::Gnb(gnb),
                        Endpoint::Amf,
                        Msg::Ngap(NgapMessage::HandoverRequestAcknowledge {
                            ue,
                            session_id,
                            downlink_tunnel: TunnelInfo {
                                teid: dl_teid,
                                addr: gnb,
                            },
                        }),
                    ),
                }]
            }
            NgapMessage::HandoverCommand { ue, target_gnb } => {
                // Source gNB: tell the UE; the UE detaches, synchronizes
                // with the target, and the target notifies the AMF.
                let u = self.ues.get_mut(&ue).expect("known UE");
                u.serving_gnb = target_gnb;
                let radio = self.cost.ran_nas_rtt / 2 + self.cost.ran_handover_fixed;
                vec![Output {
                    delay: radio + self.cost.sctp_hop,
                    env: Envelope::new(
                        Endpoint::Gnb(target_gnb),
                        Endpoint::Amf,
                        Msg::Ngap(NgapMessage::HandoverNotify {
                            ue,
                            gnb: target_gnb,
                        }),
                    ),
                }]
            }
            // UE → gNB relays upward.
            NgapMessage::UplinkNasTransport { ue, nas } => {
                vec![Output {
                    delay: sctp,
                    env: Envelope::new(
                        Endpoint::Gnb(gnb),
                        Endpoint::Amf,
                        Msg::Ngap(NgapMessage::UplinkNasTransport { ue, nas }),
                    ),
                }]
            }
            NgapMessage::InitialUeMessage { ue, nas, .. } => {
                vec![Output {
                    delay: sctp,
                    env: Envelope::new(
                        Endpoint::Gnb(gnb),
                        Endpoint::Amf,
                        Msg::Ngap(NgapMessage::InitialUeMessage { ue, gnb, nas }),
                    ),
                }]
            }
            other => panic!("gNB cannot handle {other:?}"),
        }
    }

    fn ue_ngap(&mut self, ue: UeId, m: NgapMessage) -> Vec<Output> {
        let air = self.cost.ran_nas_rtt / 2;
        let u = self.ues.get_mut(&ue).expect("known UE");
        let gnb = u.serving_gnb;
        let reply = |nas: NasMessage, delay: SimDuration| Output {
            delay,
            env: Envelope::new(
                Endpoint::Ue(ue),
                Endpoint::Gnb(gnb),
                Msg::Ngap(NgapMessage::UplinkNasTransport { ue, nas }),
            ),
        };
        match m {
            NgapMessage::DownlinkNasTransport { nas, .. } => match nas {
                NasMessage::AuthenticationRequest { rand, sqn } => {
                    let res = l25gc_core::Udr::ue_response(u.supi, rand, sqn);
                    vec![reply(NasMessage::AuthenticationResponse { res }, air)]
                }
                NasMessage::SecurityModeCommand => {
                    vec![reply(NasMessage::SecurityModeComplete, air)]
                }
                NasMessage::RegistrationAccept { .. } => {
                    u.registered = true;
                    vec![reply(NasMessage::RegistrationComplete, air)]
                }
                NasMessage::PduSessionEstablishmentAccept { .. } => {
                    u.session_up = true;
                    Vec::new()
                }
                NasMessage::ServiceAccept => {
                    u.connected = true;
                    Vec::new()
                }
                NasMessage::DeregistrationAccept => {
                    u.registered = false;
                    u.session_up = false;
                    u.connected = false;
                    Vec::new()
                }
                other => panic!("UE cannot handle NAS {other:?}"),
            },
            NgapMessage::Paging { .. } => {
                // Wake from idle: paging-occasion wait + RACH, then a
                // service request goes up.
                u.connected = true;
                vec![Output {
                    delay: self.cost.ran_paging_fixed,
                    env: Envelope::new(
                        Endpoint::Ue(ue),
                        Endpoint::Gnb(gnb),
                        Msg::Ngap(NgapMessage::InitialUeMessage {
                            ue,
                            gnb,
                            nas: NasMessage::ServiceRequest {
                                guti: guti_of(u.supi),
                            },
                        }),
                    ),
                }]
            }
            other => panic!("UE cannot handle {other:?}"),
        }
    }

    fn gnb_data(&mut self, gnb: GnbId, pkt: DataPacket) -> Vec<Output> {
        let g = self.gnbs.get_mut(&gnb).expect("known gNB");
        match pkt.dir {
            Direction::Downlink => {
                // From the UPF, tunneled with this gNB's DL TEID.
                let teid = pkt.tunnel_teid.expect("DL data arrives tunneled");
                let Some(&ue) = g.dl_teid_to_ue.get(&teid) else {
                    return Vec::new();
                };
                vec![Output {
                    delay: self.ue_data_hop,
                    env: Envelope::new(
                        Endpoint::Gnb(gnb),
                        Endpoint::Ue(ue),
                        Msg::Data(DataPacket {
                            tunnel_teid: None,
                            ..pkt
                        }),
                    ),
                }]
            }
            Direction::Uplink => {
                // From the UE: GTP-encapsulate toward the UPF.
                let Some(&teid) = g.ul_teid.get(&pkt.ue) else {
                    return Vec::new();
                };
                vec![Output {
                    delay: self.cost.path_lat,
                    env: Envelope::new(
                        Endpoint::Gnb(gnb),
                        Endpoint::UpfU,
                        Msg::Data(DataPacket {
                            tunnel_teid: Some(teid),
                            ..pkt
                        }),
                    ),
                }]
            }
        }
    }
}

/// The GUTI the AMF assigns a subscriber (suffix = SUPI in this model).
fn guti_of(supi: u64) -> u64 {
    0xF000_0000_0000_0000 | supi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ran() -> Ran {
        let mut r = Ran::new(2, CostModel::paper());
        r.add_ue(1, 101, 1);
        r
    }

    #[test]
    fn registration_trigger_reaches_amf_after_attach_delay() {
        let mut r = ran();
        let out = r.trigger_registration(1);
        assert_eq!(out.env.to, Endpoint::Amf);
        assert!(out.delay >= r.cost.ran_attach_fixed);
        match out.env.msg {
            Msg::Ngap(NgapMessage::InitialUeMessage { ue: 1, gnb: 1, .. }) => {}
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ue_answers_authentication_and_security() {
        let mut r = ran();
        let outs = r.handle(
            Envelope::new(
                Endpoint::Gnb(1),
                Endpoint::Ue(1),
                Msg::Ngap(NgapMessage::DownlinkNasTransport {
                    ue: 1,
                    nas: NasMessage::AuthenticationRequest {
                        rand: [1; 16],
                        sqn: 1,
                    },
                }),
            ),
            SimTime::ZERO,
        );
        assert_eq!(outs.len(), 1);
        match &outs[0].env.msg {
            Msg::Ngap(NgapMessage::UplinkNasTransport {
                nas: NasMessage::AuthenticationResponse { .. },
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pdu_session_setup_allocates_tunnels() {
        let mut r = ran();
        let outs = r.handle(
            Envelope::new(
                Endpoint::Amf,
                Endpoint::Gnb(1),
                Msg::Ngap(NgapMessage::PduSessionResourceSetupRequest {
                    ue: 1,
                    session_id: 1,
                    uplink_tunnel: TunnelInfo {
                        teid: 0x101,
                        addr: 7,
                    },
                    nas: NasMessage::PduSessionEstablishmentAccept {
                        session_id: 1,
                        ue_ip: 5,
                    },
                }),
            ),
            SimTime::ZERO,
        );
        // Response to AMF with a fresh DL TEID + NAS accept to the UE.
        assert_eq!(outs.len(), 2);
        let Msg::Ngap(NgapMessage::PduSessionResourceSetupResponse {
            downlink_tunnel, ..
        }) = outs[0].env.msg
        else {
            panic!("expected setup response");
        };
        assert_eq!(downlink_tunnel.addr, 1, "tunnel addr encodes the gNB id");
        assert_eq!(r.gnbs[&1].ul_teid[&1], 0x101);
        assert_eq!(r.gnbs[&1].dl_teid_to_ue[&downlink_tunnel.teid], 1);
    }

    #[test]
    fn uplink_data_gets_gtp_encapsulated() {
        let mut r = ran();
        r.gnbs.get_mut(&1).unwrap().ul_teid.insert(1, 0x101);
        let pkt = DataPacket {
            ue: 1,
            flow: 0,
            dir: Direction::Uplink,
            seq: 0,
            size: 100,
            sent_at: SimTime::ZERO,
            dst_port: 80,
            protocol: 6,
            tunnel_teid: None,
            ack_seq: None,
        };
        let outs = r.handle(
            Envelope::new(Endpoint::Ue(1), Endpoint::Gnb(1), Msg::Data(pkt)),
            SimTime::ZERO,
        );
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].env.to, Endpoint::UpfU);
        let Msg::Data(p) = outs[0].env.msg else {
            panic!()
        };
        assert_eq!(p.tunnel_teid, Some(0x101));
    }

    #[test]
    fn downlink_data_reaches_ue_via_dl_teid() {
        let mut r = ran();
        let teid = r.gnbs.get_mut(&1).unwrap().alloc_dl_teid(1);
        let pkt = DataPacket {
            ue: 1,
            flow: 0,
            dir: Direction::Downlink,
            seq: 0,
            size: 100,
            sent_at: SimTime::ZERO,
            dst_port: 80,
            protocol: 6,
            tunnel_teid: Some(teid),
            ack_seq: None,
        };
        let outs = r.handle(
            Envelope::new(Endpoint::UpfU, Endpoint::Gnb(1), Msg::Data(pkt)),
            SimTime::ZERO,
        );
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].env.to, Endpoint::Ue(1));
    }

    #[test]
    fn paging_wakes_ue_after_fixed_delay() {
        let mut r = ran();
        let guti = 0xF000_0000_0000_0000 | 101;
        let outs = r.handle(
            Envelope::new(
                Endpoint::Amf,
                Endpoint::Gnb(1),
                Msg::Ngap(NgapMessage::Paging { guti }),
            ),
            SimTime::ZERO,
        );
        assert_eq!(outs[0].env.to, Endpoint::Ue(1));
        let outs = r.handle(outs.into_iter().next().unwrap().env, SimTime::ZERO);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].delay, r.cost.ran_paging_fixed);
        match &outs[0].env.msg {
            Msg::Ngap(NgapMessage::InitialUeMessage {
                nas: NasMessage::ServiceRequest { .. },
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    fn page(r: &mut Ran, guti: u64) -> Vec<Output> {
        r.handle(
            Envelope::new(
                Endpoint::Amf,
                Endpoint::Gnb(1),
                Msg::Ngap(NgapMessage::Paging { guti }),
            ),
            SimTime::ZERO,
        )
    }

    #[test]
    fn paging_finds_registered_ues_by_index_and_others_by_scan() {
        let mut r = ran();
        r.add_ue(2, 102, 1);
        r.trigger_registration(2);
        assert_eq!(r.guti_to_ue.get(&guti_of(102)), Some(&2));
        assert_eq!(page(&mut r, guti_of(102))[0].env.to, Endpoint::Ue(2));
        // UE 1 was added but never registered: not indexed, still paged.
        assert!(!r.guti_to_ue.contains_key(&guti_of(101)));
        assert_eq!(page(&mut r, guti_of(101))[0].env.to, Endpoint::Ue(1));
    }

    #[test]
    fn paging_an_unknown_guti_is_counted_not_fatal() {
        let mut r = ran();
        assert!(page(&mut r, guti_of(999)).is_empty());
    }

    fn setup_tunnel(r: &mut Ran, gnb: GnbId, ue: UeId) -> u32 {
        let outs = r.handle(
            Envelope::new(
                Endpoint::Amf,
                Endpoint::Gnb(gnb),
                Msg::Ngap(NgapMessage::HandoverRequest {
                    ue,
                    session_id: 1,
                    uplink_tunnel: TunnelInfo {
                        teid: 0x101,
                        addr: 7,
                    },
                }),
            ),
            SimTime::ZERO,
        );
        let Msg::Ngap(NgapMessage::HandoverRequestAcknowledge {
            downlink_tunnel, ..
        }) = outs[0].env.msg
        else {
            panic!("expected handover acknowledge");
        };
        downlink_tunnel.teid
    }

    fn release(r: &mut Ran, gnb: GnbId, ue: UeId) {
        r.handle(
            Envelope::new(
                Endpoint::Amf,
                Endpoint::Gnb(gnb),
                Msg::Ngap(NgapMessage::UeContextReleaseCommand { ue }),
            ),
            SimTime::ZERO,
        );
    }

    #[test]
    fn context_release_is_per_gnb_and_per_ue() {
        let mut r = ran();
        r.add_ue(2, 102, 1);
        let at_1 = setup_tunnel(&mut r, 1, 1);
        let at_2 = setup_tunnel(&mut r, 2, 1);
        let other = setup_tunnel(&mut r, 1, 2);
        release(&mut r, 1, 1);
        assert_eq!(r.gnbs[&1].dl_teid_of(1), None);
        assert!(!r.gnbs[&1].dl_teid_to_ue.contains_key(&at_1));
        assert!(!r.gnbs[&1].ul_teid.contains_key(&1));
        // The same UE's tunnel at the other gNB, and another UE's tunnel
        // at this one, are untouched.
        assert_eq!(r.gnbs[&2].dl_teid_of(1), Some(at_2));
        assert_eq!(r.gnbs[&2].dl_teid_to_ue[&at_2], 1);
        assert_eq!(r.gnbs[&1].dl_teid_of(2), Some(other));
        assert_eq!(r.gnbs[&1].dl_teid_to_ue[&other], 2);
    }

    #[test]
    fn a_ue_holds_one_dl_teid_per_gnb_and_release_leaves_none() {
        let mut r = ran();
        let first = setup_tunnel(&mut r, 1, 1);
        let second = setup_tunnel(&mut r, 1, 1);
        assert_ne!(first, second);
        assert_eq!(r.gnbs[&1].dl_teid_of(1), Some(second));
        assert_eq!(r.gnbs[&1].dl_teid_to_ue.len(), 1, "repeated setup replaces");
        release(&mut r, 1, 1);
        assert!(r.gnbs[&1].dl_teid_to_ue.is_empty());
        assert!(r.gnbs[&1].dl_teid_of_ue.is_empty());
    }
}
