//! The consolidated 5G core: every control-plane NF as a state machine,
//! wired by typed envelopes.
//!
//! [`CoreNetwork::handle`] consumes one delivered envelope and returns the
//! set of envelopes the receiving NF emits, each tagged with the delay
//! after which it arrives (receiver handler cost + the deployment's
//! transport cost for that edge). Procedures follow the TS 23.502 call
//! flows; the module-level comments on each phase name the corresponding
//! spec step. Per-message handler costs are listed in [`handler_cost`].
//!
//! Each NF reads only its own table and the message in hand. What is
//! fixed about an SBI operation is its row in `SbiOp::row`; an NF that
//! only answers an operation with a fixed one (the NRF, the PCF, the
//! AUSF, most of the UDM) has no handler: `handle` sends the row's next
//! operation.

use l25gc_nfv::cost::CostModel;
use l25gc_obs::{EventKind, Obs};
use l25gc_pkt::ipv4::Ipv4Addr;
use l25gc_pkt::nas::NasMessage;
use l25gc_pkt::ngap::{NgapMessage, TunnelInfo};
use l25gc_pkt::pfcp::{
    self, ApplyAction, CreateFar, CreatePdr, FTeid, ForwardingParameters, IeSet, Interface,
    MsgType, Pdi, UeIpAddress, UpdateFar, UpdatePdr,
};
use l25gc_sim::{FastMap, SimDuration, SimTime};

use crate::context::{
    proc_kind, AmfUeCtx, CmState, EventRecord, Proc, SmfProc, SmfSession, UeEvent,
};
use crate::deploy::Deployment;
use crate::msg::{DataPacket, Endpoint, Envelope, GnbId, Msg, SbiOp, SmContextUpdate, UeId};
use crate::udr::{AuthVector, Udr};
use crate::upf::{ue_ip_for, PdrBackend, Upf, Verdict};

/// The UPF's N3 address (free5GC's default data-plane address).
pub const UPF_N3_ADDR: Ipv4Addr = Ipv4Addr::new(10, 200, 200, 102);

/// An envelope the core wants delivered after `delay`.
#[derive(Debug)]
pub struct Output {
    /// Delay from "now" until delivery at `env.to`.
    pub delay: SimDuration,
    /// The message.
    pub env: Envelope,
}

/// AMF state.
#[derive(Debug, Default, Clone)]
pub struct Amf {
    /// Per-UE contexts. UE ids are handed out by the simulation, never
    /// chosen by a peer, so the unkeyed [`FastMap`] is safe.
    pub ues: FastMap<UeId, AmfUeCtx>,
}

/// SMF state.
#[derive(Debug, Default, Clone)]
pub struct Smf {
    /// Per-UE session contexts (one PDU session per UE in the
    /// experiments, as in the paper).
    pub sessions: FastMap<UeId, SmfSession>,
    /// SEID → owning UE: N4 responses and downlink-data reports carry
    /// only the SEID. Holds exactly the SEIDs of `sessions`; written
    /// where `sessions` is (CreateSmContext, SessionDeletionResponse).
    by_seid: FastMap<u64, UeId>,
    next_seid: u64,
    next_teid: u32,
    /// N4 association state toward the UPF.
    pub n4_association: N4Association,
}

impl Smf {
    fn alloc_seid(&mut self) -> u64 {
        self.next_seid += 1;
        self.next_seid
    }

    fn alloc_teid(&mut self) -> u32 {
        self.next_teid += 1;
        0x100 + self.next_teid
    }

    fn ue_of_seid(&self, seid: u64) -> UeId {
        let ue = self.by_seid.get(&seid).copied();
        ue.unwrap_or_else(|| panic!("no session has SEID {seid}"))
    }

    fn session(&mut self, ue: UeId) -> &mut SmfSession {
        let s = self.sessions.get_mut(&ue);
        s.unwrap_or_else(|| panic!("SMF: UE {ue} has no SM context"))
    }
}

/// N4 association state between SMF and UPF-C (node-level PFCP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum N4Association {
    /// No association yet.
    #[default]
    Idle,
    /// Setup request sent, awaiting the UPF's response.
    Pending,
    /// Association established.
    Established,
}

/// UDM state: fronts the UDR subscriber repository.
#[derive(Debug, Default, Clone)]
pub(crate) struct Udm {
    /// The subscriber repository (MongoDB in free5GC).
    pub(crate) udr: Udr,
}

/// The consolidated core network.
#[derive(Debug, Clone)]
pub struct CoreNetwork {
    /// Which of the three Fig 8 systems this instance is.
    pub deployment: Deployment,
    /// The calibrated cost model.
    pub cost: CostModel,
    /// AMF state.
    pub amf: Amf,
    /// SMF state.
    pub smf: Smf,
    /// UDM/UDR state.
    pub(crate) udm: Udm,
    /// UPF (C+U) state.
    pub upf: Upf,
    /// Completed UE events (Fig 8 accounting).
    pub events: Vec<EventRecord>,
    /// Flight recorder, procedure spans, and latency histograms. A
    /// replica's clone keeps recording independently from the
    /// checkpoint instant on.
    pub obs: Obs,
    /// Current virtual time as seen by the last `handle` call (used by
    /// the UPF queueing model).
    upf_now: SimTime,
}

impl CoreNetwork {
    /// Creates a core in the given deployment with the default
    /// PartitionSort PDR backend.
    pub fn new(deployment: Deployment) -> CoreNetwork {
        CoreNetwork {
            deployment,
            cost: CostModel::paper(),
            amf: Amf::default(),
            smf: Smf::default(),
            udm: Udm::default(),
            upf: Upf::new(PdrBackend::PartitionSort),
            events: Vec::new(),
            obs: Obs::new(),
            upf_now: SimTime::ZERO,
        }
    }

    /// Drains everything this core recorded — its own [`Obs`] bundle plus
    /// the UPF-U's per-packet flight recorder — into `out` for export.
    pub fn drain_trace(&mut self, out: &mut l25gc_obs::TraceBundle) {
        self.obs.drain_into(out);
        out.dropped_events += self.upf.flight.dropped();
        self.upf.flight.drain_into(&mut out.events);
    }

    /// Records that `ue`'s procedure, started at its AMF context's
    /// `proc_start`, completed at `now`: in the Fig 8 accounting and as a
    /// procedure span (with a per-procedure latency histogram sample).
    fn complete(&mut self, ue: UeId, event: UeEvent, now: SimTime) {
        let rec = EventRecord {
            ue,
            event,
            start: self.amf.ues[&ue].proc_start,
            end: now,
        };
        let kind = proc_kind(event);
        self.obs
            .spans
            .record_completed(kind, rec.ue, rec.start, rec.end);
        self.obs
            .hists
            .record(kind.name(), rec.duration().as_nanos());
        self.events.push(rec);
    }

    /// Starts the N4 association (node-level PFCP handshake the SMF and
    /// UPF perform before any session can be created). Returns the
    /// request for the driver to deliver.
    pub fn start_n4_association(&mut self) -> Envelope {
        self.smf.n4_association = N4Association::Pending;
        Envelope::new(
            Endpoint::Smf,
            Endpoint::UpfC,
            Msg::N4(pfcp::Message::node(
                MsgType::AssociationSetupRequest,
                1,
                IeSet {
                    node_id: Some(Ipv4Addr::new(10, 200, 200, 1)),
                    ..IeSet::default()
                },
            )),
        )
    }

    /// Provisions a subscriber in the UDR (the testbed does this for
    /// every UE before attach, like filling the HSS/UDM database).
    pub fn provision_subscriber(&mut self, supi: u64) {
        self.udm.udr.provision_default(supi);
    }

    /// Handles one delivered envelope, returning the follow-up sends.
    pub fn handle(&mut self, env: Envelope, now: SimTime) -> Vec<Output> {
        self.upf_now = now;
        let handler = handler_cost(&self.cost, &env);
        // One segment per control message handled: which NF was busy,
        // with what, from when, for how long (the Fig 8 per-NF
        // decomposition). Data packets skip this — they pay no control
        // handler cost and would flood the segment log.
        if !matches!(env.msg, Msg::Data(_)) {
            self.obs
                .spans
                .record_segment(nf_name(env.to), msg_label(&env.msg), now, handler);
        }
        let mut outs = Outs {
            from: env.to,
            items: Vec::new(),
        };
        // The message moves into its handler: NFs pass descriptors, not
        // copies.
        match (env.to, env.msg) {
            (to, Msg::Sbi { op, ue }) => match (to, op.row().next, op) {
                // The receiver only hands off: its table row names the
                // operation it sends next.
                (_, Some(next), _) => outs.sbi(next, ue),
                (Endpoint::Amf, None, op) => self.amf_sbi(op, ue, now, &mut outs),
                (Endpoint::Smf, None, op) => self.smf_sbi(op, ue, &mut outs),
                (Endpoint::Udm, None, SbiOp::GenerateAuthDataReq { supi }) => {
                    self.udm_auth_vector(supi, ue, &mut outs)
                }
                (to, None, op) => panic!("core cannot handle {op:?} at {to:?}"),
            },
            (Endpoint::Amf, Msg::Ngap(m)) => self.amf_ngap(env.from, m, now, &mut outs),
            (Endpoint::Smf, Msg::N4(m)) => self.smf_n4(m, &mut outs),
            (Endpoint::UpfC, Msg::N4(m)) => self.upfc_n4(m, &mut outs),
            (Endpoint::UpfU, Msg::Data(p)) => return self.upfu_data(p),
            (to, msg) => panic!("core cannot handle {msg:?} at {to:?}"),
        }
        // Control outputs leave after the handler finishes; each then
        // pays its edge's transport cost. Fixed-delay outputs (buffer
        // flushes) carry their own timing. A fresh exact-size `Vec`, not
        // an in-place `collect`: that would `realloc` the `Outs` buffer
        // down to the smaller `Output`s on every message, and the freed
        // chunks, a little too small for the next `Outs`, pile up as
        // heap fragments (~1 KB per session).
        let mut sends = Vec::with_capacity(outs.items.len());
        sends.extend(outs.items.into_iter().map(|(fixed, env)| match fixed {
            Some(d) => Output {
                delay: handler + d,
                env,
            },
            None => {
                let hop = self.deployment.control_hop(&self.cost, &env);
                Output {
                    delay: handler + hop,
                    env,
                }
            }
        }));
        sends
    }

    // ================= AMF =================

    /// The AMF's N2 side: one arm per (step, message) pair the
    /// procedures of TS 23.502 take. A registration request creates the
    /// context; every other message needs one.
    fn amf_ngap(&mut self, from: Endpoint, m: NgapMessage, now: SimTime, outs: &mut Outs) {
        use NasMessage as Nas;
        use NgapMessage as N;
        let ue = match &m {
            N::InitialUeMessage { ue, .. }
            | N::UplinkNasTransport { ue, .. }
            | N::InitialContextSetupResponse { ue }
            | N::PduSessionResourceSetupResponse { ue, .. }
            | N::UeContextReleaseRequest { ue }
            | N::UeContextReleaseComplete { ue }
            | N::HandoverRequired { ue, .. }
            | N::HandoverRequestAcknowledge { ue, .. }
            | N::HandoverNotify { ue, .. } => *ue,
            other => panic!("AMF cannot handle {other:?}"),
        };
        let step = self.amf.ues.get(&ue).map_or(Proc::None, |c| c.proc);
        // ---- Registration (TS 23.502 §4.2.2.2) ----
        if let (
            Proc::None,
            &N::InitialUeMessage {
                gnb,
                nas: Nas::RegistrationRequest { supi },
                ..
            },
        ) = (step, &m)
        {
            self.amf.ues.insert(ue, AmfUeCtx::new(supi, gnb, now));
            outs.sbi(SbiOp::UeAuthCtxCreateReq { supi }, ue);
            return;
        }
        let ctx = self.ue_ctx(ue);
        match (step, m) {
            (
                Proc::RegAuthResponse(expected),
                N::UplinkNasTransport {
                    nas: Nas::AuthenticationResponse { res },
                    ..
                },
            ) => {
                if res != expected {
                    // Authentication failure: abort the registration (a
                    // real AMF would send a NAS reject; the UE never
                    // becomes registered either way).
                    ctx.proc = Proc::None;
                    return;
                }
                ctx.proc = Proc::RegAkaConfirm;
                outs.sbi(SbiOp::Auth5gAkaConfirmReq, ue);
            }
            (
                Proc::RegSecurityMode,
                N::UplinkNasTransport {
                    nas: Nas::SecurityModeComplete,
                    ..
                },
            ) => {
                ctx.proc = Proc::RegUecm;
                outs.sbi(SbiOp::UecmRegistrationReq, ue);
            }
            // Registration completes with the UE's RegistrationComplete,
            // not with the gNB's context-setup response.
            (Proc::RegContextSetup, N::InitialContextSetupResponse { .. }) => {}
            (
                Proc::RegContextSetup,
                N::UplinkNasTransport {
                    nas: Nas::RegistrationComplete,
                    ..
                },
            ) => {
                ctx.proc = Proc::None;
                self.complete(ue, UeEvent::Registration, now);
            }

            // ---- PDU session establishment (TS 23.502 §4.3.2.2) ----
            (
                Proc::None,
                N::UplinkNasTransport {
                    nas: Nas::PduSessionEstablishmentRequest { .. },
                    ..
                },
            ) => {
                ctx.proc_start = now;
                ctx.proc = Proc::SessSmContext;
                outs.sbi(SbiOp::CreateSmContextReq, ue);
            }
            (
                Proc::SessAnSetup,
                N::PduSessionResourceSetupResponse {
                    downlink_tunnel, ..
                },
            ) => {
                ctx.proc = Proc::SessTunnelBind;
                let update = SmContextUpdate::AnTunnelInfo(downlink_tunnel);
                outs.sbi(SbiOp::UpdateSmContextReq(update), ue);
            }

            // After a handover, the source gNB's release completion needs
            // no action, whatever the UE does meanwhile; matched ahead of
            // the release arms below, so it never ends one of them.
            (_, N::UeContextReleaseComplete { .. }) if from != Endpoint::Gnb(ctx.serving_gnb) => {}

            // ---- Idle transition (AN release, TS 23.502 §4.2.6) ----
            (Proc::None, N::UeContextReleaseRequest { .. }) => {
                ctx.proc_start = now;
                ctx.proc = Proc::IdleSmIdle(false);
                outs.sbi(SbiOp::UpdateSmContextReq(SmContextUpdate::Idle), ue);
            }
            (Proc::IdleReleaseComplete(held), N::UeContextReleaseComplete { .. }) => {
                ctx.proc = Proc::None;
                ctx.cm = CmState::Idle;
                self.complete(ue, UeEvent::IdleTransition, now);
                if held {
                    // The release has ended: page for the transfer held
                    // meanwhile (TS 23.502 §4.2.3.3).
                    page(self.ue_ctx(ue), now, outs);
                }
            }

            // ---- Paging: service request from the woken UE ----
            (
                Proc::PagingServiceRequest,
                N::InitialUeMessage {
                    gnb,
                    nas: Nas::ServiceRequest { .. },
                    ..
                },
            ) => {
                ctx.serving_gnb = gnb;
                ctx.cm = CmState::Connected;
                ctx.proc = Proc::PagingSmActivate;
                // TS 23.502 §4.2.3.2 step 4: activate the UP connection at
                // the SMF before setting up the AN resources.
                outs.sbi(SbiOp::UpdateSmContextReq(SmContextUpdate::ActivateUp), ue);
            }
            (
                Proc::PagingAnSetup,
                N::PduSessionResourceSetupResponse {
                    downlink_tunnel, ..
                },
            ) => {
                ctx.proc = Proc::PagingTunnelBind;
                let update = SmContextUpdate::Active {
                    an_tunnel: downlink_tunnel,
                };
                outs.sbi(SbiOp::UpdateSmContextReq(update), ue);
            }

            // ---- Deregistration (TS 23.502 §4.2.2.3) ----
            (
                Proc::None,
                N::UplinkNasTransport {
                    nas: Nas::DeregistrationRequest { .. },
                    ..
                },
            ) => {
                ctx.proc_start = now;
                ctx.proc = Proc::DeregSmRelease;
                outs.sbi(SbiOp::ReleaseSmContextReq, ue);
            }
            (Proc::DeregAnRelease, N::UeContextReleaseComplete { .. }) => {
                ctx.proc = Proc::None;
                ctx.cm = CmState::Idle;
                self.complete(ue, UeEvent::Deregistration, now);
            }

            // ---- N2 handover (TS 23.502 §4.9.1.3) ----
            (Proc::None, N::HandoverRequired { target_gnb, .. }) => {
                ctx.proc_start = now;
                ctx.proc = Proc::HoPrepDiscovery(target_gnb);
                self.ho_event(ue, "prepare", now);
                // free5GC (re)discovers the target-side serving NFs at the
                // NRF before touching the SM context.
                outs.sbi(SbiOp::NfDiscoveryReq, ue);
            }
            (
                Proc::HoTargetAck(target),
                N::HandoverRequestAcknowledge {
                    downlink_tunnel, ..
                },
            ) => {
                ctx.proc = Proc::HoSmPrepared(target);
                self.ho_event(ue, "target_ack", now);
                let update = SmContextUpdate::HoPrepared {
                    target_dl: downlink_tunnel,
                };
                outs.sbi(SbiOp::UpdateSmContextReq(update), ue);
            }
            (Proc::HoExecuting, N::HandoverNotify { gnb, .. }) => {
                ctx.proc = Proc::HoCompleteDiscovery(ctx.serving_gnb);
                ctx.serving_gnb = gnb;
                self.ho_event(ue, "path_switch", now);
                // Path-switch: re-validate the UPF/SMF selection at the NRF
                // before updating the SM context (free5GC behaviour).
                outs.sbi(SbiOp::NfDiscoveryReq, ue);
            }

            (step, m) => panic!("AMF: UE {ue} at step {step:?} cannot take {m:?}"),
        }
    }

    /// The AMF's SBI side: one arm per (step, operation) pair, the
    /// answers to the SM-context updates included.
    fn amf_sbi(&mut self, op: SbiOp, ue: UeId, now: SimTime, outs: &mut Outs) {
        use SbiOp::UpdateSmContextResp as Updated;
        let ctx = self.ue_ctx(ue);
        match (ctx.proc, op) {
            // ---- Registration ----
            (Proc::RegAuthCtx, SbiOp::UeAuthCtxCreateResp { rand, sqn, xres }) => {
                ctx.proc = Proc::RegAuthResponse(xres);
                let nas = NasMessage::AuthenticationRequest { rand, sqn };
                outs.ngap(
                    ctx.serving_gnb,
                    NgapMessage::DownlinkNasTransport { ue, nas },
                );
            }
            (Proc::RegAkaConfirm, SbiOp::Auth5gAkaConfirmResp) => {
                ctx.proc = Proc::RegSecurityMode;
                let nas = NasMessage::SecurityModeCommand;
                outs.ngap(
                    ctx.serving_gnb,
                    NgapMessage::DownlinkNasTransport { ue, nas },
                );
            }
            (Proc::RegUecm, SbiOp::UecmRegistrationResp) => {
                ctx.proc = Proc::RegSdmData;
                outs.sbi(SbiOp::SdmGetAmDataReq, ue);
            }
            (Proc::RegSdmData, SbiOp::SdmGetAmDataResp) => {
                ctx.proc = Proc::RegAmPolicy;
                outs.sbi(SbiOp::AmPolicyCreateReq, ue);
            }
            (Proc::RegAmPolicy, SbiOp::AmPolicyCreateResp) => {
                ctx.proc = Proc::RegContextSetup;
                let nas = NasMessage::RegistrationAccept { guti: ctx.guti };
                outs.ngap(
                    ctx.serving_gnb,
                    NgapMessage::InitialContextSetupRequest { ue, nas },
                );
            }

            // ---- Session establishment ----
            (Proc::SessSmContext, SbiOp::CreateSmContextResp) => {
                // Nothing to send: the SMF continues (UDM, PCF, UPF) and
                // calls back with N1N2MessageTransfer.
                ctx.proc = Proc::SessN1N2;
            }
            (Proc::SessN1N2, SbiOp::N1N2MessageTransferReq { ul_teid }) => {
                outs.sbi(SbiOp::N1N2MessageTransferResp, ue);
                ctx.proc = Proc::SessAnSetup;
                outs.ngap(
                    ctx.serving_gnb,
                    NgapMessage::PduSessionResourceSetupRequest {
                        ue,
                        session_id: 1,
                        uplink_tunnel: n3_tunnel(ul_teid),
                        nas: NasMessage::PduSessionEstablishmentAccept {
                            session_id: 1,
                            ue_ip: ue_ip_for(ue),
                        },
                    },
                );
            }
            (Proc::SessTunnelBind, Updated(SmContextUpdate::AnTunnelInfo(_))) => {
                // The NAS accept already rode in the resource setup
                // request; the session is up.
                ctx.proc = Proc::None;
                self.complete(ue, UeEvent::SessionRequest, now);
            }

            // ---- Handover ----
            (Proc::HoPrepDiscovery(target), SbiOp::NfDiscoveryResp) => {
                ctx.proc = Proc::HoSmPrepare(target);
                outs.sbi(SbiOp::SmContextRetrieveReq, ue);
            }
            (Proc::HoSmPrepare(target_gnb), SbiOp::SmContextRetrieveResp) => {
                let update = SmContextUpdate::HoPrepare { target_gnb };
                outs.sbi(SbiOp::UpdateSmContextReq(update), ue);
            }
            (Proc::HoSmPrepare(target), Updated(SmContextUpdate::HoPrepareAck { new_ul_teid })) => {
                ctx.proc = Proc::HoTargetAck(target);
                outs.ngap(
                    target,
                    NgapMessage::HandoverRequest {
                        ue,
                        session_id: 1,
                        uplink_tunnel: n3_tunnel(new_ul_teid),
                    },
                );
            }
            (Proc::HoSmPrepared(target_gnb), Updated(SmContextUpdate::HoPrepared { .. })) => {
                ctx.proc = Proc::HoExecuting;
                let src = ctx.serving_gnb;
                self.ho_event(ue, "execute", now);
                outs.ngap(src, NgapMessage::HandoverCommand { ue, target_gnb });
            }
            (Proc::HoCompleteDiscovery(source), SbiOp::NfDiscoveryResp) => {
                ctx.proc = Proc::HoSmComplete(source);
                let update = SmContextUpdate::HoComplete;
                outs.sbi(SbiOp::UpdateSmContextReq(update), ue);
            }
            (Proc::HoSmComplete(source), Updated(SmContextUpdate::HoComplete)) => {
                // DL path switched; start the mobility registration update.
                ctx.proc = Proc::HoUecm(source);
                outs.sbi(SbiOp::UecmRegistrationReq, ue);
            }
            (Proc::HoUecm(source), SbiOp::UecmRegistrationResp) => {
                ctx.proc = Proc::HoAmPolicy(source);
                outs.sbi(SbiOp::AmPolicyCreateReq, ue);
            }
            (Proc::HoAmPolicy(source), SbiOp::AmPolicyCreateResp) => {
                // Mobility update done: the handover event completes, and
                // the source gNB's UE context is released.
                ctx.proc = Proc::None;
                self.ho_event(ue, "complete", now);
                self.complete(ue, UeEvent::Handover, now);
                outs.ngap(source, NgapMessage::UeContextReleaseCommand { ue });
            }

            // ---- Idle transition ----
            (Proc::IdleSmIdle(held), Updated(SmContextUpdate::Idle)) => {
                ctx.proc = Proc::IdleReleaseComplete(held);
                outs.ngap(ctx.serving_gnb, NgapMessage::UeContextReleaseCommand { ue });
            }
            // TS 23.502 §4.2.3.3: the AN release, an N2 procedure, is still
            // running. Keep the transfer pending and page once the release
            // ends.
            (Proc::IdleSmIdle(_), SbiOp::N1N2MessageTransferReq { .. }) => {
                outs.sbi(SbiOp::N1N2MessageTransferResp, ue);
                ctx.proc = Proc::IdleSmIdle(true);
            }
            (Proc::IdleReleaseComplete(_), SbiOp::N1N2MessageTransferReq { .. }) => {
                outs.sbi(SbiOp::N1N2MessageTransferResp, ue);
                ctx.proc = Proc::IdleReleaseComplete(true);
            }

            // ---- Paging ----
            (Proc::None, SbiOp::N1N2MessageTransferReq { .. }) if ctx.cm == CmState::Idle => {
                // Downlink-data notification for an idle UE: page it.
                outs.sbi(SbiOp::N1N2MessageTransferResp, ue);
                page(ctx, now, outs);
            }
            (Proc::PagingSmActivate, Updated(SmContextUpdate::ActivateUpAck { ul_teid })) => {
                ctx.proc = Proc::PagingAnSetup;
                outs.ngap(
                    ctx.serving_gnb,
                    NgapMessage::PduSessionResourceSetupRequest {
                        ue,
                        session_id: 1,
                        uplink_tunnel: n3_tunnel(ul_teid),
                        nas: NasMessage::ServiceAccept,
                    },
                );
            }
            (Proc::PagingTunnelBind, Updated(SmContextUpdate::Active { .. })) => {
                ctx.proc = Proc::None;
                self.complete(ue, UeEvent::Paging, now);
            }

            // ---- Deregistration ----
            (Proc::DeregSmRelease, SbiOp::ReleaseSmContextResp) => {
                ctx.proc = Proc::DeregAnRelease;
                let gnb = ctx.serving_gnb;
                let nas = NasMessage::DeregistrationAccept;
                outs.ngap(gnb, NgapMessage::DownlinkNasTransport { ue, nas });
                outs.ngap(gnb, NgapMessage::UeContextReleaseCommand { ue });
            }

            (step, op) => panic!("AMF: UE {ue} at step {step:?} cannot take {op:?}"),
        }
    }

    /// Records a handover phase in the flight recorder.
    fn ho_event(&mut self, ue: UeId, phase: &'static str, now: SimTime) {
        self.obs.event(now, EventKind::HandoverPhase { ue, phase });
    }

    /// Queueing delay at the UPF-U's forwarding core, and advance of the
    /// busy watermark. Uses the timestamp of the last processed packet as
    /// "now" — exact for the FIFO arrival order the driver delivers in.
    fn upf_queue(&mut self, svc: SimDuration) -> SimDuration {
        let now = self.upf_now;
        let start = self.upf.busy_until.max(now);
        self.upf.busy_until = start + svc;
        start.duration_since(now)
    }

    fn ue_ctx(&mut self, ue: UeId) -> &mut AmfUeCtx {
        self.amf.ues.get_mut(&ue).expect("UE context exists")
    }

    // ================= UDM =================

    /// An authentication vector for `supi` (the UDM's one handler; its
    /// other operations are hand-offs).
    fn udm_auth_vector(&mut self, supi: u64, ue: UeId, outs: &mut Outs) {
        // RAND derived deterministically per challenge; a real UDM draws
        // it from a CSPRNG.
        let seed = self
            .udm
            .udr
            .get(supi)
            .map(|sub| sub.sqn + 1)
            .expect("subscriber provisioned in the UDR");
        let mut rand = [0u8; 16];
        rand[..8].copy_from_slice(&supi.to_be_bytes());
        rand[8..].copy_from_slice(&seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_be_bytes());
        let AuthVector {
            rand,
            autn: _,
            xres,
        } = self
            .udm
            .udr
            .generate_auth_vector(supi, rand)
            .expect("subscriber provisioned");
        let sqn = self.udm.udr.get(supi).expect("present").sqn;
        outs.sbi(SbiOp::GenerateAuthDataResp { rand, sqn, xres }, ue);
    }

    // ================= SMF =================

    /// The SMF's SBI side: one arm per (step, operation) pair. Every
    /// SM-context update but `ActivateUp` modifies the UPF, and the step
    /// it enters holds the answer owed until the UPF acknowledges.
    fn smf_sbi(&mut self, op: SbiOp, ue: UeId, outs: &mut Outs) {
        use SbiOp::UpdateSmContextReq as Update;
        use SmContextUpdate as U;
        let step = self.smf.sessions.get(&ue).map_or(SmfProc::None, |s| s.proc);
        let next = match (step, op) {
            // The AMF's acknowledgment of an N1/N2 transfer needs no
            // action, in any step.
            (_, SbiOp::N1N2MessageTransferResp) => return,

            // ---- Establishment (TS 23.502 §4.3.2.2) ----
            (SmfProc::None, SbiOp::CreateSmContextReq) => {
                let seid = self.smf.alloc_seid();
                let session = SmfSession {
                    seid,
                    ul_teid: self.smf.alloc_teid(),
                    pfcp_seq: 0,
                    proc: SmfProc::EstPolicy,
                };
                self.smf.sessions.insert(ue, session);
                self.smf.by_seid.insert(seid, ue);
                outs.sbi(SbiOp::CreateSmContextResp, ue);
                outs.sbi(SbiOp::SdmGetSmDataReq, ue);
                return;
            }
            (SmfProc::EstPolicy, SbiOp::SmPolicyCreateResp) => {
                // Provision the UPF: Session Establishment with UL/DL PDRs.
                outs.n4(build_establishment(self.smf.session(ue), ue));
                SmfProc::EstN4
            }

            // ---- SM-context updates ----
            (SmfProc::None, Update(u @ (U::AnTunnelInfo(tun) | U::Active { an_tunnel: tun }))) => {
                let far = dl_far(Some(ApplyAction::FORW), Some(tun));
                outs.n4(build_modification(self.smf.session(ue), far, None));
                SmfProc::Modify(u)
            }
            (SmfProc::None, Update(u @ U::Idle)) => {
                let far = dl_far(Some(ApplyAction::BUFF_NOCP), None);
                outs.n4(build_modification(self.smf.session(ue), far, None));
                SmfProc::Modify(u)
            }
            (SmfProc::None, Update(U::ActivateUp)) => {
                // Ack without touching the UPF: the FAR flips when the AN
                // tunnel arrives. The ack carries the CN N3 tunnel
                // (TS 23.502 §4.2.3.2).
                let ul_teid = self.smf.session(ue).ul_teid;
                let ack = U::ActivateUpAck { ul_teid };
                outs.sbi(SbiOp::UpdateSmContextResp(ack), ue);
                SmfProc::None
            }

            // ---- Handover: the UL TEID for the target is allocated at
            // preparation and committed at the path switch ----
            (SmfProc::None, Update(U::HoPrepare { .. })) => {
                // The §3.3 piggyback: the new UL TEID and BUFF share one
                // message, so smart buffering costs no extra one.
                let new_ul_teid = self.smf.alloc_teid();
                let far = dl_far(Some(ApplyAction::BUFF), None);
                let s = self.smf.session(ue);
                outs.n4(build_modification(s, far, Some(new_ul_teid)));
                SmfProc::Modify(U::HoPrepareAck { new_ul_teid })
            }
            (SmfProc::HoTargetDl(ul_teid), Update(U::HoPrepared { target_dl })) => {
                // Record the target tunnel but keep buffering.
                let far = dl_far(None, Some(target_dl));
                outs.n4(build_modification(self.smf.session(ue), far, None));
                SmfProc::HoTargetDlN4(ul_teid, target_dl)
            }
            (SmfProc::HoPathSwitch(ul_teid, target_dl), Update(u @ U::HoComplete)) => {
                let s = self.smf.session(ue);
                s.ul_teid = ul_teid;
                let far = dl_far(Some(ApplyAction::FORW), Some(target_dl));
                outs.n4(build_modification(s, far, None));
                SmfProc::Modify(u)
            }

            // ---- Release (TS 23.502 §4.3.4.2) ----
            (SmfProc::None, SbiOp::ReleaseSmContextReq) => {
                let s = self.smf.session(ue);
                let msg = pfcp_request(s, MsgType::SessionDeletionRequest, IeSet::default());
                outs.n4(msg);
                SmfProc::Release
            }

            (step, op) => panic!("SMF: UE {ue} at step {step:?} cannot take {op:?}"),
        };
        self.smf.session(ue).proc = next;
    }

    /// The SMF's N4 side: one arm per (step, message) pair. The UPF's
    /// downlink-data report is its own, and it is taken in any step.
    fn smf_n4(&mut self, m: pfcp::Message, outs: &mut Outs) {
        use MsgType::SessionModificationResponse as Modified;
        use SbiOp::UpdateSmContextResp as Answer;
        use SmContextUpdate as U;
        if m.msg_type == MsgType::AssociationSetupResponse {
            let was = std::mem::replace(&mut self.smf.n4_association, N4Association::Established);
            let msg = "SMF: an AssociationSetupResponse with no setup in flight";
            assert_eq!(was, N4Association::Pending, "{msg}");
            return;
        }
        let seid = m.seid.expect("session-scoped N4");
        let ue = self.smf.ue_of_seid(seid);
        let s = self.smf.session(ue);
        s.proc = match (s.proc, m.msg_type) {
            (step, MsgType::SessionReportRequest) => {
                // Downlink data notification: ack to the UPF and alert
                // the AMF so it pages the UE.
                outs.n4(accepted(MsgType::SessionReportResponse, seid, m.seq));
                outs.sbi(SbiOp::N1N2MessageTransferReq { ul_teid: s.ul_teid }, ue);
                step
            }
            (SmfProc::EstN4, MsgType::SessionEstablishmentResponse) => {
                outs.sbi(SbiOp::N1N2MessageTransferReq { ul_teid: s.ul_teid }, ue);
                SmfProc::None
            }
            // Answer the update each modification was made for.
            (SmfProc::Modify(ack @ U::HoPrepareAck { new_ul_teid }), Modified) => {
                outs.sbi(Answer(ack), ue);
                SmfProc::HoTargetDl(new_ul_teid)
            }
            (SmfProc::HoTargetDlN4(ul_teid, target_dl), Modified) => {
                outs.sbi(Answer(U::HoPrepared { target_dl }), ue);
                SmfProc::HoPathSwitch(ul_teid, target_dl)
            }
            (SmfProc::Modify(ack), Modified) => {
                outs.sbi(Answer(ack), ue);
                SmfProc::None
            }
            (SmfProc::Release, MsgType::SessionDeletionResponse) => {
                self.smf.sessions.remove(&ue);
                self.smf.by_seid.remove(&seid);
                outs.sbi(SbiOp::ReleaseSmContextResp, ue);
                return;
            }
            (step, other) => panic!("SMF: UE {ue} at step {step:?} cannot take {other:?}"),
        };
    }

    // ================= UPF =================

    fn upfc_n4(&mut self, m: pfcp::Message, outs: &mut Outs) {
        if m.msg_type == MsgType::AssociationSetupRequest {
            outs.n4(pfcp::Message::node(
                MsgType::AssociationSetupResponse,
                m.seq,
                IeSet {
                    node_id: Some(UPF_N3_ADDR),
                    cause: Some(pfcp::Cause::Accepted),
                    ..IeSet::default()
                },
            ));
            return;
        }
        let seid = m.seid.expect("session-scoped N4");
        match m.msg_type {
            MsgType::SessionEstablishmentRequest => {
                let ue = self.smf.ue_of_seid(seid);
                self.upf.establish(seid, ue, &m.ies);
                self.obs
                    .event(self.upf_now, EventKind::PfcpEstablish { seid });
                outs.n4(accepted(MsgType::SessionEstablishmentResponse, seid, m.seq));
            }
            MsgType::SessionModificationRequest => {
                let released = self.upf.modify(seid, &m.ies);
                self.obs.event(self.upf_now, EventKind::PfcpModify { seid });
                if !released.is_empty() {
                    self.obs.event(
                        self.upf_now,
                        EventKind::UpfBufferDrain {
                            seid,
                            released: released.len(),
                        },
                    );
                }
                outs.n4(accepted(MsgType::SessionModificationResponse, seid, m.seq));
                // Flushed buffer: deliver in order, paced at the datapath
                // service rate.
                let svc = self.cost.datapath_service(self.deployment.datapath(), 1400);
                let lat =
                    self.cost.datapath_latency(self.deployment.datapath()) + self.cost.path_lat;
                for (i, (tun, pkt)) in released.into_iter().enumerate() {
                    outs.raw(lat + svc * (i as u64 + 1), to_gnb(tun, pkt));
                }
            }
            MsgType::SessionDeletionRequest => {
                let deleted = self.upf.delete(seid);
                assert!(deleted, "UPF-C: no live session for SEID {seid} to delete");
                self.obs.event(self.upf_now, EventKind::PfcpDelete { seid });
                outs.n4(accepted(MsgType::SessionDeletionResponse, seid, m.seq));
            }
            MsgType::SessionReportRequest => {
                // Raised by UPF-U; forward over N4 to the SMF.
                outs.n4(m);
            }
            MsgType::SessionReportResponse => {
                // SMF acknowledged the downlink-data report.
            }
            other => panic!("UPF-C cannot handle N4 {other:?}"),
        }
    }

    fn upfu_data(&mut self, pkt: DataPacket) -> Vec<Output> {
        let path = self.deployment.datapath();
        let svc = self.cost.datapath_service(path, pkt.size);
        // Run-to-completion server: queue behind whatever is in service.
        // (`handle` passes `now` only to NF handlers; data keeps its own
        // clock via the busy-until watermark advanced per packet.)
        let lat = self.cost.datapath_latency(path) + self.cost.path_lat + svc + self.upf_queue(svc);
        match self.upf.forward(pkt, pkt.tunnel_teid, self.upf_now) {
            Verdict::ToDn(p) => vec![Output {
                delay: lat,
                env: Envelope::new(Endpoint::UpfU, Endpoint::Dn, Msg::Data(p)),
            }],
            Verdict::ToGnb(tun, p) => vec![Output {
                delay: lat,
                env: to_gnb(tun, p),
            }],
            Verdict::Buffered { report: true, seid } => {
                // UPF-U alerts UPF-C, which sends the PFCP report.
                self.upf.pfcp_seq += 1;
                let ies = IeSet {
                    report_downlink_data: true,
                    downlink_data_pdr: Some(2),
                    ..IeSet::default()
                };
                let m = pfcp::Message::session(
                    MsgType::SessionReportRequest,
                    seid,
                    self.upf.pfcp_seq,
                    ies,
                );
                vec![Output {
                    delay: svc,
                    env: Envelope::new(Endpoint::UpfC, Endpoint::Smf, Msg::N4(m)),
                }]
            }
            Verdict::Buffered { report: false, .. } | Verdict::Drop(_) => Vec::new(),
        }
    }
}

/// Pages an idle UE for downlink data (TS 23.502 §4.2.3.3): the paging
/// procedure starts now.
fn page(ctx: &mut AmfUeCtx, now: SimTime, outs: &mut Outs) {
    ctx.proc_start = now;
    ctx.proc = Proc::PagingServiceRequest;
    outs.ngap(ctx.serving_gnb, NgapMessage::Paging { guti: ctx.guti });
}

/// A DL packet from UPF-U into the gNB tunnel `tun`.
fn to_gnb(tun: TunnelInfo, p: DataPacket) -> Envelope {
    let p = DataPacket {
        tunnel_teid: Some(tun.teid),
        ..p
    };
    Envelope::new(Endpoint::UpfU, Endpoint::Gnb(tun.addr), Msg::Data(p))
}

/// The UPF's N3 tunnel endpoint for an uplink TEID.
fn n3_tunnel(teid: u32) -> TunnelInfo {
    TunnelInfo {
        teid,
        addr: UPF_N3_ADDR.to_u32(),
    }
}

/// A session-scoped PFCP response with cause "accepted".
fn accepted(msg_type: MsgType, seid: u64, seq: u32) -> pfcp::Message {
    let ies = IeSet {
        cause: Some(pfcp::Cause::Accepted),
        ..IeSet::default()
    };
    pfcp::Message::session(msg_type, seid, seq, ies)
}

/// Per-message handler processing costs (the "common" component of Fig 8;
/// see DESIGN.md §5). An SBI operation's weight is in its table row; the
/// NGAP and N4 classes are below.
pub fn handler_cost(cost: &CostModel, env: &Envelope) -> SimDuration {
    let unit = cost.handler; // 1 ms
    let scale = |x: f64| SimDuration::from_secs_f64(unit.as_secs_f64() * x);
    match (&env.to, &env.msg) {
        // Data plane never pays control handler costs.
        (_, Msg::Data(_)) => SimDuration::ZERO,
        (_, Msg::Sbi { op, .. }) => scale(op.row().weight),
        // Heavy: UPF rule install.
        (Endpoint::UpfC, Msg::N4(m)) if m.msg_type == MsgType::SessionEstablishmentRequest => {
            scale(2.0)
        }
        // Medium: downlink-data reports and AMF procedure steps.
        (Endpoint::Smf, Msg::N4(m)) if m.msg_type == MsgType::SessionReportRequest => scale(2.0),
        (Endpoint::Amf, Msg::Ngap(NgapMessage::InitialUeMessage { .. })) => scale(2.0),
        (Endpoint::Amf, Msg::Ngap(_)) => scale(1.0),
        // Light: everything else (N4 acks, UPF modifications).
        _ => scale(0.5),
    }
}

/// The flight-recorder / trace name of an endpoint.
pub fn nf_name(ep: Endpoint) -> &'static str {
    match ep {
        Endpoint::Ue(_) => "ue",
        Endpoint::Gnb(_) => "gnb",
        Endpoint::Amf => "amf",
        Endpoint::Smf => "smf",
        Endpoint::Ausf => "ausf",
        Endpoint::Udm => "udm",
        Endpoint::Pcf => "pcf",
        Endpoint::Nrf => "nrf",
        Endpoint::UpfC => "upf-c",
        Endpoint::UpfU => "upf-u",
        Endpoint::Dn => "dn",
    }
}

/// A short static label for a message, used as the segment name in
/// traces (SBI operations by name, NGAP/N4 by message type).
pub(crate) fn msg_label(msg: &Msg) -> &'static str {
    match msg {
        Msg::Sbi { op, .. } => op.row().label,
        Msg::Ngap(m) => match m {
            NgapMessage::InitialUeMessage { .. } => "InitialUeMessage",
            NgapMessage::DownlinkNasTransport { .. } => "DownlinkNasTransport",
            NgapMessage::UplinkNasTransport { .. } => "UplinkNasTransport",
            NgapMessage::InitialContextSetupRequest { .. } => "InitialContextSetupRequest",
            NgapMessage::InitialContextSetupResponse { .. } => "InitialContextSetupResponse",
            NgapMessage::HandoverRequired { .. } => "HandoverRequired",
            NgapMessage::HandoverRequest { .. } => "HandoverRequest",
            NgapMessage::HandoverRequestAcknowledge { .. } => "HandoverRequestAcknowledge",
            NgapMessage::HandoverCommand { .. } => "HandoverCommand",
            NgapMessage::HandoverNotify { .. } => "HandoverNotify",
            _ => "ngap",
        },
        Msg::N4(m) => match m.msg_type {
            MsgType::AssociationSetupRequest => "AssociationSetupRequest",
            MsgType::AssociationSetupResponse => "AssociationSetupResponse",
            MsgType::HeartbeatRequest => "HeartbeatRequest",
            MsgType::HeartbeatResponse => "HeartbeatResponse",
            MsgType::SessionEstablishmentRequest => "SessionEstablishmentRequest",
            MsgType::SessionEstablishmentResponse => "SessionEstablishmentResponse",
            MsgType::SessionModificationRequest => "SessionModificationRequest",
            MsgType::SessionModificationResponse => "SessionModificationResponse",
            MsgType::SessionDeletionRequest => "SessionDeletionRequest",
            MsgType::SessionDeletionResponse => "SessionDeletionResponse",
            MsgType::SessionReportRequest => "SessionReportRequest",
            MsgType::SessionReportResponse => "SessionReportResponse",
        },
        Msg::Data(_) => "data",
    }
}

/// The Session Establishment that provisions `ue`'s session at the UPF:
/// UL and DL PDRs, the DL FAR buffering until the AN tunnel is bound.
fn build_establishment(s: &mut SmfSession, ue: UeId) -> pfcp::Message {
    let ies = IeSet {
        node_id: Some(Ipv4Addr::new(10, 200, 200, 1)),
        f_seid: Some((s.seid, Ipv4Addr::new(10, 200, 200, 1))),
        create_pdrs: vec![
            CreatePdr {
                pdr_id: 1,
                precedence: 255,
                pdi: Pdi {
                    source_interface: Some(Interface::Access),
                    f_teid: Some(FTeid {
                        teid: s.ul_teid,
                        addr: UPF_N3_ADDR,
                    }),
                    ..Pdi::default()
                },
                outer_header_removal: true,
                far_id: 1,
                qer_ids: vec![1],
            },
            CreatePdr {
                pdr_id: 2,
                precedence: 255,
                pdi: Pdi {
                    source_interface: Some(Interface::Core),
                    ue_ip: Some(UeIpAddress {
                        addr: Ipv4Addr::from_u32(ue_ip_for(ue)),
                        is_destination: true,
                    }),
                    ..Pdi::default()
                },
                outer_header_removal: false,
                far_id: 2,
                qer_ids: vec![1],
            },
        ],
        create_fars: vec![
            CreateFar {
                far_id: 1,
                apply_action: ApplyAction::FORW,
                forwarding: Some(ForwardingParameters {
                    dest_interface: Interface::Core,
                    outer_header_creation: None,
                }),
            },
            // DL buffers until the AN tunnel is bound.
            CreateFar {
                far_id: 2,
                apply_action: ApplyAction::BUFF,
                forwarding: None,
            },
        ],
        // Default best-effort QoS flow: unlimited MBR.
        create_qers: vec![pfcp::CreateQer {
            qer_id: 1,
            mbr_bps: 0,
        }],
        ..IeSet::default()
    };
    pfcp_request(s, MsgType::SessionEstablishmentRequest, ies)
}

/// A request of `s`'s PFCP session, on its next sequence number.
fn pfcp_request(s: &mut SmfSession, msg_type: MsgType, ies: IeSet) -> pfcp::Message {
    s.pfcp_seq += 1;
    pfcp::Message::session(msg_type, s.seid, s.pfcp_seq, ies)
}

/// A Session Modification of `s`'s DL FAR; `new_ul_teid` also moves the
/// UL PDR to that N3 TEID.
fn build_modification(
    s: &mut SmfSession,
    far: UpdateFar,
    new_ul_teid: Option<u32>,
) -> pfcp::Message {
    let update_pdrs = new_ul_teid.map(|teid| UpdatePdr {
        pdr_id: 1,
        precedence: None,
        pdi: Some(Pdi {
            source_interface: Some(Interface::Access),
            f_teid: Some(FTeid {
                teid,
                addr: UPF_N3_ADDR,
            }),
            ..Pdi::default()
        }),
        far_id: None,
    });
    let ies = IeSet {
        update_pdrs: update_pdrs.into_iter().collect(),
        update_fars: vec![far],
        ..IeSet::default()
    };
    pfcp_request(s, MsgType::SessionModificationRequest, ies)
}

/// An update of the DL FAR: its apply action (`None` keeps it) and the
/// gNB tunnel it forwards to, if any.
fn dl_far(apply_action: Option<ApplyAction>, to: Option<TunnelInfo>) -> UpdateFar {
    UpdateFar {
        far_id: 2,
        apply_action,
        forwarding: to.map(|tun| ForwardingParameters {
            dest_interface: Interface::Access,
            outer_header_creation: Some(pfcp::OuterHeaderCreation {
                teid: tun.teid,
                addr: Ipv4Addr::from_u32(tun.addr),
            }),
        }),
    }
}

/// The envelopes one NF emits while handling one message; every send
/// leaves from that NF. `None` delay means "compute the control-hop
/// cost"; `Some` is a fixed datapath delay.
struct Outs {
    from: Endpoint,
    items: Vec<(Option<SimDuration>, Envelope)>,
}

impl Outs {
    /// An SBI operation about `ue`, to the NF its table row names.
    fn sbi(&mut self, op: SbiOp, ue: UeId) {
        let to = op.row().to;
        self.push(to, Msg::Sbi { op, ue });
    }

    /// An NGAP message from the AMF to a gNB.
    fn ngap(&mut self, gnb: GnbId, m: NgapMessage) {
        self.push(Endpoint::Gnb(gnb), Msg::Ngap(m));
    }

    /// A PFCP message to the N4 peer: UPF-C for the SMF, the SMF for
    /// UPF-C.
    fn n4(&mut self, m: pfcp::Message) {
        let to = if self.from == Endpoint::Smf {
            Endpoint::UpfC
        } else {
            Endpoint::Smf
        };
        self.push(to, Msg::N4(m));
    }

    fn raw(&mut self, delay: SimDuration, env: Envelope) {
        self.items.push((Some(delay), env));
    }

    fn push(&mut self, to: Endpoint, msg: Msg) {
        self.items.push((None, Envelope::new(self.from, to, msg)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n4_association_handshake() {
        let mut core = CoreNetwork::new(Deployment::L25gc);
        let req = core.start_n4_association();
        assert_eq!(core.smf.n4_association, N4Association::Pending);
        let outs = core.handle(req, SimTime::ZERO);
        assert_eq!(outs.len(), 1, "UPF answers the setup");
        let resp = outs.into_iter().next().unwrap().env;
        assert_eq!(resp.to, Endpoint::Smf);
        core.handle(resp, SimTime::ZERO);
        assert_eq!(core.smf.n4_association, N4Association::Established);
    }

    #[test]
    fn handler_costs_scale_by_class() {
        let cost = CostModel::paper();
        let heavy = handler_cost(
            &cost,
            &Envelope::new(
                Endpoint::Ausf,
                Endpoint::Udm,
                Msg::Sbi {
                    op: SbiOp::GenerateAuthDataReq { supi: 101 },
                    ue: 1,
                },
            ),
        );
        let light = handler_cost(
            &cost,
            &Envelope::new(
                Endpoint::Amf,
                Endpoint::Ausf,
                Msg::Sbi {
                    op: SbiOp::Auth5gAkaConfirmResp,
                    ue: 1,
                },
            ),
        );
        assert!(heavy > light * 4u64, "AKA vector generation is heavy");
        // Data packets never pay control handler costs.
        let data = handler_cost(
            &cost,
            &Envelope::new(
                Endpoint::Dn,
                Endpoint::UpfU,
                Msg::Data(DataPacket {
                    ue: 1,
                    flow: 0,
                    dir: crate::msg::Direction::Downlink,
                    seq: 0,
                    size: 100,
                    sent_at: SimTime::ZERO,
                    dst_port: 80,
                    protocol: 6,
                    tunnel_teid: None,
                    ack_seq: None,
                }),
            ),
        );
        assert_eq!(data, SimDuration::ZERO);
    }

    /// The RAN's half of registration, session set-up and
    /// deregistration — gNB and UE collapsed into one reply function,
    /// since `l25gc-ran` depends on this crate.
    fn ran_replies(m: NgapMessage) -> Vec<NgapMessage> {
        let up = |ue, nas| NgapMessage::UplinkNasTransport { ue, nas };
        match m {
            NgapMessage::DownlinkNasTransport { ue, nas } => match nas {
                NasMessage::AuthenticationRequest { rand, sqn } => {
                    let res = Udr::ue_response(100 + ue, rand, sqn);
                    vec![up(ue, NasMessage::AuthenticationResponse { res })]
                }
                NasMessage::SecurityModeCommand => vec![up(ue, NasMessage::SecurityModeComplete)],
                NasMessage::DeregistrationAccept => Vec::new(),
                other => panic!("test UE cannot handle {other:?}"),
            },
            NgapMessage::InitialContextSetupRequest { ue, .. } => vec![
                NgapMessage::InitialContextSetupResponse { ue },
                up(ue, NasMessage::RegistrationComplete),
            ],
            NgapMessage::PduSessionResourceSetupRequest { ue, session_id, .. } => {
                vec![NgapMessage::PduSessionResourceSetupResponse {
                    ue,
                    session_id,
                    downlink_tunnel: TunnelInfo {
                        teid: 0x8000_0000 | ue as u32,
                        addr: 1,
                    },
                }]
            }
            NgapMessage::UeContextReleaseCommand { ue } => {
                vec![NgapMessage::UeContextReleaseComplete { ue }]
            }
            other => panic!("test gNB cannot handle {other:?}"),
        }
    }

    /// Sends `first` from gNB 1 at `*now` and delivers everything it
    /// causes, in time order, until nothing is in flight.
    fn settle(core: &mut CoreNetwork, now: &mut SimTime, first: NgapMessage) {
        let from_gnb = |m| Envelope::new(Endpoint::Gnb(1), Endpoint::Amf, Msg::Ngap(m));
        let mut q = l25gc_sim::EventQueue::new();
        q.push(*now, from_gnb(first));
        while let Some((at, env)) = q.pop() {
            *now = at;
            if let Endpoint::Gnb(_) = env.to {
                let Msg::Ngap(m) = env.msg else {
                    panic!("only NGAP reaches the test gNB")
                };
                for reply in ran_replies(m) {
                    q.push(at, from_gnb(reply));
                }
            } else {
                for out in core.handle(env, at) {
                    q.push(at + out.delay, out.env);
                }
            }
        }
    }

    /// A core with UE 1 registered at gNB 1, at `now` after it.
    fn registered() -> (CoreNetwork, SimTime) {
        let mut core = CoreNetwork::new(Deployment::L25gc);
        let mut now = SimTime::ZERO;
        core.provision_subscriber(101);
        let nas = NasMessage::RegistrationRequest { supi: 101 };
        let first = NgapMessage::InitialUeMessage { ue: 1, gnb: 1, nas };
        settle(&mut core, &mut now, first);
        assert_eq!(core.amf.ues[&1].proc, Proc::None);
        (core, now)
    }

    #[test]
    #[should_panic(expected = "UE 1 at step SessSmContext cannot take Auth5gAkaConfirmResp")]
    fn an_sbi_answer_out_of_step_panics() {
        let (mut core, now) = registered();
        let nas = NasMessage::PduSessionEstablishmentRequest { session_id: 1 };
        let req = NgapMessage::UplinkNasTransport { ue: 1, nas };
        core.handle(
            Envelope::new(Endpoint::Gnb(1), Endpoint::Amf, Msg::Ngap(req)),
            now,
        );
        assert_eq!(core.amf.ues[&1].proc, Proc::SessSmContext);
        let op = SbiOp::Auth5gAkaConfirmResp;
        let stray = Envelope::new(Endpoint::Ausf, Endpoint::Amf, Msg::Sbi { op, ue: 1 });
        core.handle(stray, now);
    }

    #[test]
    #[should_panic(
        expected = "UE 1 at step HoPrepDiscovery(2) cannot take HandoverRequired { ue: 1, target_gnb: 3 }"
    )]
    fn a_second_handover_mid_handover_panics() {
        let (mut core, now) = registered();
        for target_gnb in [2, 3] {
            let m = NgapMessage::HandoverRequired { ue: 1, target_gnb };
            core.handle(
                Envelope::new(Endpoint::Gnb(1), Endpoint::Amf, Msg::Ngap(m)),
                now,
            );
        }
    }

    #[test]
    #[should_panic(expected = "SMF: UE 1 at step None cannot take SessionModificationResponse")]
    fn a_modification_response_with_none_in_flight_panics() {
        let (mut core, mut now) = registered();
        let nas = NasMessage::PduSessionEstablishmentRequest { session_id: 1 };
        settle(
            &mut core,
            &mut now,
            NgapMessage::UplinkNasTransport { ue: 1, nas },
        );
        let seid = core.smf.sessions[&1].seid;
        assert_eq!(core.smf.sessions[&1].proc, SmfProc::None);
        let m = accepted(MsgType::SessionModificationResponse, seid, 9);
        core.handle(
            Envelope::new(Endpoint::UpfC, Endpoint::Smf, Msg::N4(m)),
            now,
        );
    }

    #[test]
    #[should_panic(expected = "SMF: an AssociationSetupResponse with no setup in flight")]
    fn a_second_association_response_panics() {
        let mut core = CoreNetwork::new(Deployment::L25gc);
        let req = core.start_n4_association();
        let resp = core.handle(req, SimTime::ZERO).remove(0).env;
        core.handle(resp.clone(), SimTime::ZERO);
        assert_eq!(core.smf.n4_association, N4Association::Established);
        core.handle(resp, SimTime::ZERO);
    }

    fn assert_seid_index_exact(smf: &Smf) {
        assert_eq!(smf.by_seid.len(), smf.sessions.len());
        for (&ue, s) in smf.sessions.iter() {
            assert_eq!(smf.ue_of_seid(s.seid), ue);
        }
    }

    #[test]
    fn seid_index_holds_exactly_the_live_sessions() {
        const UES: u64 = 48;
        // Three different walks over the UEs (multipliers coprime to 48).
        let walk = |mult: u64| (0..UES).map(move |i| (i * mult) % UES + 1);
        let mut core = CoreNetwork::new(Deployment::L25gc);
        let mut now = SimTime::ZERO;
        for ue in 1..=UES {
            core.provision_subscriber(100 + ue);
        }
        for ue in walk(29) {
            let nas = NasMessage::RegistrationRequest { supi: 100 + ue };
            let first = NgapMessage::InitialUeMessage { ue, gnb: 1, nas };
            settle(&mut core, &mut now, first);
            assert_seid_index_exact(&core.smf);
        }
        for (done, ue) in walk(35).enumerate() {
            let nas = NasMessage::PduSessionEstablishmentRequest { session_id: 1 };
            settle(
                &mut core,
                &mut now,
                NgapMessage::UplinkNasTransport { ue, nas },
            );
            assert_eq!(core.smf.sessions.len(), done + 1);
            assert_seid_index_exact(&core.smf);
        }
        let dereg = |ue| NgapMessage::UplinkNasTransport {
            ue,
            nas: NasMessage::DeregistrationRequest {
                guti: 0xF000_0000_0000_0000 | (100 + ue),
            },
        };

        // A checkpoint (`Replica` clones the core) carries the index: the
        // copy resolves the N4 deletion response of a pre-clone SEID.
        let mut replica = core.clone();
        let mut replica_now = now;
        settle(&mut replica, &mut replica_now, dereg(7));
        assert_eq!(replica.smf.sessions.len(), UES as usize - 1);
        assert_seid_index_exact(&replica.smf);
        assert_seid_index_exact(&core.smf);
        assert_eq!(core.smf.sessions.len(), UES as usize);

        for (done, ue) in walk(41).enumerate() {
            settle(&mut core, &mut now, dereg(ue));
            assert_eq!(core.smf.sessions.len(), UES as usize - done - 1);
            assert_seid_index_exact(&core.smf);
        }
        assert!(core.smf.by_seid.is_empty());
        assert!(core.upf.sessions.is_empty());
        let done = |kind| core.events.iter().filter(|e| e.event == kind).count();
        assert_eq!(done(UeEvent::Registration), UES as usize);
        assert_eq!(done(UeEvent::SessionRequest), UES as usize);
        assert_eq!(done(UeEvent::Deregistration), UES as usize);
    }
}
