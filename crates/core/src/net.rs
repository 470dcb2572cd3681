//! The consolidated 5G core: every control-plane NF as a state machine,
//! wired by typed envelopes.
//!
//! [`CoreNetwork::handle`] consumes one delivered envelope and returns the
//! set of envelopes the receiving NF emits, each tagged with the delay
//! after which it arrives (receiver handler cost + the deployment's
//! transport cost for that edge). Procedures follow the TS 23.502 call
//! flows; the module-level comments on each phase name the corresponding
//! spec step. Per-message handler costs are listed in [`handler_cost`].

use std::collections::HashMap;

use l25gc_nfv::cost::CostModel;
use l25gc_obs::{EventKind, Obs, ProcKind};
use l25gc_pkt::ipv4::Ipv4Addr;
use l25gc_pkt::nas::NasMessage;
use l25gc_pkt::ngap::{NgapMessage, TunnelInfo};
use l25gc_pkt::pfcp::{
    self, ApplyAction, CreateFar, CreatePdr, FTeid, ForwardingParameters, IeSet, Interface,
    MsgType, Pdi, UeIpAddress, UpdateFar, UpdatePdr,
};
use l25gc_sim::{SimDuration, SimTime};

use crate::context::{
    AmfUeCtx, CmState, DeregPhase, EventRecord, HoPhase, IdlePhase, PagingPhase, RegPhase, RmState,
    SessPhase, SmfSession, UeEvent,
};
use crate::deploy::Deployment;
use crate::msg::{DataPacket, Endpoint, Envelope, Msg, SbiOp, SmContextUpdate, UeId};
use crate::shard::ShardedMap;
use crate::udr::{AuthVector, Udr};
use crate::upf::{ue_ip_for, PdrBackend, Upf, Verdict};

/// The UPF's N3 address (free5GC's default data-plane address).
pub const UPF_N3_ADDR: Ipv4Addr = Ipv4Addr::new(10, 200, 200, 102);

/// How the handover routes in-flight downlink data (§3.3, Fig 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoverScheme {
    /// L²5GC: buffer at the UPF, deliver directly to the target gNB.
    SmartBuffering,
    /// 3GPP baseline: source gNB buffers (limited) and hairpins the
    /// packets back through the UPF after the UE moves.
    Hairpin3gpp,
}

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
    /// Per-UE contexts, partitioned across worker shards by UE id.
    pub ues: ShardedMap<UeId, AmfUeCtx>,
}

/// SMF state.
#[derive(Debug, Default, Clone)]
pub struct Smf {
    /// Per-UE session contexts (one PDU session per UE in the
    /// experiments, as in the paper), partitioned across worker shards.
    pub sessions: ShardedMap<UeId, SmfSession>,
    /// SEID → owning UE: N4 responses and downlink-data reports carry
    /// only the SEID. Holds exactly the SEIDs of `sessions`; written
    /// where `sessions` is (CreateSmContext, SessionDeletionResponse).
    by_seid: HashMap<u64, UeId>,
    next_seid: u64,
    next_teid: u32,
    /// N4 association state toward the UPF.
    pub n4_association: N4Association,
    /// Heartbeat transactions completed.
    pub heartbeats_answered: u64,
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

    fn ue_of_seid(&self, seid: u64) -> Option<UeId> {
        self.by_seid.get(&seid).copied()
    }
}

/// N4 association state between SMF and UPF-C (node-level PFCP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum N4Association {
    /// No association yet; session procedures would be refused.
    #[default]
    Idle,
    /// Setup request sent, awaiting the UPF's response.
    Pending,
    /// Association established; heartbeats maintain liveness.
    Established,
}

/// UDM state: fronts the UDR subscriber repository.
#[derive(Debug, Default, Clone)]
pub struct Udm {
    /// The subscriber repository (MongoDB in free5GC).
    pub udr: Udr,
}

/// The consolidated core network.
#[derive(Debug, Clone)]
pub struct CoreNetwork {
    /// Which of the three Fig 8 systems this instance is.
    pub deployment: Deployment,
    /// Handover routing scheme.
    pub scheme: HandoverScheme,
    /// The calibrated cost model.
    pub cost: CostModel,
    /// AMF state.
    pub amf: Amf,
    /// SMF state.
    pub smf: Smf,
    /// UDM/UDR state.
    pub udm: Udm,
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
    /// PartitionSort PDR backend and default shard count.
    pub fn new(deployment: Deployment) -> CoreNetwork {
        CoreNetwork::with_shards(deployment, ShardedMap::<UeId, ()>::DEFAULT_SHARDS)
    }

    /// [`CoreNetwork::new`] with an explicit shard count for the
    /// UE-context and session tables (the load engine matches this to its
    /// worker-shard count so a shard's contexts are co-located).
    pub fn with_shards(deployment: Deployment, shards: usize) -> CoreNetwork {
        CoreNetwork {
            deployment,
            scheme: HandoverScheme::SmartBuffering,
            cost: CostModel::paper(),
            amf: Amf {
                ues: ShardedMap::new(shards),
            },
            smf: Smf {
                sessions: ShardedMap::new(shards),
                ..Smf::default()
            },
            udm: Udm::default(),
            upf: Upf::new(PdrBackend::PartitionSort),
            events: Vec::new(),
            obs: Obs::new(),
            upf_now: SimTime::ZERO,
        }
    }

    /// Which shard owns `ue`'s contexts (stable across runs).
    pub fn shard_of(&self, ue: UeId) -> usize {
        self.amf.ues.shard_of(&ue)
    }

    /// Handles a batch of delivered envelopes in order, appending every
    /// follow-up send to one output vector. The batched entry point the
    /// sharded load engine dispatches through: one call per shard drain
    /// instead of one per message, so the per-call overhead (span
    /// bookkeeping setup, vec churn) amortises across the burst.
    pub fn handle_batch(&mut self, envs: Vec<Envelope>, now: SimTime) -> Vec<Output> {
        let mut all = Vec::new();
        for env in envs {
            all.append(&mut self.handle(env, now));
        }
        all
    }

    /// Drains everything this core recorded — its own [`Obs`] bundle plus
    /// the UPF-U's per-packet flight recorder — into `out` for export.
    pub fn drain_trace(&mut self, out: &mut l25gc_obs::TraceBundle) {
        self.obs.drain_into(out);
        out.dropped_events += self.upf.flight.dropped();
        self.upf.flight.drain_into(&mut out.events);
    }

    /// Records a completed UE event both in the Fig 8 accounting and as a
    /// procedure span (with a per-procedure latency histogram sample).
    fn push_event(&mut self, rec: EventRecord) {
        let kind = proc_kind(rec.event);
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

    /// Builds a PFCP heartbeat request (the SMF probes the UPF's
    /// liveness; drivers send it periodically).
    pub fn n4_heartbeat(&self) -> Envelope {
        Envelope::new(
            Endpoint::Smf,
            Endpoint::UpfC,
            Msg::N4(pfcp::Message::node(
                MsgType::HeartbeatRequest,
                0,
                IeSet::default(),
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
        let mut outs = Outs { items: Vec::new() };
        // The message moves into its handler: NFs pass descriptors, not
        // copies.
        match (env.to, env.msg) {
            (Endpoint::Amf, Msg::Ngap(m)) => self.amf_ngap(m, now, &mut outs),
            (Endpoint::Amf, Msg::Sbi { op, ue }) => self.amf_sbi(op, ue, now, &mut outs),
            (Endpoint::Ausf, Msg::Sbi { op, ue }) => self.ausf_sbi(op, ue, &mut outs),
            (Endpoint::Udm, Msg::Sbi { op, ue }) => self.udm_sbi(op, ue, &mut outs),
            (Endpoint::Pcf, Msg::Sbi { op, ue }) => self.pcf_sbi(op, ue, &mut outs),
            (Endpoint::Nrf, Msg::Sbi { op, ue }) => self.nrf_sbi(op, ue, &mut outs),
            (Endpoint::Smf, Msg::Sbi { op, ue }) => self.smf_sbi(op, ue, &mut outs),
            (Endpoint::Smf, Msg::N4(m)) => self.smf_n4(m, &mut outs),
            (Endpoint::UpfC, Msg::N4(m)) => self.upfc_n4(m, &mut outs),
            (Endpoint::UpfU, Msg::Data(p)) => return self.upfu_data(p, handler),
            (to, msg) => panic!("core cannot handle {msg:?} at {to:?}"),
        }
        // Control outputs leave after the handler finishes; each then
        // pays its edge's transport cost. Fixed-delay outputs (buffer
        // flushes) carry their own timing.
        outs.items
            .into_iter()
            .map(|(fixed, env)| match fixed {
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
            })
            .collect()
    }

    // ================= AMF =================

    fn amf_ngap(&mut self, m: NgapMessage, now: SimTime, outs: &mut Outs) {
        match m {
            // ---- Registration (TS 23.502 §4.2.2.2) ----
            NgapMessage::InitialUeMessage {
                ue,
                gnb,
                nas: NasMessage::RegistrationRequest { supi },
            } => {
                let mut ctx = AmfUeCtx::new(ue, supi, gnb, now);
                ctx.reg = RegPhase::AwaitAuthCtx;
                self.amf.ues.insert(ue, ctx);
                outs.sbi(Endpoint::Amf, Endpoint::Ausf, SbiOp::UeAuthCtxCreateReq, ue);
            }
            NgapMessage::UplinkNasTransport {
                ue,
                nas: NasMessage::AuthenticationResponse { res },
            } => {
                let ctx = self.ue_ctx(ue);
                debug_assert_eq!(ctx.reg, RegPhase::AwaitUeAuthResponse);
                let expected = ctx.expected_res.take().expect("challenge outstanding");
                if res != expected {
                    // Authentication failure: abort the registration (a
                    // real AMF would send a NAS reject; the UE never
                    // becomes registered either way).
                    ctx.reg = RegPhase::None;
                    return;
                }
                ctx.reg = RegPhase::AwaitAkaConfirm;
                outs.sbi(
                    Endpoint::Amf,
                    Endpoint::Ausf,
                    SbiOp::Auth5gAkaConfirmReq,
                    ue,
                );
            }
            NgapMessage::UplinkNasTransport {
                ue,
                nas: NasMessage::SecurityModeComplete,
            } => {
                let ctx = self.ue_ctx(ue);
                debug_assert_eq!(ctx.reg, RegPhase::AwaitSecurityMode);
                ctx.reg = RegPhase::AwaitUecm;
                outs.sbi(Endpoint::Amf, Endpoint::Udm, SbiOp::UecmRegistrationReq, ue);
            }
            NgapMessage::InitialContextSetupResponse { ue } => {
                // Either registration finishing or a paging/service
                // request context re-setup would use PduSessionResource
                // messages; here only registration uses ICS.
                let ctx = self.ue_ctx(ue);
                debug_assert_eq!(ctx.reg, RegPhase::AwaitContextSetup);
                // Registration completes when the UE's RegistrationComplete
                // arrives (UplinkNasTransport below).
            }
            NgapMessage::UplinkNasTransport {
                ue,
                nas: NasMessage::RegistrationComplete,
            } => {
                let ctx = self.ue_ctx(ue);
                ctx.rm = RmState::Registered;
                ctx.reg = RegPhase::None;
                let rec = EventRecord {
                    ue,
                    event: UeEvent::Registration,
                    start: ctx.proc_start,
                    end: now,
                };
                self.push_event(rec);
            }

            // ---- PDU session establishment (TS 23.502 §4.3.2.2) ----
            NgapMessage::UplinkNasTransport {
                ue,
                nas: NasMessage::PduSessionEstablishmentRequest { .. },
            } => {
                let ctx = self.ue_ctx(ue);
                ctx.proc_start = now;
                ctx.sess = SessPhase::AwaitSmContext;
                outs.sbi(Endpoint::Amf, Endpoint::Smf, SbiOp::CreateSmContextReq, ue);
            }
            NgapMessage::PduSessionResourceSetupResponse {
                ue,
                downlink_tunnel,
                ..
            } => {
                let ctx = self.ue_ctx(ue);
                if ctx.paging == PagingPhase::AwaitAnSetup {
                    ctx.paging = PagingPhase::AwaitTunnelBind;
                    outs.sbi(
                        Endpoint::Amf,
                        Endpoint::Smf,
                        SbiOp::UpdateSmContextReq(SmContextUpdate::Active {
                            an_tunnel: downlink_tunnel,
                        }),
                        ue,
                    );
                } else {
                    debug_assert_eq!(ctx.sess, SessPhase::AwaitAnSetup);
                    ctx.sess = SessPhase::AwaitTunnelBind;
                    outs.sbi(
                        Endpoint::Amf,
                        Endpoint::Smf,
                        SbiOp::UpdateSmContextReq(SmContextUpdate::AnTunnelInfo(downlink_tunnel)),
                        ue,
                    );
                }
            }

            // ---- Idle transition (AN release, TS 23.502 §4.2.6) ----
            NgapMessage::UeContextReleaseRequest { ue } => {
                let ctx = self.ue_ctx(ue);
                ctx.proc_start = now;
                ctx.idle = IdlePhase::AwaitSmIdle;
                outs.sbi(
                    Endpoint::Amf,
                    Endpoint::Smf,
                    SbiOp::UpdateSmContextReq(SmContextUpdate::Idle),
                    ue,
                );
            }
            NgapMessage::UeContextReleaseComplete { ue } => {
                let ctx = self.ue_ctx(ue);
                if ctx.dereg == DeregPhase::AwaitAnRelease {
                    ctx.dereg = DeregPhase::None;
                    ctx.rm = RmState::Deregistered;
                    ctx.cm = CmState::Idle;
                    let rec = EventRecord {
                        ue,
                        event: UeEvent::Deregistration,
                        start: ctx.proc_start,
                        end: now,
                    };
                    self.push_event(rec);
                } else if ctx.idle == IdlePhase::AwaitReleaseComplete {
                    ctx.idle = IdlePhase::None;
                    ctx.cm = CmState::Idle;
                    let rec = EventRecord {
                        ue,
                        event: UeEvent::IdleTransition,
                        start: ctx.proc_start,
                        end: now,
                    };
                    self.push_event(rec);
                }
                // After a handover, the source gNB's release completion
                // needs no further action.
            }

            // ---- Paging: service request from the woken UE ----
            NgapMessage::InitialUeMessage {
                ue,
                gnb,
                nas: NasMessage::ServiceRequest { .. },
            } => {
                let ctx = self.ue_ctx(ue);
                debug_assert_eq!(ctx.paging, PagingPhase::AwaitServiceRequest);
                ctx.serving_gnb = gnb;
                ctx.cm = CmState::Connected;
                ctx.paging = PagingPhase::AwaitSmActivate;
                // TS 23.502 §4.2.3.2 step 4: activate the UP connection at
                // the SMF before setting up the AN resources.
                outs.sbi(
                    Endpoint::Amf,
                    Endpoint::Smf,
                    SbiOp::UpdateSmContextReq(SmContextUpdate::ActivateUp),
                    ue,
                );
            }

            // ---- Deregistration (TS 23.502 §4.2.2.3) ----
            NgapMessage::UplinkNasTransport {
                ue,
                nas: NasMessage::DeregistrationRequest { .. },
            } => {
                let ctx = self.ue_ctx(ue);
                ctx.proc_start = now;
                ctx.dereg = DeregPhase::AwaitSmRelease;
                outs.sbi(Endpoint::Amf, Endpoint::Smf, SbiOp::ReleaseSmContextReq, ue);
            }

            // ---- N2 handover (TS 23.502 §4.9.1.3) ----
            NgapMessage::HandoverRequired { ue, target_gnb } => {
                let ctx = self.ue_ctx(ue);
                ctx.proc_start = now;
                ctx.target_gnb = Some(target_gnb);
                ctx.ho = HoPhase::AwaitPrepDiscovery;
                self.obs.event(
                    now,
                    EventKind::HandoverPhase {
                        ue,
                        phase: "prepare",
                    },
                );
                // free5GC (re)discovers the target-side serving NFs at the
                // NRF before touching the SM context.
                outs.sbi(Endpoint::Amf, Endpoint::Nrf, SbiOp::NfDiscoveryReq, ue);
            }
            NgapMessage::HandoverRequestAcknowledge {
                ue,
                downlink_tunnel,
                ..
            } => {
                let ctx = self.ue_ctx(ue);
                debug_assert_eq!(ctx.ho, HoPhase::AwaitTargetAck);
                ctx.ho = HoPhase::AwaitSmPrepared;
                self.obs.event(
                    now,
                    EventKind::HandoverPhase {
                        ue,
                        phase: "target_ack",
                    },
                );
                outs.sbi(
                    Endpoint::Amf,
                    Endpoint::Smf,
                    SbiOp::UpdateSmContextReq(SmContextUpdate::HoPrepared {
                        target_dl: downlink_tunnel,
                    }),
                    ue,
                );
            }
            NgapMessage::HandoverNotify { ue, gnb } => {
                let ctx = self.ue_ctx(ue);
                debug_assert_eq!(ctx.ho, HoPhase::Executing);
                ctx.prev_gnb = Some(ctx.serving_gnb);
                ctx.serving_gnb = gnb;
                ctx.ho = HoPhase::AwaitCompleteDiscovery;
                self.obs.event(
                    now,
                    EventKind::HandoverPhase {
                        ue,
                        phase: "path_switch",
                    },
                );
                // Path-switch: re-validate the UPF/SMF selection at the NRF
                // before updating the SM context (free5GC behaviour).
                outs.sbi(Endpoint::Amf, Endpoint::Nrf, SbiOp::NfDiscoveryReq, ue);
            }

            other => panic!("AMF cannot handle {other:?}"),
        }
    }

    fn amf_sbi(&mut self, op: SbiOp, ue: UeId, now: SimTime, outs: &mut Outs) {
        match op {
            // ---- Registration responses ----
            SbiOp::UeAuthCtxCreateResp { rand, sqn, xres } => {
                let gnb = {
                    let ctx = self.ue_ctx(ue);
                    debug_assert_eq!(ctx.reg, RegPhase::AwaitAuthCtx);
                    ctx.reg = RegPhase::AwaitUeAuthResponse;
                    ctx.expected_res = Some(xres);
                    ctx.serving_gnb
                };
                outs.ngap(
                    Endpoint::Amf,
                    Endpoint::Gnb(gnb),
                    NgapMessage::DownlinkNasTransport {
                        ue,
                        nas: NasMessage::AuthenticationRequest { rand, sqn },
                    },
                );
            }
            SbiOp::Auth5gAkaConfirmResp => {
                let gnb = {
                    let ctx = self.ue_ctx(ue);
                    debug_assert_eq!(ctx.reg, RegPhase::AwaitAkaConfirm);
                    ctx.reg = RegPhase::AwaitSecurityMode;
                    ctx.serving_gnb
                };
                outs.ngap(
                    Endpoint::Amf,
                    Endpoint::Gnb(gnb),
                    NgapMessage::DownlinkNasTransport {
                        ue,
                        nas: NasMessage::SecurityModeCommand,
                    },
                );
            }
            SbiOp::UecmRegistrationResp => {
                let ctx = self.ue_ctx(ue);
                if ctx.ho == HoPhase::AwaitMobilityUpdate(0) {
                    // Handover's mobility registration update, step 2.
                    ctx.ho = HoPhase::AwaitMobilityUpdate(1);
                    outs.sbi(Endpoint::Amf, Endpoint::Pcf, SbiOp::AmPolicyCreateReq, ue);
                } else {
                    debug_assert_eq!(ctx.reg, RegPhase::AwaitUecm);
                    ctx.reg = RegPhase::AwaitSdmData;
                    outs.sbi(Endpoint::Amf, Endpoint::Udm, SbiOp::SdmGetAmDataReq, ue);
                }
            }
            SbiOp::SdmGetAmDataResp => {
                let ctx = self.ue_ctx(ue);
                debug_assert_eq!(ctx.reg, RegPhase::AwaitSdmData);
                ctx.reg = RegPhase::AwaitAmPolicy;
                outs.sbi(Endpoint::Amf, Endpoint::Pcf, SbiOp::AmPolicyCreateReq, ue);
            }
            SbiOp::AmPolicyCreateResp => {
                let ctx = self.ue_ctx(ue);
                if let HoPhase::AwaitMobilityUpdate(1) = ctx.ho {
                    // Mobility update done: the handover event completes,
                    // and the source gNB's UE context is released.
                    ctx.ho = HoPhase::None;
                    ctx.target_gnb = None;
                    let prev = ctx.prev_gnb.take();
                    let rec = EventRecord {
                        ue,
                        event: UeEvent::Handover,
                        start: ctx.proc_start,
                        end: now,
                    };
                    self.obs.event(
                        now,
                        EventKind::HandoverPhase {
                            ue,
                            phase: "complete",
                        },
                    );
                    self.push_event(rec);
                    if let Some(src) = prev {
                        outs.ngap(
                            Endpoint::Amf,
                            Endpoint::Gnb(src),
                            NgapMessage::UeContextReleaseCommand { ue },
                        );
                    }
                } else {
                    let (gnb, guti) = {
                        let ctx = self.ue_ctx(ue);
                        debug_assert_eq!(ctx.reg, RegPhase::AwaitAmPolicy);
                        ctx.reg = RegPhase::AwaitContextSetup;
                        (ctx.serving_gnb, ctx.guti)
                    };
                    outs.ngap(
                        Endpoint::Amf,
                        Endpoint::Gnb(gnb),
                        NgapMessage::InitialContextSetupRequest {
                            ue,
                            nas: NasMessage::RegistrationAccept { guti },
                        },
                    );
                }
            }

            // ---- Session establishment responses ----
            SbiOp::CreateSmContextResp => {
                let ctx = self.ue_ctx(ue);
                debug_assert_eq!(ctx.sess, SessPhase::AwaitSmContext);
                ctx.sess = SessPhase::AwaitN1N2;
                // Nothing to send: the SMF continues (UDM, PCF, UPF) and
                // calls back with N1N2MessageTransfer.
            }
            SbiOp::N1N2MessageTransferReq { ul_teid } => {
                outs.sbi(
                    Endpoint::Amf,
                    Endpoint::Smf,
                    SbiOp::N1N2MessageTransferResp,
                    ue,
                );
                let ctx = self.amf.ues.get_mut(&ue).expect("known UE");
                if ctx.cm == CmState::Idle {
                    // Downlink-data notification for an idle UE: page it.
                    ctx.proc_start = now;
                    ctx.paging = PagingPhase::AwaitServiceRequest;
                    let gnb = ctx.serving_gnb;
                    let guti = ctx.guti;
                    outs.ngap(
                        Endpoint::Amf,
                        Endpoint::Gnb(gnb),
                        NgapMessage::Paging { guti },
                    );
                } else {
                    debug_assert_eq!(ctx.sess, SessPhase::AwaitN1N2);
                    ctx.sess = SessPhase::AwaitAnSetup;
                    let gnb = ctx.serving_gnb;
                    outs.ngap(
                        Endpoint::Amf,
                        Endpoint::Gnb(gnb),
                        NgapMessage::PduSessionResourceSetupRequest {
                            ue,
                            session_id: 1,
                            uplink_tunnel: TunnelInfo {
                                teid: ul_teid,
                                addr: UPF_N3_ADDR.to_u32(),
                            },
                            nas: NasMessage::PduSessionEstablishmentAccept {
                                session_id: 1,
                                ue_ip: ue_ip_for(ue),
                            },
                        },
                    );
                }
            }
            SbiOp::ReleaseSmContextResp => {
                let gnb = {
                    let ctx = self.ue_ctx(ue);
                    debug_assert_eq!(ctx.dereg, DeregPhase::AwaitSmRelease);
                    ctx.dereg = DeregPhase::AwaitAnRelease;
                    ctx.serving_gnb
                };
                outs.ngap(
                    Endpoint::Amf,
                    Endpoint::Gnb(gnb),
                    NgapMessage::DownlinkNasTransport {
                        ue,
                        nas: NasMessage::DeregistrationAccept,
                    },
                );
                outs.ngap(
                    Endpoint::Amf,
                    Endpoint::Gnb(gnb),
                    NgapMessage::UeContextReleaseCommand { ue },
                );
            }
            SbiOp::UpdateSmContextResp(update) => self.amf_sm_update_done(ue, update, now, outs),

            // ---- Handover responses ----
            SbiOp::NfDiscoveryResp => {
                let ctx = self.ue_ctx(ue);
                match ctx.ho {
                    HoPhase::AwaitPrepDiscovery => {
                        ctx.ho = HoPhase::AwaitSmPrepare;
                        outs.sbi(
                            Endpoint::Amf,
                            Endpoint::Smf,
                            SbiOp::SmContextRetrieveReq,
                            ue,
                        );
                    }
                    HoPhase::AwaitCompleteDiscovery => {
                        ctx.ho = HoPhase::AwaitSmComplete;
                        outs.sbi(
                            Endpoint::Amf,
                            Endpoint::Smf,
                            SbiOp::UpdateSmContextReq(SmContextUpdate::HoComplete),
                            ue,
                        );
                    }
                    other => panic!("unexpected discovery response in {other:?}"),
                }
            }
            SbiOp::SmContextRetrieveResp => {
                let target = {
                    let ctx = self.ue_ctx(ue);
                    debug_assert_eq!(ctx.ho, HoPhase::AwaitSmPrepare);
                    ctx.target_gnb.expect("handover target chosen")
                };
                outs.sbi(
                    Endpoint::Amf,
                    Endpoint::Smf,
                    SbiOp::UpdateSmContextReq(SmContextUpdate::HoPrepare { target_gnb: target }),
                    ue,
                );
            }

            other => panic!("AMF cannot handle SBI {other:?}"),
        }
    }

    fn amf_sm_update_done(
        &mut self,
        ue: UeId,
        update: SmContextUpdate,
        now: SimTime,
        outs: &mut Outs,
    ) {
        match update {
            SmContextUpdate::AnTunnelInfo(_) => {
                let (gnb, rec) = {
                    let ctx = self.ue_ctx(ue);
                    debug_assert_eq!(ctx.sess, SessPhase::AwaitTunnelBind);
                    ctx.sess = SessPhase::None;
                    (
                        ctx.serving_gnb,
                        EventRecord {
                            ue,
                            event: UeEvent::SessionRequest,
                            start: ctx.proc_start,
                            end: now,
                        },
                    )
                };
                self.push_event(rec);
                // Deliver the NAS accept (already carried in the resource
                // setup request; this is the completion indication to the
                // RAN driver).
                let _ = gnb;
            }
            SmContextUpdate::HoPrepareAck { new_ul_teid } => {
                let (target, ue_id) = {
                    let ctx = self.ue_ctx(ue);
                    debug_assert_eq!(ctx.ho, HoPhase::AwaitSmPrepare);
                    ctx.ho = HoPhase::AwaitTargetAck;
                    (ctx.target_gnb.expect("target chosen"), ue)
                };
                outs.ngap(
                    Endpoint::Amf,
                    Endpoint::Gnb(target),
                    NgapMessage::HandoverRequest {
                        ue: ue_id,
                        session_id: 1,
                        uplink_tunnel: TunnelInfo {
                            teid: new_ul_teid,
                            addr: UPF_N3_ADDR.to_u32(),
                        },
                    },
                );
            }
            SmContextUpdate::HoPrepared { .. } => {
                let (src, target) = {
                    let ctx = self.ue_ctx(ue);
                    debug_assert_eq!(ctx.ho, HoPhase::AwaitSmPrepared);
                    ctx.ho = HoPhase::Executing;
                    (ctx.serving_gnb, ctx.target_gnb.expect("target chosen"))
                };
                self.obs.event(
                    now,
                    EventKind::HandoverPhase {
                        ue,
                        phase: "execute",
                    },
                );
                outs.ngap(
                    Endpoint::Amf,
                    Endpoint::Gnb(src),
                    NgapMessage::HandoverCommand {
                        ue,
                        target_gnb: target,
                    },
                );
            }
            SmContextUpdate::HoComplete => {
                // DL path switched; start the mobility registration update.
                let ctx = self.ue_ctx(ue);
                debug_assert_eq!(ctx.ho, HoPhase::AwaitSmComplete);
                ctx.ho = HoPhase::AwaitMobilityUpdate(0);
                outs.sbi(Endpoint::Amf, Endpoint::Udm, SbiOp::UecmRegistrationReq, ue);
            }
            SmContextUpdate::Idle => {
                let gnb = {
                    let ctx = self.ue_ctx(ue);
                    debug_assert_eq!(ctx.idle, IdlePhase::AwaitSmIdle);
                    ctx.idle = IdlePhase::AwaitReleaseComplete;
                    ctx.serving_gnb
                };
                outs.ngap(
                    Endpoint::Amf,
                    Endpoint::Gnb(gnb),
                    NgapMessage::UeContextReleaseCommand { ue },
                );
            }
            SmContextUpdate::ActivateUp => {
                let (gnb, ul_teid) = {
                    let ctx = self.ue_ctx(ue);
                    debug_assert_eq!(ctx.paging, PagingPhase::AwaitSmActivate);
                    ctx.paging = PagingPhase::AwaitAnSetup;
                    (
                        ctx.serving_gnb,
                        self.smf.sessions.get(&ue).map(|s| s.ul_teid).unwrap_or(0),
                    )
                };
                outs.ngap(
                    Endpoint::Amf,
                    Endpoint::Gnb(gnb),
                    NgapMessage::PduSessionResourceSetupRequest {
                        ue,
                        session_id: 1,
                        uplink_tunnel: TunnelInfo {
                            teid: ul_teid,
                            addr: UPF_N3_ADDR.to_u32(),
                        },
                        nas: NasMessage::ServiceAccept,
                    },
                );
            }
            SmContextUpdate::Active { .. } => {
                let rec = {
                    let ctx = self.ue_ctx(ue);
                    debug_assert_eq!(ctx.paging, PagingPhase::AwaitTunnelBind);
                    ctx.paging = PagingPhase::None;
                    EventRecord {
                        ue,
                        event: UeEvent::Paging,
                        start: ctx.proc_start,
                        end: now,
                    }
                };
                self.push_event(rec);
            }
            SmContextUpdate::HoPrepare { .. } => {
                unreachable!("SMF acks HoPrepare with HoPrepareAck")
            }
        }
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

    fn nrf_sbi(&mut self, op: SbiOp, ue: UeId, outs: &mut Outs) {
        match op {
            SbiOp::NfDiscoveryReq => {
                outs.sbi(Endpoint::Nrf, Endpoint::Amf, SbiOp::NfDiscoveryResp, ue)
            }
            other => panic!("NRF cannot handle {other:?}"),
        }
    }

    // ================= AUSF / UDM / PCF =================

    fn ausf_sbi(&mut self, op: SbiOp, ue: UeId, outs: &mut Outs) {
        match op {
            SbiOp::UeAuthCtxCreateReq => {
                // Fetch an authentication vector from the UDM first.
                outs.sbi(
                    Endpoint::Ausf,
                    Endpoint::Udm,
                    SbiOp::GenerateAuthDataReq,
                    ue,
                );
            }
            SbiOp::GenerateAuthDataResp { rand, sqn, xres } => {
                outs.sbi(
                    Endpoint::Ausf,
                    Endpoint::Amf,
                    SbiOp::UeAuthCtxCreateResp { rand, sqn, xres },
                    ue,
                );
            }
            SbiOp::Auth5gAkaConfirmReq => {
                outs.sbi(
                    Endpoint::Ausf,
                    Endpoint::Amf,
                    SbiOp::Auth5gAkaConfirmResp,
                    ue,
                );
            }
            other => panic!("AUSF cannot handle {other:?}"),
        }
    }

    fn udm_sbi(&mut self, op: SbiOp, ue: UeId, outs: &mut Outs) {
        match op {
            SbiOp::GenerateAuthDataReq => {
                let supi = self
                    .amf
                    .ues
                    .get(&ue)
                    .map(|c| c.supi)
                    .expect("UE known to AMF");
                // RAND derived deterministically per challenge; a real UDM
                // draws it from a CSPRNG.
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
                outs.sbi(
                    Endpoint::Udm,
                    Endpoint::Ausf,
                    SbiOp::GenerateAuthDataResp { rand, sqn, xres },
                    ue,
                )
            }
            SbiOp::UecmRegistrationReq => outs.sbi(
                Endpoint::Udm,
                Endpoint::Amf,
                SbiOp::UecmRegistrationResp,
                ue,
            ),
            SbiOp::SdmGetAmDataReq => {
                outs.sbi(Endpoint::Udm, Endpoint::Amf, SbiOp::SdmGetAmDataResp, ue)
            }
            SbiOp::SdmSubscribeReq => {
                outs.sbi(Endpoint::Udm, Endpoint::Amf, SbiOp::SdmSubscribeResp, ue)
            }
            SbiOp::SdmGetSmDataReq => {
                outs.sbi(Endpoint::Udm, Endpoint::Smf, SbiOp::SdmGetSmDataResp, ue)
            }
            other => panic!("UDM cannot handle {other:?}"),
        }
    }

    fn pcf_sbi(&mut self, op: SbiOp, ue: UeId, outs: &mut Outs) {
        match op {
            SbiOp::AmPolicyCreateReq => {
                outs.sbi(Endpoint::Pcf, Endpoint::Amf, SbiOp::AmPolicyCreateResp, ue)
            }
            SbiOp::SmPolicyCreateReq => {
                outs.sbi(Endpoint::Pcf, Endpoint::Smf, SbiOp::SmPolicyCreateResp, ue)
            }
            other => panic!("PCF cannot handle {other:?}"),
        }
    }

    // ================= SMF =================

    fn smf_sbi(&mut self, op: SbiOp, ue: UeId, outs: &mut Outs) {
        match op {
            SbiOp::CreateSmContextReq => {
                let seid = self.smf.alloc_seid();
                let ul_teid = self.smf.alloc_teid();
                let session = SmfSession {
                    ue,
                    session_id: 1,
                    seid,
                    ue_ip: ue_ip_for(ue),
                    ul_teid,
                    pending_ul_teid: None,
                    an_tunnel: None,
                    pfcp_seq: 0,
                };
                self.smf.sessions.insert(ue, session);
                self.smf.by_seid.insert(seid, ue);
                outs.sbi(Endpoint::Smf, Endpoint::Amf, SbiOp::CreateSmContextResp, ue);
                outs.sbi(Endpoint::Smf, Endpoint::Udm, SbiOp::SdmGetSmDataReq, ue);
            }
            SbiOp::SdmGetSmDataResp => {
                outs.sbi(Endpoint::Smf, Endpoint::Pcf, SbiOp::SmPolicyCreateReq, ue);
            }
            SbiOp::SmPolicyCreateResp => {
                // Provision the UPF: Session Establishment with UL/DL PDRs.
                let msg = self.build_establishment(ue);
                outs.n4(Endpoint::Smf, Endpoint::UpfC, msg);
            }
            SbiOp::N1N2MessageTransferResp => {
                // AMF acknowledged the N1/N2 transfer; nothing further.
            }
            SbiOp::SmContextRetrieveReq => {
                outs.sbi(
                    Endpoint::Smf,
                    Endpoint::Amf,
                    SbiOp::SmContextRetrieveResp,
                    ue,
                );
            }
            SbiOp::ReleaseSmContextReq => {
                let s = self.smf.sessions.get_mut(&ue).expect("session exists");
                s.pfcp_seq += 1;
                let msg = pfcp::Message::session(
                    MsgType::SessionDeletionRequest,
                    s.seid,
                    s.pfcp_seq,
                    IeSet::default(),
                );
                outs.n4(Endpoint::Smf, Endpoint::UpfC, msg);
            }
            SbiOp::UpdateSmContextReq(update) => self.smf_update(ue, update, outs),
            other => panic!("SMF cannot handle SBI {other:?}"),
        }
    }

    fn smf_update(&mut self, ue: UeId, update: SmContextUpdate, outs: &mut Outs) {
        match update {
            SmContextUpdate::AnTunnelInfo(tun) | SmContextUpdate::Active { an_tunnel: tun } => {
                let s = self.smf.sessions.get_mut(&ue).expect("session exists");
                s.an_tunnel = Some(tun);
                let msg = build_modification(s, ModKind::ForwardTo(tun));
                outs.n4(Endpoint::Smf, Endpoint::UpfC, msg);
            }
            SmContextUpdate::Idle => {
                let s = self.smf.sessions.get_mut(&ue).expect("session exists");
                s.an_tunnel = None;
                let msg = build_modification(s, ModKind::IdleBuffer);
                outs.n4(Endpoint::Smf, Endpoint::UpfC, msg);
            }
            SmContextUpdate::HoPrepare { .. } => {
                let scheme = self.scheme;
                let new_teid = self.smf.alloc_teid();
                let s = self.smf.sessions.get_mut(&ue).expect("session exists");
                s.pending_ul_teid = Some(new_teid);
                let kind = match scheme {
                    // §3.3: piggyback the BUFF action on the TEID
                    // allocation — no extra control message.
                    HandoverScheme::SmartBuffering => ModKind::HoPrepareSmart { new_teid },
                    HandoverScheme::Hairpin3gpp => ModKind::HoPrepareHairpin { new_teid },
                };
                let msg = build_modification(s, kind);
                outs.n4(Endpoint::Smf, Endpoint::UpfC, msg);
            }
            SmContextUpdate::HoPrepared { target_dl } => {
                let s = self.smf.sessions.get_mut(&ue).expect("session exists");
                s.an_tunnel = Some(target_dl);
                let msg = build_modification(s, ModKind::HoPrepared { target_dl });
                outs.n4(Endpoint::Smf, Endpoint::UpfC, msg);
            }
            SmContextUpdate::HoComplete => {
                let s = self.smf.sessions.get_mut(&ue).expect("session exists");
                if let Some(t) = s.pending_ul_teid.take() {
                    s.ul_teid = t;
                }
                let tun = s.an_tunnel.expect("target tunnel recorded at HoPrepared");
                let msg = build_modification(s, ModKind::ForwardTo(tun));
                outs.n4(Endpoint::Smf, Endpoint::UpfC, msg);
            }
            SmContextUpdate::ActivateUp => {
                // Pure SM-context state change: ack without touching the
                // UPF (the FAR flips when the AN tunnel arrives).
                outs.sbi(
                    Endpoint::Smf,
                    Endpoint::Amf,
                    SbiOp::UpdateSmContextResp(SmContextUpdate::ActivateUp),
                    ue,
                );
            }
            SmContextUpdate::HoPrepareAck { .. } => unreachable!("ack flows SMF → AMF"),
        }
    }

    fn smf_n4(&mut self, m: pfcp::Message, outs: &mut Outs) {
        match m.msg_type {
            MsgType::AssociationSetupResponse => {
                debug_assert_eq!(self.smf.n4_association, N4Association::Pending);
                self.smf.n4_association = N4Association::Established;
                return;
            }
            MsgType::HeartbeatResponse => {
                self.smf.heartbeats_answered += 1;
                return;
            }
            _ => {}
        }
        let seid = m.seid.expect("session-scoped N4");
        let ue = self
            .smf
            .ue_of_seid(seid)
            .expect("SEID belongs to a session");
        match m.msg_type {
            MsgType::SessionEstablishmentResponse => {
                let ul_teid = self.smf.sessions[&ue].ul_teid;
                outs.sbi(
                    Endpoint::Smf,
                    Endpoint::Amf,
                    SbiOp::N1N2MessageTransferReq { ul_teid },
                    ue,
                );
            }
            MsgType::SessionModificationResponse => {
                // Correlate with the pending AMF transaction via the UE's
                // AMF phase; the SMF echoes the matching update kind.
                let update = self.classify_mod_ack(ue);
                outs.sbi(
                    Endpoint::Smf,
                    Endpoint::Amf,
                    SbiOp::UpdateSmContextResp(update),
                    ue,
                );
            }
            MsgType::SessionDeletionResponse => {
                self.smf.sessions.remove(&ue);
                self.smf.by_seid.remove(&seid);
                outs.sbi(
                    Endpoint::Smf,
                    Endpoint::Amf,
                    SbiOp::ReleaseSmContextResp,
                    ue,
                );
            }
            MsgType::SessionReportRequest => {
                // Downlink data notification: ack to the UPF and alert the
                // AMF so it pages the UE.
                let ul_teid = self.smf.sessions[&ue].ul_teid;
                let s = self.smf.sessions.get_mut(&ue).expect("session exists");
                let seq = m.seq;
                s.pfcp_seq = s.pfcp_seq.max(seq);
                outs.n4(
                    Endpoint::Smf,
                    Endpoint::UpfC,
                    pfcp::Message::session(
                        MsgType::SessionReportResponse,
                        seid,
                        seq,
                        IeSet {
                            cause: Some(pfcp::Cause::Accepted),
                            ..IeSet::default()
                        },
                    ),
                );
                outs.sbi(
                    Endpoint::Smf,
                    Endpoint::Amf,
                    SbiOp::N1N2MessageTransferReq { ul_teid },
                    ue,
                );
            }
            other => panic!("SMF cannot handle N4 {other:?}"),
        }
    }

    /// Maps a modification ack back to the SM-update kind the AMF is
    /// waiting for, using the AMF-side phase (single outstanding
    /// transaction per UE, as in the paper's two-user configuration).
    fn classify_mod_ack(&self, ue: UeId) -> SmContextUpdate {
        let ctx = self.amf.ues.get(&ue).expect("UE context exists");
        let s = &self.smf.sessions[&ue];
        if ctx.idle == IdlePhase::AwaitSmIdle {
            SmContextUpdate::Idle
        } else if ctx.paging == PagingPhase::AwaitTunnelBind {
            SmContextUpdate::Active {
                an_tunnel: s.an_tunnel.expect("tunnel bound"),
            }
        } else if ctx.ho == HoPhase::AwaitSmPrepare {
            SmContextUpdate::HoPrepareAck {
                new_ul_teid: s.pending_ul_teid.expect("teid pre-allocated"),
            }
        } else if ctx.ho == HoPhase::AwaitSmPrepared {
            SmContextUpdate::HoPrepared {
                target_dl: s.an_tunnel.expect("target recorded"),
            }
        } else if ctx.ho == HoPhase::AwaitSmComplete {
            SmContextUpdate::HoComplete
        } else {
            SmContextUpdate::AnTunnelInfo(s.an_tunnel.expect("tunnel bound"))
        }
    }

    fn build_establishment(&mut self, ue: UeId) -> pfcp::Message {
        let s = self.smf.sessions.get_mut(&ue).expect("session exists");
        s.pfcp_seq += 1;
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
                            addr: Ipv4Addr::from_u32(s.ue_ip),
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
        pfcp::Message::session(
            MsgType::SessionEstablishmentRequest,
            s.seid,
            s.pfcp_seq,
            ies,
        )
    }

    // ================= UPF =================

    fn upfc_n4(&mut self, m: pfcp::Message, outs: &mut Outs) {
        match m.msg_type {
            MsgType::AssociationSetupRequest => {
                outs.n4(
                    Endpoint::UpfC,
                    Endpoint::Smf,
                    pfcp::Message::node(
                        MsgType::AssociationSetupResponse,
                        m.seq,
                        IeSet {
                            node_id: Some(UPF_N3_ADDR),
                            cause: Some(pfcp::Cause::Accepted),
                            ..IeSet::default()
                        },
                    ),
                );
                return;
            }
            MsgType::HeartbeatRequest => {
                outs.n4(
                    Endpoint::UpfC,
                    Endpoint::Smf,
                    pfcp::Message::node(MsgType::HeartbeatResponse, m.seq, IeSet::default()),
                );
                return;
            }
            _ => {}
        }
        let seid = m.seid.expect("session-scoped N4");
        match m.msg_type {
            MsgType::SessionEstablishmentRequest => {
                let ue = self.smf.ue_of_seid(seid).expect("SMF created the session");
                self.upf.establish(seid, ue, &m.ies);
                self.obs
                    .event(self.upf_now, EventKind::PfcpEstablish { seid });
                outs.n4(
                    Endpoint::UpfC,
                    Endpoint::Smf,
                    pfcp::Message::session(
                        MsgType::SessionEstablishmentResponse,
                        seid,
                        m.seq,
                        IeSet {
                            cause: Some(pfcp::Cause::Accepted),
                            ..IeSet::default()
                        },
                    ),
                );
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
                outs.n4(
                    Endpoint::UpfC,
                    Endpoint::Smf,
                    pfcp::Message::session(
                        MsgType::SessionModificationResponse,
                        seid,
                        m.seq,
                        IeSet {
                            cause: Some(pfcp::Cause::Accepted),
                            ..IeSet::default()
                        },
                    ),
                );
                // Flushed buffer: deliver in order, paced at the datapath
                // service rate.
                let svc = self.cost.datapath_service(self.deployment.datapath(), 1400);
                let lat =
                    self.cost.datapath_latency(self.deployment.datapath()) + self.cost.path_lat;
                for (i, (tun, pkt)) in released.into_iter().enumerate() {
                    outs.raw(
                        lat + svc * (i as u64 + 1),
                        Envelope::new(
                            Endpoint::UpfU,
                            Endpoint::Gnb(tun.addr),
                            Msg::Data(DataPacket {
                                tunnel_teid: Some(tun.teid),
                                ..pkt
                            }),
                        ),
                    );
                }
            }
            MsgType::SessionDeletionRequest => {
                let deleted = self.upf.delete(seid);
                debug_assert!(deleted, "deletion targets a live session");
                self.obs.event(self.upf_now, EventKind::PfcpDelete { seid });
                outs.n4(
                    Endpoint::UpfC,
                    Endpoint::Smf,
                    pfcp::Message::session(
                        MsgType::SessionDeletionResponse,
                        seid,
                        m.seq,
                        IeSet {
                            cause: Some(pfcp::Cause::Accepted),
                            ..IeSet::default()
                        },
                    ),
                );
            }
            MsgType::SessionReportRequest => {
                // Raised by UPF-U; forward over N4 to the SMF.
                outs.n4(Endpoint::UpfC, Endpoint::Smf, m);
            }
            MsgType::SessionReportResponse => {
                // SMF acknowledged the downlink-data report.
            }
            other => panic!("UPF-C cannot handle N4 {other:?}"),
        }
    }

    fn upfu_data(&mut self, pkt: DataPacket, _handler: SimDuration) -> Vec<Output> {
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
                env: Envelope::new(
                    Endpoint::UpfU,
                    Endpoint::Gnb(tun.addr),
                    Msg::Data(DataPacket {
                        tunnel_teid: Some(tun.teid),
                        ..p
                    }),
                ),
            }],
            Verdict::Buffered { report, seid } => {
                if report {
                    // UPF-U alerts UPF-C, which sends the PFCP report.
                    let s = self
                        .smf
                        .ue_of_seid(seid)
                        .and_then(|ue| self.smf.sessions.get(&ue));
                    let seq = s.map(|s| s.pfcp_seq + 1).unwrap_or(1);
                    vec![Output {
                        delay: svc,
                        env: Envelope::new(
                            Endpoint::UpfC,
                            Endpoint::Smf,
                            Msg::N4(pfcp::Message::session(
                                MsgType::SessionReportRequest,
                                seid,
                                seq,
                                IeSet {
                                    report_downlink_data: true,
                                    downlink_data_pdr: Some(2),
                                    ..IeSet::default()
                                },
                            )),
                        ),
                    }]
                } else {
                    Vec::new()
                }
            }
            Verdict::Drop(_) => Vec::new(),
        }
    }
}

/// Per-message handler processing costs (the "common" component of Fig 8;
/// see DESIGN.md §5). Classes: heavy session-management and
/// authentication-vector work, medium context bookkeeping, light relays.
pub fn handler_cost(cost: &CostModel, env: &Envelope) -> SimDuration {
    let unit = cost.handler; // 1 ms
    let scale = |x: f64| SimDuration::from_secs_f64(unit.as_secs_f64() * x);
    match (&env.to, &env.msg) {
        // Data plane never pays control handler costs.
        (_, Msg::Data(_)) => SimDuration::ZERO,
        // Heavy: AKA vector generation, SM context creation (IP
        // allocation, context setup), policy decisions, subscription
        // fetches, UPF rule install.
        (
            Endpoint::Udm,
            Msg::Sbi {
                op: SbiOp::GenerateAuthDataReq,
                ..
            },
        ) => scale(8.0),
        (
            Endpoint::Smf,
            Msg::Sbi {
                op: SbiOp::CreateSmContextReq,
                ..
            },
        ) => scale(20.0),
        (
            Endpoint::Pcf,
            Msg::Sbi {
                op: SbiOp::SmPolicyCreateReq,
                ..
            },
        ) => scale(15.0),
        (
            Endpoint::Udm,
            Msg::Sbi {
                op: SbiOp::SdmGetSmDataReq,
                ..
            },
        ) => scale(10.0),
        (
            Endpoint::Pcf,
            Msg::Sbi {
                op: SbiOp::AmPolicyCreateReq,
                ..
            },
        ) => scale(6.0),
        (
            Endpoint::Udm,
            Msg::Sbi {
                op: SbiOp::SdmGetAmDataReq,
                ..
            },
        ) => scale(5.0),
        (
            Endpoint::Udm,
            Msg::Sbi {
                op: SbiOp::UecmRegistrationReq,
                ..
            },
        ) => scale(4.0),
        (
            Endpoint::Ausf,
            Msg::Sbi {
                op: SbiOp::UeAuthCtxCreateReq,
                ..
            },
        ) => scale(4.0),
        (
            Endpoint::Ausf,
            Msg::Sbi {
                op: SbiOp::Auth5gAkaConfirmReq,
                ..
            },
        ) => scale(3.0),
        (Endpoint::UpfC, Msg::N4(m)) if m.msg_type == MsgType::SessionEstablishmentRequest => {
            scale(2.0)
        }
        // Medium: SMF updates and AMF procedure steps.
        (
            Endpoint::Smf,
            Msg::Sbi {
                op: SbiOp::UpdateSmContextReq(_),
                ..
            },
        ) => scale(2.0),
        (
            Endpoint::Smf,
            Msg::Sbi {
                op: SbiOp::SmContextRetrieveReq,
                ..
            },
        ) => scale(2.0),
        (Endpoint::Smf, Msg::N4(m)) if m.msg_type == MsgType::SessionReportRequest => scale(2.0),
        (Endpoint::Amf, Msg::Ngap(NgapMessage::InitialUeMessage { .. })) => scale(2.0),
        (Endpoint::Amf, Msg::Ngap(_)) => scale(1.0),
        (Endpoint::Amf, Msg::Sbi { .. }) => scale(1.0),
        // Light: everything else (acks, relays, UPF modifications).
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
pub fn msg_label(msg: &Msg) -> &'static str {
    match msg {
        Msg::Sbi { op, .. } => match op {
            SbiOp::UeAuthCtxCreateReq => "UeAuthCtxCreateReq",
            SbiOp::UeAuthCtxCreateResp { .. } => "UeAuthCtxCreateResp",
            SbiOp::GenerateAuthDataReq => "GenerateAuthDataReq",
            SbiOp::GenerateAuthDataResp { .. } => "GenerateAuthDataResp",
            SbiOp::Auth5gAkaConfirmReq => "Auth5gAkaConfirmReq",
            SbiOp::Auth5gAkaConfirmResp => "Auth5gAkaConfirmResp",
            SbiOp::UecmRegistrationReq => "UecmRegistrationReq",
            SbiOp::UecmRegistrationResp => "UecmRegistrationResp",
            SbiOp::SdmGetAmDataReq => "SdmGetAmDataReq",
            SbiOp::SdmGetAmDataResp => "SdmGetAmDataResp",
            SbiOp::SdmSubscribeReq => "SdmSubscribeReq",
            SbiOp::SdmSubscribeResp => "SdmSubscribeResp",
            SbiOp::AmPolicyCreateReq => "AmPolicyCreateReq",
            SbiOp::AmPolicyCreateResp => "AmPolicyCreateResp",
            SbiOp::CreateSmContextReq => "CreateSmContextReq",
            SbiOp::CreateSmContextResp => "CreateSmContextResp",
            SbiOp::SdmGetSmDataReq => "SdmGetSmDataReq",
            SbiOp::SdmGetSmDataResp => "SdmGetSmDataResp",
            SbiOp::SmPolicyCreateReq => "SmPolicyCreateReq",
            SbiOp::SmPolicyCreateResp => "SmPolicyCreateResp",
            SbiOp::N1N2MessageTransferReq { .. } => "N1N2MessageTransferReq",
            SbiOp::N1N2MessageTransferResp => "N1N2MessageTransferResp",
            SbiOp::NfDiscoveryReq => "NfDiscoveryReq",
            SbiOp::NfDiscoveryResp => "NfDiscoveryResp",
            SbiOp::SmContextRetrieveReq => "SmContextRetrieveReq",
            SbiOp::SmContextRetrieveResp => "SmContextRetrieveResp",
            SbiOp::ReleaseSmContextReq => "ReleaseSmContextReq",
            SbiOp::ReleaseSmContextResp => "ReleaseSmContextResp",
            SbiOp::UpdateSmContextReq(_) => "UpdateSmContextReq",
            SbiOp::UpdateSmContextResp(_) => "UpdateSmContextResp",
        },
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

/// Maps a Fig 8 UE event to its span kind.
fn proc_kind(ev: UeEvent) -> ProcKind {
    match ev {
        UeEvent::Registration => ProcKind::Registration,
        UeEvent::SessionRequest => ProcKind::SessionEstablishment,
        UeEvent::Handover => ProcKind::Handover,
        UeEvent::Paging => ProcKind::Paging,
        UeEvent::IdleTransition => ProcKind::IdleTransition,
        UeEvent::Deregistration => ProcKind::Deregistration,
    }
}

/// What a Session Modification is doing (internal to the SMF builder).
enum ModKind {
    ForwardTo(TunnelInfo),
    IdleBuffer,
    HoPrepareSmart { new_teid: u32 },
    HoPrepareHairpin { new_teid: u32 },
    HoPrepared { target_dl: TunnelInfo },
}

fn build_modification(s: &mut SmfSession, kind: ModKind) -> pfcp::Message {
    s.pfcp_seq += 1;
    let far_forward = |tun: TunnelInfo| UpdateFar {
        far_id: 2,
        apply_action: Some(ApplyAction::FORW),
        forwarding: Some(ForwardingParameters {
            dest_interface: Interface::Access,
            outer_header_creation: Some(pfcp::OuterHeaderCreation {
                teid: tun.teid,
                addr: Ipv4Addr::from_u32(tun.addr),
            }),
        }),
    };
    let new_teid_pdr = |teid: u32| UpdatePdr {
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
    };
    let ies = match kind {
        ModKind::ForwardTo(tun) => IeSet {
            update_fars: vec![far_forward(tun)],
            ..IeSet::default()
        },
        ModKind::IdleBuffer => IeSet {
            update_fars: vec![UpdateFar {
                far_id: 2,
                apply_action: Some(ApplyAction::BUFF_NOCP),
                forwarding: None,
            }],
            ..IeSet::default()
        },
        // The §3.3 piggyback: TEID allocation + BUFF in one message.
        ModKind::HoPrepareSmart { new_teid } => IeSet {
            update_pdrs: vec![new_teid_pdr(new_teid)],
            update_fars: vec![UpdateFar {
                far_id: 2,
                apply_action: Some(ApplyAction::BUFF),
                forwarding: None,
            }],
            ..IeSet::default()
        },
        // 3GPP baseline: TEID only; DL keeps flowing to the source gNB.
        ModKind::HoPrepareHairpin { new_teid } => IeSet {
            update_pdrs: vec![new_teid_pdr(new_teid)],
            ..IeSet::default()
        },
        // Record the target tunnel but keep buffering (smart) / keep
        // forwarding to the source (hairpin handled by FAR state).
        ModKind::HoPrepared { target_dl } => IeSet {
            update_fars: vec![UpdateFar {
                far_id: 2,
                apply_action: None,
                forwarding: Some(ForwardingParameters {
                    dest_interface: Interface::Access,
                    outer_header_creation: Some(pfcp::OuterHeaderCreation {
                        teid: target_dl.teid,
                        addr: Ipv4Addr::from_u32(target_dl.addr),
                    }),
                }),
            }],
            ..IeSet::default()
        },
    };
    pfcp::Message::session(MsgType::SessionModificationRequest, s.seid, s.pfcp_seq, ies)
}

/// Helper accumulating an NF's outgoing envelopes. `None` delay means
/// "compute the control-hop cost"; `Some` is a fixed datapath delay.
struct Outs {
    items: Vec<(Option<SimDuration>, Envelope)>,
}

impl Outs {
    fn sbi(&mut self, from: Endpoint, to: Endpoint, op: SbiOp, ue: UeId) {
        self.items
            .push((None, Envelope::new(from, to, Msg::Sbi { op, ue })));
    }

    fn ngap(&mut self, from: Endpoint, to: Endpoint, m: NgapMessage) {
        self.items
            .push((None, Envelope::new(from, to, Msg::Ngap(m))));
    }

    fn n4(&mut self, from: Endpoint, to: Endpoint, m: pfcp::Message) {
        self.items.push((None, Envelope::new(from, to, Msg::N4(m))));
    }

    fn raw(&mut self, delay: SimDuration, env: Envelope) {
        self.items.push((Some(delay), env));
    }
}

/// One gNB's view of a handover, used by the RAN driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GnbRole {
    /// The gNB the UE is leaving.
    Source,
    /// The gNB the UE is joining.
    Target,
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
    fn n4_heartbeat_roundtrip() {
        let mut core = CoreNetwork::new(Deployment::L25gc);
        for i in 1..=3 {
            let hb = core.n4_heartbeat();
            let outs = core.handle(hb, SimTime::ZERO);
            let resp = outs.into_iter().next().expect("UPF answers").env;
            core.handle(resp, SimTime::ZERO);
            assert_eq!(core.smf.heartbeats_answered, i);
        }
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
                    op: SbiOp::GenerateAuthDataReq,
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
                    let mut usim = Udr::new();
                    let res = Udr::ue_response(usim.provision_default(100 + ue), rand, sqn);
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

    fn assert_seid_index_exact(smf: &Smf) {
        assert_eq!(smf.by_seid.len(), smf.sessions.len());
        for s in smf.sessions.values() {
            assert_eq!(smf.ue_of_seid(s.seid), Some(s.ue));
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
