//! Per-UE and per-session state held by the control-plane NFs.
//!
//! Everything here derives `Clone`: a checkpoint of an NF (for the
//! resiliency framework of §3.5) is literally a clone of its state.

use l25gc_obs::ProcKind;
use l25gc_pkt::ngap::TunnelInfo;
use l25gc_sim::SimTime;

use crate::msg::{GnbId, SmContextUpdate, UeId};

/// 3GPP connection management state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum CmState {
    /// No NAS signalling connection (radio released; paged on DL data).
    #[default]
    Idle,
    /// NAS signalling connection established.
    Connected,
}

/// Progress of the registration procedure at the AMF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegPhase {
    /// No registration in progress.
    #[default]
    None,
    /// Waiting for the AUSF authentication context.
    AwaitAuthCtx,
    /// Challenge sent to the UE; waiting for its response.
    AwaitUeAuthResponse,
    /// Waiting for AUSF to confirm the 5G-AKA result.
    AwaitAkaConfirm,
    /// Security mode command sent; waiting for completion.
    AwaitSecurityMode,
    /// Waiting for UDM UECM registration.
    AwaitUecm,
    /// Waiting for UDM subscription data.
    AwaitSdmData,
    /// Waiting for the PCF AM policy.
    AwaitAmPolicy,
    /// Initial context setup sent to the gNB; waiting for completion.
    AwaitContextSetup,
}

/// Progress of PDU session establishment at the AMF/SMF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SessPhase {
    /// No establishment in progress.
    #[default]
    None,
    /// AMF: waiting for SMF's CreateSmContext response.
    AwaitSmContext,
    /// AMF: waiting for SMF's N1N2 transfer (session accept + N2 info).
    AwaitN1N2,
    /// AMF: waiting for the gNB's resource-setup response.
    AwaitAnSetup,
    /// AMF: waiting for SMF to bind the AN tunnel.
    AwaitTunnelBind,
}

/// Progress of the N2 handover at the AMF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HoPhase {
    /// No handover in progress.
    #[default]
    None,
    /// Waiting for NRF discovery before preparation.
    AwaitPrepDiscovery,
    /// Preparation: waiting for SMF (buffering decision + new UL TEID).
    AwaitSmPrepare,
    /// Waiting for the target gNB's resource allocation.
    AwaitTargetAck,
    /// Waiting for SMF to record the target's DL tunnel.
    AwaitSmPrepared,
    /// Handover command issued; UE is moving (radio interruption).
    Executing,
    /// UE arrived; waiting for NRF re-validation before the path switch.
    AwaitCompleteDiscovery,
    /// Waiting for SMF to switch the DL path.
    AwaitSmComplete,
    /// Mobility registration update transactions after path switch.
    AwaitMobilityUpdate(u8),
}

/// Progress of the paging / service-request procedure at the AMF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagingPhase {
    /// Nothing pending.
    #[default]
    None,
    /// Paging sent to the gNB; waiting for the UE's service request.
    AwaitServiceRequest,
    /// Waiting for SMF to reactivate the UP path.
    AwaitSmActivate,
    /// Waiting for the gNB's context-setup response (new DL tunnel).
    AwaitAnSetup,
    /// Waiting for SMF to bind the new tunnel and flush the buffer.
    AwaitTunnelBind,
}

/// Progress of the AN-release (active → idle) procedure at the AMF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdlePhase {
    /// Nothing pending.
    #[default]
    None,
    /// Waiting for SMF to switch the session to buffering.
    AwaitSmIdle,
    /// Waiting for the gNB to confirm context release.
    AwaitReleaseComplete,
}

/// The AMF's per-UE context.
#[derive(Debug, Clone)]
pub struct AmfUeCtx {
    /// Assigned temporary identity (derived from the SUPI learned at
    /// registration).
    pub(crate) guti: u64,
    /// The gNB currently serving this UE.
    pub(crate) serving_gnb: GnbId,
    /// Handover target while one is in progress.
    pub target_gnb: Option<GnbId>,
    /// The gNB the UE just left (context released after the mobility
    /// update completes).
    pub(crate) prev_gnb: Option<GnbId>,
    /// Connection management state.
    pub(crate) cm: CmState,
    /// Registration procedure progress.
    pub reg: RegPhase,
    /// Session establishment progress.
    pub sess: SessPhase,
    /// Handover progress.
    pub ho: HoPhase,
    /// Paging progress.
    pub paging: PagingPhase,
    /// Idle-transition progress.
    pub idle: IdlePhase,
    /// Deregistration progress.
    pub dereg: DeregPhase,
    /// When the in-flight procedure started (for completion metrics).
    pub(crate) proc_start: SimTime,
    /// Expected 5G-AKA response while authentication is in flight.
    pub(crate) expected_res: Option<[u8; 16]>,
    /// An N1N2 transfer that arrived during the AN release, held until
    /// the release ends (TS 23.502 §4.2.3.3).
    pub(crate) n1n2_held: bool,
}

impl AmfUeCtx {
    /// Fresh context for a UE first seen at `gnb`.
    pub(crate) fn new(supi: u64, gnb: GnbId, now: SimTime) -> AmfUeCtx {
        AmfUeCtx {
            guti: 0xF000_0000_0000_0000 | supi,
            serving_gnb: gnb,
            target_gnb: None,
            prev_gnb: None,
            cm: CmState::Connected,
            reg: RegPhase::None,
            sess: SessPhase::None,
            ho: HoPhase::None,
            paging: PagingPhase::None,
            idle: IdlePhase::None,
            dereg: DeregPhase::None,
            proc_start: now,
            expected_res: None,
            n1n2_held: false,
        }
    }
}

/// The SMF's per-session context.
#[derive(Debug, Clone)]
pub struct SmfSession {
    /// PFCP session endpoint id shared with the UPF.
    pub seid: u64,
    /// UE IP address allocated for the session (u32 form).
    pub(crate) ue_ip: u32,
    /// UPF-side uplink TEID.
    pub(crate) ul_teid: u32,
    /// UL TEID pre-allocated for a handover target, if any.
    pub(crate) pending_ul_teid: Option<u32>,
    /// Current AN-side (gNB) downlink tunnel.
    pub an_tunnel: Option<TunnelInfo>,
    /// Next PFCP sequence number for this session's transactions.
    pub(crate) pfcp_seq: u32,
    /// The answer to the SM-context update whose N4 modification is in
    /// flight, sent when the UPF acknowledges it.
    pub(crate) pending_ack: Option<SmContextUpdate>,
}

/// Progress of deregistration at the AMF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeregPhase {
    /// Nothing pending.
    #[default]
    None,
    /// Waiting for SMF to release the SM context.
    AwaitSmRelease,
    /// Waiting for the gNB to confirm context release.
    AwaitAnRelease,
}

/// What kind of UE event completed (for Fig 8 accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UeEvent {
    /// Initial registration.
    Registration,
    /// PDU session establishment.
    SessionRequest,
    /// N2 handover.
    Handover,
    /// Paging (idle → active on DL data).
    Paging,
    /// Active → idle transition (AN release).
    IdleTransition,
    /// UE-initiated deregistration.
    Deregistration,
}

/// The procedure-span kind a [`UeEvent`] records under (histogram key).
pub fn proc_kind(ev: UeEvent) -> ProcKind {
    match ev {
        UeEvent::Registration => ProcKind::Registration,
        UeEvent::SessionRequest => ProcKind::SessionEstablishment,
        UeEvent::Handover => ProcKind::Handover,
        UeEvent::Paging => ProcKind::Paging,
        UeEvent::IdleTransition => ProcKind::IdleTransition,
        UeEvent::Deregistration => ProcKind::Deregistration,
    }
}

/// A completed procedure, recorded by the AMF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Which UE.
    pub ue: UeId,
    /// What completed.
    pub event: UeEvent,
    /// When the triggering message arrived.
    pub start: SimTime,
    /// When the procedure finished.
    pub end: SimTime,
}

impl EventRecord {
    /// Completion time of the event.
    pub fn duration(&self) -> l25gc_sim::SimDuration {
        self.end.duration_since(self.start)
    }
}
