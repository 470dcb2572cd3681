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

/// The one procedure the AMF runs for a UE, at the step it waits in.
/// Each step names what it waits for and carries only the data that
/// step needs. A message that no (step, message) arm of the AMF takes is
/// a protocol race, and it panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Proc {
    /// No procedure in progress.
    #[default]
    None,
    // ---- Registration (TS 23.502 §4.2.2.2) ----
    /// Waiting for the AUSF authentication context.
    RegAuthCtx,
    /// Challenge sent; waiting for the UE's response, which must equal
    /// the expected 5G-AKA response held here.
    RegAuthResponse([u8; 16]),
    /// Waiting for AUSF to confirm the 5G-AKA result.
    RegAkaConfirm,
    /// Security mode command sent; waiting for completion.
    RegSecurityMode,
    /// Waiting for UDM UECM registration.
    RegUecm,
    /// Waiting for UDM subscription data.
    RegSdmData,
    /// Waiting for the PCF AM policy.
    RegAmPolicy,
    /// Initial context setup sent; waiting for the gNB's response and the
    /// UE's RegistrationComplete.
    RegContextSetup,
    // ---- PDU session establishment (TS 23.502 §4.3.2.2) ----
    /// Waiting for SMF's CreateSmContext response.
    SessSmContext,
    /// Waiting for SMF's N1N2 transfer (session accept + N2 info).
    SessN1N2,
    /// Waiting for the gNB's resource-setup response.
    SessAnSetup,
    /// Waiting for SMF to bind the AN tunnel.
    SessTunnelBind,
    // ---- N2 handover (TS 23.502 §4.9.1.3); preparation holds the
    // target gNB, the steps after the UE arrived the source gNB, whose
    // UE context is released at the end ----
    /// Waiting for NRF discovery before preparation.
    HoPrepDiscovery(GnbId),
    /// Waiting for SMF: the context, then the buffering decision and the
    /// new UL TEID.
    HoSmPrepare(GnbId),
    /// Waiting for the target gNB's resource allocation.
    HoTargetAck(GnbId),
    /// Waiting for SMF to record the target's DL tunnel.
    HoSmPrepared(GnbId),
    /// Handover command issued; the UE is moving (radio interruption).
    HoExecuting,
    /// UE arrived; waiting for NRF re-validation before the path switch.
    HoCompleteDiscovery(GnbId),
    /// Waiting for SMF to switch the DL path.
    HoSmComplete(GnbId),
    /// Mobility registration update: waiting for UDM UECM registration.
    HoUecm(GnbId),
    /// Mobility registration update: waiting for the PCF AM policy.
    HoAmPolicy(GnbId),
    // ---- Paging / service request (TS 23.502 §4.2.3.3) ----
    /// Paging sent; waiting for the UE's service request.
    PagingServiceRequest,
    /// Waiting for SMF to reactivate the UP path.
    PagingSmActivate,
    /// Waiting for the gNB's resource-setup response (new DL tunnel).
    PagingAnSetup,
    /// Waiting for SMF to bind the new tunnel and flush the buffer.
    PagingTunnelBind,
    // ---- AN release, active → idle (TS 23.502 §4.2.6); the flag says an
    // N1N2 transfer arrived meanwhile, to page for once the release ends
    // (TS 23.502 §4.2.3.3) ----
    /// Waiting for SMF to switch the session to buffering.
    IdleSmIdle(bool),
    /// Waiting for the gNB to confirm context release.
    IdleReleaseComplete(bool),
    // ---- Deregistration (TS 23.502 §4.2.2.3) ----
    /// Waiting for SMF to release the SM context.
    DeregSmRelease,
    /// Waiting for the gNB to confirm context release.
    DeregAnRelease,
}

/// The AMF's per-UE context.
#[derive(Debug, Clone)]
pub struct AmfUeCtx {
    /// Assigned temporary identity (derived from the SUPI learned at
    /// registration).
    pub(crate) guti: u64,
    /// The gNB currently serving this UE.
    pub(crate) serving_gnb: GnbId,
    /// Connection management state.
    pub(crate) cm: CmState,
    /// The procedure in progress and its step.
    pub proc: Proc,
    /// When the in-flight procedure started (for completion metrics).
    pub(crate) proc_start: SimTime,
}

impl AmfUeCtx {
    /// Fresh context for a UE that starts registering at `gnb`.
    pub(crate) fn new(supi: u64, gnb: GnbId, now: SimTime) -> AmfUeCtx {
        AmfUeCtx {
            guti: 0xF000_0000_0000_0000 | supi,
            serving_gnb: gnb,
            cm: CmState::Connected,
            proc: Proc::RegAuthCtx,
            proc_start: now,
        }
    }
}

/// The one procedure the SMF runs for a session, at the step it waits
/// in; each step carries only its data. A message that no (step,
/// message) arm of the SMF takes is a protocol race, and it panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SmfProc {
    /// No procedure in progress.
    #[default]
    None,
    /// Establishment: waiting for the PCF's SM policy.
    EstPolicy,
    /// Establishment: waiting for the UPF to install the session.
    EstN4,
    /// Waiting for the UPF to acknowledge a modification; holds the
    /// answer then owed to the AMF.
    Modify(SmContextUpdate),
    /// Handover, holding the UL TEID pre-allocated for the target until
    /// the path switch commits it: waiting for the target's DL tunnel,
    HoTargetDl(u32),
    /// then for the UPF to record that tunnel,
    HoTargetDlN4(u32, TunnelInfo),
    /// then for the path switch.
    HoPathSwitch(u32, TunnelInfo),
    /// Release: waiting for the UPF to delete the session.
    Release,
}

/// The SMF's per-session context. The session's UE address is
/// [`ue_ip_for`](crate::upf::ue_ip_for) its UE.
#[derive(Debug, Clone)]
pub struct SmfSession {
    /// PFCP session endpoint id shared with the UPF.
    pub seid: u64,
    /// UPF-side uplink TEID.
    pub(crate) ul_teid: u32,
    /// Next PFCP sequence number for this session's transactions.
    pub(crate) pfcp_seq: u32,
    /// The procedure in progress and its step.
    pub proc: SmfProc,
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
