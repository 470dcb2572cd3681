//! The User Plane Function, split into UPF-C (N4 termination) and UPF-U
//! (packet forwarding) sharing one session table — the §3.2 factoring
//! that avoids control/data interference while keeping state updates
//! zero-cost.
//!
//! UPF-U semantics per packet: session lookup (TEID for uplink, UE IP for
//! downlink), PDR classification, then the bound FAR's action — FORW,
//! BUFF (smart buffering for paging *and* L²5GC handover), or DROP. The
//! first buffered packet of an idle session raises a downlink-data report
//! toward the SMF (NOCP flag), which triggers paging.

use std::collections::{HashMap, VecDeque};

use l25gc_classifier::{
    Classifier, Field, FieldRange, LinearList, PacketKey, PartitionSort, PdrRule, TupleSpace,
};
use l25gc_nfv::DualKeyTable;
use l25gc_obs::{DropCode, EventKind, FlightRecorder};
use l25gc_pkt::ngap::TunnelInfo;
use l25gc_pkt::pfcp::{self, ApplyAction};
use l25gc_sim::{Counters, SimTime};

use crate::msg::{DataPacket, Direction, UeId};
use crate::qer::{Qer, QerTable};

/// Which lookup structure the UPF-U uses for PDRs (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PdrBackend {
    /// 3GPP's linear list.
    Linear,
    /// Tuple Space Search.
    Tss,
    /// PartitionSort — L²5GC's choice.
    #[default]
    PartitionSort,
}

/// A per-session PDR classifier behind a common interface.
#[derive(Debug, Clone)]
pub enum PdrTable {
    /// Linear-list backend.
    Linear(LinearList),
    /// Tuple-space backend.
    Tss(TupleSpace),
    /// PartitionSort backend.
    Ps(PartitionSort),
}

impl PdrTable {
    fn new(backend: PdrBackend) -> PdrTable {
        match backend {
            PdrBackend::Linear => PdrTable::Linear(LinearList::new()),
            PdrBackend::Tss => PdrTable::Tss(TupleSpace::new()),
            PdrBackend::PartitionSort => PdrTable::Ps(PartitionSort::new()),
        }
    }

    /// Installs a rule.
    pub fn insert(&mut self, rule: PdrRule) {
        match self {
            PdrTable::Linear(c) => c.insert(rule),
            PdrTable::Tss(c) => c.insert(rule),
            PdrTable::Ps(c) => c.insert(rule),
        }
    }

    /// Best-match lookup.
    pub fn lookup(&self, key: &PacketKey) -> Option<&PdrRule> {
        match self {
            PdrTable::Linear(c) => c.lookup(key),
            PdrTable::Tss(c) => c.lookup(key),
            PdrTable::Ps(c) => c.lookup(key),
        }
    }

    /// Removes a rule by id.
    pub fn remove(&mut self, id: l25gc_classifier::RuleId) -> Option<PdrRule> {
        match self {
            PdrTable::Linear(c) => c.remove(id),
            PdrTable::Tss(c) => c.remove(id),
            PdrTable::Ps(c) => c.remove(id),
        }
    }

    /// Installed rule count.
    pub fn len(&self) -> usize {
        match self {
            PdrTable::Linear(c) => c.len(),
            PdrTable::Tss(c) => c.len(),
            PdrTable::Ps(c) => c.len(),
        }
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The FAR state governing a session's downlink behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarState {
    /// Current apply action.
    pub action: ApplyAction,
    /// Downlink tunnel toward the serving gNB (absent while idle or
    /// before AN setup).
    pub tunnel: Option<TunnelInfo>,
}

/// One PFCP session at the UPF.
#[derive(Debug, Clone)]
pub struct UpfSession {
    /// PFCP session endpoint id.
    pub seid: u64,
    /// Owning UE.
    pub ue: UeId,
    /// The UE's IP address (downlink lookup key).
    pub ue_ip: u32,
    /// Uplink TEID (uplink lookup key).
    pub ul_teid: u32,
    /// Classifier rule id of the uplink (TEID-matching) PDR.
    pub ul_rule_id: u64,
    /// Pre-allocated TEID for a handover target gNB.
    pub pending_ul_teid: Option<u32>,
    /// Downlink FAR.
    pub dl_far: FarState,
    /// Uplink FAR action (normally FORW toward the DN).
    pub ul_far: ApplyAction,
    /// PDR classifier for this session.
    pub pdrs: PdrTable,
    /// QoS enforcement rules for this session.
    pub qers: QerTable,
    /// Classifier rule id → referenced QER ids.
    pub qer_bindings: HashMap<u64, Vec<u32>>,
    /// Smart buffer for DL packets during paging/handover.
    pub buffer: VecDeque<DataPacket>,
    /// Buffer capacity in packets (the paper's experiments use 3 K).
    pub buffer_cap: usize,
    /// Whether a downlink-data report was already raised for the current
    /// buffering episode.
    pub ddn_reported: bool,
}

/// What UPF-U decides to do with one packet.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Forward toward the data network (uplink).
    ToDn(DataPacket),
    /// Forward toward a gNB through the given tunnel (downlink).
    ToGnb(TunnelInfo, DataPacket),
    /// Buffered; optionally raise a downlink-data report (first packet
    /// of an idle session's episode).
    Buffered {
        /// Raise a Session Report toward the SMF.
        report: bool,
        /// The session's SEID (for the report).
        seid: u64,
    },
    /// Dropped: no session, no matching PDR, DROP action, or buffer
    /// overflow.
    Drop(DropReason),
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No session matched the TEID / UE IP.
    NoSession,
    /// No PDR matched within the session.
    NoPdr,
    /// The FAR said DROP.
    FarDrop,
    /// The smart buffer was full.
    BufferOverflow,
    /// A QoS Enforcement Rule policed the packet (MBR exceeded).
    QerPoliced,
    /// Downlink FAR says FORW but no tunnel is bound (transient
    /// misconfiguration; real UPFs drop here too).
    NoTunnel,
}

/// The UPF: shared session table + counters.
#[derive(Debug, Clone)]
pub struct Upf {
    /// Sessions, addressable by TEID (UL) and UE IP (DL).
    pub sessions: DualKeyTable<UpfSession>,
    /// seid → ul_teid, so N4 (keyed by SEID) can find sessions.
    by_seid: HashMap<u64, u32>,
    /// Which classifier backend new sessions get.
    pub backend: PdrBackend,
    /// Default buffer capacity for new sessions.
    pub default_buffer_cap: usize,
    /// Forwarding/drop counters.
    pub counters: Counters,
    /// Per-packet flight recorder: drops (with reason), buffering
    /// episodes. Bounded; overwrites its oldest entry under pressure.
    pub flight: FlightRecorder,
    /// The forwarding core's run-to-completion server state: packets
    /// arriving while a previous packet is in service queue behind it
    /// (the contention that separates experiment (ii) from (i)).
    pub busy_until: SimTime,
}

impl Upf {
    /// Creates an empty UPF with the given classifier backend.
    pub fn new(backend: PdrBackend) -> Upf {
        Upf {
            sessions: DualKeyTable::new(),
            by_seid: HashMap::new(),
            backend,
            default_buffer_cap: 3000,
            counters: Counters::new(),
            flight: FlightRecorder::with_default_capacity(),
            busy_until: SimTime::ZERO,
        }
    }

    /// Samples the total smart-buffer occupancy (packets across all
    /// sessions) into the flight recorder as a `Gauge`.
    pub fn record_buffer_occupancy(&mut self, now: SimTime) {
        let depth: u64 = self.sessions.iter().map(|s| s.buffer.len() as u64).sum();
        self.flight.record(
            now,
            EventKind::Gauge {
                name: "upf:buffer",
                value: depth,
            },
        );
    }

    /// Looks up a session by SEID.
    pub fn session_by_seid(&mut self, seid: u64) -> Option<&mut UpfSession> {
        let teid = *self.by_seid.get(&seid)?;
        self.sessions.by_teid_mut(teid)
    }

    /// Shared view of a session by SEID.
    pub fn session_by_seid_ref(&self, seid: u64) -> Option<&UpfSession> {
        let teid = *self.by_seid.get(&seid)?;
        self.sessions.by_teid(teid)
    }

    // ---------------- UPF-C: N4 handling ----------------

    /// Applies a Session Establishment (Create PDR/FAR groups).
    pub fn establish(&mut self, seid: u64, ue: UeId, ies: &pfcp::IeSet) {
        let ul_teid = ies
            .create_pdrs
            .iter()
            .find_map(|p| p.pdi.f_teid.map(|f| f.teid))
            .expect("UL PDR carries the local F-TEID");
        let ue_ip = ies
            .create_pdrs
            .iter()
            .find_map(|p| p.pdi.ue_ip.map(|u| u.addr.to_u32()))
            .expect("DL PDR carries the UE IP");
        let dl_far_id = ies
            .create_pdrs
            .iter()
            .find(|p| p.pdi.ue_ip.is_some())
            .map(|p| p.far_id)
            .expect("DL PDR references a FAR");
        let dl_far = ies
            .create_fars
            .iter()
            .find(|f| f.far_id == dl_far_id)
            .expect("referenced FAR present");

        let mut pdrs = PdrTable::new(self.backend);
        let mut ul_rule_id = 0;
        let mut qer_bindings = HashMap::new();
        for (i, p) in ies.create_pdrs.iter().enumerate() {
            let rule = pdr_to_rule(seid, i as u64, p);
            if p.pdi.f_teid.is_some() {
                ul_rule_id = rule.id;
            }
            if !p.qer_ids.is_empty() {
                qer_bindings.insert(rule.id, p.qer_ids.clone());
            }
            pdrs.insert(rule);
        }
        let mut qers = QerTable::new();
        for q in &ies.create_qers {
            if q.mbr_bps == 0 {
                qers.install(Qer::unlimited(q.qer_id));
            } else {
                // Burst: 100 ms worth of tokens, a common policer setting.
                qers.install(Qer::with_mbr(
                    q.qer_id,
                    q.mbr_bps as f64,
                    q.mbr_bps as f64 * 0.1,
                ));
            }
        }

        let session = UpfSession {
            seid,
            ue,
            ue_ip,
            ul_teid,
            ul_rule_id,
            pending_ul_teid: None,
            qers,
            qer_bindings,
            dl_far: FarState {
                action: dl_far.apply_action,
                tunnel: dl_far
                    .forwarding
                    .and_then(|f| f.outer_header_creation)
                    .map(|o| TunnelInfo {
                        teid: o.teid,
                        addr: o.addr.to_u32(),
                    }),
            },
            ul_far: ApplyAction::FORW,
            pdrs,
            buffer: VecDeque::new(),
            buffer_cap: self.default_buffer_cap,
            ddn_reported: false,
        };
        self.sessions.insert(ul_teid, ue_ip, session);
        self.by_seid.insert(seid, ul_teid);
        self.counters.inc("sessions_established");
    }

    /// Applies a Session Modification (Update FAR / Update PDR). Returns
    /// any packets released from the smart buffer (in order) when the FAR
    /// switches to FORW with a bound tunnel.
    pub fn modify(&mut self, seid: u64, ies: &pfcp::IeSet) -> Vec<(TunnelInfo, DataPacket)> {
        let Some(teid) = self.by_seid.get(&seid).copied() else {
            self.counters.inc("n4_unknown_seid");
            return Vec::new();
        };
        // Pre-allocate a handover TEID if an Update PDR carries a new
        // F-TEID (the paper's piggybacked IE).
        let mut new_ul_teid = None;
        {
            let s = self
                .sessions
                .by_teid_mut(teid)
                .expect("seid index consistent");
            for upd in &ies.update_pdrs {
                if let Some(pdi) = &upd.pdi {
                    if let Some(ft) = pdi.f_teid {
                        if ft.teid != s.ul_teid {
                            s.pending_ul_teid = Some(ft.teid);
                            new_ul_teid = Some(ft.teid);
                            // Re-point the uplink PDR's TEID dimension.
                            let mut rule =
                                s.pdrs.remove(s.ul_rule_id).expect("uplink rule installed");
                            rule.fields[Field::Teid as usize] = FieldRange::exact(ft.teid);
                            s.pdrs.insert(rule);
                        }
                    }
                }
            }
            for upd in &ies.update_fars {
                if let Some(action) = upd.apply_action {
                    s.dl_far.action = action;
                    if !action.buffer {
                        s.ddn_reported = false;
                    }
                }
                if let Some(fwd) = &upd.forwarding {
                    if let Some(ohc) = fwd.outer_header_creation {
                        s.dl_far.tunnel = Some(TunnelInfo {
                            teid: ohc.teid,
                            addr: ohc.addr.to_u32(),
                        });
                    }
                }
            }
        }
        // Commit the UL TEID rebind (handover: packets from the target
        // gNB arrive on the new tunnel).
        if let Some(new) = new_ul_teid {
            let rebound = self.sessions.rebind_teid(teid, new);
            debug_assert!(rebound, "pending TEID must be fresh");
            self.by_seid.insert(seid, new);
            let s = self.sessions.by_teid_mut(new).expect("just rebound");
            s.ul_teid = new;
            s.pending_ul_teid = None;
        }

        // Flush the buffer if we are now forwarding.
        let effective = new_ul_teid.unwrap_or(teid);
        let s = self.sessions.by_teid_mut(effective).expect("still present");
        let mut released = Vec::new();
        if s.dl_far.action.forward && !s.dl_far.action.buffer {
            if let Some(tun) = s.dl_far.tunnel {
                while let Some(pkt) = s.buffer.pop_front() {
                    released.push((tun, pkt));
                }
            }
        }
        if !released.is_empty() {
            self.counters.add("buffer_released", released.len() as u64);
        }
        released
    }

    /// Removes a session (Session Deletion).
    pub fn delete(&mut self, seid: u64) -> bool {
        match self.by_seid.remove(&seid) {
            Some(teid) => {
                self.sessions.remove_by_teid(teid);
                true
            }
            None => false,
        }
    }

    // ---------------- UPF-U: per-packet forwarding ----------------

    /// Processes one user packet and returns the forwarding verdict.
    pub fn forward(&mut self, pkt: DataPacket, tunnel_teid: Option<u32>, now: SimTime) -> Verdict {
        self.route(pkt, tunnel_teid, now)
            .unwrap_or_else(|(why, seid)| {
                let (counter, reason) = why.accounting();
                self.counters.inc(counter);
                self.flight
                    .record(now, EventKind::PacketDrop { reason, seid });
                Verdict::Drop(why)
            })
    }

    /// The pipeline behind [`Upf::forward`]: session by direction, one
    /// classify → police → FAR sequence, then the downlink-only buffer and
    /// tunnel. A drop is its reason and the session's SEID (0 if none matched).
    fn route(
        &mut self,
        pkt: DataPacket,
        tunnel_teid: Option<u32>,
        now: SimTime,
    ) -> Result<Verdict, (DropReason, u64)> {
        let uplink = pkt.dir == Direction::Uplink;
        let (session, teid) = if uplink {
            let teid = tunnel_teid.expect("uplink packets arrive in a GTP tunnel");
            (self.sessions.by_teid_mut(teid), teid)
        } else {
            (self.sessions.by_ue_ip_mut(ue_ip_for(pkt.ue)), 0)
        };
        let s = session.ok_or((DropReason::NoSession, 0))?;
        let seid = s.seid;
        let key = packet_key(&pkt, s.ue_ip, teid);
        let rule = s.pdrs.lookup(&key).ok_or((DropReason::NoPdr, seid))?;
        if let Some(qer_ids) = s.qer_bindings.get(&rule.id) {
            if !s.qers.police(qer_ids, now, pkt.size) {
                return Err((DropReason::QerPoliced, seid));
            }
        }
        let action = if uplink { s.ul_far } else { s.dl_far.action };
        if action.drop {
            return Err((DropReason::FarDrop, seid));
        }
        if uplink {
            self.counters.inc("ul_forwarded");
            return Ok(Verdict::ToDn(pkt));
        }
        if action.buffer {
            if s.buffer.len() >= s.buffer_cap {
                return Err((DropReason::BufferOverflow, seid));
            }
            if s.buffer.is_empty() {
                let start = EventKind::UpfBufferStart { seid, depth: 1 };
                self.flight.record(now, start);
            }
            s.buffer.push_back(pkt);
            self.counters.inc("dl_buffered");
            let report = action.notify_cp && !s.ddn_reported;
            s.ddn_reported |= report;
            return Ok(Verdict::Buffered { report, seid });
        }
        let tun = s.dl_far.tunnel.ok_or((DropReason::NoTunnel, seid))?;
        self.counters.inc("dl_forwarded");
        Ok(Verdict::ToGnb(tun, pkt))
    }
}

impl DropReason {
    /// The counter a drop for this reason bumps and its `PacketDrop` code.
    fn accounting(self) -> (&'static str, DropCode) {
        match self {
            DropReason::NoSession => ("drop_no_session", DropCode::NoSession),
            DropReason::NoPdr => ("drop_no_pdr", DropCode::NoPdr),
            DropReason::FarDrop => ("drop_far", DropCode::FarDrop),
            DropReason::BufferOverflow => ("drop_buffer_overflow", DropCode::BufferOverflow),
            DropReason::QerPoliced => ("drop_qer", DropCode::QerPoliced),
            DropReason::NoTunnel => ("drop_no_tunnel", DropCode::NoTunnel),
        }
    }
}

/// The deterministic UE-IP scheme shared by SMF and the traffic side:
/// 10.60.x.y derived from the UE id.
pub fn ue_ip_for(ue: UeId) -> u32 {
    0x0a3c_0000 | ((ue as u32) & 0xffff)
}

fn packet_key(pkt: &DataPacket, ue_ip: u32, teid: u32) -> PacketKey {
    let (src_ip, dst_ip) = match pkt.dir {
        Direction::Uplink => (ue_ip, 0x0808_0808),
        Direction::Downlink => (0x0808_0808, ue_ip),
    };
    PacketKey::default()
        .with(Field::SrcIp, src_ip)
        .with(Field::DstIp, dst_ip)
        .with(Field::DstPort, u32::from(pkt.dst_port))
        .with(Field::Protocol, u32::from(pkt.protocol))
        .with(Field::Teid, teid)
}

fn pdr_to_rule(seid: u64, ordinal: u64, p: &pfcp::CreatePdr) -> PdrRule {
    // Rule ids are unique per session table instance: (seid, pdr ordinal).
    let id = seid.wrapping_mul(1_000) + ordinal;
    let mut rule = PdrRule::any(id, p.precedence);
    if let Some(ft) = p.pdi.f_teid {
        rule.fields[Field::Teid as usize] = FieldRange::exact(ft.teid);
    }
    if let Some(ue) = p.pdi.ue_ip {
        let dim = if ue.is_destination {
            Field::DstIp
        } else {
            Field::SrcIp
        };
        rule.fields[dim as usize] = FieldRange::exact(ue.addr.to_u32());
    }
    for f in &p.pdi.sdf_filters {
        rule.fields[Field::SrcIp as usize] = FieldRange::prefix(f.src_addr.to_u32(), f.src_prefix);
        rule.fields[Field::DstPort as usize] = FieldRange {
            lo: f.dst_port.min.into(),
            hi: f.dst_port.max.into(),
        };
        if let Some(proto) = f.protocol {
            rule.fields[Field::Protocol as usize] = FieldRange::exact(proto.into());
        }
    }
    rule
}

#[cfg(test)]
mod tests {
    use super::*;
    use l25gc_pkt::ipv4::Ipv4Addr;
    use l25gc_pkt::pfcp::{
        CreateFar, CreatePdr, FTeid, ForwardingParameters, IeSet, Interface, Pdi, UeIpAddress,
        UpdateFar,
    };
    use l25gc_sim::SimTime;

    fn establishment_ies(ul_teid: u32, ue_ip: u32) -> IeSet {
        IeSet {
            create_pdrs: vec![
                CreatePdr {
                    pdr_id: 1,
                    precedence: 255,
                    pdi: Pdi {
                        source_interface: Some(Interface::Access),
                        f_teid: Some(FTeid {
                            teid: ul_teid,
                            addr: Ipv4Addr::new(10, 200, 200, 102),
                        }),
                        ..Pdi::default()
                    },
                    outer_header_removal: true,
                    far_id: 1,
                    qer_ids: vec![],
                },
                CreatePdr {
                    pdr_id: 2,
                    precedence: 255,
                    pdi: Pdi {
                        source_interface: Some(Interface::Core),
                        ue_ip: Some(UeIpAddress {
                            addr: Ipv4Addr::from_u32(ue_ip),
                            is_destination: true,
                        }),
                        ..Pdi::default()
                    },
                    outer_header_removal: false,
                    far_id: 2,
                    qer_ids: vec![],
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
                CreateFar {
                    far_id: 2,
                    apply_action: ApplyAction::BUFF,
                    forwarding: None,
                },
            ],
            ..IeSet::default()
        }
    }

    fn dl_pkt(ue: UeId, seq: u64) -> DataPacket {
        DataPacket {
            ue,
            flow: 0,
            dir: Direction::Downlink,
            seq,
            size: 200,
            sent_at: SimTime::ZERO,
            dst_port: 5001,
            protocol: 17,
            tunnel_teid: None,
            ack_seq: None,
        }
    }

    fn ul_pkt(ue: UeId, seq: u64) -> DataPacket {
        DataPacket {
            dir: Direction::Uplink,
            ..dl_pkt(ue, seq)
        }
    }

    fn far_forward_to(tun: TunnelInfo) -> IeSet {
        IeSet {
            update_fars: vec![UpdateFar {
                far_id: 2,
                apply_action: Some(ApplyAction::FORW),
                forwarding: Some(ForwardingParameters {
                    dest_interface: Interface::Access,
                    outer_header_creation: Some(pfcp::OuterHeaderCreation {
                        teid: tun.teid,
                        addr: Ipv4Addr::from_u32(tun.addr),
                    }),
                }),
            }],
            ..IeSet::default()
        }
    }

    #[test]
    fn establish_then_forward_both_directions() {
        let ue: UeId = 1;
        let ue_ip = ue_ip_for(ue);
        let mut upf = Upf::new(PdrBackend::PartitionSort);
        upf.establish(0x55, ue, &establishment_ies(0x100, ue_ip));
        // DL before AN tunnel binding buffers.
        assert!(matches!(
            upf.forward(dl_pkt(ue, 0), None, SimTime::ZERO),
            Verdict::Buffered { report: false, .. }
        ));
        // Bind the AN tunnel: buffered packet released.
        let tun = TunnelInfo {
            teid: 0x200,
            addr: 1,
        };
        let released = upf.modify(0x55, &far_forward_to(tun));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].0, tun);
        // Now DL forwards directly.
        assert!(
            matches!(upf.forward(dl_pkt(ue, 1), None, SimTime::ZERO), Verdict::ToGnb(t, _) if t == tun)
        );
        // UL forwards to DN.
        assert!(matches!(
            upf.forward(ul_pkt(ue, 0), Some(0x100), SimTime::ZERO),
            Verdict::ToDn(_)
        ));
    }

    #[test]
    fn unknown_teid_and_ip_drop() {
        let mut upf = Upf::new(PdrBackend::Linear);
        assert_eq!(
            upf.forward(ul_pkt(9, 0), Some(0x999), SimTime::ZERO),
            Verdict::Drop(DropReason::NoSession)
        );
        assert_eq!(
            upf.forward(dl_pkt(9, 0), None, SimTime::ZERO),
            Verdict::Drop(DropReason::NoSession)
        );
        assert_eq!(upf.counters.get("drop_no_session"), 2);
    }

    #[test]
    fn idle_session_reports_once_per_episode() {
        let ue: UeId = 2;
        let mut upf = Upf::new(PdrBackend::PartitionSort);
        upf.establish(0x66, ue, &establishment_ies(0x101, ue_ip_for(ue)));
        // Switch to idle buffering with notify (paging setup).
        let idle = IeSet {
            update_fars: vec![UpdateFar {
                far_id: 2,
                apply_action: Some(ApplyAction::BUFF_NOCP),
                forwarding: None,
            }],
            ..IeSet::default()
        };
        assert!(upf.modify(0x66, &idle).is_empty());
        // First DL packet raises the report; later ones don't.
        assert!(matches!(
            upf.forward(dl_pkt(ue, 0), None, SimTime::ZERO),
            Verdict::Buffered {
                report: true,
                seid: 0x66
            }
        ));
        for seq in 1..5 {
            assert!(matches!(
                upf.forward(dl_pkt(ue, seq), None, SimTime::ZERO),
                Verdict::Buffered { report: false, .. }
            ));
        }
        // Wake up: flush and forward; a later idle episode reports again.
        let tun = TunnelInfo {
            teid: 0x201,
            addr: 1,
        };
        let released = upf.modify(0x66, &far_forward_to(tun));
        assert_eq!(released.len(), 5);
        assert_eq!(
            released.iter().map(|(_, p)| p.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4],
            "in-order release"
        );
        upf.modify(0x66, &idle);
        assert!(matches!(
            upf.forward(dl_pkt(ue, 9), None, SimTime::ZERO),
            Verdict::Buffered { report: true, .. }
        ));
    }

    #[test]
    fn buffer_overflow_drops() {
        let ue: UeId = 3;
        let mut upf = Upf::new(PdrBackend::Linear);
        upf.default_buffer_cap = 3;
        upf.establish(0x77, ue, &establishment_ies(0x102, ue_ip_for(ue)));
        for seq in 0..3 {
            assert!(matches!(
                upf.forward(dl_pkt(ue, seq), None, SimTime::ZERO),
                Verdict::Buffered { .. }
            ));
        }
        assert_eq!(
            upf.forward(dl_pkt(ue, 3), None, SimTime::ZERO),
            Verdict::Drop(DropReason::BufferOverflow)
        );
        assert_eq!(upf.counters.get("drop_buffer_overflow"), 1);
    }

    #[test]
    fn handover_teid_rebind() {
        let ue: UeId = 4;
        let mut upf = Upf::new(PdrBackend::PartitionSort);
        upf.establish(0x88, ue, &establishment_ies(0x103, ue_ip_for(ue)));
        let tun = TunnelInfo {
            teid: 0x300,
            addr: 1,
        };
        upf.modify(0x88, &far_forward_to(tun));
        // Handover prep: new UL TEID piggybacked with BUFF action.
        let prep = IeSet {
            update_pdrs: vec![pfcp::UpdatePdr {
                pdr_id: 1,
                precedence: None,
                pdi: Some(Pdi {
                    f_teid: Some(FTeid {
                        teid: 0x104,
                        addr: Ipv4Addr::new(10, 200, 200, 102),
                    }),
                    ..Pdi::default()
                }),
                far_id: None,
            }],
            update_fars: vec![UpdateFar {
                far_id: 2,
                apply_action: Some(ApplyAction::BUFF),
                forwarding: None,
            }],
            ..IeSet::default()
        };
        upf.modify(0x88, &prep);
        // Old tunnel stops matching; new one works.
        assert!(matches!(
            upf.forward(ul_pkt(ue, 0), Some(0x103), SimTime::ZERO),
            Verdict::Drop(DropReason::NoSession)
        ));
        // DL packets buffer during the handover.
        assert!(matches!(
            upf.forward(dl_pkt(ue, 0), None, SimTime::ZERO),
            Verdict::Buffered { report: false, .. }
        ));
        // Complete: forward to the target and flush.
        let target = TunnelInfo {
            teid: 0x400,
            addr: 2,
        };
        let released = upf.modify(0x88, &far_forward_to(target));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].0, target);
        assert!(matches!(
            upf.forward(ul_pkt(ue, 1), Some(0x104), SimTime::ZERO),
            Verdict::ToDn(_)
        ));
    }

    #[test]
    fn delete_removes_session() {
        let ue: UeId = 5;
        let mut upf = Upf::new(PdrBackend::Tss);
        upf.establish(0x99, ue, &establishment_ies(0x105, ue_ip_for(ue)));
        assert!(upf.delete(0x99));
        assert!(!upf.delete(0x99));
        assert_eq!(
            upf.forward(ul_pkt(ue, 0), Some(0x105), SimTime::ZERO),
            Verdict::Drop(DropReason::NoSession)
        );
    }

    #[test]
    fn drops_and_buffering_land_on_flight_recorder() {
        let ue: UeId = 7;
        let mut upf = Upf::new(PdrBackend::Linear);
        upf.default_buffer_cap = 1;
        upf.establish(0xbb, ue, &establishment_ies(0x107, ue_ip_for(ue)));
        // Unknown TEID: no session is known, so the drop carries seid 0.
        upf.forward(ul_pkt(9, 0), Some(0x999), SimTime::ZERO);
        // First DL packet opens a buffering episode; the second overflows.
        upf.forward(dl_pkt(ue, 0), None, SimTime::ZERO);
        upf.forward(dl_pkt(ue, 1), None, SimTime::ZERO);
        upf.record_buffer_occupancy(SimTime::from_nanos(5));

        let kinds: Vec<_> = upf.flight.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::PacketDrop {
                    reason: DropCode::NoSession,
                    seid: 0
                },
                EventKind::UpfBufferStart {
                    seid: 0xbb,
                    depth: 1
                },
                EventKind::PacketDrop {
                    reason: DropCode::BufferOverflow,
                    seid: 0xbb
                },
                EventKind::Gauge {
                    name: "upf:buffer",
                    value: 1
                },
            ]
        );
    }

    #[test]
    fn all_backends_agree_on_forwarding() {
        for backend in [
            PdrBackend::Linear,
            PdrBackend::Tss,
            PdrBackend::PartitionSort,
        ] {
            let ue: UeId = 6;
            let mut upf = Upf::new(backend);
            upf.establish(0xaa, ue, &establishment_ies(0x106, ue_ip_for(ue)));
            let tun = TunnelInfo {
                teid: 0x500,
                addr: 1,
            };
            upf.modify(0xaa, &far_forward_to(tun));
            assert!(
                matches!(
                    upf.forward(ul_pkt(ue, 0), Some(0x106), SimTime::ZERO),
                    Verdict::ToDn(_)
                ),
                "{backend:?}"
            );
            assert!(
                matches!(
                    upf.forward(dl_pkt(ue, 0), None, SimTime::ZERO),
                    Verdict::ToGnb(..)
                ),
                "{backend:?}"
            );
        }
    }
}
