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

use std::collections::VecDeque;
use std::ops::Range;

use l25gc_classifier::{Classifier, Field, FieldRange, PacketKey, PartitionSort, PdrRule, RuleId};
use l25gc_nfv::DualKeyTable;
use l25gc_obs::{DropCode, EventKind, FlightRecorder};
use l25gc_pkt::ngap::TunnelInfo;
use l25gc_pkt::pfcp::{self, ApplyAction};
use l25gc_sim::{Counters, FastMap, SimTime};

use crate::msg::{DataPacket, Direction, UeId};
use crate::qer::{Qer, QerTable};

/// Which lookup structure the UPF-U uses for PDRs (§3.4). Every session
/// uses PartitionSort; the enum keeps its one variant only because the
/// benchmark crate names it in `Upf::new`. Fig 11 compares the three
/// classifiers directly, not through the UPF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PdrBackend {
    /// PartitionSort — L²5GC's choice.
    #[default]
    PartitionSort,
}

/// A session's PDR classifier: PartitionSort (PDR-PS). Each rule's
/// classifier word is the span of the session's QER-id array it binds, so
/// a lookup answers the rule and the span of its QER ids from one
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct PdrTable(PartitionSort);

/// What a session's PDR lookup found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdrMatch {
    /// The winning rule's classifier id.
    pub id: RuleId,
    /// The QER ids the rule binds, as a range of the session's QER-id
    /// array (empty when it binds none).
    pub qers: Range<usize>,
}

/// A QER-id span as a classifier word: offset in the high half, length in
/// the low half.
fn span_word(span: Range<usize>) -> u32 {
    let at = u16::try_from(span.start).expect("QER-id array under 64 Ki ids");
    let len = u16::try_from(span.len()).expect("under 64 Ki QER ids per PDR");
    u32::from(at) << 16 | u32::from(len)
}

/// The span [`span_word`] encoded.
fn word_span(word: u32) -> Range<usize> {
    let at = (word >> 16) as usize;
    at..at + (word & 0xffff) as usize
}

/// A table built in one pass (see [`PartitionSort`]'s `FromIterator`).
impl FromIterator<(PdrRule, Range<usize>)> for PdrTable {
    fn from_iter<I: IntoIterator<Item = (PdrRule, Range<usize>)>>(rules: I) -> PdrTable {
        let rules = rules.into_iter();
        PdrTable(rules.map(|(rule, qers)| (rule, span_word(qers))).collect())
    }
}

impl PdrTable {
    /// Installs a rule binding the QER ids at `qers` of the session's
    /// QER-id array.
    pub(crate) fn insert(&mut self, rule: PdrRule, qers: Range<usize>) {
        self.0.insert_with_word(rule, span_word(qers));
    }

    /// Best-match lookup.
    #[inline]
    pub fn lookup(&self, key: &PacketKey) -> Option<PdrMatch> {
        let (id, word) = self.0.lookup_word(key)?;
        Some(PdrMatch {
            id,
            qers: word_span(word),
        })
    }

    /// Removes a rule by id, returning it and the QER-id span it bound.
    pub(crate) fn remove(&mut self, id: RuleId) -> Option<(PdrRule, Range<usize>)> {
        let (rule, word) = self.0.remove_with_word(id)?;
        Some((rule, word_span(word)))
    }

    /// Installed rule count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
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
    /// The QER ids of every PDR, as runs; PDRs that bind the same ids
    /// share one run. A [`PdrMatch`]'s span indexes it.
    qer_ids: Box<[u32]>,
    /// Classifier rule id → referenced QER ids: the bindings `qer_ids`
    /// spans, keyed for readers outside this crate. Written only by
    /// [`Upf::establish`]; the packet path never reads it.
    pub qer_bindings: FastMap<u64, Vec<u32>>,
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
    /// seid → ul_teid, so N4 (keyed by SEID) can find sessions. SEIDs
    /// come from the SMF's allocator, so the unkeyed [`FastMap`] is safe.
    by_seid: FastMap<u64, u32>,
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
    /// Creates an empty UPF. Every session classifies with PartitionSort,
    /// the only [`PdrBackend`].
    pub fn new(_: PdrBackend) -> Upf {
        Upf {
            sessions: DualKeyTable::new(),
            by_seid: FastMap::default(),
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

        let mut ul_rule_id = 0;
        let mut qer_ids = Vec::new();
        let mut qer_bindings = FastMap::default();
        let rules = ies.create_pdrs.iter().enumerate().map(|(i, p)| {
            let rule = pdr_to_rule(seid, i as u64, p);
            if p.pdi.f_teid.is_some() {
                ul_rule_id = rule.id;
            }
            if !p.qer_ids.is_empty() {
                qer_bindings.insert(rule.id, p.qer_ids.clone());
            }
            (rule, intern(&mut qer_ids, &p.qer_ids))
        });
        let mut pdrs: PdrTable = rules.collect();
        pdrs.0.shrink_to_fit();
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
            qer_ids: qer_ids.into_boxed_slice(),
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
    /// switches to FORW with a bound tunnel. A modification that would
    /// move the session onto an uplink TEID another session holds changes
    /// nothing and counts `n4_teid_collision`.
    pub fn modify(&mut self, seid: u64, ies: &pfcp::IeSet) -> Vec<(TunnelInfo, DataPacket)> {
        let Some(teid) = self.by_seid.get(&seid).copied() else {
            self.counters.inc("n4_unknown_seid");
            return Vec::new();
        };
        // Pre-allocate a handover TEID if an Update PDR carries a new
        // F-TEID (the paper's piggybacked IE); the last one wins.
        let new_ul_teid = ies
            .update_pdrs
            .iter()
            .rev()
            .filter_map(|upd| upd.pdi.as_ref()?.f_teid)
            .map(|ft| ft.teid)
            .find(|&t| t != teid);
        if new_ul_teid.is_some_and(|new| self.sessions.by_teid(new).is_some()) {
            self.counters.inc("n4_teid_collision");
            return Vec::new();
        }
        {
            let s = self
                .sessions
                .by_teid_mut(teid)
                .expect("seid index consistent");
            if let Some(new) = new_ul_teid {
                s.pending_ul_teid = Some(new);
                // Re-point the uplink PDR's TEID dimension; the rule keeps
                // its QER span.
                let (mut rule, qers) = s.pdrs.remove(s.ul_rule_id).expect("uplink rule installed");
                rule.fields[Field::Teid as usize] = FieldRange::exact(new);
                s.pdrs.insert(rule, qers);
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
            debug_assert!(rebound, "checked free above");
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
        let matched = s.pdrs.lookup(&key).ok_or((DropReason::NoPdr, seid))?;
        if !s.qers.police(&s.qer_ids[matched.qers], now, pkt.size) {
            return Err((DropReason::QerPoliced, seid));
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

/// The span of `ids` in `all`, appending them unless `all` already holds
/// them as one run.
fn intern(all: &mut Vec<u32>, ids: &[u32]) -> Range<usize> {
    if ids.is_empty() {
        return 0..0;
    }
    let at = match all.windows(ids.len()).position(|run| run == ids) {
        Some(at) => at,
        None => {
            all.extend_from_slice(ids);
            all.len() - ids.len()
        }
    };
    at..at + ids.len()
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

    /// An Update PDR moving the uplink PDR onto `teid`.
    fn repoint_ul(teid: u32) -> pfcp::UpdatePdr {
        pfcp::UpdatePdr {
            pdr_id: 1,
            precedence: None,
            pdi: Some(Pdi {
                f_teid: Some(FTeid {
                    teid,
                    addr: Ipv4Addr::new(10, 200, 200, 102),
                }),
                ..Pdi::default()
            }),
            far_id: None,
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
        let mut upf = Upf::new(PdrBackend::PartitionSort);
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
        let mut upf = Upf::new(PdrBackend::PartitionSort);
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
            update_pdrs: vec![repoint_ul(0x104)],
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
    fn repoint_onto_a_bound_teid_changes_nothing() {
        let (a, b): (UeId, UeId) = (10, 11);
        let mut upf = Upf::new(PdrBackend::PartitionSort);
        upf.establish(0xA, a, &establishment_ies(0x110, ue_ip_for(a)));
        upf.establish(0xB, b, &establishment_ies(0x111, ue_ip_for(b)));
        // Session 0xA asked onto 0xB's TEID, with a FAR update riding along.
        let onto_b = IeSet {
            update_pdrs: vec![repoint_ul(0x111)],
            ..far_forward_to(TunnelInfo {
                teid: 0x500,
                addr: 1,
            })
        };
        assert!(upf.modify(0xA, &onto_b).is_empty());
        assert_eq!(upf.counters.get("n4_teid_collision"), 1);
        for (seid, ue, teid) in [(0xA, a, 0x110), (0xB, b, 0x111)] {
            let s = upf.session_by_seid_ref(seid).expect("still established");
            assert_eq!((s.seid, s.ul_teid, s.pending_ul_teid), (seid, teid, None));
            assert_eq!(s.dl_far.action, ApplyAction::BUFF, "FAR untouched");
            assert!(matches!(
                upf.forward(ul_pkt(ue, 0), Some(teid), SimTime::ZERO),
                Verdict::ToDn(_)
            ));
        }
    }

    #[test]
    fn delete_removes_session() {
        let ue: UeId = 5;
        let mut upf = Upf::new(PdrBackend::PartitionSort);
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
        let mut upf = Upf::new(PdrBackend::PartitionSort);
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
    fn session_slot_stride_is_pinned() {
        // Every session-table probe walks slots of this stride; a field
        // or a wider map type must be a deliberate, visible change.
        assert_eq!(std::mem::size_of::<Option<UpfSession>>(), 280);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use l25gc_pkt::ipv4::Ipv4Addr;
    use l25gc_pkt::pfcp::{
        CreateFar, CreatePdr, CreateQer, FTeid, ForwardingParameters, IeSet, Interface,
        OuterHeaderCreation, Pdi, PortRange, SdfFilter, UeIpAddress, UpdateFar, UpdatePdr,
    };
    use l25gc_sim::SimDuration;
    use proptest::prelude::*;

    /// `Upf::forward` as it was while a match carried only its rule: the
    /// QER ids come from `qer_bindings`, keyed by the matched rule's id.
    fn model_forward(
        upf: &mut Upf,
        pkt: DataPacket,
        tunnel_teid: Option<u32>,
        now: SimTime,
    ) -> Verdict {
        model_route(upf, pkt, tunnel_teid, now).unwrap_or_else(|(why, seid)| {
            let (counter, reason) = why.accounting();
            upf.counters.inc(counter);
            upf.flight
                .record(now, EventKind::PacketDrop { reason, seid });
            Verdict::Drop(why)
        })
    }

    fn model_route(
        upf: &mut Upf,
        pkt: DataPacket,
        tunnel_teid: Option<u32>,
        now: SimTime,
    ) -> Result<Verdict, (DropReason, u64)> {
        let uplink = pkt.dir == Direction::Uplink;
        let (session, teid) = if uplink {
            let teid = tunnel_teid.expect("uplink packets arrive in a GTP tunnel");
            (upf.sessions.by_teid_mut(teid), teid)
        } else {
            (upf.sessions.by_ue_ip_mut(ue_ip_for(pkt.ue)), 0)
        };
        let s = session.ok_or((DropReason::NoSession, 0))?;
        let seid = s.seid;
        let key = packet_key(&pkt, s.ue_ip, teid);
        let rule = s.pdrs.0.lookup(&key).ok_or((DropReason::NoPdr, seid))?;
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
            upf.counters.inc("ul_forwarded");
            return Ok(Verdict::ToDn(pkt));
        }
        if action.buffer {
            if s.buffer.len() >= s.buffer_cap {
                return Err((DropReason::BufferOverflow, seid));
            }
            if s.buffer.is_empty() {
                let start = EventKind::UpfBufferStart { seid, depth: 1 };
                upf.flight.record(now, start);
            }
            s.buffer.push_back(pkt);
            upf.counters.inc("dl_buffered");
            let report = action.notify_cp && !s.ddn_reported;
            s.ddn_reported |= report;
            return Ok(Verdict::Buffered { report, seid });
        }
        let tun = s.dl_far.tunnel.ok_or((DropReason::NoTunnel, seid))?;
        upf.counters.inc("dl_forwarded");
        Ok(Verdict::ToGnb(tun, pkt))
    }

    /// QER ids 1..=3 are installed; 0 and 4 are referenced but unknown.
    const QER_IDS: u32 = 5;
    /// Uplink TEIDs: session `i` starts on `TEID_BASE + i`; re-points draw
    /// from the next few, so some collide with another session's.
    const TEID_BASE: u32 = 0x100;
    const PORT_BASE: u16 = 5000;
    const ACTIONS: [ApplyAction; 4] = [
        ApplyAction::FORW,
        ApplyAction::BUFF,
        ApplyAction::BUFF_NOCP,
        ApplyAction::DROP,
    ];

    /// A session: each PDR's QER ids (UL base, DL base, then pinholes),
    /// the MBR choice of QERs 1..=3, and the initial downlink action.
    type SessionSpec = (Vec<Vec<u32>>, Vec<usize>, usize);

    fn arb_session() -> impl Strategy<Value = SessionSpec> {
        (
            proptest::collection::vec(proptest::collection::vec(0..QER_IDS, 0..4), 2..6),
            proptest::collection::vec(0usize..3, 3),
            0usize..ACTIONS.len(),
        )
    }

    fn seid_of(i: usize) -> u64 {
        0x10 + i as u64
    }

    fn ue_of(i: usize) -> UeId {
        i as UeId + 1
    }

    fn tunnel(teid: u32) -> OuterHeaderCreation {
        OuterHeaderCreation {
            teid,
            addr: Ipv4Addr::new(10, 200, 200, 1),
        }
    }

    fn session_ies(i: usize, (qer_ids, mbrs, action): &SessionSpec) -> IeSet {
        let create_pdrs = qer_ids
            .iter()
            .enumerate()
            .map(|(k, ids)| {
                let mut pdi = Pdi::default();
                match k {
                    0 => {
                        pdi.f_teid = Some(FTeid {
                            teid: TEID_BASE + i as u32,
                            addr: Ipv4Addr::new(10, 200, 200, 102),
                        })
                    }
                    1 => {
                        pdi.ue_ip = Some(UeIpAddress {
                            addr: Ipv4Addr::from_u32(ue_ip_for(ue_of(i))),
                            is_destination: true,
                        })
                    }
                    _ => {
                        let port = PORT_BASE + k as u16;
                        pdi.sdf_filters = vec![SdfFilter {
                            dst_port: PortRange {
                                min: port,
                                max: port,
                            },
                            protocol: Some(17),
                            ..SdfFilter::default()
                        }]
                    }
                }
                CreatePdr {
                    pdr_id: k as u16 + 1,
                    precedence: if k < 2 { 255 } else { 10 + k as u32 },
                    pdi,
                    outer_header_removal: k == 0,
                    far_id: if k == 1 { 2 } else { 1 },
                    qer_ids: ids.clone(),
                }
            })
            .collect();
        let create_qers = mbrs
            .iter()
            .zip(1..)
            .map(|(&m, qer_id)| CreateQer {
                qer_id,
                mbr_bps: [0, 100_000, 400_000][m],
            })
            .collect();
        let dl = ACTIONS[*action];
        IeSet {
            create_pdrs,
            create_fars: vec![
                CreateFar {
                    far_id: 1,
                    apply_action: ApplyAction::FORW,
                    forwarding: None,
                },
                CreateFar {
                    far_id: 2,
                    apply_action: dl,
                    forwarding: (dl == ApplyAction::FORW).then(|| ForwardingParameters {
                        dest_interface: Interface::Access,
                        outer_header_creation: Some(tunnel(0x8000 + i as u32)),
                    }),
                },
            ],
            create_qers,
            ..IeSet::default()
        }
    }

    /// Every installed rule's QER span in the image holds exactly the ids
    /// `qer_bindings` lists for it (none when it has no entry).
    fn spans_match_bindings(upf: &Upf) -> Result<(), TestCaseError> {
        for s in upf.sessions.iter() {
            for ordinal in 0..s.pdrs.len() as u64 {
                let id = s.seid * 1_000 + ordinal;
                let (_, span) = s.pdrs.clone().remove(id).expect("rule installed");
                let bound = s.qer_bindings.get(&id).map_or(&[][..], Vec::as_slice);
                prop_assert_eq!(&s.qer_ids[span], bound, "rule {}", id);
            }
        }
        Ok(())
    }

    /// Every session's QER state, policer by policer.
    fn qer_states(upf: &Upf) -> Vec<Option<(u64, u64, u64)>> {
        let mut seids: Vec<u64> = upf.sessions.iter().map(|s| s.seid).collect();
        seids.sort_unstable();
        let qers = seids.into_iter().flat_map(|seid| {
            let s = upf.session_by_seid_ref(seid).expect("listed");
            (0..QER_IDS).map(|id| s.qers.get(id))
        });
        let state = |q: &Qer| (q.passed, q.dropped, q.tokens().to_bits());
        qers.map(|q| q.map(state)).collect()
    }

    proptest! {
        /// The UPF agrees with the bindings-map model on every verdict,
        /// every buffer release, every counter and every QER's state,
        /// through packets both ways (on live, stale and unknown TEIDs),
        /// uplink re-points (some onto another session's TEID) and
        /// downlink FAR flips; and every rule's span keeps matching its
        /// `qer_bindings` entry.
        #[test]
        fn forward_matches_the_bindings_model(
            sessions in proptest::collection::vec(arb_session(), 1..4),
            ops in proptest::collection::vec(
                (0u8..8, 0usize..4, 0u32..8, 40usize..1500, 0u64..2_000),
                1..80,
            ),
        ) {
            let mut upf = Upf::new(PdrBackend::PartitionSort);
            upf.default_buffer_cap = 4;
            for (i, spec) in sessions.iter().enumerate() {
                upf.establish(seid_of(i), ue_of(i), &session_ies(i, spec));
            }
            let mut model = upf.clone();
            spans_match_bindings(&upf)?;
            let mut now = SimTime::ZERO;
            for (step, (kind, i, pick, size, gap_us)) in ops.into_iter().enumerate() {
                now += SimDuration::from_micros(gap_us);
                match kind {
                    // Mostly packets: session `i` (3 is never established)
                    // on pinhole port `pick` (ports past the pinholes
                    // reach the base PDRs).
                    0..=5 => {
                        let pkt = DataPacket {
                            ue: ue_of(i),
                            flow: 0,
                            dir: if kind < 3 { Direction::Uplink } else { Direction::Downlink },
                            seq: step as u64,
                            size,
                            sent_at: now,
                            dst_port: PORT_BASE + pick as u16,
                            protocol: 17,
                            tunnel_teid: None,
                            ack_seq: None,
                        };
                        // Uplink on the session's current TEID, or on
                        // whichever TEID `pick` names.
                        let current = upf.session_by_seid_ref(seid_of(i)).map(|s| s.ul_teid);
                        let teid = (pkt.dir == Direction::Uplink).then(|| match kind {
                            0 | 1 => current.unwrap_or(TEID_BASE + pick),
                            _ => TEID_BASE + pick,
                        });
                        let got = upf.forward(pkt, teid, now);
                        let want = model_forward(&mut model, pkt, teid, now);
                        prop_assert_eq!(got, want, "step {}", step);
                    }
                    6 => {
                        let ies = IeSet {
                            update_pdrs: vec![UpdatePdr {
                                pdr_id: 1,
                                precedence: None,
                                pdi: Some(Pdi {
                                    f_teid: Some(FTeid {
                                        teid: TEID_BASE + pick,
                                        addr: Ipv4Addr::new(10, 200, 200, 102),
                                    }),
                                    ..Pdi::default()
                                }),
                                far_id: None,
                            }],
                            ..IeSet::default()
                        };
                        prop_assert_eq!(upf.modify(seid_of(i), &ies), model.modify(seid_of(i), &ies));
                    }
                    _ => {
                        let action = ACTIONS[pick as usize % ACTIONS.len()];
                        let ies = IeSet {
                            update_fars: vec![UpdateFar {
                                far_id: 2,
                                apply_action: Some(action),
                                forwarding: (pick < 4).then(|| ForwardingParameters {
                                    dest_interface: Interface::Access,
                                    outer_header_creation: Some(tunnel(0x9000 + pick)),
                                }),
                            }],
                            ..IeSet::default()
                        };
                        prop_assert_eq!(upf.modify(seid_of(i), &ies), model.modify(seid_of(i), &ies));
                    }
                }
                let counters = |u: &Upf| u.counters.iter().collect::<Vec<_>>();
                prop_assert_eq!(counters(&upf), counters(&model), "step {}", step);
                prop_assert_eq!(qer_states(&upf), qer_states(&model), "step {}", step);
                spans_match_bindings(&upf)?;
            }
        }
    }
}
