//! `upf_forward`: the paper's data path — session-table lookup → PDR
//! classification → QER → FAR — at the smallest packet size, over a
//! session set whose working set is beyond L2. Closed loop, one client:
//! the next packet is offered when the previous verdict is back. All in
//! process; no packet crosses a socket or a link.

use std::time::Instant;

use l25gc_classifier::{Field, PacketKey};
use l25gc_core::msg::{DataPacket, Direction};
use l25gc_core::upf::UpfSession;
use l25gc_core::{ue_ip_for, PdrBackend, QerTable, Upf, Verdict};
use l25gc_pkt::pfcp::{
    ApplyAction, CreateFar, CreatePdr, CreateQer, FTeid, ForwardingParameters, IeSet, Interface,
    OuterHeaderCreation, Pdi, PortRange, SdfFilter, UeIpAddress,
};
use l25gc_pkt::Ipv4Addr;
use l25gc_sim::{Counters, SimTime};

use crate::gen::{self, PacketSpec, PINHOLES};
use crate::report::{self, Pass};
use crate::span::{Recorder, CHUNK};
use crate::Outcome;

/// Sessions installed for the workload.
pub const SESSIONS: u32 = 10_000;
/// The cache-resident comparison point of the ledger.
pub const SESSIONS_1K: u32 = 1_000;
/// Packets generated per run; the timed repeats cycle through them.
pub const PACKETS: usize = 1_000_000;
/// Packets per timed repeat: ~0.1 s, so a run has ~100 repeats and a
/// disturbed stretch of the host spoils some of them, not the run.
pub const REPEAT_PACKETS: usize = 100_000;
/// PDRs per session: UL base, DL base, 14 pinholes.
pub const PDRS: usize = 2 + PINHOLES as usize;
/// Smallest packet the testbed sends (bytes on the wire).
const PKT_SIZE: usize = 68;
/// First pinhole port; pinhole `k` opens `PORT_BASE + k`.
const PORT_BASE: u16 = 6_000;
/// The one (unlimited) QER every PDR references.
const QER_ID: u32 = 1;
/// Packets per timed latency burst.
const BURST: usize = 256;
/// Set-up repeats per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Packets the end-to-end run re-classifies through the public tables to
/// check which PDR matched.
const VERIFY_PACKETS: usize = 1 << 18;

fn ul_teid(session: u32) -> u32 {
    0x1000 + session
}

fn ue_of(session: u32) -> u64 {
    u64::from(session) + 1
}

fn seid_of(session: u32) -> u64 {
    u64::from(session) + 1
}

/// The Session Establishment IEs an SMF would send for `session`: the
/// two base PDRs at precedence 255, 14 destination-port pinholes above
/// them, forwarding FARs both ways, and one unlimited QER on every PDR.
pub fn session_ies(session: u32) -> IeSet {
    let mut create_pdrs = vec![
        CreatePdr {
            pdr_id: 1,
            precedence: 255,
            pdi: Pdi {
                source_interface: Some(Interface::Access),
                f_teid: Some(FTeid {
                    teid: ul_teid(session),
                    addr: Ipv4Addr::new(10, 200, 200, 102),
                }),
                ..Pdi::default()
            },
            outer_header_removal: true,
            far_id: 1,
            qer_ids: vec![QER_ID],
        },
        CreatePdr {
            pdr_id: 2,
            precedence: 255,
            pdi: Pdi {
                source_interface: Some(Interface::Core),
                ue_ip: Some(UeIpAddress {
                    addr: Ipv4Addr::from_u32(ue_ip_for(ue_of(session))),
                    is_destination: true,
                }),
                ..Pdi::default()
            },
            outer_header_removal: false,
            far_id: 2,
            qer_ids: vec![QER_ID],
        },
    ];
    for k in 0..PINHOLES as u16 {
        create_pdrs.push(CreatePdr {
            pdr_id: 3 + k,
            precedence: 10 + u32::from(k),
            pdi: Pdi {
                sdf_filters: vec![SdfFilter {
                    dst_port: PortRange {
                        min: PORT_BASE + k,
                        max: PORT_BASE + k,
                    },
                    protocol: Some(17),
                    filter_id: u32::from(k),
                    ..SdfFilter::default()
                }],
                ..Pdi::default()
            },
            outer_header_removal: false,
            far_id: 1,
            qer_ids: vec![QER_ID],
        });
    }
    IeSet {
        create_pdrs,
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
                apply_action: ApplyAction::FORW,
                forwarding: Some(ForwardingParameters {
                    dest_interface: Interface::Access,
                    outer_header_creation: Some(OuterHeaderCreation {
                        teid: 0x8000_0000 | session,
                        addr: Ipv4Addr::new(10, 200, 200, 1),
                    }),
                }),
            },
        ],
        create_qers: vec![CreateQer {
            qer_id: QER_ID,
            mbr_bps: 0,
        }],
        ..IeSet::default()
    }
}

/// A PartitionSort UPF with `sessions` sessions installed through
/// `Upf::establish`, and the seconds that took (IE building included).
pub fn build(sessions: u32) -> (Upf, f64) {
    let t = Instant::now();
    let mut upf = Upf::new(PdrBackend::PartitionSort);
    for s in 0..sessions {
        upf.establish(seid_of(s), ue_of(s), &session_ies(s));
    }
    (upf, t.elapsed().as_secs_f64())
}

/// The packet `spec` describes, and the tunnel it arrives in.
fn packet(spec: PacketSpec, seq: u64) -> (DataPacket, Option<u32>) {
    let uplink = spec.uplink();
    let pkt = DataPacket {
        ue: ue_of(spec.session()),
        flow: 0,
        dir: if uplink {
            Direction::Uplink
        } else {
            Direction::Downlink
        },
        seq,
        size: PKT_SIZE,
        sent_at: SimTime::ZERO,
        dst_port: PORT_BASE + spec.port() as u16,
        protocol: 17,
        tunnel_teid: None,
        ack_seq: None,
    };
    (pkt, uplink.then(|| ul_teid(spec.session())))
}

/// What the forwarding loop saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    /// Packets offered.
    pub packets: u64,
    /// `Verdict::ToDn`.
    pub to_dn: u64,
    /// `Verdict::ToGnb`.
    pub to_gnb: u64,
    /// Anything else: buffered or dropped.
    pub not_forwarded: u64,
    /// Growth of the UPF's `ul_forwarded` counter.
    pub ul_counter: u64,
    /// Growth of the UPF's `dl_forwarded` counter.
    pub dl_counter: u64,
}

impl Tally {
    /// Every packet forwarded, and the UPF's own counters agree.
    pub fn check(&self, pkts: &[PacketSpec]) -> Result<(), String> {
        let ul = pkts.iter().filter(|p| p.uplink()).count() as u64;
        let dl = pkts.len() as u64 - ul;
        if self.packets != pkts.len() as u64 {
            return Err(format!(
                "offered {} of {} packets",
                self.packets,
                pkts.len()
            ));
        }
        if self.not_forwarded != 0 {
            return Err(format!(
                "{} packets without a forward verdict",
                self.not_forwarded
            ));
        }
        if (self.to_dn, self.to_gnb) != (ul, dl) {
            return Err(format!(
                "verdicts ToDn {} / ToGnb {} for {ul} uplink / {dl} downlink packets",
                self.to_dn, self.to_gnb
            ));
        }
        if self.ul_counter + self.dl_counter != self.packets
            || (self.ul_counter, self.dl_counter) != (ul, dl)
        {
            return Err(format!(
                "counters ul_forwarded {} + dl_forwarded {} != {} packets",
                self.ul_counter, self.dl_counter, self.packets
            ));
        }
        Ok(())
    }
}

/// Pushes every packet through `Upf::forward`; optionally times each
/// [`BURST`]-packet burst into `burst_ns`.
pub fn forward_all(
    upf: &mut Upf,
    pkts: &[PacketSpec],
    mut burst_ns: Option<&mut Vec<f64>>,
) -> Tally {
    let (ul0, dl0) = (
        upf.counters.get("ul_forwarded"),
        upf.counters.get("dl_forwarded"),
    );
    let mut t = Tally::default();
    let mut seq = 0u64;
    for burst in pkts.chunks(BURST) {
        let t0 = burst_ns.is_some().then(Instant::now);
        for &spec in burst {
            let (pkt, teid) = packet(spec, seq);
            match upf.forward(pkt, teid, SimTime::from_nanos(seq)) {
                Verdict::ToDn(p) => {
                    std::hint::black_box(p);
                    t.to_dn += 1;
                }
                Verdict::ToGnb(tun, p) => {
                    std::hint::black_box((tun, p));
                    t.to_gnb += 1;
                }
                other => {
                    std::hint::black_box(other);
                    t.not_forwarded += 1;
                }
            }
            seq += 1;
        }
        if let (Some(t0), Some(out)) = (t0, burst_ns.as_deref_mut()) {
            out.push(t0.elapsed().as_nanos() as f64 / burst.len() as f64);
        }
    }
    t.packets = seq;
    t.ul_counter = upf.counters.get("ul_forwarded") - ul0;
    t.dl_counter = upf.counters.get("dl_forwarded") - dl0;
    t
}

/// The classifier key `Upf::forward` builds for a packet (its private
/// `packet_key`, from the same public fields).
fn key_of(spec: PacketSpec) -> PacketKey {
    let ue_ip = ue_ip_for(ue_of(spec.session()));
    let (src, dst, teid) = if spec.uplink() {
        (ue_ip, 0x0808_0808, ul_teid(spec.session()))
    } else {
        (0x0808_0808, ue_ip, 0)
    };
    PacketKey::default()
        .with(Field::SrcIp, src)
        .with(Field::DstIp, dst)
        .with(Field::DstPort, u32::from(PORT_BASE) + spec.port())
        .with(Field::Protocol, 17)
        .with(Field::Teid, teid)
}

/// Span names of the replay — the UPF rows of the ledger.
pub mod row {
    /// `DualKeyTable::by_teid` / `by_ue_ip`.
    pub const LOOKUP: &str = "nfv.session_table.lookup";
    /// `PdrTable::lookup` on a 16-rule session table.
    pub const CLASSIFY: &str = "classifier.ps.lookup_16";
    /// `UpfSession::qer_bindings` look-up and clone of the QER id list.
    pub const BINDING: &str = "core.upf.qer_binding";
    /// `QerTable::police`.
    pub const POLICE: &str = "core.qer.police";
    /// `Counters::inc`.
    pub const COUNTERS: &str = "sim.counters.inc";
    /// The whole replay (its self time is chunk-loop glue).
    pub const REPLAY: &str = "replay";
}

/// What the layer-major replay found.
pub struct Replay {
    /// Packets per matched PDR ordinal.
    pub pdr_histogram: [u64; PDRS],
    /// Packets whose session or PDR was not found, or that a QER dropped.
    pub unmatched: u64,
    /// Wall time of the whole replay, ns.
    pub wall_ns: u64,
}

/// Replays `pkts` layer-major in chunks of 4 096 through the public
/// tables `Upf::forward` reads: the session table (`upf.sessions`), the
/// sessions' PDR classifiers and QER bindings, a QER table per session
/// (cloned out, since policing mutates), and a `Counters`. One span per layer per chunk.
pub fn replay(upf: &Upf, pkts: &[PacketSpec], rec: &mut Recorder) -> Replay {
    // Slot order is establishment order, so session i is the i-th slot.
    let sessions: Vec<&UpfSession> = upf.sessions.iter().collect();
    for (i, s) in sessions.iter().enumerate() {
        assert_eq!(s.ul_teid, ul_teid(i as u32), "slot order is session order");
    }
    let mut qers: Vec<QerTable> = sessions.iter().map(|s| s.qers.clone()).collect();
    let mut counters = Counters::new();
    let mut hist = [0u64; PDRS];
    let mut unmatched = 0u64;
    let mut matched: Vec<Option<u64>> = Vec::with_capacity(CHUNK);
    let mut bound: Vec<Option<Vec<u32>>> = Vec::with_capacity(CHUNK);

    let t0 = Instant::now();
    let root = rec.enter(row::REPLAY, 0);
    let mut seq = 0u64;
    for (c, chunk) in pkts.chunks(CHUNK).enumerate() {
        let c = c as u32 + 1;
        let found = rec.span(row::LOOKUP, c, || {
            let mut found = 0u64;
            for &spec in chunk {
                let s = if spec.uplink() {
                    upf.sessions.by_teid(ul_teid(spec.session()))
                } else {
                    upf.sessions.by_ue_ip(ue_ip_for(ue_of(spec.session())))
                };
                found += u64::from(s.is_some_and(|s| s.seid == seid_of(spec.session())));
            }
            found
        });
        unmatched += chunk.len() as u64 - found;
        matched.clear();
        rec.span(row::CLASSIFY, c, || {
            for &spec in chunk {
                let s = sessions[spec.session() as usize];
                matched.push(s.pdrs.lookup(&key_of(spec)).map(|r| r.id));
            }
        });
        rec.span(row::BINDING, c, || {
            // Freeing the previous chunk's id lists belongs to this row:
            // `Upf::forward` drops its clone before it returns.
            bound.clear();
            for (&spec, id) in chunk.iter().zip(&matched) {
                let s = sessions[spec.session() as usize];
                bound.push(id.and_then(|id| s.qer_bindings.get(&id).cloned()));
            }
        });
        rec.span(row::POLICE, c, || {
            for (i, (&spec, ids)) in chunk.iter().zip(&bound).enumerate() {
                let ok = qers[spec.session() as usize].police(
                    ids.as_deref().unwrap_or(&[]),
                    SimTime::from_nanos(seq + i as u64),
                    PKT_SIZE,
                );
                unmatched += u64::from(!ok || ids.is_none());
            }
        });
        rec.span(row::COUNTERS, c, || {
            for &spec in chunk {
                counters.inc(if spec.uplink() {
                    "ul_forwarded"
                } else {
                    "dl_forwarded"
                });
            }
        });
        for (&spec, id) in chunk.iter().zip(&matched) {
            // Rule ids are `seid * 1000 + ordinal` (see `Upf::establish`).
            match id.and_then(|id| id.checked_sub(seid_of(spec.session()) * 1_000)) {
                Some(ordinal) if (ordinal as usize) < PDRS => hist[ordinal as usize] += 1,
                _ => unmatched += 1,
            }
        }
        seq += chunk.len() as u64;
    }
    rec.exit(root);
    std::hint::black_box(counters.get("ul_forwarded"));
    Replay {
        pdr_histogram: hist,
        unmatched,
        wall_ns: t0.elapsed().as_nanos() as u64,
    }
}

/// The PDR each packet matched must be the one the generator aimed at.
pub fn check_histogram(got: &Replay, pkts: &[PacketSpec]) -> Result<(), String> {
    let want = gen::expected_pdr_histogram(pkts);
    if got.unmatched != 0 {
        return Err(format!(
            "{} packets matched no session/PDR/QER",
            got.unmatched
        ));
    }
    if got.pdr_histogram != want {
        return Err(format!(
            "matched-PDR histogram {:?} differs from the generator's {want:?}",
            got.pdr_histogram
        ));
    }
    Ok(())
}

/// Runs `upf_forward` for `seconds`.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut upf = None;
    for _ in 0..SETUPS {
        drop(upf.take());
        let (u, s) = build(SESSIONS);
        setup_s.push(s);
        upf = Some(u);
    }
    let mut upf = upf.expect("at least one set-up");
    if upf.sessions.len() != SESSIONS as usize {
        return Err(format!(
            "{} sessions installed, not {SESSIONS}",
            upf.sessions.len()
        ));
    }
    let pkts = gen::packets(seed, SESSIONS, PACKETS);

    let mut errors = Vec::new();
    let mut slices = pkts.chunks(REPEAT_PACKETS).cycle();
    let repeats = report::repeat(seconds, || {
        let slice = slices.next().expect("cycle never ends");
        let (tally, wall_ns, cpu_ns) = report::timed(|| forward_all(&mut upf, slice, None));
        if let Err(e) = tally.check(slice) {
            errors.push(e);
        }
        Pass {
            ops: tally.to_dn + tally.to_gnb,
            failed: tally.not_forwarded,
            wall_ns,
            cpu_ns,
        }
    });
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    let verify = &pkts[..VERIFY_PACKETS.min(pkts.len())];
    check_histogram(&replay(&upf, verify, &mut Recorder::new(false)), verify)?;
    Ok(Outcome {
        attempted: repeats.attempted(),
        failed: repeats.failed(),
        metrics: repeats.end_to_end(setup_s),
        text: format!(
            "# upf_forward: {REPEAT_PACKETS} packets/repeat of {PKT_SIZE} B over {SESSIONS} sessions x {PDRS} PDRs, \
             closed loop, 1 client, in-process (no socket or link crossed)"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_upf_forwards_every_packet_to_the_aimed_pdr() {
        let (mut upf, _) = build(50);
        let pkts = gen::packets(7, 50, 20_000);
        let tally = forward_all(&mut upf, &pkts, None);
        assert_eq!(tally.check(&pkts), Ok(()));
        let rep = replay(&upf, &pkts, &mut Recorder::new(true));
        assert_eq!(check_histogram(&rep, &pkts), Ok(()));
        let mut bursts = Vec::new();
        forward_all(&mut upf, &pkts, Some(&mut bursts));
        assert_eq!(bursts.len(), pkts.len().div_ceil(BURST));
    }

    #[test]
    fn tally_check_rejects_each_corruption() {
        let pkts = gen::packets(7, 50, 1_000);
        let ul = pkts.iter().filter(|p| p.uplink()).count() as u64;
        let good = Tally {
            packets: 1_000,
            to_dn: ul,
            to_gnb: 1_000 - ul,
            not_forwarded: 0,
            ul_counter: ul,
            dl_counter: 1_000 - ul,
        };
        assert_eq!(good.check(&pkts), Ok(()));
        let dropped = Tally {
            to_dn: ul - 1,
            not_forwarded: 1,
            ..good
        };
        assert!(dropped
            .check(&pkts)
            .unwrap_err()
            .contains("without a forward verdict"));
        let misrouted = Tally {
            to_dn: ul - 1,
            to_gnb: 1_001 - ul,
            ..good
        };
        assert!(misrouted.check(&pkts).unwrap_err().contains("verdicts"));
        let miscounted = Tally {
            ul_counter: ul - 1,
            ..good
        };
        assert!(miscounted.check(&pkts).unwrap_err().contains("counters"));
        let short = Tally {
            packets: 999,
            ..good
        };
        assert!(short.check(&pkts).is_err());
    }

    #[test]
    fn histogram_check_rejects_a_wrong_match() {
        let pkts = gen::packets(7, 50, 1_000);
        let mut rep = Replay {
            pdr_histogram: gen::expected_pdr_histogram(&pkts),
            unmatched: 0,
            wall_ns: 0,
        };
        assert_eq!(check_histogram(&rep, &pkts), Ok(()));
        rep.pdr_histogram[3] -= 1;
        rep.pdr_histogram[0] += 1;
        assert!(check_histogram(&rep, &pkts)
            .unwrap_err()
            .contains("histogram"));
        rep.pdr_histogram = gen::expected_pdr_histogram(&pkts);
        rep.unmatched = 1;
        assert!(check_histogram(&rep, &pkts)
            .unwrap_err()
            .contains("matched no"));
    }
}
