//! A byte-level transcript of `Upf::forward` over a seeded mixed workload.
//!
//! Eight sessions take 30 000 packets both ways, plus packets on unknown
//! TEIDs and UE IPs. One QER polices at 400 kb/s. Every 97 packets one
//! session's downlink FAR flips among FORW, BUFF and BUFF_NOCP, and one
//! session is handed over to a new uplink TEID halfway through. Every
//! verdict, every buffer release, the counters, the flight recorder and
//! each session's buffer / report / policer state are folded, in order,
//! into one FNV-1a digest. A change to the packet path's data layout must
//! reproduce [`DIGEST`] exactly.

use l25gc_core::msg::{DataPacket, Direction, UeId};
use l25gc_core::{ue_ip_for, PdrBackend, Upf};
use l25gc_pkt::ngap::TunnelInfo;
use l25gc_pkt::pfcp::{
    ApplyAction, CreateFar, CreatePdr, CreateQer, FTeid, ForwardingParameters, IeSet, Interface,
    OuterHeaderCreation, Pdi, PortRange, SdfFilter, UeIpAddress, UpdateFar, UpdatePdr,
};
use l25gc_pkt::Ipv4Addr;
use l25gc_sim::{SimRng, SimTime};

/// The digest the packet path produced when this test was written.
const DIGEST: u64 = 0xc2b5_3ac8_fcd2_6acc;

const SESSIONS: u64 = 8;
const PACKETS: u64 = 30_000;
const FLIP_EVERY: u64 = 97;
/// The policed QER: 400 kb/s on every session's uplink base PDR.
const POLICED_QER: u32 = 1;
/// Referenced by the pinholes but never installed: unknown ids pass.
const UNKNOWN_QER: u32 = 7;

fn seid_of(s: u64) -> u64 {
    0x100 + s
}

fn ue_of(s: u64) -> UeId {
    s + 1
}

fn tunnel_of(s: u64, epoch: u64) -> TunnelInfo {
    TunnelInfo {
        teid: 0x8000 + (epoch << 4) as u32 + s as u32,
        addr: 0x0ac8_c801,
    }
}

fn establishment(s: u64) -> IeSet {
    let mut create_pdrs = vec![
        CreatePdr {
            pdr_id: 1,
            precedence: 255,
            pdi: Pdi {
                source_interface: Some(Interface::Access),
                f_teid: Some(FTeid {
                    teid: 0x1000 + s as u32,
                    addr: Ipv4Addr::new(10, 200, 200, 102),
                }),
                ..Pdi::default()
            },
            outer_header_removal: true,
            far_id: 1,
            qer_ids: vec![POLICED_QER, 2],
        },
        CreatePdr {
            pdr_id: 2,
            precedence: 255,
            pdi: Pdi {
                source_interface: Some(Interface::Core),
                ue_ip: Some(UeIpAddress {
                    addr: Ipv4Addr::from_u32(ue_ip_for(ue_of(s))),
                    is_destination: true,
                }),
                ..Pdi::default()
            },
            outer_header_removal: false,
            far_id: 2,
            qer_ids: vec![2],
        },
    ];
    for k in 0..3u16 {
        create_pdrs.push(CreatePdr {
            pdr_id: 3 + k,
            precedence: 10 + u32::from(k),
            pdi: Pdi {
                sdf_filters: vec![SdfFilter {
                    dst_port: PortRange {
                        min: 6000 + k,
                        max: 6000 + k,
                    },
                    protocol: Some(17),
                    filter_id: u32::from(k),
                    ..SdfFilter::default()
                }],
                ..Pdi::default()
            },
            outer_header_removal: false,
            far_id: 1,
            qer_ids: if k == 0 { vec![] } else { vec![UNKNOWN_QER, 2] },
        });
    }
    let tun = tunnel_of(s, 0);
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
                        teid: tun.teid,
                        addr: Ipv4Addr::from_u32(tun.addr),
                    }),
                }),
            },
        ],
        create_qers: vec![
            CreateQer {
                qer_id: POLICED_QER,
                mbr_bps: 400_000,
            },
            CreateQer {
                qer_id: 2,
                mbr_bps: 0,
            },
        ],
        ..IeSet::default()
    }
}

/// A downlink FAR update: `step % 3` picks FORW (toward a fresh tunnel),
/// BUFF or BUFF_NOCP.
fn far_flip(s: u64, step: u64) -> IeSet {
    let (action, forwarding) = match step % 3 {
        0 => {
            let tun = tunnel_of(s, step);
            (
                ApplyAction::FORW,
                Some(ForwardingParameters {
                    dest_interface: Interface::Access,
                    outer_header_creation: Some(OuterHeaderCreation {
                        teid: tun.teid,
                        addr: Ipv4Addr::from_u32(tun.addr),
                    }),
                }),
            )
        }
        1 => (ApplyAction::BUFF, None),
        _ => (ApplyAction::BUFF_NOCP, None),
    };
    IeSet {
        update_fars: vec![UpdateFar {
            far_id: 2,
            apply_action: Some(action),
            forwarding,
        }],
        ..IeSet::default()
    }
}

fn handover(new_teid: u32) -> IeSet {
    IeSet {
        update_pdrs: vec![UpdatePdr {
            pdr_id: 1,
            precedence: None,
            pdi: Some(Pdi {
                f_teid: Some(FTeid {
                    teid: new_teid,
                    addr: Ipv4Addr::new(10, 200, 200, 102),
                }),
                ..Pdi::default()
            }),
            far_id: None,
        }],
        ..IeSet::default()
    }
}

/// FNV-1a over the `Debug` rendering of everything folded in.
struct Digest(u64);

impl Digest {
    fn fold(&mut self, item: &impl std::fmt::Debug) {
        for b in format!("{item:?}\n").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Runs the scenario; returns the digest and the UPF it left behind.
fn transcript() -> (u64, Upf) {
    let mut upf = Upf::new(PdrBackend::PartitionSort);
    upf.buffer_cap = 48;
    for s in 0..SESSIONS {
        upf.establish(seid_of(s), ue_of(s), &establishment(s));
    }
    let mut ul_teid: Vec<u32> = (0..SESSIONS).map(|s| 0x1000 + s as u32).collect();
    let mut rng = SimRng::new(7);
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let mut now = SimTime::ZERO;
    for i in 0..PACKETS {
        if i > 0 && i % FLIP_EVERY == 0 {
            let step = i / FLIP_EVERY;
            let s = step % SESSIONS;
            d.fold(&upf.modify(seid_of(s), &far_flip(s, step)));
        }
        if i == PACKETS / 2 {
            // Hand session 3 over: its uplink moves to a new TEID, and
            // packets still on the old one find no session.
            let new = 0x2000 + 3;
            d.fold(&upf.modify(seid_of(3), &handover(new)));
            ul_teid[3] = new;
        }
        now = SimTime::from_nanos(now.as_nanos() + rng.range_u64(0, 40_000));
        // Sessions 8 and 9 do not exist: unknown TEID / UE IP.
        let s = rng.range_u64(0, SESSIONS + 2);
        let uplink = rng.chance(0.5);
        let dst_port = match rng.index(5) {
            0 => 5001,
            k => 5999 + k as u16,
        };
        let pkt = DataPacket {
            ue: ue_of(s),
            flow: 0,
            dir: if uplink {
                Direction::Uplink
            } else {
                Direction::Downlink
            },
            seq: i,
            size: 40 + rng.index(1460),
            sent_at: now,
            dst_port,
            protocol: if rng.chance(0.8) { 17 } else { 6 },
            tunnel_teid: None,
            ack_seq: None,
        };
        let teid = match (uplink, ul_teid.get(s as usize)) {
            (false, _) => None,
            // A tenth of session 3's uplink keeps using the old tunnel.
            (true, Some(_)) if s == 3 && i > PACKETS / 2 && rng.chance(0.1) => Some(0x1003),
            (true, Some(&t)) => Some(t),
            (true, None) => Some(0x1000 + s as u32),
        };
        d.fold(&upf.forward(pkt, teid, now));
    }
    d.fold(&upf.counters.iter().collect::<Vec<_>>());
    for e in upf.flight.iter() {
        d.fold(e);
    }
    for s in 0..SESSIONS {
        let sess = upf.session_by_seid_ref(seid_of(s)).expect("established");
        d.fold(&(sess.buffer.len(), sess.ddn_reported));
        for id in [POLICED_QER, 2, UNKNOWN_QER] {
            d.fold(&sess.qers.get(id).map(|q| (q.passed, q.dropped)));
        }
    }
    (d.0, upf)
}

#[test]
fn forward_transcript_matches_the_recorded_digest() {
    let (got, _) = transcript();
    println!("forward transcript digest: {got:#018x}");
    assert_eq!(got, DIGEST, "forward transcript digest {got:#018x}");
}

#[test]
fn transcript_exercises_every_reachable_path() {
    // A digest over a workload that never polices, buffers, overflows,
    // releases or misses would pin nothing.
    let (_, upf) = transcript();
    for counter in [
        "ul_forwarded",
        "dl_forwarded",
        "dl_buffered",
        "buffer_released",
        "drop_qer",
        "drop_no_session",
        "drop_buffer_overflow",
    ] {
        assert!(upf.counters.get(counter) > 0, "{counter} never moved");
    }
    let reports = upf
        .flight
        .iter()
        .filter(|e| matches!(e.kind, l25gc_obs::EventKind::UpfBufferStart { .. }))
        .count();
    assert!(reports > 0, "no buffering episode recorded");
}
