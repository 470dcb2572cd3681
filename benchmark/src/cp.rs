//! `cp_lifecycle`: the real AMF/SMF/AUSF/UDM/PCF/UPF-C state machines,
//! the RAN, PFCP IE building and rule install, driven through
//! `testbed::World` + `sim::Engine`. Six phases, each over every UE in a
//! seeded order: registration, PDU session, N2 handover to gNB 2, idle
//! transition, paging by one downlink packet, deregistration. Closed
//! loop, one client: a procedure starts when the previous one has
//! settled. Phase-major on purpose — while handovers run, every UE holds
//! a session, so per-procedure cost that grows with the number of
//! attached UEs shows. All in process; nothing crosses a socket.

use std::time::Instant;

use l25gc_core::msg::{DataPacket, Endpoint, Envelope, Msg};
use l25gc_core::net::{nf_name, N4Association};
use l25gc_core::{CoreNetwork, Deployment, EventRecord, Output, UeEvent};
use l25gc_ran::traffic::{echo, CbrFlow};
use l25gc_ran::Ran;
use l25gc_sim::{Engine, EventQueue, SimDuration, SimTime};
use l25gc_testbed::World;

use crate::gen;
use crate::report::{self, Pass};
use crate::span::Recorder;
use crate::Outcome;

/// UEs of the workload.
pub const UES: u64 = 10_000;
/// The small comparison point of the scaling rows.
pub const UES_1K: u64 = 1_000;
/// gNBs: every UE camps on gNB 1 and hands over to gNB 2.
const GNBS: u32 = 2;
const TARGET_GNB: u32 = 2;
/// The paging packet: one 68-byte downlink CBR probe. At 1 000 pps the
/// flow's second packet would be due after the 500 µs it lasts.
const PAGE_PPS: u64 = 1_000;
const PAGE_SIZE: usize = 68;
const PAGE_FLOW_FOR: SimDuration = SimDuration::from_micros(500);

/// The six procedure kinds in lifecycle order, with their ledger suffix.
pub const KINDS: [(UeEvent, &str); 6] = [
    (UeEvent::Registration, "registration"),
    (UeEvent::SessionRequest, "session"),
    (UeEvent::Handover, "handover"),
    (UeEvent::IdleTransition, "idle"),
    (UeEvent::Paging, "paging"),
    (UeEvent::Deregistration, "deregistration"),
];

/// The virtual-time outcome of a lifecycle run: per kind, how many
/// procedures completed and the sum and maximum of their durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpDigest {
    /// `(completed, Σ duration ns, max duration ns)` per [`KINDS`] entry.
    pub per_kind: [(u64, u64, u64); 6],
    /// Event records of any other kind.
    pub stray: u64,
    /// UEs the RAN still holds as registered.
    pub still_registered: u64,
    /// Sessions left in the UPF.
    pub upf_sessions_left: u64,
}

impl CpDigest {
    /// Reads the digest off the core's event log and end state.
    pub fn of(core: &CoreNetwork, ran: &Ran) -> CpDigest {
        let mut per_kind = [(0u64, 0u64, 0u64); 6];
        let mut stray = 0;
        for rec in &core.events {
            match KINDS.iter().position(|(k, _)| *k == rec.event) {
                Some(i) => {
                    let d = rec.duration().as_nanos();
                    per_kind[i].0 += 1;
                    per_kind[i].1 += d;
                    per_kind[i].2 = per_kind[i].2.max(d);
                }
                None => stray += 1,
            }
        }
        CpDigest {
            per_kind,
            stray,
            still_registered: ran.ues.values().filter(|u| u.registered).count() as u64,
            upf_sessions_left: core.upf.sessions.len() as u64,
        }
    }

    /// Procedures that completed, all kinds.
    pub fn completed(&self) -> u64 {
        self.per_kind.iter().map(|k| k.0).sum()
    }

    /// Exactly one procedure of each kind per UE, and a clean end state.
    pub fn check(&self, ues: u64) -> Result<(), String> {
        for ((_, name), (n, _, _)) in KINDS.iter().zip(&self.per_kind) {
            if *n != ues {
                return Err(format!("{n} {name} procedures completed, not {ues}"));
            }
        }
        if self.stray != 0 {
            return Err(format!(
                "{} event records of an unexpected kind",
                self.stray
            ));
        }
        if self.still_registered != 0 {
            return Err(format!(
                "{} UEs still registered at the end",
                self.still_registered
            ));
        }
        if self.upf_sessions_left != 0 {
            return Err(format!(
                "{} UPF sessions left at the end",
                self.upf_sessions_left
            ));
        }
        Ok(())
    }

    /// Two runs of the same inputs must agree in virtual time.
    pub fn same_as(&self, other: &CpDigest, what: &str) -> Result<(), String> {
        if self == other {
            Ok(())
        } else {
            Err(format!(
                "virtual-time digest differs {what}: {self:?} vs {other:?}"
            ))
        }
    }
}

/// A fresh world with the N4 association established, and the seconds
/// it took to get there.
pub fn build_world(seed: u64, ues: u64) -> (Engine<World>, f64) {
    let t = Instant::now();
    let mut eng = Engine::new(seed, World::new(Deployment::L25gc, GNBS, ues));
    let assoc = eng.world_mut().core.start_n4_association();
    eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
        w.send_after(ctx, SimDuration::ZERO, assoc);
    });
    eng.run_with_mailbox();
    assert_eq!(
        eng.world().core.smf.n4_association,
        N4Association::Established
    );
    (eng, t.elapsed().as_secs_f64())
}

fn send(eng: &mut Engine<World>, out: Output) {
    eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
        w.send_after(ctx, out.delay, out.env);
    });
}

/// Starts one procedure of `kind` for `ue` and runs it to quiescence.
fn run_procedure(eng: &mut Engine<World>, kind: UeEvent, ue: u64) {
    match kind {
        UeEvent::Registration => {
            let out = eng.world_mut().ran.trigger_registration(ue);
            send(eng, out);
        }
        UeEvent::SessionRequest => {
            let out = eng.world().ran.trigger_session(ue);
            send(eng, out);
        }
        UeEvent::Handover => {
            let out = eng.world().ran.trigger_handover(ue, TARGET_GNB);
            send(eng, out);
        }
        UeEvent::IdleTransition => {
            let out = eng.world().ran.trigger_idle(ue);
            send(eng, out);
        }
        UeEvent::Paging => {
            eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
                w.start_cbr(ue, ue as u32, PAGE_PPS, PAGE_SIZE, PAGE_FLOW_FOR, ctx);
            });
        }
        UeEvent::Deregistration => {
            let out = eng.world().ran.trigger_deregistration(ue);
            send(eng, out);
        }
    }
    eng.run_with_mailbox();
}

/// Wall-clock detail of one lifecycle run.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimes {
    /// Wall ns per phase, in [`KINDS`] order.
    pub phase_ns: [u64; 6],
    /// Wall µs of every single procedure, when asked for.
    pub per_proc_us: Vec<f64>,
}

/// The whole lifecycle over `order`, phase-major. With `per_proc` every
/// procedure is timed on its own (two clock reads per ~25 µs).
pub fn lifecycle(eng: &mut Engine<World>, order: &[u64], per_proc: bool) -> PhaseTimes {
    let mut times = PhaseTimes::default();
    if per_proc {
        times.per_proc_us.reserve(order.len() * KINDS.len());
    }
    for (i, (kind, _)) in KINDS.iter().enumerate() {
        let phase = Instant::now();
        for &ue in order {
            if per_proc {
                let t = Instant::now();
                run_procedure(eng, *kind, ue);
                times.per_proc_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            } else {
                run_procedure(eng, *kind, ue);
            }
        }
        times.phase_ns[i] = phase.elapsed().as_nanos() as u64;
    }
    times
}

/// Registers every UE and brings its session up — the state in which a
/// checkpoint of the core is worth timing.
pub fn attach_all(eng: &mut Engine<World>, order: &[u64]) {
    for kind in [UeEvent::Registration, UeEvent::SessionRequest] {
        for &ue in order {
            run_procedure(eng, kind, ue);
        }
    }
}

/// Runs `cp_lifecycle` for `seconds`; every repeat builds a fresh world.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let order = gen::ue_order(seed, UES);
    let mut setup_s = Vec::new();
    let mut digests: Vec<CpDigest> = Vec::new();
    let repeats = report::repeat(seconds, || {
        let (mut eng, built_s) = build_world(seed, UES);
        setup_s.push(built_s);
        let (_, wall_ns, cpu_ns) = report::timed(|| lifecycle(&mut eng, &order, false));
        let w = eng.world();
        let d = CpDigest::of(&w.core, &w.ran);
        let pass = Pass {
            ops: d.completed(),
            failed: (KINDS.len() as u64 * UES).saturating_sub(d.completed()),
            wall_ns,
            cpu_ns,
        };
        digests.push(d);
        pass
    });
    // The warm-up world's set-up is as good a sample as any other.
    for d in &digests {
        d.check(UES)?;
        digests[0].same_as(d, "across repeats")?;
    }
    Ok(Outcome {
        attempted: repeats.attempted(),
        failed: repeats.failed(),
        metrics: repeats.end_to_end(setup_s),
        text: format!(
            "# cp_lifecycle: {} procedures/repeat ({UES} UEs x 6 kinds, L25GC, {GNBS} gNBs, resilience off), \
             closed loop, 1 client, in-process (no socket or link crossed)",
            digests[0].completed()
        ),
    })
}

// ------------------------------------------------------------------
// Ledger: a benchmark-owned delivery loop with a span per message
// ------------------------------------------------------------------

/// Span names of the traced loop — the control-plane rows of the ledger.
pub mod row {
    /// One procedure, trigger to quiescence (self time: queue + routing).
    pub const PROC: &str = "proc";
    /// `Ran::handle`.
    pub const RAN: &str = "ran.handle";
    /// The whole traced lifecycle.
    pub const ROOT: &str = "lifecycle";
}

/// The ledger row of a message delivered to core NF `ep`.
fn core_row(ep: Endpoint) -> &'static str {
    match nf_name(ep) {
        "amf" => "core.net.handle.amf",
        "smf" => "core.net.handle.smf",
        "ausf" => "core.net.handle.ausf",
        "udm" => "core.net.handle.udm",
        "pcf" => "core.net.handle.pcf",
        "upf-c" => "core.net.handle.upf_c",
        "upf-u" => "core.net.handle.upf_u",
        _ => "core.net.handle.other",
    }
}

fn is_core(ep: Endpoint) -> bool {
    matches!(
        ep,
        Endpoint::Amf
            | Endpoint::Smf
            | Endpoint::Ausf
            | Endpoint::Udm
            | Endpoint::Pcf
            | Endpoint::Nrf
            | Endpoint::UpfC
            | Endpoint::UpfU
    )
}

/// `World` without the engine: the same core and RAN fed from a plain
/// `EventQueue`, so every delivery can sit inside a span. It routes the
/// way `World::deliver` does with resilience and shaping off, and must
/// leave the same `core.events` behind.
pub struct TracedWorld {
    /// The core under test.
    pub core: CoreNetwork,
    /// The RAN model.
    pub ran: Ran,
    q: EventQueue<Envelope>,
    now: SimTime,
    /// Envelopes delivered (core + RAN + data endpoints).
    pub delivered: u64,
}

impl TracedWorld {
    /// The world `World::new(L25gc, 2, ues)` builds, N4 associated.
    pub fn new(ues: u64) -> TracedWorld {
        let mut core = CoreNetwork::new(Deployment::L25gc);
        let mut ran = Ran::new(GNBS, core.cost.clone());
        for ue in 1..=ues {
            ran.add_ue(ue, 100 + ue, 1);
            core.provision_subscriber(100 + ue);
        }
        let mut w = TracedWorld {
            core,
            ran,
            q: EventQueue::new(),
            now: SimTime::ZERO,
            delivered: 0,
        };
        let assoc = w.core.start_n4_association();
        w.q.push(w.now, assoc);
        w.settle(&mut Recorder::new(false), 0);
        w.delivered = 0;
        w
    }

    fn push(&mut self, out: Output) {
        self.q.push(self.now + out.delay, out.env);
    }

    /// Delivers queued envelopes until none is left.
    fn settle(&mut self, rec: &mut Recorder, chunk: u32) {
        while let Some((t, env)) = self.q.pop() {
            self.now = t;
            self.delivered += 1;
            if is_core(env.to) {
                let name = core_row(env.to);
                let outs = rec.span(name, chunk, || self.core.handle(env, t));
                for o in outs {
                    self.push(o);
                }
                continue;
            }
            match (env.to, env.msg) {
                // The UE echoes a data packet back, as the CBR app asks.
                (Endpoint::Ue(ue), Msg::Data(pkt)) => {
                    let gnb = self.ran.ues[&ue].serving_gnb;
                    self.push(Output {
                        delay: self.ran.ue_data_hop,
                        env: Envelope::new(
                            Endpoint::Ue(ue),
                            Endpoint::Gnb(gnb),
                            Msg::Data(echo(&pkt, t)),
                        ),
                    });
                }
                (Endpoint::Dn, Msg::Data(_)) => {}
                (to @ (Endpoint::Ue(_) | Endpoint::Gnb(_)), msg) => {
                    let env = Envelope { to, msg, ..env };
                    let outs = rec.span(row::RAN, chunk, || self.ran.handle(env, t));
                    for o in outs {
                        self.push(o);
                    }
                }
                (other, _) => panic!("unroutable endpoint {other:?}"),
            }
        }
    }

    fn paging_packet(&self, ue: u64) -> DataPacket {
        CbrFlow::downlink(ue, ue as u32, PAGE_PPS, PAGE_SIZE).next_packet(self.now)
    }

    /// Starts one procedure and settles it, inside a `proc` span.
    fn run_procedure(&mut self, kind: UeEvent, ue: u64, rec: &mut Recorder, chunk: u32) {
        let open = rec.enter(row::PROC, chunk);
        let out = match kind {
            UeEvent::Registration => self.ran.trigger_registration(ue),
            UeEvent::SessionRequest => self.ran.trigger_session(ue),
            UeEvent::Handover => self.ran.trigger_handover(ue, TARGET_GNB),
            UeEvent::IdleTransition => self.ran.trigger_idle(ue),
            UeEvent::Deregistration => self.ran.trigger_deregistration(ue),
            // `World::start_cbr`: the DN emits now, the packet reaches
            // the UPF one N6 path latency later.
            UeEvent::Paging => Output {
                delay: self.core.cost.path_lat,
                env: Envelope::new(
                    Endpoint::Dn,
                    Endpoint::UpfU,
                    Msg::Data(self.paging_packet(ue)),
                ),
            },
        };
        self.push(out);
        self.settle(rec, chunk);
        rec.exit(open);
    }

    /// The whole lifecycle, one span per procedure and per delivery.
    pub fn lifecycle(&mut self, order: &[u64], rec: &mut Recorder) {
        let root = rec.enter(row::ROOT, 0);
        let mut chunk = 0u32;
        for (kind, _) in KINDS {
            for &ue in order {
                chunk += 1;
                self.run_procedure(kind, ue, rec, chunk);
            }
        }
        rec.exit(root);
    }
}

/// The traced loop must leave exactly the event log `World` leaves.
pub fn check_same_events(traced: &[EventRecord], untraced: &[EventRecord]) -> Result<(), String> {
    if traced.len() != untraced.len() {
        return Err(format!(
            "traced loop recorded {} events, World recorded {}",
            traced.len(),
            untraced.len()
        ));
    }
    match traced.iter().zip(untraced).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "event {i} differs: traced {:?} vs World {:?}",
            traced[i], untraced[i]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run(seed: u64, ues: u64) -> (Vec<EventRecord>, CpDigest) {
        let order = gen::ue_order(seed, ues);
        let (mut eng, _) = build_world(seed, ues);
        let times = lifecycle(&mut eng, &order, true);
        assert_eq!(times.per_proc_us.len(), 6 * ues as usize);
        let w = eng.world();
        (w.core.events.clone(), CpDigest::of(&w.core, &w.ran))
    }

    #[test]
    fn lifecycle_completes_and_cleans_up() {
        let (events, d) = small_run(7, 40);
        assert_eq!(events.len(), 240);
        assert_eq!(d.check(40), Ok(()));
        assert_eq!(d.completed(), 240);
        // Same seed, same virtual-time outcome; another seed walks the
        // UEs in another order.
        let (again, d2) = small_run(7, 40);
        assert_eq!(events, again);
        assert_eq!(d.same_as(&d2, "x"), Ok(()));
        let (other, _) = small_run(11, 40);
        assert_ne!(
            events.iter().map(|e| e.ue).collect::<Vec<_>>(),
            other.iter().map(|e| e.ue).collect::<Vec<_>>()
        );
    }

    #[test]
    fn traced_loop_reproduces_the_world() {
        let (events, _) = small_run(7, 40);
        let order = gen::ue_order(7, 40);
        let mut tw = TracedWorld::new(40);
        let mut rec = Recorder::new(true);
        tw.lifecycle(&order, &mut rec);
        assert_eq!(check_same_events(&tw.core.events, &events), Ok(()));
        assert_eq!(CpDigest::of(&tw.core, &tw.ran).check(40), Ok(()));
        let procs = rec.spans().iter().filter(|s| s.name == row::PROC).count();
        assert_eq!(procs, 240);
        assert!(tw.delivered > 240 * 5);
    }

    #[test]
    fn digest_check_rejects_each_corruption() {
        let (events, good) = small_run(7, 10);
        assert_eq!(good.check(10), Ok(()));
        let mut missing = good.clone();
        missing.per_kind[4].0 -= 1;
        assert!(missing.check(10).unwrap_err().contains("paging"));
        let mut attached = good.clone();
        attached.still_registered = 1;
        assert!(attached.check(10).unwrap_err().contains("still registered"));
        let mut leaked = good.clone();
        leaked.upf_sessions_left = 2;
        assert!(leaked.check(10).unwrap_err().contains("UPF sessions"));
        let mut stray = good.clone();
        stray.stray = 1;
        assert!(stray.check(10).is_err());
        let mut slower = good.clone();
        slower.per_kind[2].1 += 1;
        assert!(good.same_as(&slower, "across repeats").is_err());

        let mut tampered = events.clone();
        tampered[3].end += SimDuration::from_nanos(1);
        assert!(check_same_events(&tampered, &events)
            .unwrap_err()
            .contains("event 3"));
        assert!(check_same_events(&events[1..], &events).is_err());
    }
}
