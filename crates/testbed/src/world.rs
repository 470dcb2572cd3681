//! The testbed world: RAN + traffic endpoints + (optional) LB/resiliency
//! + one or two 5GC units, driven by the discrete-event engine.
//!
//! Everything is an [`Envelope`] in flight. [`World::deliver`] routes by
//! destination endpoint: core NFs go to [`CoreNetwork::handle`], gNB/UE
//! control to [`Ran::handle`], and data endpoints to the traffic
//! applications (CBR echo, TCP sender/receiver, page loads). Delays come
//! back from the handlers; the world just schedules.
//!
//! With resiliency enabled the world plays the Fig 5 topology. Every
//! message entering the 5GC unit from outside gets a counter and a copy
//! in the LB's packet logger. A frozen remote replica is checkpointed at
//! quiescent instants. On primary failure the replica wakes and the log
//! replays in counter order; ingress arriving before the log drains is
//! logged and joins its tail, so nothing overtakes the replay.
//! Suppression is per output, not by count: the harness keeps the
//! external outputs the primary released since the checkpoint, and the
//! replay suppresses each regenerated one once. Every delivery carries
//! the core incarnation that scheduled it, so the dead primary's
//! in-flight internal messages never reach the replica.

use std::collections::HashMap;

use l25gc_core::context::{Proc, SmfProc};
use l25gc_core::msg::{DataPacket, Direction, Endpoint, Envelope, Msg, UeId};
use l25gc_core::net::CoreNetwork;
use l25gc_core::Deployment;
use l25gc_obs::{EventKind, ProcKind};
use l25gc_ran::{echo, CbrFlow, PageLoad, Ran, TcpReceiver, TcpSender};
use l25gc_resilience::{CheckpointPolicy, FailoverTimeline, PacketLogger, Replica, ReplicaState};
use l25gc_sim::{Ctx, Engine, SimDuration, SimTime};

use crate::netem::NetEm;

/// Traffic applications living at the DN and UE sides.
#[derive(Default)]
pub struct Apps {
    /// DL CBR flows sourced at the DN (Fig 13/14).
    pub cbr: Vec<CbrFlow>,
    /// TCP senders at the DN, keyed by flow id.
    pub tcp: HashMap<u32, TcpSender>,
    /// TCP receivers at the UE, keyed by flow id.
    pub(crate) tcp_rx: HashMap<u32, TcpReceiver>,
    /// Page-load harness, when the experiment is §5.4.1.
    pub(crate) page: Option<PageLoad>,
    /// UE echoes every delivered CBR packet back (RTT measurement).
    pub echo_at_ue: bool,
    /// Pending RTO tick per TCP flow.
    tcp_tick: HashMap<u32, SimTime>,
    /// DL packets delivered to UEs.
    pub ue_received: u64,
}

/// The resiliency harness around the primary core (Fig 5).
pub struct Resilience {
    /// The LB packet logger.
    pub logger: PacketLogger,
    /// The frozen remote replica of the whole core.
    pub replica: Replica<CoreNetwork>,
    /// Checkpoint schedule.
    pub(crate) policy: CheckpointPolicy,
    /// Failover timing components.
    pub(crate) timeline: FailoverTimeline,
    /// External outputs, a multiset. While the replica is frozen: those
    /// the primary released since the last checkpoint. Once it is active:
    /// the duplicates replay has yet to suppress.
    released: Vec<OutputId>,
    /// Where the replay into the woken replica stands.
    replay: Replay,
    /// Counter of the first ingress the primary never handled: everything
    /// logged from the failure instant on.
    unseen_from: u64,
    /// Logger counters delivered to the woken replica, in order.
    pub replayed: Vec<u64>,
    /// Checkpoints skipped because the core was mid-procedure.
    pub checkpoints_deferred: u64,
}

impl Resilience {
    /// A fresh harness mirroring `core`.
    pub(crate) fn new(core: &CoreNetwork, now: SimTime) -> Resilience {
        Resilience {
            logger: PacketLogger::new(10_000),
            replica: Replica::new(core.clone(), now),
            policy: CheckpointPolicy::paper(),
            timeline: FailoverTimeline::paper(&core.cost),
            released: Vec::new(),
            replay: Replay::Idle,
            unseen_from: 0,
            replayed: Vec::new(),
            checkpoints_deferred: 0,
        }
    }
}

/// Where the replay into the woken replica stands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Replay {
    /// No failover yet, or the log has drained and every replayed chain
    /// has finished.
    Idle,
    /// The next admission is scheduled.
    Running,
    /// The next entry, or the replay's end, waits for the replica's
    /// internal messages to drain.
    Parked,
}

/// What makes a replica's external output the same as one the primary
/// released. Not the ingress that caused it: the smart buffer releases a
/// packet from whichever chain flushes it, the first buffered packet's
/// chain reports downlink data and pages, and which chain that is depends
/// on how live traffic interleaved with a procedure, which a replay does
/// not reproduce. A data packet is itself, whichever tunnel it leaves
/// by; a control message is its destination and content.
#[derive(PartialEq)]
enum OutputId {
    Packet {
        ue: UeId,
        flow: u32,
        uplink: bool,
        seq: u64,
        sent_at: SimTime,
    },
    Control(Endpoint, Msg),
}

impl OutputId {
    fn of(env: &Envelope) -> OutputId {
        match &env.msg {
            Msg::Data(p) => OutputId::Packet {
                ue: p.ue,
                flow: p.flow,
                uplink: p.dir == Direction::Uplink,
                seq: p.seq,
                sent_at: p.sent_at,
            },
            msg => OutputId::Control(env.to, msg.clone()),
        }
    }
}

/// Spacing of replay admissions into the woken replica.
const REPLAY_GAP: SimDuration = SimDuration::from_micros(2);

/// The complete simulated system.
pub struct World {
    /// The (primary) 5GC unit.
    pub core: CoreNetwork,
    /// The RAN: gNBs + UEs.
    pub ran: Ran,
    /// Traffic endpoints.
    pub apps: Apps,
    /// N6-link shaping.
    pub netem: NetEm,
    /// Resiliency harness (None = no replication).
    pub res: Option<Resilience>,
    /// False once the primary has failed.
    pub primary_alive: bool,
    /// Internal (core→core) messages currently in flight — checkpoints
    /// only fire at zero (quiescence → consistent snapshots).
    in_flight_internal: u32,
    /// Bumped at failover: internal messages the dead primary scheduled
    /// carry the old value and are dropped on arrival.
    incarnation: u32,
    /// DL packets dropped because the core was dead (3GPP baseline).
    pub outage_drops: u64,
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

impl World {
    /// A world with one core in `deployment`, `gnbs` base stations, and
    /// `ues` UEs (ids `1..=ues`) camped on gNB 1.
    pub fn new(deployment: Deployment, gnbs: u32, ues: u64) -> World {
        let mut core = CoreNetwork::new(deployment);
        let mut ran = Ran::new(gnbs, core.cost.clone());
        for ue in 1..=ues {
            ran.add_ue(ue, 100 + ue, 1);
            core.provision_subscriber(100 + ue);
        }
        World {
            core,
            ran,
            apps: Apps::default(),
            netem: NetEm::off(),
            res: None,
            primary_alive: true,
            in_flight_internal: 0,
            incarnation: 0,
            outage_drops: 0,
        }
    }

    /// Enables the resiliency harness and starts periodic checkpoints.
    pub fn enable_resilience(eng: &mut Engine<World>) {
        let now = eng.now();
        let w = eng.world_mut();
        let res = Resilience::new(&w.core, now);
        let interval = res.policy.interval;
        w.res = Some(res);
        Self::schedule_checkpoint(eng, interval);
    }

    fn schedule_checkpoint(eng: &mut Engine<World>, after: SimDuration) {
        eng.schedule_in(after, move |w: &mut World, ctx| {
            w.take_checkpoint(ctx);
        });
    }

    fn take_checkpoint(&mut self, ctx: &mut Ctx<'_, World>) {
        let Some(res) = self.res.as_mut() else { return };
        if !self.primary_alive || res.replica.state == ReplicaState::Active {
            return; // stop checkpointing after failover
        }
        let quiescent = self.in_flight_internal == 0;
        if quiescent {
            let watermark = res.logger.next_counter();
            res.replica.checkpoint(&self.core, watermark);
            res.logger.release_upto(watermark);
            res.released.clear();
        } else {
            res.checkpoints_deferred += 1;
        }
        let interval = res.policy.interval;
        ctx.schedule_in(interval, |w, ctx| w.take_checkpoint(ctx));
    }

    /// Kills the primary at the current instant. With resiliency on, the
    /// failover sequence (detect → unfreeze → reroute ∥ replay) runs
    /// automatically; without it, inbound traffic drops until the caller
    /// performs the 3GPP reattach.
    pub fn fail_primary(&mut self, ctx: &mut Ctx<'_, World>) {
        self.primary_alive = false;
        if let Some(res) = self.res.as_mut() {
            res.unseen_from = res.logger.next_counter();
            let delay = res.timeline.total();
            let failed_at = ctx.now();
            ctx.schedule_in(delay, move |w, ctx| w.failover(failed_at, ctx));
        }
    }

    fn failover(&mut self, failed_at: SimTime, ctx: &mut Ctx<'_, World>) {
        let res = self.res.as_mut().expect("resilience enabled");
        let timeline = res.timeline;
        // Wake the replica with the checkpointed state.
        self.core = res.replica.unfreeze();
        res.replay = Replay::Running;
        self.incarnation += 1;
        self.in_flight_internal = 0;
        self.primary_alive = true;
        // Record the failover timeline on the *live* (replica) core, which
        // is the one whose trace gets drained afterwards. Unit-level ids:
        // service 0 = the 5GC unit, instance 1 = primary, 2 = replica.
        let now = ctx.now();
        self.core.obs.event(
            failed_at,
            EventKind::NfFailure {
                service: 0,
                instance: 1,
            },
        );
        self.core.obs.event(
            now,
            EventKind::NfUnfreeze {
                service: 0,
                instance: 2,
            },
        );
        self.core
            .obs
            .spans
            .record_completed(ProcKind::Failover, 0, failed_at, now);
        self.core.obs.hists.record(
            ProcKind::Failover.name(),
            now.duration_since(failed_at).as_nanos(),
        );
        // Per-phase segments: detect, then reroute, with replay overlapped
        // into the tail of rerouting by the timeline's overlap fraction.
        let detect_end = failed_at + timeline.detect;
        self.core
            .obs
            .spans
            .record_segment("lb", "detect", failed_at, timeline.detect);
        self.core
            .obs
            .spans
            .record_segment("lb", "reroute", detect_end, timeline.reroute);
        let replay_start = detect_end
            + timeline
                .reroute
                .saturating_sub(timeline.replay * timeline.overlap);
        self.core
            .obs
            .spans
            .record_segment("lb", "replay", replay_start, timeline.replay);
        // Replay the log in counter order (its duration is already
        // accounted in the timeline).
        ctx.schedule_in(REPLAY_GAP, |w, ctx| w.replay_next(ctx));
    }

    /// Admits the lowest-counter log entry into the replica and schedules
    /// the next admission; an empty log on a quiescent replica ends the
    /// replay. The entries the primary handled rebuild its state
    /// one chain at a time: each waits until the replica has no internal
    /// message in flight. The primary's interleaving of traffic with
    /// procedures cannot be reproduced at replay speed, and serial order
    /// keeps every procedure step in place, so a peer's answer never beats
    /// the step it answers. Data the primary never saw is new traffic and
    /// keeps the pace beside a running procedure, as it would live; new
    /// control still waits.
    fn replay_next(&mut self, ctx: &mut Ctx<'_, World>) {
        let res = self.res.as_mut().expect("replay runs under the harness");
        let quiescent = self.in_flight_internal == 0;
        let Some(next) = res.logger.peek() else {
            if quiescent {
                // Every replayed chain has finished: a control message
                // sent from now on is new, even if one like it was
                // released before. A packet is never sent twice, so the
                // packets stay until their flush comes.
                res.replay = Replay::Idle;
                res.released
                    .retain(|r| matches!(r, OutputId::Packet { .. }));
            } else {
                res.replay = Replay::Parked;
            }
            return;
        };
        let new_data = next.counter >= res.unseen_from && matches!(next.env.msg, Msg::Data(_));
        if !quiescent && !new_data {
            res.replay = Replay::Parked;
            return;
        }
        let e = res.logger.pop().expect("peeked entry");
        res.replayed.push(e.counter);
        self.deliver_to_core(e.env, ctx);
        ctx.schedule_in(REPLAY_GAP, |w, ctx| w.replay_next(ctx));
    }

    /// Schedules the next replay admission `after` from now if the replay
    /// is parked: the replica has just gone quiescent, or new ingress
    /// joined the log.
    fn wake_replay(&mut self, ctx: &mut Ctx<'_, World>, after: SimDuration) {
        if let Some(res) = self.res.as_mut().filter(|r| r.replay == Replay::Parked) {
            res.replay = Replay::Running;
            ctx.schedule_in(after, |w, ctx| w.replay_next(ctx));
        }
    }

    /// Emulates the outcome of the 3GPP reattach: the UE has registered
    /// afresh and re-established its session on the backup core, so any
    /// in-flight procedure state is discarded and the user plane points
    /// at the UE's current serving gNB again. (The *time* this takes is
    /// the measured outage the caller waited before invoking this.)
    pub fn reattach_recover(&mut self) {
        self.primary_alive = true;
        let ues: Vec<_> = self.core.smf.sessions.keys().copied().collect();
        for ue in ues {
            // Clear any interrupted procedure at the AMF and the SMF.
            if let Some(ctx) = self.core.amf.ues.get_mut(&ue) {
                ctx.proc = Proc::None;
            }
            let s = self.core.smf.sessions.get_mut(&ue).expect("session");
            s.proc = SmfProc::None;
            let seid = s.seid;
            // Re-point the user plane at the UE's current serving gNB.
            let gnb = self.ran.ues[&ue].serving_gnb;
            if let Some(teid) = self.ran.gnbs[&gnb].dl_teid_of(ue) {
                use l25gc_pkt::pfcp;
                let ies = pfcp::IeSet {
                    update_fars: vec![pfcp::UpdateFar {
                        far_id: 2,
                        apply_action: Some(pfcp::ApplyAction::FORW),
                        forwarding: Some(pfcp::ForwardingParameters {
                            dest_interface: pfcp::Interface::Access,
                            outer_header_creation: Some(pfcp::OuterHeaderCreation {
                                teid,
                                addr: l25gc_pkt::Ipv4Addr::from_u32(gnb),
                            }),
                        }),
                    }],
                    ..pfcp::IeSet::default()
                };
                // Buffered packets from before the failure are gone with
                // the failed core in the 3GPP model; drop them.
                if let Some(sess) = self.core.upf.session_by_seid(seid) {
                    sess.buffer.clear();
                }
                self.core.upf.modify(seid, &ies);
            }
        }
    }

    /// Sends `env` after `delay` (the universal scheduling helper),
    /// stamped with the current core incarnation.
    pub fn send_after(&mut self, ctx: &mut Ctx<'_, World>, delay: SimDuration, env: Envelope) {
        if is_core(env.to) && is_core(env.from) {
            self.in_flight_internal += 1;
        }
        let incarnation = self.incarnation;
        ctx.schedule_in(delay, move |w, ctx| w.route(env, incarnation, ctx));
    }

    /// Routes `env`, sent while the core was in `incarnation`.
    fn route(&mut self, env: Envelope, incarnation: u32, ctx: &mut Ctx<'_, World>) {
        if is_core(env.to) {
            if is_core(env.from) {
                if incarnation != self.incarnation {
                    return; // scheduled by the dead primary
                }
                self.in_flight_internal -= 1;
            } else if let Some(res) = self.res.as_mut() {
                // External ingress: the LB logs it until the replica is
                // the active copy and its replay has drained. While the
                // core is dead or replaying, the logged copy waits its
                // turn in the log.
                let held = !self.primary_alive || res.replay != Replay::Idle;
                if held || res.replica.state == ReplicaState::Frozen {
                    res.logger.log(&env);
                }
                if held {
                    // New ingress waits for nothing the log does not hold.
                    self.wake_replay(ctx, SimDuration::ZERO);
                    return;
                }
            }
            if !self.primary_alive {
                // Dead core without resilience (3GPP baseline): the
                // packet is simply lost.
                if self.res.is_none() {
                    self.outage_drops += 1;
                }
                return;
            }
            self.deliver_to_core(env, ctx);
            if self.in_flight_internal == 0 {
                self.wake_replay(ctx, REPLAY_GAP);
            }
            return;
        }
        match env.to {
            Endpoint::Ue(ue) => match env.msg {
                Msg::Data(pkt) => self.ue_data(ue, pkt, ctx),
                _ => {
                    let outs = self.ran.handle(env, ctx.now());
                    for o in outs {
                        self.send_after(ctx, o.delay, o.env);
                    }
                }
            },
            Endpoint::Gnb(_) => {
                let outs = self.ran.handle(env, ctx.now());
                for o in outs {
                    self.send_after(ctx, o.delay, o.env);
                }
            }
            Endpoint::Dn => {
                let Msg::Data(pkt) = env.msg else {
                    panic!("only data reaches the DN");
                };
                self.dn_data(pkt, ctx);
            }
            other => panic!("unroutable endpoint {other:?}"),
        }
    }

    fn deliver_to_core(&mut self, env: Envelope, ctx: &mut Ctx<'_, World>) {
        let outs = self.core.handle(env, ctx.now());
        for o in outs {
            if let Some(res) = self.res.as_mut().filter(|_| !is_core(o.env.to)) {
                let id = OutputId::of(&o.env);
                if res.replica.state == ReplicaState::Frozen {
                    res.released.push(id);
                } else if let Some(i) = res.released.iter().position(|r| *r == id) {
                    // Duplicate of an output the primary released before
                    // dying.
                    res.released.swap_remove(i);
                    continue;
                }
            }
            let mut delay = o.delay;
            // N6 shaping on the UPF → DN leg.
            if o.env.to == Endpoint::Dn {
                if let Msg::Data(ref p) = o.env.msg {
                    match self.netem.ul.transit(ctx.now() + delay, p.size) {
                        Some(d) => delay += d,
                        None => continue,
                    }
                }
            }
            self.send_after(ctx, delay, o.env);
        }
    }

    // ---------------- traffic endpoints ----------------

    fn ue_data(&mut self, ue: UeId, pkt: DataPacket, ctx: &mut Ctx<'_, World>) {
        self.apps.ue_received += 1;
        if self.apps.echo_at_ue {
            let reply = echo(&pkt, ctx.now());
            let gnb = self.ran.ues[&ue].serving_gnb;
            let hop = self.ran.ue_data_hop;
            self.send_after(
                ctx,
                hop,
                Envelope::new(Endpoint::Ue(ue), Endpoint::Gnb(gnb), Msg::Data(reply)),
            );
        }
        if let Some(rx) = self.apps.tcp_rx.get_mut(&pkt.flow) {
            let ack = rx.on_segment(pkt.seq);
            let ack_pkt = rx.ack_packet(&pkt, ack, ctx.now());
            let gnb = self.ran.ues[&ue].serving_gnb;
            let hop = self.ran.ue_data_hop;
            self.send_after(
                ctx,
                hop,
                Envelope::new(Endpoint::Ue(ue), Endpoint::Gnb(gnb), Msg::Data(ack_pkt)),
            );
        }
    }

    fn dn_data(&mut self, pkt: DataPacket, ctx: &mut Ctx<'_, World>) {
        if let Some(ack) = pkt.ack_seq {
            // An ack for a CBR probe or a TCP segment.
            if let Some(flow) = self
                .apps
                .cbr
                .iter_mut()
                .find(|f| f.ue == pkt.ue && f.flow == pkt.flow)
            {
                flow.on_ack(pkt.seq, ctx.now());
                return;
            }
            if self.apps.tcp.contains_key(&pkt.flow) {
                self.tcp_input(pkt.flow, ack, ctx);
            }
        }
        // Plain UL data landing at the DN: nothing further.
    }

    fn tcp_input(&mut self, flow: u32, ack: u64, ctx: &mut Ctx<'_, World>) {
        let now = ctx.now();
        let sender = self.apps.tcp.get_mut(&flow).expect("sender exists");
        let mut to_send = sender.on_ack(ack, now);
        to_send.extend(sender.pump(now));
        let deadline = sender.next_timeout();
        self.emit_tcp(to_send, ctx);
        self.arm_tcp_tick(flow, deadline, ctx);
        if let Some(mut pl) = self.apps.page.take() {
            pl.update(&self.apps.tcp, now);
            self.apps.page = Some(pl);
        }
    }

    /// Sends DL TCP segments through the shaped N6 link into the core;
    /// a segment that finds the shaper's queue full is lost.
    fn emit_tcp(&mut self, segs: Vec<DataPacket>, ctx: &mut Ctx<'_, World>) {
        let path = self.core.cost.path_lat;
        for seg in segs {
            if let Some(d) = self.netem.dl.transit(ctx.now(), seg.size) {
                self.send_after(
                    ctx,
                    d + path,
                    Envelope::new(Endpoint::Dn, Endpoint::UpfU, Msg::Data(seg)),
                );
            }
        }
    }

    fn arm_tcp_tick(&mut self, flow: u32, deadline: Option<SimTime>, ctx: &mut Ctx<'_, World>) {
        let Some(deadline) = deadline else { return };
        let already = self.apps.tcp_tick.get(&flow).copied();
        if already.is_some_and(|t| t <= deadline && t > ctx.now()) {
            return; // an earlier (or equal) tick is pending
        }
        self.apps.tcp_tick.insert(flow, deadline);
        let wait = deadline.duration_since(ctx.now());
        ctx.schedule_in(wait, move |w, ctx| w.tcp_tick(flow, ctx));
    }

    fn tcp_tick(&mut self, flow: u32, ctx: &mut Ctx<'_, World>) {
        let now = ctx.now();
        match self.apps.tcp_tick.get(&flow) {
            Some(&t) if t == now => {
                self.apps.tcp_tick.remove(&flow);
            }
            _ => return, // stale tick
        }
        let sender = self.apps.tcp.get_mut(&flow).expect("sender exists");
        let mut segs = sender.on_tick(now);
        segs.extend(sender.pump(now));
        let deadline = sender.next_timeout();
        self.emit_tcp(segs, ctx);
        self.arm_tcp_tick(flow, deadline, ctx);
    }

    /// Starts a DL TCP transfer to `ue` (flow id must be unique).
    pub fn start_tcp(&mut self, ue: UeId, flow: u32, bytes: Option<u64>, ctx: &mut Ctx<'_, World>) {
        let sender = TcpSender::new(ue, flow, bytes);
        self.start_tcp_sender(sender, ctx);
    }

    /// Installs and starts a pre-built sender (page loads build theirs).
    pub(crate) fn start_tcp_sender(&mut self, mut sender: TcpSender, ctx: &mut Ctx<'_, World>) {
        let flow = sender.flow;
        let segs = sender.pump(ctx.now());
        let deadline = sender.next_timeout();
        self.apps.tcp.insert(flow, sender);
        self.apps.tcp_rx.insert(flow, TcpReceiver::new());
        self.emit_tcp(segs, ctx);
        self.arm_tcp_tick(flow, deadline, ctx);
    }

    /// Starts a DL CBR flow to `ue` lasting `duration`.
    pub fn start_cbr(
        &mut self,
        ue: UeId,
        flow_id: u32,
        pps: u64,
        size: usize,
        duration: SimDuration,
        ctx: &mut Ctx<'_, World>,
    ) {
        let flow = CbrFlow::downlink(ue, flow_id, pps, size);
        let interval = flow.interval;
        let idx = self.apps.cbr.len();
        self.apps.cbr.push(flow);
        self.apps.echo_at_ue = true;
        let end = ctx.now() + duration;
        self.cbr_emit(idx, interval, end, ctx);
    }

    fn cbr_emit(
        &mut self,
        idx: usize,
        interval: SimDuration,
        end: SimTime,
        ctx: &mut Ctx<'_, World>,
    ) {
        if ctx.now() >= end {
            return;
        }
        let pkt = self.apps.cbr[idx].next_packet(ctx.now());
        let path = self.core.cost.path_lat;
        if let Some(d) = self.netem.dl.transit(ctx.now(), pkt.size) {
            self.send_after(
                ctx,
                d + path,
                Envelope::new(Endpoint::Dn, Endpoint::UpfU, Msg::Data(pkt)),
            );
        }
        ctx.schedule_in(interval, move |w, ctx| w.cbr_emit(idx, interval, end, ctx));
    }

    // ---------------- convenience: full UE bring-up ----------------

    /// Registers a UE and establishes its PDU session, returning when the
    /// engine has settled. Call on a fresh engine before data traffic.
    /// Performs the N4 association handshake first if it hasn't run.
    pub fn bring_up_ue(eng: &mut Engine<World>, ue: UeId) {
        use l25gc_core::net::N4Association;
        if eng.world().core.smf.n4_association == N4Association::Idle {
            let env = eng.world_mut().core.start_n4_association();
            eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
                w.send_after(ctx, SimDuration::ZERO, env);
            });
            eng.run();
            assert_eq!(
                eng.world().core.smf.n4_association,
                N4Association::Established,
                "N4 association must establish before sessions"
            );
        }
        let out = eng.world_mut().ran.trigger_registration(ue);
        eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
            w.send_after(ctx, out.delay, out.env);
        });
        eng.run();
        assert!(
            eng.world().ran.ues[&ue].registered,
            "registration must complete for UE {ue}"
        );
        let out = eng.world().ran.trigger_session(ue);
        eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
            w.send_after(ctx, out.delay, out.env);
        });
        eng.run();
        assert!(
            eng.world().ran.ues[&ue].session_up,
            "session must come up for UE {ue}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l25gc_core::context::UeEvent;

    fn engine(dep: Deployment) -> Engine<World> {
        Engine::new(0, World::new(dep, 2, 2))
    }

    #[test]
    fn full_registration_and_session_on_all_deployments() {
        for dep in [Deployment::Free5gc, Deployment::OnvmUpf, Deployment::L25gc] {
            let mut eng = engine(dep);
            World::bring_up_ue(&mut eng, 1);
            let events = &eng.world().core.events;
            assert!(
                events.iter().any(|e| e.event == UeEvent::Registration),
                "{dep:?}: registration recorded"
            );
            assert!(
                events.iter().any(|e| e.event == UeEvent::SessionRequest),
                "{dep:?}: session recorded"
            );
            assert_eq!(eng.world().core.upf.sessions.len(), 1, "{dep:?}");
        }
    }

    #[test]
    fn l25gc_control_plane_is_faster() {
        let mut times = HashMap::new();
        for dep in [Deployment::Free5gc, Deployment::L25gc] {
            let mut eng = engine(dep);
            World::bring_up_ue(&mut eng, 1);
            let reg = eng
                .world()
                .core
                .events
                .iter()
                .find(|e| e.event == UeEvent::Registration)
                .expect("registration completed")
                .duration();
            times.insert(dep, reg);
        }
        let free = times[&Deployment::Free5gc];
        let l25 = times[&Deployment::L25gc];
        assert!(
            l25.as_secs_f64() < free.as_secs_f64() * 0.6,
            "L25GC {l25} should cut free5GC {free} by ~half"
        );
    }

    #[test]
    fn cbr_round_trip_measures_base_rtt() {
        let mut eng = engine(Deployment::L25gc);
        World::bring_up_ue(&mut eng, 1);
        eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
            w.start_cbr(1, 0, 10_000, 100, SimDuration::from_millis(100), ctx);
        });
        eng.run();
        let flow = &eng.world().apps.cbr[0];
        assert!(flow.acked > 900, "most probes acked: {}", flow.acked);
        let stats = flow.rtt_stats();
        // L25GC base RTT ≈ 25 µs (Table 1).
        assert!(
            (15.0..40.0).contains(&stats.mean),
            "base RTT ≈ 25 µs, got {} µs",
            stats.mean
        );
    }

    #[test]
    fn free5gc_base_rtt_is_roughly_116us() {
        let mut eng = engine(Deployment::Free5gc);
        World::bring_up_ue(&mut eng, 1);
        eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
            w.start_cbr(1, 0, 10_000, 100, SimDuration::from_millis(100), ctx);
        });
        eng.run();
        let stats = eng.world().apps.cbr[0].rtt_stats();
        assert!(
            (95.0..140.0).contains(&stats.mean),
            "base RTT ≈ 116 µs, got {} µs",
            stats.mean
        );
    }

    #[test]
    fn idle_then_paging_round_trip() {
        let mut eng = engine(Deployment::L25gc);
        World::bring_up_ue(&mut eng, 1);
        // Go idle.
        let out = eng.world().ran.trigger_idle(1);
        eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
            w.send_after(ctx, out.delay, out.env);
        });
        eng.run();
        assert!(eng
            .world()
            .core
            .events
            .iter()
            .any(|e| e.event == UeEvent::IdleTransition));
        // DL data triggers paging; the UE wakes and traffic flows.
        eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
            w.start_cbr(1, 0, 1_000, 100, SimDuration::from_millis(200), ctx);
        });
        eng.run();
        let w = eng.world();
        assert!(
            w.core.events.iter().any(|e| e.event == UeEvent::Paging),
            "paging completed"
        );
        let flow = &w.apps.cbr[0];
        assert!(flow.acked > 0, "buffered packets were flushed and acked");
        let max_rtt_ms = flow.max_rtt().expect("samples") / 1000.0;
        assert!(
            (10.0..80.0).contains(&max_rtt_ms),
            "first packets wait out the paging (~28 ms): {max_rtt_ms} ms"
        );
    }

    /// Downlink data that reaches the AMF while the UE's AN release is
    /// still running (TS 23.502 §4.2.3.3) is held, and the UE is paged
    /// once the release ends: one DL packet every 50 µs from the idle
    /// trigger until well past the release, on every deployment.
    #[test]
    fn dl_data_during_an_release_pages_after_it() {
        for dep in [Deployment::L25gc, Deployment::OnvmUpf, Deployment::Free5gc] {
            let mut eng = engine(dep);
            World::bring_up_ue(&mut eng, 1);
            let out = eng.world().ran.trigger_idle(1);
            eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
                w.send_after(ctx, out.delay, out.env);
                w.start_cbr(1, 0, 20_000, 100, SimDuration::from_millis(60), ctx);
            });
            eng.run();
            let w = eng.world();
            let done = |kind| w.core.events.iter().filter(|e| e.event == kind).count();
            assert_eq!(done(UeEvent::IdleTransition), 1, "{dep:?}");
            assert_eq!(done(UeEvent::Paging), 1, "{dep:?}: the held data pages");
            assert_eq!(done(UeEvent::SessionRequest), 1, "{dep:?}: no second setup");
            assert_eq!(
                w.core.amf.ues[&1].proc,
                Proc::None,
                "{dep:?}: the AMF's procedure slot is back to None"
            );
            assert!(w.ran.ues[&1].connected, "{dep:?}: the paged UE is awake");
            let flow = &w.apps.cbr[0];
            assert_eq!(flow.sent, 1_200);
            assert_eq!(
                w.apps.ue_received, flow.sent,
                "{dep:?}: each DL packet reaches the UE exactly once"
            );
        }
    }

    #[test]
    fn handover_completes_and_traffic_continues() {
        let mut eng = engine(Deployment::L25gc);
        World::bring_up_ue(&mut eng, 1);
        eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
            w.start_cbr(1, 0, 10_000, 100, SimDuration::from_millis(400), ctx);
        });
        eng.schedule_in(SimDuration::from_millis(100), |w: &mut World, ctx| {
            let out = w.ran.trigger_handover(1, 2);
            w.send_after(ctx, out.delay, out.env);
        });
        eng.run();
        let w = eng.world();
        let ho = w
            .core
            .events
            .iter()
            .find(|e| e.event == UeEvent::Handover)
            .expect("HO done");
        let ho_ms = ho.duration().as_millis_f64();
        assert!(
            (110.0..170.0).contains(&ho_ms),
            "L25GC HO ≈ 130 ms, got {ho_ms}"
        );
        assert_eq!(w.ran.ues[&1].serving_gnb, 2);
        let flow = &w.apps.cbr[0];
        assert_eq!(flow.lost(), 0, "smart buffering loses nothing");
        assert!(
            flow.max_rtt().unwrap() > 50_000.0,
            "buffered packets saw the HO delay"
        );
    }

    #[test]
    fn tcp_transfer_over_the_core() {
        let mut eng = engine(Deployment::L25gc);
        World::bring_up_ue(&mut eng, 1);
        eng.world_mut().netem = NetEm::web_30mbps_20ms();
        eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
            w.start_tcp(1, 1, Some(3_000_000), ctx);
        });
        eng.run();
        let w = eng.world();
        let tx = &w.apps.tcp[&1];
        assert!(tx.is_complete(), "3 MB transfer finishes");
        assert_eq!(tx.timeouts, 0, "no timeouts without handovers");
        // 3 MB at 30 Mbps ≈ 0.8 s floor.
        let t = eng.now().as_secs_f64();
        assert!((0.8..5.0).contains(&t), "transfer time {t}s");
    }
}
