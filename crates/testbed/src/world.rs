//! The testbed world: RAN + traffic endpoints + (optional) LB/resiliency
//! + one or two 5GC units, driven by the discrete-event engine.
//!
//! Everything is an [`Envelope`] in flight. [`World::deliver`] routes by
//! destination endpoint: core NFs go to [`CoreNetwork::handle`], gNB/UE
//! control to [`Ran::handle`], and data endpoints to the traffic
//! applications (CBR echo, TCP sender/receiver, page loads). Delays come
//! back from the handlers; the world just schedules.
//!
//! With resiliency enabled the world plays the Fig 5 topology: every
//! message entering the 5GC unit from outside is counted and logged at
//! the LB; a frozen remote replica is checkpointed at quiescent instants;
//! on primary failure the replica wakes, the log replays, and duplicate
//! outputs are suppressed by the output counter (REINFORCE-style).

use std::collections::HashMap;

use l25gc_core::msg::{DataPacket, Endpoint, Envelope, Msg, UeId};
use l25gc_core::net::{CoreNetwork, HandoverScheme};
use l25gc_core::Deployment;
use l25gc_obs::{EventKind, ProcKind};
use l25gc_ran::{echo, CbrFlow, PageLoad, Ran, TcpReceiver, TcpSender};
use l25gc_resilience::{CheckpointPolicy, FailoverTimeline, PacketLogger, Replica, ReplicaState};
use l25gc_sim::{Ctx, Engine, HasMailbox, Mailbox, SimDuration, SimTime};

use crate::netem::NetEm;

/// Traffic applications living at the DN and UE sides.
#[derive(Default)]
pub struct Apps {
    /// DL CBR flows sourced at the DN (Fig 13/14).
    pub cbr: Vec<CbrFlow>,
    /// TCP senders at the DN, keyed by flow id.
    pub tcp: HashMap<u32, TcpSender>,
    /// TCP receivers at the UE, keyed by flow id.
    pub tcp_rx: HashMap<u32, TcpReceiver>,
    /// Page-load harness, when the experiment is §5.4.1.
    pub page: Option<PageLoad>,
    /// UE echoes every delivered CBR packet back (RTT measurement).
    pub echo_at_ue: bool,
    /// Pending RTO tick per TCP flow.
    tcp_tick: HashMap<u32, SimTime>,
    /// UL packets that reached the DN.
    pub dn_received: u64,
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
    pub policy: CheckpointPolicy,
    /// Failover timing components.
    pub timeline: FailoverTimeline,
    /// Core → outside envelopes released so far.
    pub outputs_released: u64,
    /// Value of `outputs_released` at the last checkpoint.
    pub outputs_at_checkpoint: u64,
    /// Outputs to suppress during replay (already emitted by the dead
    /// primary).
    suppress_remaining: u64,
    /// Checkpoints skipped because the core was mid-procedure.
    pub checkpoints_deferred: u64,
}

impl Resilience {
    /// A fresh harness mirroring `core`.
    pub fn new(core: &CoreNetwork, now: SimTime) -> Resilience {
        Resilience {
            logger: PacketLogger::new(10_000),
            replica: Replica::new(core.clone(), now),
            policy: CheckpointPolicy::paper(),
            timeline: FailoverTimeline::paper(&core.cost),
            outputs_released: 0,
            outputs_at_checkpoint: 0,
            suppress_remaining: 0,
            checkpoints_deferred: 0,
        }
    }
}

/// The complete simulated system.
pub struct World {
    /// Deferred-event mailbox (see `l25gc-sim`).
    pub mailbox: Mailbox<World>,
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
    /// True while a replayed log entry is being processed: output
    /// suppression applies only to outputs regenerated from the replay,
    /// never to interleaved live traffic.
    in_replay: bool,
    /// DL packets dropped because the core was dead (3GPP baseline).
    pub outage_drops: u64,
}

impl HasMailbox for World {
    fn mailbox(&mut self) -> &mut Mailbox<Self> {
        &mut self.mailbox
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
            mailbox: Mailbox::new(),
            core,
            ran,
            apps: Apps::default(),
            netem: NetEm::off(),
            res: None,
            primary_alive: true,
            in_flight_internal: 0,
            in_replay: false,
            outage_drops: 0,
        }
    }

    /// Sets the handover scheme on both core and RAN.
    pub fn set_scheme(&mut self, scheme: HandoverScheme) {
        self.core.scheme = scheme;
        self.ran.scheme = scheme;
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

    fn take_checkpoint(&mut self, ctx: &mut Ctx) {
        let Some(res) = self.res.as_mut() else { return };
        if !self.primary_alive || res.replica.state == ReplicaState::Active {
            return; // stop checkpointing after failover
        }
        let quiescent = self.in_flight_internal == 0;
        if quiescent {
            let watermark = res.logger.next_counter();
            res.replica.checkpoint(&self.core, watermark, ctx.now());
            res.logger.release_upto(watermark);
            res.outputs_at_checkpoint = res.outputs_released;
        } else {
            res.checkpoints_deferred += 1;
        }
        let interval = res.policy.interval;
        self.mailbox
            .send_in(ctx, interval, |w, ctx| w.take_checkpoint(ctx));
    }

    /// Kills the primary at the current instant. With resiliency on, the
    /// failover sequence (detect → unfreeze → reroute ∥ replay) runs
    /// automatically; without it, inbound traffic drops until the caller
    /// performs the 3GPP reattach.
    pub fn fail_primary(&mut self, ctx: &mut Ctx) {
        self.primary_alive = false;
        if let Some(res) = self.res.as_ref() {
            let delay = res.timeline.total();
            let failed_at = ctx.now();
            self.mailbox
                .send_in(ctx, delay, move |w, ctx| w.failover(failed_at, ctx));
        }
    }

    fn failover(&mut self, failed_at: SimTime, ctx: &mut Ctx) {
        let res = self.res.as_mut().expect("resilience enabled");
        let timeline = res.timeline;
        // Wake the replica with the checkpointed state.
        self.core = res.replica.unfreeze(ctx.now());
        res.suppress_remaining = res
            .outputs_released
            .saturating_sub(res.outputs_at_checkpoint);
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
        // Replay the log in counter order. Each entry re-enters the core
        // back-to-back (replay already accounted in the timeline).
        let entries = res.logger.replay();
        let per_entry = SimDuration::from_micros(2);
        for (i, e) in entries.into_iter().enumerate() {
            let env = e.env;
            self.mailbox
                .send_in(ctx, per_entry * (i as u64 + 1), move |w, ctx| {
                    w.in_replay = true;
                    w.deliver_to_core(env, ctx);
                    w.in_replay = false;
                });
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
            // Clear any interrupted procedure at the AMF.
            if let Some(ctx) = self.core.amf.ues.get_mut(&ue) {
                ctx.ho = l25gc_core::context::HoPhase::None;
                ctx.paging = l25gc_core::context::PagingPhase::None;
                ctx.sess = l25gc_core::context::SessPhase::None;
                ctx.idle = l25gc_core::context::IdlePhase::None;
                ctx.target_gnb = None;
            }
            // Re-point the user plane at the UE's current serving gNB.
            let gnb = self.ran.ues[&ue].serving_gnb;
            let dl_teid = self.ran.gnbs[&gnb].dl_teid_of(ue);
            let (seid, far_tunnel) = {
                let s = &self.core.smf.sessions[&ue];
                (
                    s.seid,
                    dl_teid.map(|teid| l25gc_pkt::ngap::TunnelInfo { teid, addr: gnb }),
                )
            };
            if let Some(tun) = far_tunnel {
                use l25gc_pkt::pfcp;
                let ies = pfcp::IeSet {
                    update_fars: vec![pfcp::UpdateFar {
                        far_id: 2,
                        apply_action: Some(pfcp::ApplyAction::FORW),
                        forwarding: Some(pfcp::ForwardingParameters {
                            dest_interface: pfcp::Interface::Access,
                            outer_header_creation: Some(pfcp::OuterHeaderCreation {
                                teid: tun.teid,
                                addr: l25gc_pkt::Ipv4Addr::from_u32(tun.addr),
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
                self.core
                    .smf
                    .sessions
                    .get_mut(&ue)
                    .expect("session")
                    .an_tunnel = Some(tun);
            }
        }
    }

    /// Sends `env` after `delay` (the universal scheduling helper).
    pub fn send_after(&mut self, ctx: &Ctx, delay: SimDuration, env: Envelope) {
        if is_core(env.to) && is_core(env.from) {
            self.in_flight_internal += 1;
        }
        self.mailbox
            .send_in(ctx, delay, move |w, ctx| w.deliver(env, ctx));
    }

    /// Routes one delivered envelope.
    pub fn deliver(&mut self, env: Envelope, ctx: &mut Ctx) {
        if is_core(env.to) {
            if is_core(env.from) {
                self.in_flight_internal -= 1;
            } else {
                // External ingress: the LB logs it (until the replica is
                // the active copy — there is no further standby to replay
                // into, so post-failover logging would only shed).
                if let Some(res) = self.res.as_mut() {
                    if res.replica.state == ReplicaState::Frozen || !self.primary_alive {
                        res.logger.log(&env);
                    }
                }
            }
            if !self.primary_alive {
                // Dead core. Resilient: the logged copy replays later.
                // 3GPP baseline: the packet is simply lost.
                if self.res.is_none() {
                    self.outage_drops += 1;
                }
                return;
            }
            self.deliver_to_core(env, ctx);
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

    fn deliver_to_core(&mut self, env: Envelope, ctx: &mut Ctx) {
        let outs = self.core.handle(env, ctx.now());
        for o in outs {
            let external = !is_core(o.env.to);
            if external {
                if let Some(res) = self.res.as_mut() {
                    if self.in_replay && res.suppress_remaining > 0 {
                        // Duplicate of an output the primary already
                        // released before dying.
                        res.suppress_remaining -= 1;
                        continue;
                    }
                    res.outputs_released += 1;
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

    fn ue_data(&mut self, ue: UeId, pkt: DataPacket, ctx: &mut Ctx) {
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

    fn dn_data(&mut self, pkt: DataPacket, ctx: &mut Ctx) {
        self.apps.dn_received += 1;
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

    fn tcp_input(&mut self, flow: u32, ack: u64, ctx: &mut Ctx) {
        let now = ctx.now();
        let sender = self.apps.tcp.get_mut(&flow).expect("sender exists");
        let mut to_send = sender.on_ack(ack, now);
        to_send.extend(sender.pump(now));
        let deadline = sender.next_timeout();
        self.emit_tcp(flow, to_send, ctx);
        self.arm_tcp_tick(flow, deadline, ctx);
        if let Some(mut pl) = self.apps.page.take() {
            pl.update(&self.apps.tcp, now);
            self.apps.page = Some(pl);
        }
    }

    /// Sends DL TCP segments through the shaped N6 link into the core.
    fn emit_tcp(&mut self, _flow: u32, segs: Vec<DataPacket>, ctx: &mut Ctx) {
        let path = self.core.cost.path_lat;
        for seg in segs {
            match self.netem.dl.transit(ctx.now(), seg.size) {
                Some(d) => {
                    self.send_after(
                        ctx,
                        d + path,
                        Envelope::new(Endpoint::Dn, Endpoint::UpfU, Msg::Data(seg)),
                    );
                }
                None => self.netem.dl_drops += 1,
            }
        }
    }

    fn arm_tcp_tick(&mut self, flow: u32, deadline: Option<SimTime>, ctx: &mut Ctx) {
        let Some(deadline) = deadline else { return };
        let already = self.apps.tcp_tick.get(&flow).copied();
        if already.is_some_and(|t| t <= deadline && t > ctx.now()) {
            return; // an earlier (or equal) tick is pending
        }
        self.apps.tcp_tick.insert(flow, deadline);
        let wait = deadline.duration_since(ctx.now());
        self.mailbox
            .send_in(ctx, wait, move |w, ctx| w.tcp_tick(flow, ctx));
    }

    fn tcp_tick(&mut self, flow: u32, ctx: &mut Ctx) {
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
        self.emit_tcp(flow, segs, ctx);
        self.arm_tcp_tick(flow, deadline, ctx);
    }

    /// Starts a DL TCP transfer to `ue` (flow id must be unique).
    pub fn start_tcp(&mut self, ue: UeId, flow: u32, bytes: Option<u64>, ctx: &mut Ctx) {
        let sender = TcpSender::new(ue, flow, bytes);
        self.start_tcp_sender(sender, ctx);
    }

    /// Installs and starts a pre-built sender (page loads build theirs).
    pub fn start_tcp_sender(&mut self, mut sender: TcpSender, ctx: &mut Ctx) {
        let flow = sender.flow;
        let segs = sender.pump(ctx.now());
        let deadline = sender.next_timeout();
        self.apps.tcp.insert(flow, sender);
        self.apps.tcp_rx.insert(flow, TcpReceiver::new());
        self.emit_tcp(flow, segs, ctx);
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
        ctx: &mut Ctx,
    ) {
        let flow = CbrFlow::downlink(ue, flow_id, pps, size);
        let interval = flow.interval;
        let idx = self.apps.cbr.len();
        self.apps.cbr.push(flow);
        self.apps.echo_at_ue = true;
        let end = ctx.now() + duration;
        self.cbr_emit(idx, interval, end, ctx);
    }

    fn cbr_emit(&mut self, idx: usize, interval: SimDuration, end: SimTime, ctx: &mut Ctx) {
        if ctx.now() >= end {
            return;
        }
        let pkt = self.apps.cbr[idx].next_packet(ctx.now());
        let path = self.core.cost.path_lat;
        match self.netem.dl.transit(ctx.now(), pkt.size) {
            Some(d) => {
                self.send_after(
                    ctx,
                    d + path,
                    Envelope::new(Endpoint::Dn, Endpoint::UpfU, Msg::Data(pkt)),
                );
            }
            None => self.netem.dl_drops += 1,
        }
        self.mailbox.send_in(ctx, interval, move |w, ctx| {
            w.cbr_emit(idx, interval, end, ctx)
        });
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
            eng.run_with_mailbox();
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
        eng.run_with_mailbox();
        assert!(
            eng.world().ran.ues[&ue].registered,
            "registration must complete for UE {ue}"
        );
        let out = eng.world().ran.trigger_session(ue);
        eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
            w.send_after(ctx, out.delay, out.env);
        });
        eng.run_with_mailbox();
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
        Engine::new(7, World::new(dep, 2, 2))
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
        eng.run_with_mailbox();
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
        eng.run_with_mailbox();
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
        eng.run_with_mailbox();
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
        eng.run_with_mailbox();
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
        eng.run_with_mailbox();
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
        eng.run_with_mailbox();
        let w = eng.world();
        let tx = &w.apps.tcp[&1];
        assert!(tx.is_complete(), "3 MB transfer finishes");
        assert_eq!(tx.timeouts, 0, "no timeouts without handovers");
        // 3 MB at 30 Mbps ≈ 0.8 s floor.
        let t = eng.now().as_secs_f64();
        assert!((0.8..5.0).contains(&t), "transfer time {t}s");
    }
}
