//! Procedure-profile calibration: measure the real core once, then
//! dispatch millions of times.
//!
//! Driving one registration through [`CoreNetwork::handle`] costs tens of
//! envelope deliveries; at millions of events that is the difference
//! between a 2-second sweep and an hour-long one. The load engine
//! instead *calibrates*: for each deployment it drives every procedure
//! kind once through the real `l25gc-core` + `l25gc-ran` state machines
//! (one [`CoreNetwork::handle`] call per envelope, scheduled on the
//! allocation-free [`EventQueue`]), and distils a [`ProcedureProfile`]:
//!
//! - **latency** — the unloaded end-to-end completion time the core
//!   itself recorded (its `EventRecord` span);
//! - **occupancy** — the CPU time the procedure holds a worker shard:
//!   the sum of per-message handler segments the core's span log
//!   recorded, plus a per-transport share of each inter-NF hop (an HTTP
//!   hop burns most of its latency in kernel/JSON CPU; a shared-memory
//!   descriptor enqueue burns almost none — the L²5GC argument);
//! - **messages** — envelope deliveries per procedure, for accounting.
//!
//! The sharded execution layer then treats each shard as a FIFO server:
//! a dispatched procedure holds its shard for `occupancy` and completes
//! after queueing + `occupancy` + (latency − occupancy) of off-shard
//! wire time. Load-dependence emerges from the queueing model; the
//! unloaded numbers stay anchored to the real state machines.

use l25gc_core::msg::{DataPacket, Direction, Endpoint, Envelope, Msg};
use l25gc_core::{CoreNetwork, Deployment, UeEvent};
use l25gc_nfv::cost::Transport;
use l25gc_ran::Ran;
use l25gc_sim::{EventQueue, SimDuration, SimTime};

/// The calibrated cost of one procedure on one deployment.
#[derive(Debug, Clone, Copy)]
pub struct ProcedureProfile {
    /// Unloaded end-to-end completion time.
    pub latency: SimDuration,
    /// CPU time the procedure occupies its worker shard.
    pub occupancy: SimDuration,
    /// Envelope deliveries the procedure took.
    pub messages: u32,
}

/// Profiles for every [`UeEvent`] kind on one deployment.
#[derive(Debug, Clone)]
pub struct ProfileSet {
    /// Indexed by `UeEvent` discriminant.
    profiles: [ProcedureProfile; 6],
}

/// Every kind, in the lifecycle order [`calibrate`] drives them.
const CALIBRATION_ORDER: [UeEvent; 6] = [
    UeEvent::Registration,
    UeEvent::SessionRequest,
    UeEvent::Handover,
    UeEvent::IdleTransition,
    UeEvent::Paging,
    UeEvent::Deregistration,
];

impl ProfileSet {
    /// The profile for `kind`.
    pub fn get(&self, kind: UeEvent) -> &ProcedureProfile {
        &self.profiles[kind as usize]
    }

    /// All profiles, in calibration order.
    pub fn iter(&self) -> impl Iterator<Item = (UeEvent, &ProcedureProfile)> {
        CALIBRATION_ORDER.iter().map(|&k| (k, self.get(k)))
    }

    /// Mean occupancy across kinds weighted by `weights` (the theoretical
    /// per-shard service time of the mixed workload).
    pub fn mean_occupancy(&self, weights: &[(UeEvent, f64)]) -> SimDuration {
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        let ns: f64 = weights
            .iter()
            .map(|(k, w)| self.get(*k).occupancy.as_nanos() as f64 * w / total)
            .sum();
        SimDuration::from_nanos(ns as u64)
    }
}

/// CPU fraction of a control hop's latency spent on the sending/receiving
/// cores, per transport. An HTTP/JSON hop is mostly CPU (serialisation,
/// socket syscalls, kernel TCP); kernel UDP is cheaper; SCTP sits between;
/// a shared-memory descriptor enqueue is a few cache-line writes — the
/// quantitative heart of the paper's "shared memory frees the cycles"
/// claim, expressed as occupancy instead of latency.
fn cpu_share(t: Transport) -> f64 {
    match t {
        Transport::HttpRest => 0.55,
        Transport::UdpSocket => 0.45,
        Transport::Sctp => 0.30,
        Transport::SharedMemory => 0.12,
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

/// The single-UE calibration world: real core + real RAN, glued by the
/// value-typed [`EventQueue`] instead of the boxed engine.
struct CalibWorld {
    core: CoreNetwork,
    ran: Ran,
    q: EventQueue<Envelope>,
    now: SimTime,
    /// Accumulated per-transport CPU charge (core→core hops).
    cpu: SimDuration,
    /// Envelopes delivered so far.
    delivered: u32,
}

impl CalibWorld {
    fn new(deployment: Deployment) -> CalibWorld {
        let mut core = CoreNetwork::new(deployment);
        let mut ran = Ran::new(2, core.cost.clone());
        ran.add_ue(1, 101, 1);
        core.provision_subscriber(101);
        CalibWorld {
            core,
            ran,
            q: EventQueue::new(),
            now: SimTime::ZERO,
            cpu: SimDuration::ZERO,
            delivered: 0,
        }
    }

    fn push(&mut self, delay: SimDuration, env: Envelope) {
        self.q.push(self.now + delay, env);
    }

    /// Charges the shard-CPU share of a core→core control hop.
    fn charge_hop(&mut self, env: &Envelope, delay: SimDuration) {
        if is_core(env.from) && is_core(env.to) && !matches!(env.msg, Msg::Data(_)) {
            let share = cpu_share(
                self.core
                    .deployment
                    .control_transport(env)
                    .expect("core pair has a transport"),
            );
            self.cpu += SimDuration::from_nanos((delay.as_nanos() as f64 * share) as u64);
        }
    }

    /// Runs the queue dry. Of the envelopes due at one instant, the
    /// core-bound ones are handled first, then the RAN-bound ones, each
    /// group in FIFO order.
    fn run_to_quiescence(&mut self) {
        while let Some((t, env)) = self.q.pop() {
            self.now = t;
            // Gather every envelope due at exactly `t` (FIFO order).
            let mut due = vec![env];
            while self.q.peek_time() == Some(t) {
                due.push(self.q.pop().expect("peeked").1);
            }
            let (core_batch, rest): (Vec<_>, Vec<_>) = due.into_iter().partition(|e| is_core(e.to));
            self.delivered += core_batch.len() as u32 + rest.len() as u32;
            for env in core_batch {
                for o in self.core.handle(env, t) {
                    self.charge_hop(&o.env, o.delay);
                    self.push(o.delay, o.env);
                }
            }
            for env in rest {
                match env.to {
                    Endpoint::Ue(_) if matches!(env.msg, Msg::Data(_)) => {}
                    Endpoint::Dn => {}
                    Endpoint::Ue(_) | Endpoint::Gnb(_) => {
                        let outs = self.ran.handle(env, t);
                        for o in outs {
                            self.push(o.delay, o.env);
                        }
                    }
                    other => panic!("unroutable calibration endpoint {other:?}"),
                }
            }
        }
    }

    /// Runs one phase to quiescence and extracts its profile: the new
    /// `EventRecord` matching `expect`, the new handler segments, and the
    /// transport CPU charged meanwhile.
    fn measure(&mut self, expect: UeEvent) -> ProcedureProfile {
        let seg_mark = self.core.obs.spans.segments().len();
        let ev_mark = self.core.events.len();
        let cpu_mark = self.cpu;
        let msg_mark = self.delivered;
        self.run_to_quiescence();
        let rec = self.core.events[ev_mark..]
            .iter()
            .find(|r| r.event == expect)
            .unwrap_or_else(|| panic!("{expect:?} did not complete during calibration"));
        let latency = rec.duration();
        let handler: u64 = self.core.obs.spans.segments()[seg_mark..]
            .iter()
            .map(|s| s.dur.as_nanos())
            .sum();
        let occupancy = SimDuration::from_nanos(handler) + self.cpu.saturating_sub(cpu_mark);
        ProcedureProfile {
            latency,
            // A procedure cannot occupy its shard longer than it runs.
            occupancy: occupancy.min(latency),
            messages: self.delivered - msg_mark,
        }
    }
}

/// Calibrates every procedure kind on `deployment` by driving the real
/// state machines once each, in lifecycle order.
pub fn calibrate(deployment: Deployment) -> ProfileSet {
    let mut w = CalibWorld::new(deployment);

    // One-time N4 association — excluded from the profiles.
    let assoc = w.core.start_n4_association();
    w.push(SimDuration::ZERO, assoc);
    w.run_to_quiescence();

    // Every slot is measured below; the test suite checks none stays blank.
    let mut profiles = [ProcedureProfile {
        latency: SimDuration::ZERO,
        occupancy: SimDuration::ZERO,
        messages: 0,
    }; 6];
    let reg = w.ran.trigger_registration(1);
    w.push(reg.delay, reg.env);
    profiles[UeEvent::Registration as usize] = w.measure(UeEvent::Registration);

    let sess = w.ran.trigger_session(1);
    w.push(sess.delay, sess.env);
    profiles[UeEvent::SessionRequest as usize] = w.measure(UeEvent::SessionRequest);

    let ho = w.ran.trigger_handover(1, 2);
    w.push(ho.delay, ho.env);
    profiles[UeEvent::Handover as usize] = w.measure(UeEvent::Handover);

    let idle = w.ran.trigger_idle(1);
    w.push(idle.delay, idle.env);
    profiles[UeEvent::IdleTransition as usize] = w.measure(UeEvent::IdleTransition);

    // Paging: one downlink packet arriving at the (now idle) UE's UPF.
    let now = w.now;
    w.push(
        SimDuration::from_micros(10),
        Envelope::new(
            Endpoint::Dn,
            Endpoint::UpfU,
            Msg::Data(DataPacket {
                ue: 1,
                flow: 0,
                dir: Direction::Downlink,
                seq: 0,
                size: 200,
                sent_at: now,
                dst_port: 5001,
                protocol: 17,
                tunnel_teid: None,
                ack_seq: None,
            }),
        ),
    );
    profiles[UeEvent::Paging as usize] = w.measure(UeEvent::Paging);

    let dereg = w.ran.trigger_deregistration(1);
    w.push(dereg.delay, dereg.env);
    profiles[UeEvent::Deregistration as usize] = w.measure(UeEvent::Deregistration);

    ProfileSet { profiles }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_covers_all_kinds_on_all_deployments() {
        for dep in [Deployment::Free5gc, Deployment::OnvmUpf, Deployment::L25gc] {
            let p = calibrate(dep);
            assert_eq!(p.iter().count(), 6, "{dep:?}");
            for (kind, prof) in p.iter() {
                assert!(!prof.latency.is_zero(), "{dep:?} {kind:?} latency");
                assert!(!prof.occupancy.is_zero(), "{dep:?} {kind:?} occupancy");
                assert!(prof.occupancy <= prof.latency, "{dep:?} {kind:?}");
                assert!(prof.messages > 0, "{dep:?} {kind:?}");
            }
        }
    }

    #[test]
    fn l25gc_occupies_far_less_cpu_than_free5gc() {
        // The paper's claim, restated as shard occupancy: the shm SBI/N4
        // frees most of the per-procedure CPU an HTTP control plane burns.
        let free = calibrate(Deployment::Free5gc);
        let l25 = calibrate(Deployment::L25gc);
        let mix = crate::EventMix::default();
        let f = free.mean_occupancy(&mix.weights).as_nanos() as f64;
        let l = l25.mean_occupancy(&mix.weights).as_nanos() as f64;
        assert!(
            f / l > 1.5,
            "free5GC occupancy {f} should clearly exceed L25GC {l}"
        );
        // And latency orders the same way (Fig 8).
        let fr = free.get(UeEvent::Registration).latency;
        let lr = l25.get(UeEvent::Registration).latency;
        assert!(fr > lr, "registration latency {fr:?} vs {lr:?}");
    }

    #[test]
    fn calibration_is_deterministic() {
        let a = calibrate(Deployment::L25gc);
        let b = calibrate(Deployment::L25gc);
        for ((ka, pa), (kb, pb)) in a.iter().zip(b.iter()) {
            assert_eq!(ka, kb);
            assert_eq!(pa.latency, pb.latency);
            assert_eq!(pa.occupancy, pb.occupancy);
            assert_eq!(pa.messages, pb.messages);
        }
    }
}
