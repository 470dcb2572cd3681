//! The sharded execution layer: N worker shards, each a FIFO server with
//! a bounded in-flight ring and admission control.
//!
//! UE contexts are partitioned by SUPI hash ([`crate::fleet`]); each
//! shard serialises its procedures: a dispatched procedure holds the
//! shard's CPU for its calibrated `occupancy`, so completion time is
//! `max(busy_until, arrival) + occupancy` — the classic single-server
//! FIFO recurrence, which lives in [`FifoServer`]. End-to-end latency
//! adds the off-shard wire time (`latency − occupancy` from the unloaded
//! profile), which does not queue.
//!
//! Two protection mechanisms, both surfaced as `l25gc-obs` drop codes:
//!
//! - **Admission control** at the high-water mark: when a shard's
//!   in-flight depth reaches it, [`OverloadPolicy::Shed`] rejects the
//!   arrival ([`DropCode::AdmissionShed`]) while [`OverloadPolicy::Queue`]
//!   keeps queueing (latency grows without bound past the knee — the
//!   curve the capacity sweep exists to show).
//! - **Ring backpressure**: each shard's in-flight set *is* an
//!   `l25gc_nfv::ring` (the same SPSC ring the NFs use), so a full ring
//!   rejects with the typed [`RingFull`](l25gc_nfv::RingFull) error,
//!   recorded as [`DropCode::RingBackpressure`].

use l25gc_core::UeEvent;
use l25gc_nfv::ring::{ring_labeled, Consumer, Producer};
use l25gc_obs::{DropCode, EventKind, Obs};
use l25gc_sim::{SimDuration, SimTime};

use crate::dispatch::{ProcedureProfile, ProfileSet};
use crate::driver::{record_admitted, record_served, ExecTotals, ShardExec, Telemetry};
use crate::fault::Outage;
use crate::fifo::{FifoServer, Service};
use crate::wait::WaitStats;

/// What to do when a shard's queue crosses its high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Reject new arrivals (bounded latency, non-zero loss).
    Shed,
    /// Keep queueing (no admission loss, unbounded latency).
    Queue,
}

/// Sharded-execution parameters.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Worker shard count.
    pub shards: u16,
    /// In-flight depth at which admission control engages.
    pub high_water: usize,
    /// Shed or queue past the mark.
    pub policy: OverloadPolicy,
    /// Capacity of each shard's in-flight ring (hard bound).
    pub ring_capacity: usize,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 8,
            high_water: 192,
            policy: OverloadPolicy::Shed,
            ring_capacity: 256,
        }
    }
}

/// Outcome of offering one procedure to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Dispatched; completes end-to-end at the given time.
    Dispatched {
        /// When the procedure completes end-to-end.
        completes_at: SimTime,
        /// Arrival → start of service: time queued behind the shard.
        queue_wait: SimDuration,
        /// Start of service → CPU done: the shard occupancy.
        service: SimDuration,
    },
    /// Rejected by the shed policy at the high-water mark.
    Shed,
    /// Rejected because the shard's in-flight ring was full.
    Backpressure,
}

/// One worker shard: its FIFO server plus its in-flight completion ring.
struct Shard {
    /// The service recurrence (virtual clock, outages, replay counts).
    fifo: FifoServer,
    /// Completion timestamps (nanos) of in-flight procedures.
    tx: Producer<u64>,
    rx: Consumer<u64>,
    /// Head-of-ring completion popped before its time (SPSC rings have
    /// no peek; FIFO service makes completions monotone, so one slot of
    /// lookahead is exact).
    stashed: Option<u64>,
    /// Peak in-flight depth observed.
    peak_depth: usize,
    /// Arrivals shed while an outage was in progress on this shard.
    lost_in_outage: u64,
}

impl Shard {
    /// Retires every in-flight procedure whose completion is ≤ `upto`.
    fn retire(&mut self, upto: u64) {
        if let Some(t) = self.stashed {
            if t > upto {
                return;
            }
            self.stashed = None;
        }
        while let Some(t) = self.rx.pop() {
            if t > upto {
                self.stashed = Some(t);
                return;
            }
        }
    }

    /// In-flight procedures (ring occupancy plus the lookahead slot).
    fn depth(&self) -> usize {
        self.tx.len() + usize::from(self.stashed.is_some())
    }
}

/// The shard set: owns every worker shard plus the drop accounting.
pub struct ShardSet {
    cfg: ShardConfig,
    shards: Vec<Shard>,
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Arrivals rejected by ring backpressure.
    pub backpressure: u64,
}

/// Labels for up to 64 shards (ring labels are `&'static str`).
pub(crate) static SHARD_LABELS: [&str; 64] = {
    // "shard:NN" without allocation: generated at compile time.
    [
        "shard:00", "shard:01", "shard:02", "shard:03", "shard:04", "shard:05", "shard:06",
        "shard:07", "shard:08", "shard:09", "shard:10", "shard:11", "shard:12", "shard:13",
        "shard:14", "shard:15", "shard:16", "shard:17", "shard:18", "shard:19", "shard:20",
        "shard:21", "shard:22", "shard:23", "shard:24", "shard:25", "shard:26", "shard:27",
        "shard:28", "shard:29", "shard:30", "shard:31", "shard:32", "shard:33", "shard:34",
        "shard:35", "shard:36", "shard:37", "shard:38", "shard:39", "shard:40", "shard:41",
        "shard:42", "shard:43", "shard:44", "shard:45", "shard:46", "shard:47", "shard:48",
        "shard:49", "shard:50", "shard:51", "shard:52", "shard:53", "shard:54", "shard:55",
        "shard:56", "shard:57", "shard:58", "shard:59", "shard:60", "shard:61", "shard:62",
        "shard:63",
    ]
};

impl ShardSet {
    /// A fresh shard set.
    pub fn new(cfg: ShardConfig) -> ShardSet {
        let shards = (0..cfg.shards)
            .map(|i| {
                let label = SHARD_LABELS[(i as usize) % SHARD_LABELS.len()];
                let (mut tx, rx) = ring_labeled(cfg.ring_capacity, label);
                tx.set_high_water(cfg.high_water);
                Shard {
                    fifo: FifoServer::new(Vec::new()),
                    tx,
                    rx,
                    stashed: None,
                    peak_depth: 0,
                    lost_in_outage: 0,
                }
            })
            .collect();
        ShardSet {
            cfg,
            shards,
            shed: 0,
            backpressure: 0,
        }
    }

    /// Offers one procedure arriving at `now` to `shard`. On dispatch,
    /// returns the end-to-end completion instant; the caller records the
    /// latency sample. Rejections are recorded as drop codes in `obs`.
    pub fn offer(
        &mut self,
        shard: u16,
        now: SimTime,
        prof: &ProcedureProfile,
        seid: u64,
        obs: &mut Obs,
    ) -> Admission {
        let s = &mut self.shards[shard as usize];
        // Retire completed procedures first: anything whose completion
        // timestamp is in the past frees its in-flight slot.
        s.retire(now.as_nanos());
        // Admission control at the high-water mark — the ring's own
        // congestion signal, adjusted by the one-slot lookahead.
        let congested = s.tx.above_high_water() || s.depth() >= s.tx.high_water();
        if congested && self.cfg.policy == OverloadPolicy::Shed {
            if s.fifo.in_outage(now) {
                s.lost_in_outage += 1;
            }
            self.shed += 1;
            obs.event(
                now,
                EventKind::PacketDrop {
                    reason: DropCode::AdmissionShed,
                    seid,
                },
            );
            return Admission::Shed;
        }
        // A full ring rejects before the server is charged.
        if s.tx.len() == s.tx.capacity() {
            self.backpressure += 1;
            obs.event(
                now,
                EventKind::PacketDrop {
                    reason: DropCode::RingBackpressure,
                    seid,
                },
            );
            return Admission::Backpressure;
        }
        let svc = s.fifo.serve(now, prof);
        s.tx.push(svc.done_cpu.as_nanos())
            .expect("room was checked above");
        s.peak_depth = s.peak_depth.max(s.depth());
        Admission::Dispatched {
            completes_at: svc.completes_at,
            queue_wait: svc.start.duration_since(now),
            service: prof.occupancy,
        }
    }

    /// Installs scripted service outages (from
    /// [`FaultPlan::outages`](crate::fault::FaultPlan::outages)) into
    /// fresh shards.
    pub fn set_outages(&mut self, outages: &[Outage]) {
        let servers = FifoServer::per_shard(outages, self.shards.len());
        for (s, fifo) in self.shards.iter_mut().zip(servers) {
            s.fifo = fifo;
        }
    }

    /// Current in-flight depth of `shard` (ring occupancy plus the
    /// one-slot retirement lookahead) — the timeline's depth gauge.
    pub fn depth(&self, shard: u16) -> usize {
        self.shards[shard as usize].depth()
    }
}

/// The analytic engine: every admitted procedure's completion instant is
/// known at offer time, so the whole record — completion, stages,
/// utilization lanes — is written on the spot and nothing can be lost in
/// flight.
impl ShardExec for ShardSet {
    type Ticket = SimTime;

    fn offer(
        &mut self,
        shard: u16,
        kind: UeEvent,
        ue: u32,
        at: SimTime,
        profiles: &ProfileSet,
        tel: &mut Telemetry,
    ) -> Option<SimTime> {
        let prof = profiles.get(kind);
        match ShardSet::offer(self, shard, at, prof, u64::from(ue) + 1, &mut tel.obs) {
            Admission::Dispatched {
                completes_at,
                queue_wait,
                service,
            } => {
                let start = at + queue_wait;
                let svc = Service {
                    start,
                    done_cpu: start + service,
                    completes_at,
                };
                tel.record_completion(kind, ue, at, completes_at);
                record_served(&mut tel.obs, tel.timeline.as_mut(), shard, at, &svc);
                if let Some(tl) = tel.timeline.as_mut() {
                    record_admitted(tl, shard, at, self.depth(shard), &svc);
                }
                Some(completes_at)
            }
            Admission::Shed => {
                if let Some(tl) = tel.timeline.as_mut() {
                    tl.record_shed(shard, at);
                }
                None
            }
            Admission::Backpressure => {
                if let Some(tl) = tel.timeline.as_mut() {
                    tl.record_backpressure(shard, at);
                }
                None
            }
        }
    }

    fn completion(&mut self, _shard: u16, completes_at: SimTime, _tel: &mut Telemetry) -> SimTime {
        completes_at
    }

    fn finish(self, _tel: &mut Telemetry) -> ExecTotals {
        ExecTotals {
            shed: self.shed,
            backpressure: self.backpressure,
            peak_depth: self.shards.iter().map(|s| s.peak_depth).max().unwrap_or(0),
            lost_in_outage: self.shards.iter().map(|s| s.lost_in_outage).sum(),
            gauges: self
                .shards
                .iter()
                .map(|s| (s.tx.label(), s.tx.len() as u64))
                .collect(),
            // The analytic engine never deschedules: no parked idle time,
            // and the defaults for the rest — no waits, no wall clock.
            per_shard_wait: vec![WaitStats::default(); self.shards.len()],
            servers: self.shards.into_iter().map(|s| s.fifo).collect(),
            ..ExecTotals::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l25gc_sim::SimDuration;

    fn prof(occ_us: u64, lat_us: u64) -> ProcedureProfile {
        ProcedureProfile {
            latency: SimDuration::from_micros(lat_us),
            occupancy: SimDuration::from_micros(occ_us),
            messages: 10,
        }
    }

    #[test]
    fn unloaded_dispatch_completes_at_profile_latency() {
        let mut set = ShardSet::new(ShardConfig::default());
        let mut obs = Obs::new();
        let t0 = SimTime::from_nanos(1_000);
        let p = prof(100, 900);
        match set.offer(0, t0, &p, 1, &mut obs) {
            Admission::Dispatched {
                completes_at,
                queue_wait,
                service,
            } => {
                assert_eq!(completes_at, t0 + p.latency);
                assert_eq!(queue_wait, SimDuration::ZERO, "idle shard: no wait");
                assert_eq!(service, p.occupancy);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn back_to_back_arrivals_queue_fifo() {
        let mut set = ShardSet::new(ShardConfig::default());
        let mut obs = Obs::new();
        let p = prof(100, 100); // pure CPU: latency == occupancy
        let t0 = SimTime::ZERO;
        // Three simultaneous arrivals: completions stack at 100, 200, 300µs.
        for i in 1..=3u64 {
            match set.offer(0, t0, &p, i, &mut obs) {
                Admission::Dispatched {
                    completes_at,
                    queue_wait,
                    service,
                } => {
                    assert_eq!(completes_at, SimTime::from_nanos(i * 100_000));
                    // The i-th arrival waits behind i-1 predecessors.
                    assert_eq!(queue_wait, SimDuration::from_micros((i - 1) * 100));
                    assert_eq!(service, p.occupancy);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn shed_policy_drops_at_high_water_and_records_code() {
        let mut set = ShardSet::new(ShardConfig {
            shards: 1,
            high_water: 4,
            policy: OverloadPolicy::Shed,
            ring_capacity: 8,
        });
        let mut obs = Obs::new();
        let p = prof(1_000, 1_000);
        let t0 = SimTime::ZERO;
        let mut shed = 0;
        for i in 0..10u64 {
            if set.offer(0, t0, &p, i, &mut obs) == Admission::Shed {
                shed += 1;
            }
        }
        assert_eq!(shed, 6, "4 admitted, rest shed");
        assert_eq!(set.shed, 6);
        let drops = obs
            .flight
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::PacketDrop {
                        reason: DropCode::AdmissionShed,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(drops, 6);
    }

    #[test]
    fn queue_policy_backpressures_only_at_ring_capacity() {
        let mut set = ShardSet::new(ShardConfig {
            shards: 1,
            high_water: 4,
            policy: OverloadPolicy::Queue,
            ring_capacity: 8,
        });
        let mut obs = Obs::new();
        let p = prof(1_000, 1_000);
        let mut bp = 0;
        for i in 0..20u64 {
            if set.offer(0, SimTime::ZERO, &p, i, &mut obs) == Admission::Backpressure {
                bp += 1;
            }
        }
        assert_eq!(set.shed, 0, "queue policy never sheds");
        // The one-slot retirement lookahead extends the 8-slot ring to 9
        // admitted procedures; the rest hit typed RingFull backpressure.
        assert_eq!(bp, 11);
        assert_eq!(set.backpressure, 11);
    }

    #[test]
    fn retirement_frees_slots_as_time_advances() {
        let mut set = ShardSet::new(ShardConfig {
            shards: 1,
            high_water: 2,
            policy: OverloadPolicy::Shed,
            ring_capacity: 4,
        });
        let mut obs = Obs::new();
        let p = prof(100, 100);
        assert!(matches!(
            set.offer(0, SimTime::ZERO, &p, 1, &mut obs),
            Admission::Dispatched { .. }
        ));
        assert!(matches!(
            set.offer(0, SimTime::ZERO, &p, 2, &mut obs),
            Admission::Dispatched { .. }
        ));
        assert_eq!(
            set.offer(0, SimTime::ZERO, &p, 3, &mut obs),
            Admission::Shed
        );
        // 250µs later both completed; admission reopens.
        let later = SimTime::from_nanos(250_000);
        assert!(matches!(
            set.offer(0, later, &p, 4, &mut obs),
            Admission::Dispatched { .. }
        ));
    }

    #[test]
    fn shards_are_independent_servers() {
        let mut set = ShardSet::new(ShardConfig::default());
        let mut obs = Obs::new();
        let p = prof(100, 100);
        let t0 = SimTime::ZERO;
        // Same instant on two shards: no cross-shard queueing.
        for shard in [0u16, 1] {
            match set.offer(shard, t0, &p, 1, &mut obs) {
                Admission::Dispatched { completes_at, .. } => {
                    assert_eq!(completes_at, SimTime::from_nanos(100_000));
                }
                other => panic!("{other:?}"),
            }
        }
    }
}
