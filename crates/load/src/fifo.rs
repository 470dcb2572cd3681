//! The single-server FIFO recurrence with scripted-outage flooring — the
//! one model every execution path charges service through.
//!
//! A shard serialises its procedures: service starts at
//! `max(busy_until, arrival)`, floored past any scripted [`Outage`] the
//! service interval would overlap, and holds the shard's CPU for the
//! procedure's calibrated occupancy. [`FifoServer`] is that recurrence
//! as a pure value — no rings, threads or recorders — so the analytic
//! [`ShardSet`](crate::shard::ShardSet), the threaded
//! [`ShardWorker`](crate::worker) and the dispatcher's live utilization
//! lanes all run the *same* code over the same arrivals, and agree by
//! construction instead of by byte-equivalence test.

use l25gc_sim::{SimDuration, SimTime};

use crate::dispatch::ProcedureProfile;
use crate::fault::{floor_service, Outage};

/// One served procedure's schedule, as the recurrence fixed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Service {
    /// When service started (arrival plus queue wait).
    pub(crate) start: SimTime,
    /// When the shard's CPU was done (`start + occupancy`).
    pub(crate) done_cpu: SimTime,
    /// End-to-end completion: CPU done plus the off-shard wire time,
    /// which does not hold the shard.
    pub(crate) completes_at: SimTime,
}

impl Service {
    /// The latency anatomy of a procedure that arrived at `at`:
    /// `(end_to_end, queue_wait, service, transit)` in nanoseconds. The
    /// three stages tile the end-to-end latency exactly.
    pub(crate) fn stages(&self, at: SimTime) -> (u64, u64, u64, u64) {
        let lat = self.completes_at.duration_since(at).as_nanos();
        let qw = self.start.duration_since(at).as_nanos();
        let svc = self.done_cpu.duration_since(self.start).as_nanos();
        debug_assert!(qw + svc <= lat, "stage sum exceeds end-to-end");
        (lat, qw, svc, lat - qw - svc)
    }
}

/// One shard's FIFO server: its virtual clock, its scripted outages and
/// the log-replay accounting a kill outage causes.
#[derive(Debug, Clone)]
pub(crate) struct FifoServer {
    /// When the shard's CPU frees up.
    busy_until: SimTime,
    /// Scripted service outages on this shard, sorted by start.
    outages: Vec<Outage>,
    /// Procedures whose service crossed a kill outage and restarted
    /// after it — the log-replay count.
    replayed: u64,
    /// Latest CPU-done instant among kill-replayed procedures: how long
    /// the replayed backlog took to drain past the kill.
    last_replay_done: Option<SimTime>,
}

impl FifoServer {
    /// An idle server suffering `outages` (any order).
    pub(crate) fn new(mut outages: Vec<Outage>) -> FifoServer {
        outages.sort_by_key(|o| o.start.as_nanos());
        FifoServer {
            busy_until: SimTime::ZERO,
            outages,
            replayed: 0,
            last_replay_done: None,
        }
    }

    /// One idle server per shard, each suffering its own share of
    /// `outages`.
    pub(crate) fn per_shard(outages: &[Outage], shards: usize) -> Vec<FifoServer> {
        (0..shards)
            .map(|i| {
                let own = outages.iter().filter(|o| o.shard as usize == i);
                FifoServer::new(own.copied().collect())
            })
            .collect()
    }

    /// Serves one procedure arriving at `at`. Service cannot overlap a
    /// scripted outage — work in flight across a kill restarts after the
    /// failover window, which is the log-replay path.
    pub(crate) fn serve(&mut self, at: SimTime, prof: &ProcedureProfile) -> Service {
        let (start, crossed_kill) =
            floor_service(&self.outages, self.busy_until.max(at), prof.occupancy);
        let done_cpu = start + prof.occupancy;
        self.busy_until = done_cpu;
        if crossed_kill {
            self.replayed += 1;
            self.last_replay_done = self.last_replay_done.max(Some(done_cpu));
        }
        Service {
            start,
            done_cpu,
            completes_at: done_cpu + prof.latency.saturating_sub(prof.occupancy),
        }
    }

    /// Whether a scripted outage holds the shard down at `now`.
    pub(crate) fn in_outage(&self, now: SimTime) -> bool {
        self.outages.iter().any(|o| now >= o.start && now < o.end)
    }

    /// Procedures re-run from the packet log after a kill.
    pub(crate) fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Worst observed disruption across this shard's outages: for a
    /// kill, from the kill instant until the replayed backlog drained
    /// (the outage span if nothing was in flight); for a freeze, the
    /// stall span itself. `None` without outages.
    pub(crate) fn disruption_span(&self) -> Option<SimDuration> {
        self.outages
            .iter()
            .map(|o| {
                let until = if o.kill {
                    self.last_replay_done
                        .filter(|&d| d >= o.end)
                        .unwrap_or(o.end)
                } else {
                    o.end
                };
                until.duration_since(o.start)
            })
            .max()
    }

    /// CPU-busy fractions up to `horizon`: each server's
    /// `min(busy_until, horizon) / horizon`, and their mean. (The mean
    /// divides the summed busy time once, so it is not the mean of the
    /// rounded per-server values.)
    pub(crate) fn busy_fractions(servers: &[FifoServer], horizon: SimTime) -> (Vec<f64>, f64) {
        let h = horizon.as_nanos();
        if h == 0 || servers.is_empty() {
            return (vec![0.0; servers.len()], 0.0);
        }
        let busy = |s: &FifoServer| s.busy_until.as_nanos().min(h) as f64;
        let total: f64 = servers.iter().map(busy).sum();
        (
            servers.iter().map(|s| busy(s) / h as f64).collect(),
            total / (h as f64 * servers.len() as f64),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_nanos(ticks)
    }

    fn prof(occupancy: u64, latency: u64) -> ProcedureProfile {
        ProcedureProfile {
            latency: SimDuration::from_nanos(latency),
            occupancy: SimDuration::from_nanos(occupancy),
            messages: 1,
        }
    }

    fn outage(start: u64, end: u64, kill: bool) -> Outage {
        Outage {
            shard: 0,
            start: t(start),
            end: t(end),
            kill,
        }
    }

    #[test]
    fn recurrence_table() {
        struct Case {
            name: &'static str,
            outages: Vec<Outage>,
            occupancy: u64,
            latency: u64,
            arrivals: &'static [u64],
            /// `(start, done_cpu, completes_at)` per arrival.
            want: &'static [(u64, u64, u64)],
            replayed: u64,
            last_replay_done: Option<u64>,
            disruption: Option<u64>,
        }
        let cases = [
            Case {
                name: "idle start",
                outages: vec![],
                occupancy: 10,
                latency: 25,
                arrivals: &[7],
                want: &[(7, 17, 32)],
                replayed: 0,
                last_replay_done: None,
                disruption: None,
            },
            Case {
                name: "back-to-back queueing",
                outages: vec![],
                occupancy: 10,
                latency: 10,
                arrivals: &[0, 0, 5, 40],
                want: &[(0, 10, 10), (10, 20, 20), (20, 30, 30), (40, 50, 50)],
                replayed: 0,
                last_replay_done: None,
                disruption: None,
            },
            Case {
                name: "freeze floor",
                outages: vec![outage(20, 50, false)],
                occupancy: 10,
                latency: 12,
                // The first fits before the stall; the second would
                // overlap it and the third arrives inside it.
                arrivals: &[5, 12, 30],
                want: &[(5, 15, 17), (50, 60, 62), (60, 70, 72)],
                replayed: 0,
                last_replay_done: None,
                disruption: Some(30),
            },
            Case {
                name: "kill crossing",
                outages: vec![outage(20, 50, true)],
                occupancy: 10,
                latency: 10,
                arrivals: &[15, 16, 100],
                want: &[(50, 60, 60), (60, 70, 70), (100, 110, 110)],
                // Only the procedure in flight across the kill replays;
                // the one queued behind it starts after the window.
                replayed: 1,
                last_replay_done: Some(60),
                disruption: Some(40),
            },
            Case {
                name: "two cascading outages",
                // Given out of order: the server sorts them.
                outages: vec![outage(55, 80, true), outage(20, 50, false)],
                occupancy: 10,
                latency: 10,
                // Floored past the freeze to 50, where [50, 60) overlaps
                // the kill, so one pass floors it again to 80.
                arrivals: &[15],
                want: &[(80, 90, 90)],
                replayed: 1,
                last_replay_done: Some(90),
                disruption: Some(35),
            },
        ];
        for c in cases {
            let mut s = FifoServer::new(c.outages);
            let p = prof(c.occupancy, c.latency);
            for (&at, &(start, done_cpu, completes_at)) in c.arrivals.iter().zip(c.want) {
                let got = s.serve(t(at), &p);
                let want = Service {
                    start: t(start),
                    done_cpu: t(done_cpu),
                    completes_at: t(completes_at),
                };
                assert_eq!(got, want, "{}: arrival at {at}", c.name);
            }
            assert_eq!(s.replayed(), c.replayed, "{}", c.name);
            assert_eq!(s.last_replay_done, c.last_replay_done.map(t), "{}", c.name);
            assert_eq!(
                s.disruption_span(),
                c.disruption.map(SimDuration::from_nanos),
                "{}",
                c.name
            );
        }
    }

    #[test]
    fn busy_fractions_clamp_at_the_horizon() {
        let mut a = FifoServer::new(vec![]);
        let mut b = FifoServer::new(vec![]);
        a.serve(t(0), &prof(25, 25));
        b.serve(t(90), &prof(30, 30));
        let (each, mean) = FifoServer::busy_fractions(&[a, b], t(100));
        assert_eq!(each, vec![0.25, 1.0]);
        assert_eq!(mean, 0.625);
        assert_eq!(FifoServer::busy_fractions(&[], t(100)), (vec![], 0.0));
    }

    /// Every sorted sequence of up to `left` more arrivals on the
    /// 8-tick grid, starting no earlier than `from`.
    fn for_each_arrival_sequence(
        from: u64,
        left: usize,
        seq: &mut Vec<u64>,
        check: &mut dyn FnMut(&[u64]),
    ) {
        check(seq);
        if left == 0 {
            return;
        }
        for at in from..8 {
            seq.push(at);
            for_each_arrival_sequence(at, left - 1, seq, check);
            seq.pop();
        }
    }

    #[test]
    fn exhaustive_small_state_invariants() {
        // Every non-decreasing sequence of <= 4 arrivals on an 8-tick
        // grid x {no outage, one freeze, one kill} x two occupancies,
        // against a reference written out in plain tick arithmetic.
        const OUTAGE: (u64, u64) = (3, 6);
        let mut checked = 0u32;
        for kill in [None, Some(false), Some(true)] {
            for occupancy in [1u64, 3] {
                let p = prof(occupancy, occupancy + 2);
                for_each_arrival_sequence(0, 4, &mut Vec::new(), &mut |arrivals| {
                    checked += 1;
                    let outages: Vec<Outage> = kill
                        .map(|k| outage(OUTAGE.0, OUTAGE.1, k))
                        .into_iter()
                        .collect();
                    let mut s = FifoServer::new(outages);
                    // The reference server's clock, and whether a
                    // service had to move past the outage.
                    let (mut free, mut crossed) = (0u64, false);
                    let mut prev_start = None;
                    for &at in arrivals {
                        let svc = s.serve(t(at), &p);
                        let mut start = free.max(at);
                        if kill.is_some() && start < OUTAGE.1 && start + occupancy > OUTAGE.0 {
                            start = OUTAGE.1;
                            crossed = true;
                        }
                        free = start + occupancy;
                        assert_eq!(svc.start, t(start), "{arrivals:?} {kill:?}");
                        assert!(Some(svc.start) >= prev_start, "starts are monotone");
                        prev_start = Some(svc.start);
                        assert!(
                            kill.is_none()
                                || svc.done_cpu <= t(OUTAGE.0)
                                || svc.start >= t(OUTAGE.1),
                            "{svc:?} overlaps the outage ({arrivals:?})"
                        );
                        let (lat, qw, service, transit) = svc.stages(t(at));
                        assert_eq!(qw + service + transit, lat, "stages tile latency");
                        assert_eq!((service, transit), (occupancy, 2));
                    }
                    // By hand: a freeze disrupts for its own 3 ticks. A
                    // kill does too when nothing was in flight; the one
                    // procedure that was re-runs from the outage's end,
                    // stretching the disruption by its occupancy.
                    let want = match kill {
                        None => None,
                        Some(true) if crossed => Some(3 + occupancy),
                        Some(_) => Some(3),
                    };
                    assert_eq!(
                        s.disruption_span(),
                        want.map(SimDuration::from_nanos),
                        "{arrivals:?} {kill:?}"
                    );
                    let replays = u64::from(crossed && kill == Some(true));
                    assert_eq!(s.replayed(), replays, "{arrivals:?} {kill:?}");
                });
            }
        }
        // 1 + 8 + 36 + 120 + 330 sorted sequences x 3 outage sets x 2.
        assert_eq!(checked, 495 * 6);
    }
}
