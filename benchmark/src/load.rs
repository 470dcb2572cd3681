//! The four `l25gc-load` workloads (`dispatch_b1`, `dispatch_b32`,
//! `analytic_plain`, `analytic_timeline`), their correctness checks, and
//! the layer-major replay that gives the load rows of the ledger.
//!
//! All four share one fleet (10^6 UEs), one procedure mix and one set of
//! calibrated L25GC profiles; they differ in which layers carry the
//! events. The threaded pair is open loop in *virtual* time but replayed
//! as fast as the dispatcher can generate: its rings hold a whole run (see
//! [`config`]), so nothing ever pushes back. Nothing crosses a socket.

use std::time::Instant;

use l25gc_core::{Deployment, UeEvent};
use l25gc_load::{
    calibrate, Admission, ArrivalStream, Driver, ExecBackend, Fleet, LoadConfig, LoadReport,
    OverloadPolicy, ProcedureProfile, ProfileSet, ShardSet, UeState, HIST_ALL, HIST_QUEUE_WAIT,
    HIST_SERVICE, HIST_TRANSIT,
};
use l25gc_obs::{EventKind, MetricsTimeline, Obs};
use l25gc_sim::{SimDuration, SimRng, SimTime};

use crate::report::{self, Pass};
use crate::span::{Recorder, CHUNK};
use crate::Outcome;

/// Fleet size of every load workload.
pub const UES: usize = 1_000_000;
/// Timeline window of `analytic_timeline`.
const WINDOW: SimDuration = SimDuration::from_secs(5);
/// Offered rate (events per virtual second) and virtual length of the
/// threaded workloads.
const THREADED_EPS: u64 = 150_000;
const THREADED_SECS: u64 = 10;
/// Ring slots of the threaded workloads: more than a run's events, with a
/// quarter to spare for the Poisson count's spread.
const THREADED_RING: usize = 1 << 21;
const _: () = assert!(THREADED_EPS * THREADED_SECS * 5 / 4 < THREADED_RING as u64);
/// Most arrivals that may find no eligible UE.
const MAX_INFEASIBLE_SHARE: f64 = 0.02;

/// Which load workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Threaded, one event per ring crossing.
    DispatchB1,
    /// Threaded, 32 events staged per crossing.
    DispatchB32,
    /// Analytic, no threads, rings or timeline.
    AnalyticPlain,
    /// `AnalyticPlain` plus the 5 s windowed timeline.
    AnalyticTimeline,
}

impl Load {
    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Load::DispatchB1 => "dispatch_b1",
            Load::DispatchB32 => "dispatch_b32",
            Load::AnalyticPlain => "analytic_plain",
            Load::AnalyticTimeline => "analytic_timeline",
        }
    }

    fn threaded(self) -> bool {
        matches!(self, Load::DispatchB1 | Load::DispatchB32)
    }

    /// The workload whose virtual-time digest must equal this one's: the
    /// other batch size, or the same run without the timeline.
    fn twin(self) -> Option<Load> {
        match self {
            Load::DispatchB1 => Some(Load::DispatchB32),
            Load::DispatchB32 => Some(Load::DispatchB1),
            Load::AnalyticTimeline => Some(Load::AnalyticPlain),
            Load::AnalyticPlain => None,
        }
    }
}

/// The validated configuration of `w` for `seed`.
pub fn config(w: Load, seed: u64) -> LoadConfig {
    // Queue policy with a wide high-water mark and ring: nothing is shed
    // and nothing bounces, so every offered event is an op.
    let b = LoadConfig::builder()
        .ues(UES)
        .policy(OverloadPolicy::Queue)
        .high_water(1 << 14)
        .seed(seed);
    let b = if w.threaded() {
        // One shard: dispatcher + one worker = the host's two threads.
        // 150 k ev/s × 10 s virtual ≈ 1.5 M events.
        //
        // The ring holds the whole run (2^21 > 1.5 M), because a ring that
        // can fill can hang `Driver::run`: `Pool::shutdown` joins the
        // worker without draining completions, so a worker that still owes
        // more completions than the completion ring holds (submit ring
        // near full + its popped burst) waits for room for ever. A
        // 2^7-slot ring hangs within a few runs; with 2^15 slots it takes
        // a worker descheduled for ~12 ms at the end of a run, and the
        // driver's check met a run that never ended. The price: every
        // slot is written once per run, so the rings stream through ~80 MB
        // instead of reusing 2 MB; the measured rates did not move beyond
        // their noise.
        b.backend(ExecBackend::Threaded)
            .shards(1)
            .ring_capacity(THREADED_RING)
            .offered_eps(THREADED_EPS as f64)
            .duration(SimDuration::from_secs(THREADED_SECS))
            .dispatch_batch(if w == Load::DispatchB32 { 32 } else { 1 })
    } else {
        // 170 ev/s ≈ 0.8 × the 8-shard capacity; 5 000 s ≈ 848 k events.
        b.backend(ExecBackend::Analytic)
            .shards(8)
            .ring_capacity(1 << 15)
            .offered_eps(170.0)
            .duration(SimDuration::from_secs(5_000))
    };
    let b = if w == Load::AnalyticTimeline {
        b.metrics_interval(WINDOW)
    } else {
        b
    };
    b.build().expect("benchmark load config is valid")
}

/// The virtual-time outcome of a load run — everything that must repeat
/// exactly, whatever the wall clock did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadDigest {
    /// Arrivals generated inside the horizon.
    pub offered: u64,
    /// Arrivals dispatched into a shard.
    pub dispatched: u64,
    /// Arrivals with no eligible UE.
    pub infeasible: u64,
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Arrivals bounced by a full ring.
    pub backpressure: u64,
    /// Completions observed.
    pub completed_total: u64,
    /// p50, p95, p99 latency and queue-wait, service, transit p99 (ns).
    pub quantiles_ns: [u64; 6],
}

impl LoadDigest {
    /// Reads the digest off a report.
    pub fn of(r: &LoadReport) -> LoadDigest {
        LoadDigest {
            offered: r.offered,
            dispatched: r.dispatched,
            infeasible: r.infeasible,
            shed: r.shed,
            backpressure: r.backpressure,
            completed_total: r.completed_total,
            quantiles_ns: [
                r.p50.as_nanos(),
                r.p95.as_nanos(),
                r.p99.as_nanos(),
                r.queue_wait_p99.as_nanos(),
                r.service_p99.as_nanos(),
                r.transit_p99.as_nanos(),
            ],
        }
    }

    /// Events that did not make it: shed + bounced + lost in flight.
    pub fn failed(&self) -> u64 {
        self.shed + self.backpressure + self.dispatched.saturating_sub(self.completed_total)
    }

    /// Nothing shed, nothing bounced, nothing lost, and the generator
    /// found a UE for (almost) every arrival.
    pub fn check(&self) -> Result<(), String> {
        if self.completed_total != self.dispatched {
            return Err(format!(
                "completed_total {} != dispatched {}",
                self.completed_total, self.dispatched
            ));
        }
        if self.shed != 0 || self.backpressure != 0 {
            return Err(format!(
                "shed {} / backpressure {} on a Queue-policy run",
                self.shed, self.backpressure
            ));
        }
        if self.dispatched + self.infeasible != self.offered {
            return Err(format!(
                "dispatched {} + infeasible {} != offered {}",
                self.dispatched, self.infeasible, self.offered
            ));
        }
        if self.dispatched == 0 {
            return Err("no event dispatched".into());
        }
        let share = self.infeasible as f64 / self.offered as f64;
        if share > MAX_INFEASIBLE_SHARE {
            return Err(format!("infeasible share {share:.4} above 2 %"));
        }
        Ok(())
    }

    /// The digests of two runs that must agree in virtual time.
    pub fn same_as(&self, other: &LoadDigest, what: &str) -> Result<(), String> {
        if self == other {
            Ok(())
        } else {
            Err(format!(
                "virtual-time digest differs {what}: {self:?} vs {other:?}"
            ))
        }
    }
}

/// Σ per-window dispatched must equal the run's dispatched count.
pub fn check_timeline_total(window_sum: u64, dispatched: u64) -> Result<(), String> {
    if window_sum == dispatched {
        Ok(())
    } else {
        Err(format!(
            "timeline windows sum to {window_sum} dispatched, report says {dispatched}"
        ))
    }
}

/// What the system must have ready before the first event: calibrated
/// profiles and a warm-started fleet. `Driver::run` builds its own fleet
/// again inside the timed call; this times the same work from outside.
pub struct Setup {
    /// The L25GC procedure profiles.
    pub profiles: ProfileSet,
    /// `calibrate` wall time, s.
    pub calibrate_s: f64,
    /// `Fleet::new` + `warm_start` wall time, s.
    pub fleet_s: f64,
}

/// Performs the set-up once, timing its two parts.
pub fn setup(cfg: &LoadConfig) -> Setup {
    let t = Instant::now();
    let profiles = calibrate(Deployment::L25gc);
    let calibrate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let fleet = warm_fleet(cfg, &mut SimRng::new(cfg.seed).fork());
    let fleet_s = t.elapsed().as_secs_f64();
    std::hint::black_box(fleet.active());
    Setup {
        profiles,
        calibrate_s,
        fleet_s,
    }
}

/// The fleet exactly as both driver backends build it.
fn warm_fleet(cfg: &LoadConfig, fleet_rng: &mut SimRng) -> Fleet {
    let mut fleet = Fleet::new(cfg.ues, cfg.shard_cfg.shards);
    fleet.warm_start(fleet_rng, 0.2, 0.3, 0.2);
    fleet
}

/// Set-up repeats per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One `Driver::run`, timed from outside.
pub fn timed_run(driver: &Driver, profiles: &ProfileSet) -> (LoadReport, Pass) {
    let (r, wall_ns, cpu_ns) = report::timed(|| driver.run(profiles));
    let d = LoadDigest::of(&r);
    let pass = Pass {
        ops: r.dispatched,
        failed: d.failed(),
        wall_ns,
        cpu_ns,
    };
    (r, pass)
}

/// Runs load workload `w` for `seconds` and checks every repeat.
pub fn run(w: Load, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let cfg = config(w, seed);
    let mut setup_s = Vec::new();
    let mut profiles = None;
    for _ in 0..SETUPS {
        let s = setup(&cfg);
        setup_s.push(s.calibrate_s + s.fleet_s);
        profiles = Some(s.profiles);
    }
    let profiles = profiles.expect("at least one set-up");
    let driver = Driver::new(cfg).expect("validated config");

    let mut digests: Vec<LoadDigest> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let repeats = report::repeat(seconds, || {
        let (r, pass) = timed_run(&driver, &profiles);
        let d = LoadDigest::of(&r);
        if let Err(e) = d.check() {
            errors.push(e);
        }
        if let Some(tl) = &r.timeline {
            if let Err(e) = check_timeline_total(tl.dispatched_total(), r.dispatched) {
                errors.push(e);
            }
        }
        digests.push(d);
        pass
    });
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    for d in &digests[1..] {
        digests[0].same_as(d, "across repeats")?;
    }
    // One untimed run of the twin configuration: batch size and the
    // timeline may change wall clock only, never virtual time.
    if let Some(twin) = w.twin() {
        let twin_driver = Driver::new(config(twin, seed)).expect("validated config");
        let (r, _) = timed_run(&twin_driver, &profiles);
        digests[0].same_as(
            &LoadDigest::of(&r),
            &format!("between {} and {}", w.name(), twin.name()),
        )?;
    }
    let d = &digests[0];
    Ok(Outcome {
        attempted: repeats.attempted(),
        failed: repeats.failed(),
        metrics: repeats.end_to_end(setup_s),
        text: format!(
            "# {}: {} events/repeat ({} infeasible of {} offered), p99 {:.3} ms virtual; \
             load from one process, {} thread(s), in-process (no socket or link crossed)",
            w.name(),
            d.dispatched,
            d.infeasible,
            d.offered,
            d.quantiles_ns[2] as f64 / 1e6,
            if w.threaded() { 2 } else { 1 },
        ),
    })
}

// ------------------------------------------------------------------
// Ledger: the layer-major replay
// ------------------------------------------------------------------

/// Which fleet state an event kind draws its UE from and where the UE
/// lands — `l25gc_load`'s own (crate-private) transition table.
fn transition(kind: UeEvent) -> (UeState, UeState) {
    match kind {
        UeEvent::Registration => (UeState::Deregistered, UeState::Registered),
        UeEvent::SessionRequest => (UeState::Registered, UeState::SessionActive),
        UeEvent::Handover => (UeState::SessionActive, UeState::SessionActive),
        UeEvent::IdleTransition => (UeState::SessionActive, UeState::Idle),
        UeEvent::Paging => (UeState::Idle, UeState::SessionActive),
        UeEvent::Deregistration => (UeState::Registered, UeState::Deregistered),
    }
}

/// The name `l25gc_load` records a kind's latency histogram under.
fn hist_name(kind: UeEvent) -> &'static str {
    l25gc_load::proc_kind(kind).name()
}

/// Span names of the replay — the load rows of the ledger.
pub mod row {
    /// `Fleet::new` + `warm_start`.
    pub const FLEET_BUILD: &str = "load.fleet.build";
    /// `ArrivalStream::next`.
    pub const ARRIVAL: &str = "load.arrival.next";
    /// `Fleet::sample_in_state` + the success transition.
    pub const SAMPLE: &str = "load.fleet.sample";
    /// `ProfileSet::get`.
    pub const PROFILE_GET: &str = "load.dispatch.profile_get";
    /// `ShardSet::offer`.
    pub const OFFER: &str = "load.shard.offer";
    /// The five `HistogramSet::record` calls one event triggers.
    pub const HIST: &str = "obs.hist.record";
    /// The six `MetricsTimeline::record_*` calls one event triggers.
    pub const TIMELINE: &str = "obs.timeline.record_event";
    /// The whole replay (its self time is the chunk-loop glue).
    pub const REPLAY: &str = "replay";
}

/// What a replay did, beyond its spans.
pub struct Replay {
    /// The digest the replay's own histograms and counters give. With
    /// `offer` on it must equal the untraced analytic run's.
    pub digest: LoadDigest,
    /// Dispatched events (the ledger's op count).
    pub ops: u64,
    /// Timeline windows that hold at least one record, all shards.
    pub windows_touched: u64,
    /// Wall time of the whole replay, ns.
    pub wall_ns: u64,
}

/// Replays `cfg`'s seeded event stream layer-major in chunks of
/// [`CHUNK`]: all arrivals of a chunk, then all UE draws, then all
/// profile look-ups, then all offers, then all recordings. Each layer's
/// loop is one span, so the clock is read twice per 4 096 calls.
///
/// The result is the same virtual-time run as `analytic_open`: a UE's
/// transition is applied right after its draw (the drivers apply it
/// right after the offer, which never fails here), so every RNG sees the
/// same sequence of calls.
///
/// `offer: false` skips the analytic `ShardSet` (the threaded backend
/// does not use it; its rows are arrival, sample, profile and hist) and
/// feeds the histograms the unloaded profile values instead.
pub fn replay(cfg: &LoadConfig, profiles: &ProfileSet, offer: bool, rec: &mut Recorder) -> Replay {
    struct Ev {
        at: SimTime,
        kind: UeEvent,
        ue: u32,
        shard: u16,
        prof: ProcedureProfile,
        adm: Admission,
        depth: u64,
    }
    let blank = ProcedureProfile {
        latency: SimDuration::ZERO,
        occupancy: SimDuration::ZERO,
        messages: 0,
    };
    const NO_UE: u32 = u32::MAX;

    let t0 = Instant::now();
    let root = rec.enter(row::REPLAY, 0);
    let mut rng = SimRng::new(cfg.seed);
    let mut fleet_rng = rng.fork();
    let mut stream = ArrivalStream::new(&cfg.mix, cfg.offered_eps, cfg.burst, &mut rng);
    let mut sample_rng = rng.fork();
    let mut fleet = rec.span(row::FLEET_BUILD, 0, || warm_fleet(cfg, &mut fleet_rng));
    let mut shards = ShardSet::new(cfg.shard_cfg);
    let mut obs = Obs::new();
    let mut timeline = cfg
        .metrics_interval
        .map(|iv| MetricsTimeline::new(iv, cfg.shard_cfg.shards));

    let horizon = SimTime::ZERO + cfg.duration;
    let (mut offered, mut dispatched, mut infeasible) = (0u64, 0u64, 0u64);
    let mut buf: Vec<Ev> = Vec::with_capacity(CHUNK);
    let mut pending = stream.next();
    let mut chunk = 0u32;
    while pending.0 < horizon {
        chunk += 1;
        buf.clear();
        rec.span(row::ARRIVAL, chunk, || {
            while buf.len() < CHUNK && pending.0 < horizon {
                buf.push(Ev {
                    at: pending.0,
                    kind: pending.1,
                    ue: NO_UE,
                    shard: 0,
                    prof: blank,
                    adm: Admission::Shed,
                    depth: 0,
                });
                pending = stream.next();
            }
        });
        offered += buf.len() as u64;
        rec.span(row::SAMPLE, chunk, || {
            for e in buf.iter_mut() {
                let (from, to) = transition(e.kind);
                if let Some(ue) = fleet.sample_in_state(&mut sample_rng, from) {
                    if e.kind == UeEvent::SessionRequest {
                        fleet.establish_session(ue);
                    } else {
                        fleet.set_state(ue, to);
                    }
                    e.ue = ue;
                    e.shard = fleet.shard_of(ue);
                }
            }
        });
        // Infeasible arrivals end here, as in the drivers.
        let before = buf.len();
        buf.retain(|e| e.ue != NO_UE);
        infeasible += (before - buf.len()) as u64;
        rec.span(row::PROFILE_GET, chunk, || {
            for e in buf.iter_mut() {
                e.prof = *profiles.get(e.kind);
            }
        });
        if offer {
            let with_depth = timeline.is_some();
            rec.span(row::OFFER, chunk, || {
                for e in buf.iter_mut() {
                    e.adm = shards.offer(e.shard, e.at, &e.prof, u64::from(e.ue) + 1, &mut obs);
                    if with_depth {
                        e.depth = shards.depth(e.shard) as u64;
                    }
                }
            });
        } else {
            for e in buf.iter_mut() {
                e.adm = Admission::Dispatched {
                    completes_at: e.at + e.prof.latency,
                    queue_wait: SimDuration::ZERO,
                    service: e.prof.occupancy,
                };
            }
        }
        rec.span(row::HIST, chunk, || {
            for e in buf.iter() {
                if let Admission::Dispatched {
                    completes_at,
                    queue_wait,
                    service,
                } = e.adm
                {
                    let lat = completes_at.duration_since(e.at).as_nanos();
                    let (qw, svc) = (queue_wait.as_nanos(), service.as_nanos());
                    obs.hists.record(hist_name(e.kind), lat);
                    obs.hists.record(HIST_ALL, lat);
                    obs.hists.record(HIST_QUEUE_WAIT, qw);
                    obs.hists.record(HIST_SERVICE, svc);
                    obs.hists.record(HIST_TRANSIT, lat - qw - svc);
                    dispatched += 1;
                }
            }
        });
        if let Some(tl) = timeline.as_mut() {
            rec.span(row::TIMELINE, chunk, || {
                for e in buf.iter() {
                    if let Admission::Dispatched {
                        completes_at,
                        queue_wait,
                        service,
                    } = e.adm
                    {
                        let lat = completes_at.duration_since(e.at).as_nanos();
                        let (qw, svc) = (queue_wait.as_nanos(), service.as_nanos());
                        tl.record_dispatched(e.shard, e.at);
                        tl.record_completion(e.shard, completes_at, lat);
                        tl.record_stages(e.shard, completes_at, qw, svc, lat - qw - svc);
                        tl.record_depth(e.shard, e.at, e.depth);
                        let start = e.at + queue_wait;
                        tl.record_busy(e.shard, start, start + service);
                        tl.record_occupancy(e.shard, e.at, start + service);
                    }
                }
            });
        }
    }
    rec.exit(root);
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let q = |name: &str, p: f64| obs.hists.get(name).map_or(0, |h| h.quantile(p));
    let windows_touched = timeline.as_ref().map_or(0, |tl| {
        (0..tl.shards())
            .map(|s| {
                tl.lane(s)
                    .iter()
                    .filter(|w| w.dispatched + w.completed > 0)
                    .count() as u64
            })
            .sum()
    });
    Replay {
        digest: LoadDigest {
            offered,
            dispatched,
            infeasible,
            shed: shards.shed,
            backpressure: shards.backpressure,
            completed_total: dispatched,
            quantiles_ns: [
                q(HIST_ALL, 0.50),
                q(HIST_ALL, 0.95),
                q(HIST_ALL, 0.99),
                q(HIST_QUEUE_WAIT, 0.99),
                q(HIST_SERVICE, 0.99),
                q(HIST_TRANSIT, 0.99),
            ],
        },
        ops: dispatched,
        windows_touched,
        wall_ns,
    }
}

/// The threaded run's wait-ladder gauges, read off the report's flight
/// recorder: `(parks, blocked_ns)`.
pub fn wait_gauges(r: &LoadReport) -> (u64, u64) {
    let gauge = |want: &str| {
        r.obs
            .flight
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Gauge { name, value } if name == want => Some(value),
                _ => None,
            })
            .last()
            .unwrap_or(0)
    };
    (gauge("wait_parks"), gauge("wait_blocked_us") * 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> LoadDigest {
        LoadDigest {
            offered: 1000,
            dispatched: 990,
            infeasible: 10,
            shed: 0,
            backpressure: 0,
            completed_total: 990,
            quantiles_ns: [1, 2, 3, 4, 5, 6],
        }
    }

    #[test]
    fn digest_check_accepts_a_clean_run() {
        assert_eq!(good().check(), Ok(()));
        assert_eq!(good().failed(), 0);
    }

    #[test]
    fn digest_check_rejects_each_corruption() {
        let lost = LoadDigest {
            completed_total: 989,
            ..good()
        };
        assert!(lost.check().unwrap_err().contains("completed_total"));
        assert_eq!(lost.failed(), 1);
        let shed = LoadDigest {
            shed: 2,
            dispatched: 988,
            completed_total: 988,
            ..good()
        };
        assert!(shed.check().unwrap_err().contains("shed"));
        assert_eq!(shed.failed(), 2);
        let bounced = LoadDigest {
            backpressure: 1,
            ..good()
        };
        assert!(bounced.check().is_err());
        let miscounted = LoadDigest {
            offered: 1001,
            ..good()
        };
        assert!(miscounted.check().unwrap_err().contains("offered"));
        let starved = LoadDigest {
            dispatched: 900,
            completed_total: 900,
            infeasible: 100,
            ..good()
        };
        assert!(starved.check().unwrap_err().contains("infeasible"));
        let empty = LoadDigest {
            offered: 0,
            dispatched: 0,
            infeasible: 0,
            completed_total: 0,
            ..good()
        };
        assert!(empty.check().is_err());
    }

    #[test]
    fn digests_must_match_exactly() {
        let mut other = good();
        assert_eq!(good().same_as(&other, "x"), Ok(()));
        other.quantiles_ns[2] += 1;
        assert!(good().same_as(&other, "across repeats").is_err());
        assert!(check_timeline_total(990, 990).is_ok());
        assert!(check_timeline_total(989, 990).is_err());
    }

    /// A small analytic config: the replay must be the same virtual-time
    /// run as the driver, seed by seed.
    fn small(seed: u64, timeline: bool) -> LoadConfig {
        let b = LoadConfig::builder()
            .ues(20_000)
            .shards(4)
            .policy(OverloadPolicy::Queue)
            .high_water(1 << 14)
            .ring_capacity(1 << 15)
            .offered_eps(80.0)
            .duration(SimDuration::from_secs(120))
            .seed(seed);
        let b = if timeline {
            b.metrics_interval(WINDOW)
        } else {
            b
        };
        b.build().unwrap()
    }

    #[test]
    fn replay_reproduces_the_driver_and_depends_on_the_seed() {
        let profiles = calibrate(Deployment::L25gc);
        let mut digests = Vec::new();
        for seed in [7, 11] {
            for timeline in [false, true] {
                let cfg = small(seed, timeline);
                let r = Driver::new(cfg.clone()).unwrap().run(&profiles);
                let mut rec = Recorder::new(true);
                let rep = replay(&cfg, &profiles, true, &mut rec);
                assert_eq!(rep.digest, LoadDigest::of(&r), "seed {seed}");
                assert_eq!(rep.digest.check(), Ok(()));
                assert_eq!(rep.windows_touched > 0, timeline);
                // Same seed, same replay: inputs are a function of the seed.
                let again = replay(&cfg, &profiles, true, &mut Recorder::new(false));
                assert_eq!(again.digest, rep.digest);
                digests.push(rep.digest);
            }
        }
        assert_ne!(digests[0], digests[2], "seeds 7 and 11 differ");
        assert_eq!(
            digests[0], digests[1],
            "the timeline never moves virtual time"
        );
    }
}
