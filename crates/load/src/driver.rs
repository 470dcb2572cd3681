//! The unified load driver: one [`Driver`] entry point over every
//! (mode × backend) combination.
//!
//! **Modes** ([`LoadMode`]):
//!
//! - **Open loop**: arrivals come from the seeded [`ArrivalStream`]
//!   regardless of completions — the generator does not slow down when
//!   the system saturates, which is what exposes the latency knee (the
//!   coordinated-omission-free methodology capacity studies require).
//! - **Closed loop**: a fixed population of workers each issue one
//!   procedure, wait for completion plus a think time, then issue the
//!   next — throughput self-limits, modelling well-behaved devices.
//!
//! **Backends** ([`ExecBackend`]):
//!
//! - **Analytic**: the single-threaded virtual-time loop — seed
//!   deterministic, byte-identical output per seed, used for the
//!   published capacity tables.
//! - **Threaded** ([`crate::worker`]): one OS thread per shard fed
//!   through real `l25gc_nfv::ring` SPSC submit/completion rings — the
//!   same virtual-time latency model, but wall-clock measured, so the
//!   sweep doubles as a benchmark of the shared-memory substrate itself.
//!
//! Every combination is the same loop: an `Arrivals` source (open or
//! closed) offering procedures to a `ShardExec` engine (the analytic
//! [`ShardSet`] or the threaded `Pool`), and one report builder.
//!
//! Both record per-procedure latency into `l25gc-obs` log2 histograms
//! (`capacity_all` plus one per procedure kind), drop codes for shed /
//! backpressured arrivals, and active-UE / shard-depth gauges. Two
//! opt-in telemetry surfaces ride the same hot path:
//!
//! - a windowed [`MetricsTimeline`] ([`LoadConfigBuilder::metrics_interval`])
//!   snapshotting per-shard counters and latency deltas per interval,
//!   carried on the [`LoadReport`];
//! - sampled procedure spans ([`LoadConfigBuilder::trace_sample`]): every
//!   Nth UE's dispatches become completed spans in `obs.spans`, bounded
//!   by the span log's capacity and allocation-free when sampled out, so
//!   any run exports straight to the Chrome-trace / Perfetto pipeline.
//!
//! Construction goes through [`LoadConfig::builder`], which returns a
//! typed [`LoadError`] instead of panicking on bad inputs.

use l25gc_core::UeEvent;
use l25gc_obs::{EventKind, MetricsTimeline, Obs};
use l25gc_sim::{EventQueue, SimDuration, SimRng, SimTime};

use l25gc_nfv::cost::CostModel;
use l25gc_resilience::FailoverTimeline;

use crate::arrival::{ArrivalStream, EventMix, RateSegment};
use crate::dispatch::{proc_kind, ProfileSet};
use crate::fault::{FaultPlan, Outage};
use crate::fifo::{FifoServer, Service};
use crate::fleet::{Fleet, UeState};
use crate::shard::{ShardConfig, ShardSet};
use crate::wait::WaitStats;
use crate::worker::Pool;

/// Histogram key for the all-kinds latency distribution.
pub const HIST_ALL: &str = "capacity_all";

/// Histogram key for the queue-wait stage (arrival → start of service).
pub const HIST_QUEUE_WAIT: &str = "stage_queue_wait";

/// Histogram key for the service stage (shard CPU occupancy).
pub const HIST_SERVICE: &str = "stage_service";

/// Histogram key for the completion-transit stage (CPU done → observed
/// completion).
pub const HIST_TRANSIT: &str = "stage_transit";

/// Which execution engine runs the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// Single-threaded virtual-time loop: seed-deterministic, used for
    /// the published (byte-identical) capacity tables.
    #[default]
    Analytic,
    /// One OS thread per shard over real SPSC submit/completion rings:
    /// wall-clock measured, benchmarks the substrate itself.
    Threaded,
}

impl ExecBackend {
    /// Parses `"analytic"` / `"threaded"` (the CLI spelling).
    pub fn parse(s: &str) -> Result<ExecBackend, String> {
        match s {
            "analytic" => Ok(ExecBackend::Analytic),
            "threaded" => Ok(ExecBackend::Threaded),
            other => Err(format!(
                "unknown backend `{other}` (expected `analytic` or `threaded`)"
            )),
        }
    }
}

impl std::fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecBackend::Analytic => "analytic",
            ExecBackend::Threaded => "threaded",
        })
    }
}

/// How arrivals are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// Open loop at [`LoadConfig::offered_eps`], independent of
    /// completions.
    #[default]
    Open,
    /// Closed loop: a fixed worker population with think times.
    Closed {
        /// Concurrent client count.
        workers: usize,
        /// Mean think time between a completion and the next issue.
        think: SimDuration,
    },
}

/// Why a [`LoadConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadError {
    /// The fleet must have at least one UE.
    ZeroUes,
    /// The fleet indexes UEs with `u32`; this many don't fit.
    FleetTooLarge(usize),
    /// At least one worker shard is required.
    ZeroShards,
    /// A zero high-water mark would shed every arrival.
    ZeroHighWater,
    /// A zero-capacity in-flight ring cannot hold any procedure.
    ZeroRingCapacity,
    /// Open-loop offered rate must be finite and positive.
    NonPositiveRate(f64),
    /// Burstiness must be finite and ≥ 1 (1 = Poisson).
    BadBurst(f64),
    /// The run horizon must be non-zero.
    ZeroDuration,
    /// The event mix must have positive total weight.
    EmptyMix,
    /// Closed-loop mode needs at least one worker.
    ZeroWorkers,
    /// A requested metrics timeline needs a non-zero interval.
    ZeroMetricsInterval,
    /// The scripted rate profile failed [`RateSegment::validate`]; the
    /// payload is the validator's reason.
    BadScript(&'static str),
    /// A scripted profile only drives open-loop arrivals — closed-loop
    /// workers pace themselves.
    ScriptInClosedLoop,
    /// The scripted fault plan failed
    /// [`FaultPlan::validate`](crate::fault::FaultPlan::validate); the
    /// payload is the validator's reason.
    BadFaultPlan(&'static str),
    /// A live metrics endpoint renders per-window snapshots, so it needs
    /// a metrics timeline interval to publish on.
    ServeWithoutInterval,
    /// The dispatcher stages at least one event per burst; a zero batch
    /// would never flush anything.
    ZeroDispatchBatch,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::ZeroUes => write!(f, "fleet must have at least one UE"),
            LoadError::FleetTooLarge(n) => {
                write!(f, "fleet of {n} UEs exceeds the u32 index space")
            }
            LoadError::ZeroShards => write!(f, "at least one worker shard is required"),
            LoadError::ZeroHighWater => {
                write!(f, "high-water mark of 0 would shed every arrival")
            }
            LoadError::ZeroRingCapacity => write!(f, "in-flight ring capacity must be > 0"),
            LoadError::NonPositiveRate(r) => {
                write!(f, "offered rate must be finite and positive, got {r}")
            }
            LoadError::BadBurst(b) => {
                write!(f, "burstiness must be finite and >= 1, got {b}")
            }
            LoadError::ZeroDuration => write!(f, "run horizon must be non-zero"),
            LoadError::EmptyMix => write!(f, "event mix must have positive total weight"),
            LoadError::ZeroWorkers => write!(f, "closed loop needs at least one worker"),
            LoadError::ZeroMetricsInterval => {
                write!(f, "metrics timeline interval must be non-zero")
            }
            LoadError::BadScript(reason) => write!(f, "bad scripted profile: {reason}"),
            LoadError::ScriptInClosedLoop => {
                write!(f, "scripted profiles apply to open-loop arrivals only")
            }
            LoadError::BadFaultPlan(reason) => write!(f, "bad fault plan: {reason}"),
            LoadError::ServeWithoutInterval => {
                write!(f, "serving live metrics needs a metrics timeline interval")
            }
            LoadError::ZeroDispatchBatch => {
                write!(f, "dispatch batch must be at least 1")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// One load run's configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Fleet size (UEs).
    pub ues: usize,
    /// Sharded-execution parameters.
    pub shard_cfg: ShardConfig,
    /// Procedure mix.
    pub mix: EventMix,
    /// Offered load, events/s (open loop).
    pub offered_eps: f64,
    /// Burstiness: 1.0 = Poisson arrivals, > 1 = MMPP-2 with this
    /// high/low phase rate ratio.
    pub burst: f64,
    /// When set, open-loop arrivals follow this scripted piecewise rate
    /// profile instead of the steady `offered_eps`/`burst` process (the
    /// steady fields are ignored). `None` = steady arrivals.
    pub script: Option<Vec<RateSegment>>,
    /// When set, shards suffer this scripted plan of kill / freeze /
    /// recover faults mid-run; the report carries a [`Disruption`]
    /// block. `None` = fault-free.
    pub fault: Option<FaultPlan>,
    /// Run horizon.
    pub duration: SimDuration,
    /// Master seed; every RNG in the run forks from it.
    pub seed: u64,
    /// Execution engine.
    pub backend: ExecBackend,
    /// Arrival generation discipline.
    pub mode: LoadMode,
    /// When set, the run carries a per-shard [`MetricsTimeline`]
    /// snapshotting at this interval (virtual time). `None` = off.
    pub metrics_interval: Option<SimDuration>,
    /// When set, the run publishes its live Prometheus exposition to an
    /// [`l25gc_obs::serve::MetricsServer`] bound on this address, one
    /// snapshot per closed timeline window (requires
    /// [`LoadConfig::metrics_interval`]). `None` = no live endpoint.
    pub serve_metrics: Option<String>,
    /// Span sampling stride: keep every Nth UE's procedure spans
    /// (`ue % N == 0`). `0` = tracing off.
    pub trace_sample: u64,
    /// Pin each shard worker (and the dispatcher, when a core is spare)
    /// to distinct physical cores — the paper's one-NF-per-core testbed
    /// discipline. Best-effort: a restricted host warns and runs
    /// unpinned. Threaded backend only; the analytic engine ignores it.
    pub pin: bool,
    /// Dispatcher staging depth: routed events accumulate in per-shard
    /// buffers and flush as one `push_burst` when a shard's buffer
    /// reaches this size (or on admission pressure, a barrier, or the
    /// virtual-time flush deadline). `1` = per-event dispatch: a burst of
    /// one.
    /// Threaded backend only; never affects virtual-time results.
    pub dispatch_batch: usize,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            ues: 10_000,
            shard_cfg: ShardConfig::default(),
            mix: EventMix::default(),
            offered_eps: 100.0,
            burst: 1.0,
            script: None,
            fault: None,
            duration: SimDuration::from_secs(5),
            seed: 0,
            backend: ExecBackend::Analytic,
            mode: LoadMode::Open,
            metrics_interval: None,
            serve_metrics: None,
            trace_sample: 0,
            pin: false,
            dispatch_batch: 1,
        }
    }
}

impl LoadConfig {
    /// Starts a builder from the defaults.
    pub fn builder() -> LoadConfigBuilder {
        LoadConfigBuilder {
            cfg: LoadConfig::default(),
        }
    }

    /// Checks every invariant the drivers rely on; [`Driver::new`] and
    /// [`LoadConfigBuilder::build`] both call this.
    pub fn validate(&self) -> Result<(), LoadError> {
        if self.ues == 0 {
            return Err(LoadError::ZeroUes);
        }
        if self.ues > u32::MAX as usize {
            return Err(LoadError::FleetTooLarge(self.ues));
        }
        if self.shard_cfg.shards == 0 {
            return Err(LoadError::ZeroShards);
        }
        if self.shard_cfg.high_water == 0 {
            return Err(LoadError::ZeroHighWater);
        }
        if self.shard_cfg.ring_capacity == 0 {
            return Err(LoadError::ZeroRingCapacity);
        }
        if self.duration.is_zero() {
            return Err(LoadError::ZeroDuration);
        }
        let total_weight = self.mix.total();
        if !total_weight.is_finite() || total_weight <= 0.0 {
            return Err(LoadError::EmptyMix);
        }
        if self.mode == LoadMode::Open {
            if let Some(script) = &self.script {
                RateSegment::validate(script).map_err(LoadError::BadScript)?;
            } else {
                if !self.offered_eps.is_finite() || self.offered_eps <= 0.0 {
                    return Err(LoadError::NonPositiveRate(self.offered_eps));
                }
                if !self.burst.is_finite() || self.burst < 1.0 {
                    return Err(LoadError::BadBurst(self.burst));
                }
            }
        }
        if let LoadMode::Closed { workers, .. } = self.mode {
            if workers == 0 {
                return Err(LoadError::ZeroWorkers);
            }
            if self.script.is_some() {
                return Err(LoadError::ScriptInClosedLoop);
            }
        }
        if self.metrics_interval.is_some_and(|iv| iv.is_zero()) {
            return Err(LoadError::ZeroMetricsInterval);
        }
        if self.serve_metrics.is_some() && self.metrics_interval.is_none() {
            return Err(LoadError::ServeWithoutInterval);
        }
        if self.dispatch_batch == 0 {
            return Err(LoadError::ZeroDispatchBatch);
        }
        if let Some(plan) = &self.fault {
            plan.validate(self.shard_cfg.shards, self.duration)
                .map_err(LoadError::BadFaultPlan)?;
        }
        Ok(())
    }

    /// The fault plan compiled into per-shard outage intervals (empty
    /// when fault-free) — the same intervals every engine floors with.
    pub(crate) fn outages(&self) -> Vec<Outage> {
        self.fault
            .as_ref()
            .map(|p| p.outages(&fault_timeline(), self.duration))
            .unwrap_or_default()
    }
}

/// Fluent constructor for [`LoadConfig`]; [`LoadConfigBuilder::build`]
/// validates and returns a typed [`LoadError`] instead of panicking.
#[derive(Debug, Clone)]
pub struct LoadConfigBuilder {
    cfg: LoadConfig,
}

impl LoadConfigBuilder {
    /// Fleet size (UEs).
    pub fn ues(mut self, ues: usize) -> Self {
        self.cfg.ues = ues;
        self
    }

    /// Worker shard count.
    pub fn shards(mut self, shards: u16) -> Self {
        self.cfg.shard_cfg.shards = shards;
        self
    }

    /// The full sharded-execution parameter block.
    pub fn shard_cfg(mut self, shard_cfg: ShardConfig) -> Self {
        self.cfg.shard_cfg = shard_cfg;
        self
    }

    /// In-flight depth at which admission control engages.
    pub fn high_water(mut self, high_water: usize) -> Self {
        self.cfg.shard_cfg.high_water = high_water;
        self
    }

    /// What to do past the high-water mark.
    pub fn policy(mut self, policy: crate::shard::OverloadPolicy) -> Self {
        self.cfg.shard_cfg.policy = policy;
        self
    }

    /// Capacity of each shard's in-flight ring.
    pub fn ring_capacity(mut self, ring_capacity: usize) -> Self {
        self.cfg.shard_cfg.ring_capacity = ring_capacity;
        self
    }

    /// Procedure mix.
    pub fn mix(mut self, mix: EventMix) -> Self {
        self.cfg.mix = mix;
        self
    }

    /// Offered load, events/s (open loop).
    pub fn offered_eps(mut self, offered_eps: f64) -> Self {
        self.cfg.offered_eps = offered_eps;
        self
    }

    /// Burstiness (1.0 = Poisson, > 1 = MMPP-2 rate ratio).
    pub fn burst(mut self, burst: f64) -> Self {
        self.cfg.burst = burst;
        self
    }

    /// Drives open-loop arrivals from a scripted piecewise rate profile
    /// (overrides `offered_eps`/`burst`; see [`LoadConfig::script`]).
    pub fn script(mut self, segments: Vec<RateSegment>) -> Self {
        self.cfg.script = Some(segments);
        self
    }

    /// Injects a scripted plan of shard faults mid-run (see
    /// [`LoadConfig::fault`]).
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault = Some(plan);
        self
    }

    /// Run horizon.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.cfg.duration = duration;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Execution engine.
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Open-loop arrivals (the default).
    pub fn open_loop(mut self) -> Self {
        self.cfg.mode = LoadMode::Open;
        self
    }

    /// Closed-loop arrivals: `workers` clients with `think` pauses.
    pub fn closed_loop(mut self, workers: usize, think: SimDuration) -> Self {
        self.cfg.mode = LoadMode::Closed { workers, think };
        self
    }

    /// Carries a per-shard metrics timeline snapshotting at `interval`.
    pub fn metrics_interval(mut self, interval: SimDuration) -> Self {
        self.cfg.metrics_interval = Some(interval);
        self
    }

    /// Publishes the live Prometheus exposition on `addr` (e.g.
    /// `127.0.0.1:0`), one snapshot per closed timeline window; requires
    /// [`LoadConfigBuilder::metrics_interval`]. See
    /// [`LoadConfig::serve_metrics`].
    pub fn serve_metrics(mut self, addr: impl Into<String>) -> Self {
        self.cfg.serve_metrics = Some(addr.into());
        self
    }

    /// Keeps every Nth UE's procedure spans (0 = tracing off).
    pub fn trace_sample(mut self, stride: u64) -> Self {
        self.cfg.trace_sample = stride;
        self
    }

    /// Pins workers (and the dispatcher, when a core is spare) to
    /// distinct physical cores. Best-effort; see [`LoadConfig::pin`].
    pub fn pin(mut self, pin: bool) -> Self {
        self.cfg.pin = pin;
        self
    }

    /// Dispatcher staging depth (1 = a burst of one per event); see
    /// [`LoadConfig::dispatch_batch`].
    pub fn dispatch_batch(mut self, batch: usize) -> Self {
        self.cfg.dispatch_batch = batch;
        self
    }

    /// Validates and returns the config.
    pub fn build(self) -> Result<LoadConfig, LoadError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Wall-clock measurements a threaded run adds to its [`LoadReport`].
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    /// Real elapsed time of the run (spawn to last join).
    pub elapsed: std::time::Duration,
    /// Events actually moved through the rings per wall-clock second.
    pub sustained_eps: f64,
}

/// How a scripted fault disturbed the run: the resilience timeline's
/// cost parts plus what the execution engine actually measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disruption {
    /// S-BFD detection window charged per kill (ms). Zero when the plan
    /// held only freezes (no failover fires for a stall).
    pub detect_ms: f64,
    /// Route-migration cost charged per kill (ms).
    pub reroute_ms: f64,
    /// Non-overlapped log-replay cost charged per kill (ms).
    pub replay_ms: f64,
    /// Worst measured disruption across outages (ms): for a kill, kill
    /// instant → replayed backlog drained; for a freeze, the stall span.
    pub disruption_ms: f64,
    /// Procedures re-run from the packet log after a kill.
    pub replayed: u64,
    /// Arrivals shed while their shard was inside an outage (always 0
    /// under [`OverloadPolicy::Queue`](crate::shard::OverloadPolicy) —
    /// the loss-freedom claim).
    pub completions_lost: u64,
}

/// Builds the [`Disruption`] block from the final per-shard servers;
/// both backends hand theirs over, so the block means the same thing
/// either way.
fn disruption_from(
    cfg: &LoadConfig,
    servers: &[FifoServer],
    completions_lost: u64,
) -> Option<Disruption> {
    let plan = cfg.fault.as_ref()?;
    let tl = fault_timeline();
    let killed = plan.kills().next().is_some();
    let charge = |d: SimDuration| if killed { d.as_millis_f64() } else { 0.0 };
    let measured_span = servers.iter().filter_map(FifoServer::disruption_span).max();
    Some(Disruption {
        detect_ms: charge(tl.detect),
        reroute_ms: charge(tl.reroute),
        replay_ms: charge(tl.replay * (1.0 - tl.overlap)),
        disruption_ms: measured_span.unwrap_or(SimDuration::ZERO).as_millis_f64(),
        replayed: servers.iter().map(FifoServer::replayed).sum(),
        completions_lost,
    })
}

/// The paper-constant failover timeline both backends charge faults
/// against.
fn fault_timeline() -> FailoverTimeline {
    FailoverTimeline::paper(&CostModel::paper())
}

/// What one load run measured.
#[derive(Debug)]
pub struct LoadReport {
    /// Arrivals the generator produced within the horizon.
    pub offered: u64,
    /// Arrivals dispatched into a shard.
    pub dispatched: u64,
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Arrivals rejected by ring backpressure.
    pub backpressure: u64,
    /// Arrivals that found no eligible UE (e.g. a paging arrival with an
    /// empty idle pool).
    pub infeasible: u64,
    /// Dispatched procedures that completed within the horizon.
    pub completed: u64,
    /// Every completion the run observed, inside the horizon or not.
    /// Loss-freedom invariant: `completed_total == dispatched`.
    pub completed_total: u64,
    /// `completed` per second of horizon — the sustained rate.
    pub achieved_eps: f64,
    /// Latency quantiles over every dispatched procedure.
    pub p50: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// 99th percentile of the queue-wait stage (arrival → service).
    pub queue_wait_p99: SimDuration,
    /// 99th percentile of the service stage (shard CPU occupancy).
    pub service_p99: SimDuration,
    /// 99th percentile of the completion-transit stage.
    pub transit_p99: SimDuration,
    /// UEs attached in any form at the end of the run.
    pub active_ues: usize,
    /// Deepest any shard's in-flight queue got.
    pub peak_depth: usize,
    /// Mean shard CPU utilisation over the horizon.
    pub busy_fraction: f64,
    /// Per-shard CPU-busy fraction over the horizon, 0..1 — the worker
    /// utilization anatomy, comparable across backends (both derive it
    /// from the same charged-service-time recurrence).
    pub shard_utilization: Vec<f64>,
    /// Wall-clock stats (threaded backend only).
    pub wall: Option<WallClock>,
    /// Fault-disturbance accounting, when [`LoadConfig::fault`] was set.
    pub disruption: Option<Disruption>,
    /// Per-shard windowed telemetry, when
    /// [`LoadConfig::metrics_interval`] was set (per-worker timelines
    /// already merged for threaded runs).
    pub timeline: Option<MetricsTimeline>,
    /// Full observability bundle (histograms, drop events, gauges, and —
    /// with [`LoadConfig::trace_sample`] — sampled procedure spans).
    pub obs: Obs,
}

/// The unified entry point: a validated [`LoadConfig`] plus `run`.
/// Callers no longer branch on driver kind — mode and backend live in
/// the config.
pub struct Driver {
    cfg: LoadConfig,
}

impl Driver {
    /// Validates `cfg` and wraps it.
    pub fn new(cfg: LoadConfig) -> Result<Driver, LoadError> {
        cfg.validate()?;
        Ok(Driver { cfg })
    }

    /// The validated configuration.
    pub fn config(&self) -> &LoadConfig {
        &self.cfg
    }

    /// Runs the configured (mode × backend) combination.
    pub fn run(&self, profiles: &ProfileSet) -> LoadReport {
        let cfg = &self.cfg;
        match cfg.backend {
            ExecBackend::Analytic => run_loop(cfg, profiles, || {
                let mut shards = ShardSet::new(cfg.shard_cfg);
                shards.set_outages(&cfg.outages());
                shards
            }),
            ExecBackend::Threaded => run_loop(cfg, profiles, || Pool::spawn(cfg, profiles)),
        }
    }
}

/// Which fleet state an event kind draws its UE from, and where the UE
/// lands on success.
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

/// Applies the success transition for `kind` to `ue`.
fn apply_transition(fleet: &mut Fleet, ue: u32, kind: UeEvent, to: UeState) {
    if kind == UeEvent::SessionRequest {
        fleet.establish_session(ue);
    } else {
        fleet.set_state(ue, to);
    }
}

/// Picks the next closed-loop procedure kind: a weighted draw that is
/// deterministic in mix order.
fn draw_kind(mix: &EventMix, rng: &mut SimRng) -> UeEvent {
    let mut pick = rng.f64() * mix.total();
    let mut kind = mix.weights[0].0;
    for &(k, w) in &mix.weights {
        kind = k;
        if pick < w {
            break;
        }
        pick -= w;
    }
    kind
}

/// Publishes the run's live Prometheus exposition into the shared
/// [`MetricsServer`](l25gc_obs::serve::MetricsServer): one snapshot per
/// closed timeline window, plus a final `drain` snapshot after idle
/// finalization. Both backends drive the same publisher, so the live
/// surface is backend-agnostic — the phase string and the
/// `l25gc_shard_outage` gauge come from the compiled fault-plan
/// intervals, which only depend on virtual time.
struct ScrapePublisher {
    server: std::sync::Arc<l25gc_obs::serve::MetricsServer>,
    series: String,
    interval: SimDuration,
    /// Window index of the last publish (one snapshot per window).
    last_window: Option<u64>,
    /// Per-shard outage flags as last published: a flag transition
    /// publishes immediately, so the `l25gc_shard_outage` flip is
    /// observable even when the outage is shorter than a window.
    flags: Vec<bool>,
    outages: Vec<Outage>,
}

impl ScrapePublisher {
    /// Builds the publisher when the config asks for one. A bind failure
    /// warns and disables the endpoint rather than failing the run.
    fn from_config(cfg: &LoadConfig) -> Option<ScrapePublisher> {
        let addr = cfg.serve_metrics.as_ref()?;
        let interval = cfg.metrics_interval?;
        let server = match l25gc_obs::serve::shared(addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("warning: cannot serve metrics on {addr} ({e}); live endpoint disabled");
                return None;
            }
        };
        Some(ScrapePublisher {
            server,
            series: cfg.backend.to_string(),
            interval,
            last_window: None,
            flags: vec![false; cfg.shard_cfg.shards as usize],
            outages: cfg.outages(),
        })
    }

    /// Whether a scripted outage holds `shard` down at `now`.
    fn is_down(&self, shard: usize, now: SimTime) -> bool {
        self.outages
            .iter()
            .any(|o| usize::from(o.shard) == shard && now >= o.start && now < o.end)
    }

    /// Index of the timeline window containing `now`.
    fn window(&self, now: SimTime) -> u64 {
        now.as_nanos() / self.interval.as_nanos()
    }

    /// Whether an arrival at `now` publishes: it enters a new timeline
    /// window, or an outage flag differs from the one last published.
    /// Asked once per arrival, so it reads and compares in place.
    fn due(&self, now: SimTime) -> bool {
        self.last_window != Some(self.window(now))
            || (0..self.flags.len()).any(|s| self.is_down(s, now) != self.flags[s])
    }

    /// The exposition body at `now`, with the outage flags brought up to
    /// date.
    fn snapshot(&mut self, now: SimTime, tl: &MetricsTimeline) -> String {
        for s in 0..self.flags.len() {
            self.flags[s] = self.is_down(s, now);
        }
        let mut body = l25gc_obs::prometheus_header();
        body.push_str(&tl.to_prometheus_samples(&self.series));
        body.push_str(&l25gc_obs::shard_outage_samples(&self.series, &self.flags));
        body
    }

    /// Publishes when `now` enters a new timeline window, or immediately
    /// when an outage flag transitions (so the `l25gc_shard_outage`
    /// 0→1→0 flip is observable even for outages shorter than a
    /// window); the phase reads `fault-outage` while any shard is down.
    fn maybe_publish(&mut self, now: SimTime, tl: &MetricsTimeline) {
        if !self.due(now) {
            return;
        }
        self.last_window = Some(self.window(now));
        let body = self.snapshot(now, tl);
        let phase = if self.flags.contains(&true) {
            "fault-outage"
        } else {
            "steady"
        };
        self.server.publish(phase, body);
    }

    /// The final snapshot, after idle finalization: phase `drain`.
    fn publish_drain(&mut self, horizon: SimTime, tl: &MetricsTimeline) {
        let body = self.snapshot(horizon, tl);
        self.server.publish("drain", body);
    }
}

/// The hot-path recorder bundle: the `Obs` recorders plus the opt-in
/// timeline, live publisher, and span-sampling stride, threaded through
/// both backends as one value, with the completion counts every engine
/// reports the same way.
pub(crate) struct Telemetry {
    /// Histograms, flight recorder, span log.
    pub obs: Obs,
    /// Windowed per-shard snapshots, when configured.
    pub timeline: Option<MetricsTimeline>,
    /// Live scrape-endpoint publisher, when configured.
    publisher: Option<ScrapePublisher>,
    /// Span sampling stride (0 = off).
    trace_sample: u64,
    /// End of the run in virtual time.
    pub horizon: SimTime,
    /// Completions observed inside the horizon.
    pub completed: u64,
    /// Every completion observed, inside the horizon or not.
    pub completed_total: u64,
}

impl Telemetry {
    pub(crate) fn new(cfg: &LoadConfig) -> Telemetry {
        Telemetry {
            obs: Obs::new(),
            timeline: cfg
                .metrics_interval
                .map(|iv| MetricsTimeline::new(iv, cfg.shard_cfg.shards)),
            publisher: ScrapePublisher::from_config(cfg),
            trace_sample: cfg.trace_sample,
            horizon: SimTime::ZERO + cfg.duration,
            completed: 0,
            completed_total: 0,
        }
    }

    /// Publishes the live snapshot when `now` enters a new window.
    fn maybe_publish(&mut self, now: SimTime) {
        if let (Some(p), Some(tl)) = (self.publisher.as_mut(), self.timeline.as_ref()) {
            p.maybe_publish(now, tl);
        }
    }

    /// Records one observed completion: the per-kind and all-kinds
    /// latency histograms, the completion counts, and a span when the
    /// UE is on the sampling stride (a pure modulus — no RNG, no
    /// allocation — so the sampled-out path costs one branch).
    pub(crate) fn record_completion(
        &mut self,
        kind: UeEvent,
        ue: u32,
        at: SimTime,
        completes_at: SimTime,
    ) {
        let lat = completes_at.duration_since(at).as_nanos();
        self.obs.hists.record(proc_kind(kind).name(), lat);
        self.obs.hists.record(HIST_ALL, lat);
        self.completed_total += 1;
        self.completed += u64::from(completes_at <= self.horizon);
        if self.trace_sample > 0 && u64::from(ue) % self.trace_sample == 0 {
            self.obs
                .spans
                .record_completed(proc_kind(kind), u64::from(ue), at, completes_at);
        }
    }
}

/// Records one served procedure's latency anatomy on the serving side:
/// queue-wait (arrival → service start), service (shard occupancy) and
/// completion transit (the off-shard wire time) tile the end-to-end
/// latency exactly, with the same boundaries on both backends.
pub(crate) fn record_served(
    obs: &mut Obs,
    timeline: Option<&mut MetricsTimeline>,
    shard: u16,
    at: SimTime,
    svc: &Service,
) {
    let (lat, qw, service, transit) = svc.stages(at);
    obs.hists.record(HIST_QUEUE_WAIT, qw);
    obs.hists.record(HIST_SERVICE, service);
    obs.hists.record(HIST_TRANSIT, transit);
    if let Some(tl) = timeline {
        tl.record_completion(shard, svc.completes_at, lat);
        tl.record_stages(shard, svc.completes_at, qw, service, transit);
    }
}

/// Records one dispatch on the admitting side: the dispatch count, the
/// depth gauge, and the utilization anatomy — busy is the charged
/// service span of the FIFO recurrence, occupancy the whole sojourn,
/// both in virtual time, so analytic and threaded lanes are comparable.
pub(crate) fn record_admitted(
    tl: &mut MetricsTimeline,
    shard: u16,
    at: SimTime,
    depth: usize,
    svc: &Service,
) {
    tl.record_dispatched(shard, at);
    tl.record_depth(shard, at, depth as u64);
    tl.record_busy(shard, svc.start, svc.done_cpu);
    tl.record_occupancy(shard, at, svc.done_cpu);
}

/// What an execution engine hands the report builder when a run ends.
#[derive(Default)]
pub(crate) struct ExecTotals {
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Arrivals rejected by ring backpressure.
    pub backpressure: u64,
    /// Deepest any shard's in-flight queue got.
    pub peak_depth: usize,
    /// Arrivals shed while their shard was inside a scripted outage.
    pub lost_in_outage: u64,
    /// Each shard's final FIFO server (a killed shard's primary and its
    /// standby share one, so failover is invisible to the occupancy and
    /// replay accounting).
    pub servers: Vec<FifoServer>,
    /// Engine-specific end-of-run gauges, recorded last.
    pub gauges: Vec<(&'static str, u64)>,
    /// Per-shard wait counters (all zero for an engine that never
    /// deschedules): the parked share of each shard's idle time.
    pub per_shard_wait: Vec<WaitStats>,
    /// Wait-ladder counters merged across every wait site in the engine.
    pub wait: WaitStats,
    /// The dispatcher's own wait sites only — dispatcher utilization is
    /// wall time minus this descheduled time.
    pub dispatcher_wait: WaitStats,
    /// Real elapsed time of the run, engine start to last join, for an
    /// engine that runs on the wall clock (threaded backend only).
    pub elapsed: Option<std::time::Duration>,
}

/// An execution engine the driver loop offers procedures to: the
/// analytic [`ShardSet`] (completions known at offer time) or the
/// threaded [`Pool`] (completions come back over the rings).
pub(crate) trait ShardExec {
    /// Names one dispatched procedure until its completion is known.
    type Ticket: Copy;

    /// Offers one procedure of `kind` for `ue`, arriving at `at`, to
    /// `shard`; the engine charges `profiles.get(kind)` where it serves.
    /// `None` when the arrival was shed or backpressured (the typed drop
    /// is already recorded in `tel`).
    fn offer(
        &mut self,
        shard: u16,
        kind: UeEvent,
        ue: u32,
        at: SimTime,
        profiles: &ProfileSet,
        tel: &mut Telemetry,
    ) -> Option<Self::Ticket>;

    /// The virtual completion instant of a dispatched procedure — what a
    /// closed-loop client waits for before thinking.
    fn completion(&mut self, shard: u16, ticket: Self::Ticket, tel: &mut Telemetry) -> SimTime;

    /// Per-arrival housekeeping between offers.
    fn poll(&mut self, _tel: &mut Telemetry) {}

    /// Ends the run: every dispatched procedure is completed and
    /// recorded in `tel` when this returns.
    fn finish(self, tel: &mut Telemetry) -> ExecTotals;
}

/// Where arrivals come from: the seeded open-loop stream, or a fixed
/// population of closed-loop clients that each wait for their completion
/// plus a think time before issuing again.
enum Arrivals<'a> {
    Open(ArrivalStream),
    Closed {
        /// Each queued item is a client becoming ready to issue.
        ready: EventQueue<u32>,
        think: SimDuration,
        mix: &'a EventMix,
        kind_rng: SimRng,
    },
}

impl<'a> Arrivals<'a> {
    /// Builds the source and the UE-sampling RNG. The fork order is part
    /// of the seed contract: open loop forks the stream (once per active
    /// mix kind, scripted or steady alike), then the sampler; closed loop
    /// forks the sampler, then the kind picker.
    fn new(cfg: &'a LoadConfig, rng: &mut SimRng) -> (Arrivals<'a>, SimRng) {
        match cfg.mode {
            LoadMode::Open => {
                let stream = match &cfg.script {
                    Some(segments) => ArrivalStream::scripted(&cfg.mix, segments, rng),
                    None => ArrivalStream::new(&cfg.mix, cfg.offered_eps, cfg.burst, rng),
                };
                (Arrivals::Open(stream), rng.fork())
            }
            LoadMode::Closed { workers, think } => {
                let sample_rng = rng.fork();
                let mut kind_rng = rng.fork();
                let mut ready = EventQueue::with_capacity(workers);
                for w in 0..workers as u32 {
                    // Stagger starts across one mean think time.
                    let jitter = kind_rng.exponential(think.as_secs_f64().max(1e-6));
                    ready.push(SimTime::ZERO + SimDuration::from_secs_f64(jitter), w);
                }
                let mix = &cfg.mix;
                (
                    Arrivals::Closed {
                        ready,
                        think,
                        mix,
                        kind_rng,
                    },
                    sample_rng,
                )
            }
        }
    }

    /// The next arrival before `horizon`: `(instant, kind, client)`.
    fn next(&mut self, horizon: SimTime) -> Option<(SimTime, UeEvent, u32)> {
        match self {
            Arrivals::Open(stream) => {
                let (at, kind) = stream.next();
                (at < horizon).then_some((at, kind, 0))
            }
            Arrivals::Closed {
                ready,
                mix,
                kind_rng,
                ..
            } => {
                let (at, client) = ready.pop_before(horizon)?;
                Some((at, draw_kind(mix, kind_rng), client))
            }
        }
    }

    /// `client`'s procedure settled at `at` (its completion, or its
    /// arrival when it was rejected or infeasible): a closed-loop client
    /// thinks, then issues again. Open-loop arrivals ignore completions.
    fn settled(&mut self, client: u32, at: SimTime) {
        if let Arrivals::Closed { ready, think, .. } = self {
            ready.push(at + *think, client);
        }
    }
}

/// The one driver loop: every (mode × backend) combination is this loop
/// over an [`Arrivals`] source and a [`ShardExec`] engine. `start` builds
/// the engine once the fleet is warm, so a threaded run's wall clock
/// covers the pool and nothing else.
fn run_loop<E: ShardExec>(
    cfg: &LoadConfig,
    profiles: &ProfileSet,
    start: impl FnOnce() -> E,
) -> LoadReport {
    let mut rng = SimRng::new(cfg.seed);
    let mut fleet_rng = rng.fork();
    let (mut arrivals, mut sample_rng) = Arrivals::new(cfg, &mut rng);
    let closed = matches!(cfg.mode, LoadMode::Closed { .. });

    let mut fleet = Fleet::new(cfg.ues, cfg.shard_cfg.shards);
    fleet.warm_start(&mut fleet_rng, 0.2, 0.3, 0.2);
    let mut tel = Telemetry::new(cfg);
    let mut exec = start();

    let horizon = tel.horizon;
    let (mut offered, mut dispatched, mut infeasible) = (0u64, 0u64, 0u64);
    while let Some((at, kind, client)) = arrivals.next(horizon) {
        offered += 1;
        let (from, to) = transition(kind);
        let mut settled_at = at;
        if let Some(ue) = fleet.sample_in_state(&mut sample_rng, from) {
            let shard = fleet.shard_of(ue);
            if let Some(ticket) = exec.offer(shard, kind, ue, at, profiles, &mut tel) {
                dispatched += 1;
                apply_transition(&mut fleet, ue, kind, to);
                if closed {
                    settled_at = exec.completion(shard, ticket, &mut tel);
                }
            }
        } else {
            infeasible += 1;
        }
        exec.poll(&mut tel);
        tel.maybe_publish(at);
        arrivals.settled(client, settled_at);
    }
    let totals = exec.finish(&mut tel);
    report(cfg, &fleet, tel, totals, offered, dispatched, infeasible)
}

/// The one report builder: idle finalization, the drain snapshot, the
/// end-of-run gauges and the quantiles, for either backend.
fn report(
    cfg: &LoadConfig,
    fleet: &Fleet,
    tel: Telemetry,
    totals: ExecTotals,
    offered: u64,
    dispatched: u64,
    infeasible: u64,
) -> LoadReport {
    let Telemetry {
        mut obs,
        mut timeline,
        publisher,
        horizon,
        completed,
        completed_total,
        ..
    } = tel;
    // Idle finalization on the merged timeline: the parked share of each
    // shard's idle time comes from its measured park/blocked ratio (zero
    // for the analytic engine, which never deschedules), and dispatcher
    // utilization is wall time not spent descheduled.
    if let Some(tl) = timeline.as_mut() {
        for (s, w) in totals.per_shard_wait.iter().enumerate() {
            let ratio = w.parked_ns as f64 / w.blocked_ns.max(1) as f64;
            tl.finalize_idle(s as u16, cfg.duration, ratio);
        }
        if let Some(elapsed) = totals.elapsed {
            let wall_ns = elapsed.as_nanos() as u64;
            tl.record_dispatcher_utilization(
                wall_ns.saturating_sub(totals.dispatcher_wait.blocked_ns),
                wall_ns,
            );
        }
    }
    if let (Some(mut p), Some(tl)) = (publisher, timeline.as_ref()) {
        p.publish_drain(horizon, tl);
    }
    let mut gauge = |name: &'static str, value: u64| {
        obs.event(horizon, EventKind::Gauge { name, value });
    };
    gauge("active_ues", fleet.active() as u64);
    if totals.elapsed.is_some() {
        // Wait-ladder burn, merged across every wait site in the pool:
        // idle burn is a gauge, not a silent 100% CPU.
        gauge("wait_spins", totals.wait.spins);
        gauge("wait_yields", totals.wait.yields);
        gauge("wait_parks", totals.wait.parks);
        gauge("wait_transitions", totals.wait.transitions);
        gauge("wait_blocked_us", totals.wait.blocked_ns / 1_000);
        gauge("wait_parked_us", totals.wait.parked_ns / 1_000);
    }
    for &(name, value) in &totals.gauges {
        gauge(name, value);
    }
    let quantile = |name: &str, p: f64| {
        obs.hists
            .get(name)
            .map(|h| SimDuration::from_nanos(h.quantile(p)))
            .unwrap_or(SimDuration::ZERO)
    };
    let (shard_utilization, busy_fraction) = FifoServer::busy_fractions(&totals.servers, horizon);
    LoadReport {
        offered,
        dispatched,
        shed: totals.shed,
        backpressure: totals.backpressure,
        infeasible,
        completed,
        completed_total,
        achieved_eps: completed as f64 / cfg.duration.as_secs_f64(),
        p50: quantile(HIST_ALL, 0.50),
        p95: quantile(HIST_ALL, 0.95),
        p99: quantile(HIST_ALL, 0.99),
        queue_wait_p99: quantile(HIST_QUEUE_WAIT, 0.99),
        service_p99: quantile(HIST_SERVICE, 0.99),
        transit_p99: quantile(HIST_TRANSIT, 0.99),
        active_ues: fleet.active(),
        peak_depth: totals.peak_depth,
        busy_fraction,
        shard_utilization,
        wall: totals.elapsed.map(|elapsed| WallClock {
            elapsed,
            sustained_eps: completed_total as f64 / elapsed.as_secs_f64().max(1e-9),
        }),
        disruption: disruption_from(cfg, &totals.servers, totals.lost_in_outage),
        timeline,
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::calibrate;
    use l25gc_core::Deployment;

    fn open_driver(cfg: LoadConfig) -> Driver {
        Driver::new(cfg).expect("valid test config")
    }

    #[test]
    fn open_loop_light_load_matches_unloaded_latency() {
        let profiles = calibrate(Deployment::L25gc);
        let cfg = LoadConfig {
            ues: 2_000,
            offered_eps: 20.0,
            duration: SimDuration::from_secs(5),
            seed: 11,
            ..LoadConfig::default()
        };
        let r = open_driver(cfg).run(&profiles);
        assert!(r.offered > 50, "offered {}", r.offered);
        assert!(r.shed == 0 && r.backpressure == 0, "light load sheds");
        // p50 should sit at one of the unloaded procedure latencies.
        let max_unloaded = profiles.iter().map(|(_, p)| p.latency).max().unwrap();
        assert!(r.p50 <= max_unloaded, "p50 {:?}", r.p50);
        assert!(r.active_ues > 0);
        assert!(r.wall.is_none(), "analytic runs carry no wall stats");
        assert_eq!(r.completed_total, r.dispatched);
    }

    #[test]
    fn open_loop_overload_sheds_and_inflates_latency() {
        let profiles = calibrate(Deployment::Free5gc);
        let mix = EventMix::default();
        let occ = profiles.mean_occupancy(&mix.weights).as_secs_f64();
        let capacity = ShardConfig::default().shards as f64 / occ;
        // Low high-water mark so admission control engages within the
        // 5-second horizon even at moderate queue growth rates.
        let shard_cfg = ShardConfig {
            high_water: 16,
            ring_capacity: 32,
            ..ShardConfig::default()
        };
        let light = LoadConfig {
            ues: 5_000,
            shard_cfg,
            offered_eps: capacity * 0.3,
            duration: SimDuration::from_secs(5),
            seed: 3,
            ..LoadConfig::default()
        };
        let heavy = LoadConfig {
            offered_eps: capacity * 3.0,
            ..light.clone()
        };
        let heavy_eps = heavy.offered_eps;
        let lr = open_driver(light).run(&profiles);
        let hr = open_driver(heavy).run(&profiles);
        assert!(hr.shed > 0, "overload must shed");
        assert!(hr.p99 >= lr.p99, "{:?} vs {:?}", hr.p99, lr.p99);
        assert!(hr.achieved_eps <= heavy_eps);
    }

    #[test]
    fn same_seed_same_report() {
        let profiles = calibrate(Deployment::L25gc);
        let cfg = LoadConfig {
            ues: 3_000,
            offered_eps: 200.0,
            duration: SimDuration::from_secs(3),
            seed: 42,
            ..LoadConfig::default()
        };
        let a = open_driver(cfg.clone()).run(&profiles);
        let b = open_driver(cfg).run(&profiles);
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.dispatched, b.dispatched);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.active_ues, b.active_ues);
    }

    #[test]
    fn closed_loop_self_limits() {
        let profiles = calibrate(Deployment::L25gc);
        let cfg = LoadConfig::builder()
            .ues(2_000)
            .duration(SimDuration::from_secs(3))
            .seed(5)
            .closed_loop(32, SimDuration::from_millis(10))
            .build()
            .expect("valid closed-loop config");
        let r = Driver::new(cfg).unwrap().run(&profiles);
        assert!(r.dispatched > 0);
        assert_eq!(r.backpressure, 0, "closed loop cannot overrun the ring");
        // 32 workers can never have more than 32 in flight.
        assert!(r.peak_depth <= 32, "peak {}", r.peak_depth);
    }

    #[test]
    fn builder_rejects_bad_inputs_with_typed_errors() {
        assert_eq!(
            LoadConfig::builder().ues(0).build().unwrap_err(),
            LoadError::ZeroUes
        );
        assert_eq!(
            LoadConfig::builder().shards(0).build().unwrap_err(),
            LoadError::ZeroShards
        );
        assert_eq!(
            LoadConfig::builder().offered_eps(-1.0).build().unwrap_err(),
            LoadError::NonPositiveRate(-1.0)
        );
        assert_eq!(
            LoadConfig::builder().burst(0.5).build().unwrap_err(),
            LoadError::BadBurst(0.5)
        );
        assert_eq!(
            LoadConfig::builder()
                .duration(SimDuration::ZERO)
                .build()
                .unwrap_err(),
            LoadError::ZeroDuration
        );
        assert_eq!(
            LoadConfig::builder()
                .closed_loop(0, SimDuration::from_millis(1))
                .build()
                .unwrap_err(),
            LoadError::ZeroWorkers
        );
        // Closed loop ignores the open-loop rate, so a bad rate passes.
        assert!(LoadConfig::builder()
            .offered_eps(-1.0)
            .closed_loop(4, SimDuration::from_millis(1))
            .build()
            .is_ok());
        // A live endpoint without a timeline has nothing to publish.
        assert_eq!(
            LoadConfig::builder()
                .serve_metrics("127.0.0.1:0")
                .build()
                .unwrap_err(),
            LoadError::ServeWithoutInterval
        );
        assert!(LoadConfig::builder()
            .serve_metrics("127.0.0.1:0")
            .metrics_interval(SimDuration::from_millis(100))
            .build()
            .is_ok());
        // A zero dispatch batch would stage forever and flush nothing.
        assert_eq!(
            LoadConfig::builder().dispatch_batch(0).build().unwrap_err(),
            LoadError::ZeroDispatchBatch
        );
        assert!(LoadConfig::builder().dispatch_batch(32).build().is_ok());
    }

    #[test]
    fn publisher_is_due_on_a_new_window_or_an_outage_flip_only() {
        let plan = crate::fault::FaultPlan::parse("kill@1s:shard=0").unwrap();
        let cfg = LoadConfig::builder()
            .shards(2)
            .duration(SimDuration::from_secs(3))
            .metrics_interval(SimDuration::from_millis(100))
            .serve_metrics("127.0.0.1:0")
            .fault(plan)
            .build()
            .unwrap();
        // Nothing is published here: the endpoint is shared process-wide
        // and other tests read its history.
        let mut p = ScrapePublisher::from_config(&cfg).expect("localhost binds");
        let tl = MetricsTimeline::new(SimDuration::from_millis(100), 2);
        let (down, up) = (p.outages[0].start, p.outages[0].end);
        assert_eq!(down, SimTime::ZERO + SimDuration::from_secs(1));
        let ns = SimDuration::from_nanos;
        // What `maybe_publish` does, short of publishing.
        let publish = |p: &mut ScrapePublisher, at: SimTime| {
            assert!(p.due(at), "due at {at:?}");
            p.last_window = Some(p.window(at));
            p.snapshot(at, &tl)
        };
        let at = SimTime::ZERO + SimDuration::from_millis(950);
        assert!(publish(&mut p, at).contains("shard=\"0\"} 0"));
        assert!(!p.due(at + ns(1)), "same window, same flags");
        assert!(!p.due(down - ns(1)));
        // The kill lands mid-window: due at once, then quiet again.
        assert!(
            publish(&mut p, down).contains("l25gc_shard_outage{series=\"analytic\",shard=\"0\"} 1")
        );
        assert_eq!(p.flags, [true, false]);
        assert!(!p.due(down + ns(1)));
        assert!(p.due(down + SimDuration::from_millis(100)), "next window");
        // And so does the recovery, wherever it falls in its window.
        p.last_window = Some(p.window(up));
        assert!(p.due(up), "flag flips back");
        publish(&mut p, up);
        assert_eq!(p.flags, [false, false]);
        assert!(!p.due(up + ns(1)));
    }

    #[test]
    fn utilization_lanes_tile_windows_analytic() {
        let profiles = calibrate(Deployment::L25gc);
        // Light load: real idle time in every window, so the tiling has
        // non-trivial blocked shares to get right.
        let cfg = LoadConfig::builder()
            .ues(3_000)
            .shards(2)
            .offered_eps(300.0)
            .duration(SimDuration::from_secs(2))
            .seed(37)
            .metrics_interval(SimDuration::from_millis(100))
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        let tl = r.timeline.as_ref().expect("timeline was requested");
        let iv = SimDuration::from_millis(100).as_nanos();
        let horizon = SimDuration::from_secs(2).as_nanos();
        assert_eq!(r.shard_utilization.len(), 2);
        for shard in 0..tl.shards() {
            let u = r.shard_utilization[shard as usize];
            assert!(u > 0.0 && u <= 1.0, "shard {shard} utilization {u}");
            let mut blocked_seen = false;
            for (i, w) in tl.lane(shard).iter().enumerate() {
                let start = i as u64 * iv;
                if start >= horizon {
                    break; // busy spillover past the horizon is untiled
                }
                let len = iv.min(horizon - start);
                if w.busy_ns <= len {
                    assert_eq!(
                        w.busy_ns + w.blocked_ns + w.parked_ns,
                        len,
                        "shard {shard} window {i} does not tile"
                    );
                }
                blocked_seen |= w.blocked_ns > 0;
                assert_eq!(w.parked_ns, 0, "analytic never parks");
            }
            assert!(blocked_seen, "light load must leave idle time");
        }
    }

    #[test]
    fn timeline_sums_match_report_totals_analytic() {
        let profiles = calibrate(Deployment::L25gc);
        // Tight rings so shed/backpressure lanes get exercised too.
        let cfg = LoadConfig::builder()
            .ues(5_000)
            .shards(4)
            .high_water(8)
            .ring_capacity(16)
            .offered_eps(20_000.0)
            .duration(SimDuration::from_secs(2))
            .seed(13)
            .metrics_interval(SimDuration::from_millis(100))
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        let tl = r.timeline.as_ref().expect("timeline was requested");
        assert_eq!(tl.shards(), 4);
        assert_eq!(
            tl.dispatched_total(),
            r.dispatched,
            "summed per-window dispatches equal the report total"
        );
        assert_eq!(tl.completed_total(), r.dispatched, "analytic: all complete");
        assert_eq!(tl.shed_total(), r.shed);
        assert!(r.shed > 0, "config must exercise the shed lane");
        assert!(tl.window_count() >= 20, "2 s / 100 ms windows");
    }

    #[test]
    fn stage_decomposition_bounds_end_to_end() {
        let profiles = calibrate(Deployment::L25gc);
        // Push hard enough that queueing actually happens, so the
        // queue-wait stage is exercised, not just zero-filled.
        let cfg = LoadConfig::builder()
            .ues(5_000)
            .shards(2)
            .high_water(64)
            .ring_capacity(128)
            .offered_eps(30_000.0)
            .duration(SimDuration::from_secs(2))
            .seed(19)
            .metrics_interval(SimDuration::from_millis(100))
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        let all = r.obs.hists.get(HIST_ALL).expect("end-to-end histogram");
        let qw = r.obs.hists.get(HIST_QUEUE_WAIT).expect("queue-wait stage");
        let svc = r.obs.hists.get(HIST_SERVICE).expect("service stage");
        let tr = r.obs.hists.get(HIST_TRANSIT).expect("transit stage");
        // Every dispatched procedure contributes one sample per stage.
        assert_eq!(qw.count(), r.dispatched);
        assert_eq!(svc.count(), r.dispatched);
        assert_eq!(tr.count(), r.dispatched);
        // Exact per-sample consequence of qw + svc <= e2e, in u128: the
        // summed stage times can never exceed the summed end-to-end time.
        assert!(
            qw.sum() + svc.sum() <= all.sum(),
            "stage sums {} + {} exceed end-to-end {}",
            qw.sum(),
            svc.sum(),
            all.sum()
        );
        assert_eq!(qw.sum() + svc.sum() + tr.sum(), all.sum(), "stages tile");
        assert!(r.queue_wait_p99 > SimDuration::ZERO, "overload must queue");
        assert!(r.service_p99 > SimDuration::ZERO);
        assert!(r.queue_wait_p99 <= r.p99 && r.service_p99 <= r.p99);
        // The timeline's merged stage histograms see the same samples.
        let tl = r.timeline.as_ref().expect("timeline was requested");
        for stage in l25gc_obs::Stage::ALL {
            assert_eq!(tl.stage_latency(stage).count(), r.dispatched);
        }
    }

    #[test]
    fn trace_sampling_keeps_every_nth_ue_only() {
        let profiles = calibrate(Deployment::L25gc);
        let base = LoadConfig::builder()
            .ues(4_000)
            .offered_eps(500.0)
            .duration(SimDuration::from_secs(2))
            .seed(29);
        let off = Driver::new(base.clone().build().unwrap())
            .unwrap()
            .run(&profiles);
        assert!(
            off.obs.spans.spans().is_empty(),
            "no sampling, no driver spans"
        );
        let on = Driver::new(base.trace_sample(64).build().unwrap())
            .unwrap()
            .run(&profiles);
        let spans = on.obs.spans.spans();
        assert!(!spans.is_empty(), "sampled UEs leave spans");
        assert!(spans.iter().all(|s| s.ue % 64 == 0), "only every 64th UE");
        assert!(spans.iter().all(|s| s.end > s.start));
        // Sampling must not perturb the run itself.
        assert_eq!(off.dispatched, on.dispatched);
        assert_eq!(off.p99, on.p99);
    }

    #[test]
    fn fault_free_runs_carry_no_disruption_block() {
        let profiles = calibrate(Deployment::L25gc);
        let cfg = LoadConfig::builder()
            .ues(2_000)
            .offered_eps(100.0)
            .duration(SimDuration::from_secs(2))
            .seed(7)
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        assert!(r.disruption.is_none(), "no plan, no disruption block");
    }

    #[test]
    fn analytic_kill_run_reports_disruption_and_replays_backlog() {
        let profiles = calibrate(Deployment::L25gc);
        let plan = crate::fault::FaultPlan::parse("kill@1s:shard=0").unwrap();
        // High enough rate that shard 0 has work in flight at the kill;
        // Queue policy with wide rings so the outage loses nothing.
        let cfg = LoadConfig::builder()
            .ues(5_000)
            .shards(2)
            .offered_eps(5_000.0)
            .duration(SimDuration::from_secs(3))
            .seed(23)
            .policy(crate::shard::OverloadPolicy::Queue)
            .ring_capacity(1 << 15)
            .high_water(1 << 14)
            .fault(plan)
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        let d = r.disruption.expect("kill plan yields a disruption block");
        assert!(d.replayed > 0, "backlog crossed the kill and re-ran");
        assert!(d.detect_ms > 0.0 && d.reroute_ms > 0.0 && d.replay_ms > 0.0);
        // The measured span covers at least the charged failover window.
        let tl = fault_timeline();
        let charged = tl.total().as_millis_f64();
        assert!(
            d.disruption_ms >= charged,
            "measured {} < charged {}",
            d.disruption_ms,
            charged
        );
        // Queue policy: the outage loses nothing.
        assert_eq!(d.completions_lost, 0, "Queue is loss-free across a kill");
        assert_eq!(r.completed_total, r.dispatched);
    }

    #[test]
    fn analytic_fault_runs_are_seed_deterministic() {
        let profiles = calibrate(Deployment::L25gc);
        let build = || {
            LoadConfig::builder()
                .ues(4_000)
                .shards(2)
                .offered_eps(3_000.0)
                .duration(SimDuration::from_secs(3))
                .seed(31)
                .fault(crate::fault::FaultPlan::parse("kill@1s:shard=1").unwrap())
                .build()
                .unwrap()
        };
        let a = Driver::new(build()).unwrap().run(&profiles);
        let b = Driver::new(build()).unwrap().run(&profiles);
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.dispatched, b.dispatched);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.p50, b.p50);
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.disruption, b.disruption);
    }

    #[test]
    fn freeze_disruption_is_the_stall_span_with_no_failover_charge() {
        let profiles = calibrate(Deployment::L25gc);
        let plan = crate::fault::FaultPlan::parse("freeze@1s:shard=0,recover@1500ms").unwrap();
        let cfg = LoadConfig::builder()
            .ues(3_000)
            .shards(2)
            .offered_eps(1_000.0)
            .duration(SimDuration::from_secs(3))
            .seed(41)
            .fault(plan)
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        let d = r.disruption.expect("freeze plan yields a disruption block");
        assert_eq!(d.detect_ms, 0.0, "no failover fires for a stall");
        assert_eq!(d.reroute_ms, 0.0);
        assert_eq!(d.replay_ms, 0.0);
        assert_eq!(d.replayed, 0, "freeze floors, it does not replay");
        assert!(
            (d.disruption_ms - 500.0).abs() < 1e-6,
            "stall span is the scripted 500 ms, got {}",
            d.disruption_ms
        );
    }

    #[test]
    fn builder_rejects_bad_fault_plans() {
        let plan = crate::fault::FaultPlan::parse("kill@1s:shard=9").unwrap();
        let err = LoadConfig::builder()
            .shards(2)
            .fault(plan)
            .build()
            .unwrap_err();
        assert!(matches!(err, LoadError::BadFaultPlan(_)), "{err:?}");
        let late = crate::fault::FaultPlan::parse("kill@20s").unwrap();
        let err = LoadConfig::builder()
            .duration(SimDuration::from_secs(5))
            .fault(late)
            .build()
            .unwrap_err();
        assert!(matches!(err, LoadError::BadFaultPlan(_)), "{err:?}");
    }
}
