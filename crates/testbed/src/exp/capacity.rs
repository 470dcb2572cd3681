//! Capacity sweep: offered load × deployment over the `l25gc-load`
//! engine — the experiment the paper's evaluation stops short of.
//!
//! For each deployment the sweep first calibrates procedure profiles
//! (driving the real core once per procedure), derives the theoretical
//! shard-limited capacity `C = shards / mean_occupancy`, then runs
//! open-loop load points at fixed fractions of `C`. Each point reports
//! achieved events/s, latency quantiles (p50/p95/p99 from the log2
//! histograms), shed/backpressure counts, and shard utilisation.
//!
//! The sweep runs on either [`ExecBackend`]: `Analytic` (the default) is
//! seed-deterministic and produces the published byte-identical tables;
//! `Threaded` executes each point on one OS thread per shard over real
//! SPSC rings and additionally reports wall-clock sustained events/s
//! ([`CapacityPoint::wall_eps`]).
//!
//! **Health**: one `Budget` judges every point and every window; the
//! knee is the last healthy point, or none. Past the knee the open-loop
//! curve does what queueing theory says: latency departs for the
//! asymptote and admission control sheds the excess.
//!
//! Side studies share the calibration machinery: [`shard_scaling`]
//! walks shard counts and compares analytic achieved-rate scaling
//! against the threaded backend's wall-clock sustained rate;
//! [`saturation_search`] finds the closed-loop worker count where
//! throughput plateaus.

use l25gc_core::Deployment;
use l25gc_load::{
    calibrate, Driver, EventMix, ExecBackend, LoadConfig, LoadConfigBuilder, LoadReport,
    OverloadPolicy, ProfileSet, ShardConfig,
};
use l25gc_obs::{slo, MetricsTimeline, SloSpec, TraceBundle};
use l25gc_sim::SimDuration;

/// Offered-load fractions of theoretical capacity the sweep visits.
pub const SWEEP_FRACTIONS: [f64; 6] = [0.25, 0.5, 0.75, 0.9, 1.0, 1.2];

/// One sweep point.
#[derive(Debug, Clone, Default)]
pub struct CapacityPoint {
    /// Offered load, events/s.
    pub offered_eps: f64,
    /// Completed events/s within the horizon.
    pub achieved_eps: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// 99th percentile of the queue-wait stage (arrival → service), ms.
    pub queue_wait_p99_ms: f64,
    /// 99th percentile of the service stage (shard occupancy), ms.
    pub service_p99_ms: f64,
    /// 99th percentile of the completion-transit stage, ms.
    pub transit_p99_ms: f64,
    /// Percent of arrivals shed or backpressured.
    pub loss_pct: f64,
    /// Attached UEs at the end of the run.
    pub active_ues: usize,
    /// Mean shard CPU utilisation.
    pub utilisation: f64,
    /// Per-shard CPU-busy fraction over the horizon (0..1) — the
    /// utilization anatomy behind the mean above, comparable across
    /// backends.
    pub shard_utilization: Vec<f64>,
    /// Wall-clock sustained events/s (threaded backend only).
    pub wall_eps: Option<f64>,
}

impl CapacityPoint {
    fn from_report(offered_eps: f64, r: &LoadReport) -> CapacityPoint {
        let denom = r.offered.max(1) as f64;
        CapacityPoint {
            offered_eps,
            achieved_eps: r.achieved_eps,
            p50_ms: r.p50.as_millis_f64(),
            p95_ms: r.p95.as_millis_f64(),
            p99_ms: r.p99.as_millis_f64(),
            queue_wait_p99_ms: r.queue_wait_p99.as_millis_f64(),
            service_p99_ms: r.service_p99.as_millis_f64(),
            transit_p99_ms: r.transit_p99.as_millis_f64(),
            loss_pct: 100.0 * (r.shed + r.backpressure) as f64 / denom,
            active_ues: r.active_ues,
            utilisation: r.busy_fraction,
            shard_utilization: r.shard_utilization.clone(),
            wall_eps: r.wall.map(|w| w.sustained_eps),
        }
    }
}

/// One deployment's full load-latency curve.
#[derive(Debug, Clone)]
pub struct CapacityCurve {
    /// The deployment swept.
    pub deployment: Deployment,
    /// Mean per-procedure shard occupancy, ms (from calibration).
    pub mean_occupancy_ms: f64,
    /// The sweep points, in [`SWEEP_FRACTIONS`] order.
    pub points: Vec<CapacityPoint>,
    /// Index into `points` of the knee, the last healthy point; `None`
    /// when no point is healthy.
    pub knee: Option<usize>,
    /// Per-point metrics timelines, in [`SWEEP_FRACTIONS`] order
    /// (empty unless [`CapacityParams::metrics_interval_ms`] is set).
    pub timelines: Vec<MetricsTimeline>,
    /// Sampled spans/events of the knee point (of the lightest point
    /// when there is no knee), ready for the Chrome-trace exporter
    /// (`None` unless [`CapacityParams::trace_sample`] is set).
    pub knee_trace: Option<TraceBundle>,
}

impl CapacityCurve {
    /// The sustainable events/s: achieved rate at the knee.
    pub fn sustainable_eps(&self) -> Option<f64> {
        Some(self.points[self.knee?].achieved_eps)
    }

    /// p99 at the knee, ms.
    pub fn knee_p99_ms(&self) -> Option<f64> {
        Some(self.points[self.knee?].p99_ms)
    }

    /// Which shard saturated: index and busy fraction of the busiest
    /// shard at the knee point.
    pub fn peak_shard_at_knee(&self) -> Option<(u16, f64)> {
        let point = &self.points[self.knee?];
        Some(super::scenario::peak_shard_util(&point.shard_utilization))
    }
}

/// Sweep parameters (CLI-settable).
#[derive(Debug, Clone)]
pub struct CapacityParams {
    /// Fleet size per run.
    pub ues: usize,
    /// Worker shards.
    pub shards: u16,
    /// Horizon per sweep point, seconds.
    pub duration_s: f64,
    /// Master seed.
    pub seed: u64,
    /// Execution engine for each sweep point.
    pub backend: ExecBackend,
    /// MMPP-2 burstiness ratio (1.0 = Poisson).
    pub burst: f64,
    /// When set, [`saturation_search`] probes up to this many
    /// closed-loop workers.
    pub workers: Option<usize>,
    /// Closed-loop mean think time, ms.
    pub think_ms: f64,
    /// When set, every run carries a per-shard metrics timeline
    /// snapshotting at this interval.
    pub metrics_interval_ms: Option<f64>,
    /// Span sampling stride: keep every Nth UE's spans (0 = off).
    pub trace_sample: u64,
    /// Pin threaded workers (and the dispatcher, when a core is spare)
    /// to distinct physical cores. Best-effort; ignored by the analytic
    /// backend.
    pub pin: bool,
    /// How many times [`shard_scaling`] reruns each threaded point to
    /// estimate the mean ± CV of wall-clock `sustained_eps` (min 1).
    pub repeats: usize,
    /// Staged-dispatch burst size for the threaded backend (1 =
    /// per-event dispatch). Virtual-time results are identical at every
    /// size when unshed; only the wall-clock columns move.
    pub dispatch_batch: usize,
    /// Serve a live `GET /metrics` endpoint on this address while the
    /// sweep runs (requires [`CapacityParams::metrics_interval_ms`];
    /// silently unused without it). All sweep points publish into one
    /// shared server keyed by this requested address.
    pub serve_metrics: Option<String>,
}

impl Default for CapacityParams {
    fn default() -> CapacityParams {
        CapacityParams {
            ues: 1_000_000,
            shards: 4,
            duration_s: 10.0,
            seed: 0,
            backend: ExecBackend::Analytic,
            burst: 1.0,
            workers: None,
            think_ms: 10.0,
            metrics_interval_ms: None,
            trace_sample: 0,
            pin: false,
            repeats: 1,
            dispatch_batch: 1,
            serve_metrics: None,
        }
    }
}

/// Distinct deterministic seed per point (and per deployment, via the
/// calibration-independent tag), preserved exactly from the original
/// sweep so analytic output stays byte-identical across releases.
fn point_seed(params: &CapacityParams, deployment: Deployment, i: usize) -> u64 {
    params
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(match deployment {
            Deployment::Free5gc => 101,
            Deployment::OnvmUpf => 202,
            Deployment::L25gc => 303,
        })
        .wrapping_add(i as u64)
}

fn base_builder(params: &CapacityParams, mix: &EventMix) -> LoadConfigBuilder {
    let mut b = LoadConfig::builder()
        .ues(params.ues)
        .shard_cfg(ShardConfig {
            shards: params.shards,
            high_water: 192,
            policy: OverloadPolicy::Shed,
            ring_capacity: 256,
        })
        .mix(mix.clone())
        .burst(params.burst)
        .duration(SimDuration::from_secs_f64(params.duration_s))
        .backend(params.backend)
        .trace_sample(params.trace_sample)
        .pin(params.pin)
        .dispatch_batch(params.dispatch_batch.max(1));
    if let Some(ms) = params.metrics_interval_ms {
        b = b.metrics_interval(SimDuration::from_secs_f64(ms / 1e3));
        // A live endpoint needs windows to publish, so it rides the
        // interval's presence.
        if let Some(addr) = &params.serve_metrics {
            b = b.serve_metrics(addr.clone());
        }
    }
    b
}

fn run(cfg: LoadConfig, profiles: &ProfileSet) -> LoadReport {
    Driver::new(cfg)
        .expect("capacity sweep builds valid configs")
        .run(profiles)
}

/// Sweeps one deployment.
pub fn sweep_deployment(deployment: Deployment, params: &CapacityParams) -> CapacityCurve {
    let profiles: ProfileSet = calibrate(deployment);
    let mix = EventMix::default();
    let occ = profiles.mean_occupancy(&mix.weights);
    let capacity_eps = f64::from(params.shards) / occ.as_secs_f64();

    let mut points = Vec::with_capacity(SWEEP_FRACTIONS.len());
    let mut timelines = Vec::new();
    let mut traces = Vec::new();
    for (i, frac) in SWEEP_FRACTIONS.iter().enumerate() {
        let offered = capacity_eps * frac;
        let cfg = base_builder(params, &mix)
            .offered_eps(offered)
            .seed(point_seed(params, deployment, i))
            .build()
            .expect("sweep point config is valid");
        let mut r = run(cfg, &profiles);
        points.push(CapacityPoint::from_report(offered, &r));
        if let Some(tl) = r.timeline.take() {
            timelines.push(tl);
        }
        if params.trace_sample > 0 {
            let mut bundle = TraceBundle::new();
            r.obs.drain_into(&mut bundle);
            bundle.sort();
            traces.push(bundle);
        }
    }
    let knee = knee(&points);
    let knee_trace = (!traces.is_empty()).then(|| traces.swap_remove(knee.unwrap_or(0)));
    CapacityCurve {
        deployment,
        mean_occupancy_ms: occ.as_millis_f64(),
        points,
        knee,
        timelines,
        knee_trace,
    }
}

/// Batch sizes the staged-dispatch ladder visits.
pub const DISPATCH_BATCHES: [usize; 4] = [1, 8, 32, 128];

/// Offered rate the dispatch ladder drives, events/s. Deliberately far
/// past the calibrated shard capacity: the open-loop dispatcher replays
/// virtual arrivals at wall speed, so a saturating rate makes the
/// dispatch plane itself — routing, staging, ring crossings, wakeups —
/// the wall-clock bottleneck, and gives staged bursts arrival gaps
/// tight enough to genuinely fill every configured batch size instead
/// of deadline-flushing singles.
pub const DISPATCH_OFFERED_EPS: f64 = 20_000.0;

/// Reruns one threaded L25GC point at every batch size in
/// [`DISPATCH_BATCHES`], holding seed and offered load
/// ([`DISPATCH_OFFERED_EPS`]) fixed. The runs use the Queue policy with
/// wide rings so admission control — which reads *wall-clock* ring
/// occupancy — never engages: that is what makes every virtual-time
/// column byte-identical across the ladder (the latency columns are
/// backlog-dominated by construction — this is a dispatcher stress, not
/// a latency claim), leaving [`CapacityPoint::wall_eps`] as the only
/// column batching is allowed to move.
pub fn dispatch_ladder(params: &CapacityParams) -> Vec<(usize, CapacityPoint)> {
    let deployment = Deployment::L25gc;
    let profiles: ProfileSet = calibrate(deployment);
    let mix = EventMix::default();
    let offered = DISPATCH_OFFERED_EPS;
    DISPATCH_BATCHES
        .iter()
        .map(|&batch| {
            let cfg = LoadConfig::builder()
                .ues(params.ues)
                .shard_cfg(ShardConfig {
                    shards: params.shards,
                    high_water: 1 << 14,
                    policy: OverloadPolicy::Queue,
                    ring_capacity: 1 << 15,
                })
                .mix(mix.clone())
                .burst(params.burst)
                .offered_eps(offered)
                .duration(SimDuration::from_secs_f64(params.duration_s))
                .seed(point_seed(params, deployment, 0))
                .backend(ExecBackend::Threaded)
                .pin(params.pin)
                .dispatch_batch(batch)
                .build()
                .expect("dispatch ladder config is valid");
            let point = CapacityPoint::from_report(offered, &run(cfg, &profiles));
            (batch, point)
        })
        .collect()
}

/// The one health verdict of a sweep, built from its lightest point. A
/// point passes on its whole-run loss, achieved share and p99; a window
/// passes [`Budget::window`]: no shed, and the same p99 limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Budget {
    /// The window verdict; its `p99_budget_ns` is the whole-run limit too.
    pub(crate) window: SloSpec,
}

impl Budget {
    /// Whole-run loss (shed + backpressure) must stay under this, percent.
    const MAX_LOSS_PCT: f64 = 1.0;
    /// Share of the offered rate a point must achieve.
    const MIN_ACHIEVED: f64 = 0.90;
    /// The p99 limit as a multiple of the lightest point's p99.
    const P99_FACTOR: u64 = 3;

    /// The budget of a sweep whose lightest point is `points[0]`.
    pub(crate) fn of(points: &[CapacityPoint]) -> Budget {
        let base_ns = points.first().map_or(0, |p| ms_to_ns(p.p99_ms)).max(1);
        Budget {
            window: SloSpec::new(base_ns.saturating_mul(Self::P99_FACTOR), 0.0),
        }
    }

    /// Whether a point's whole-run numbers pass.
    pub(crate) fn passes(&self, p: &CapacityPoint) -> bool {
        p.loss_pct < Self::MAX_LOSS_PCT
            && p.achieved_eps >= Self::MIN_ACHIEVED * p.offered_eps
            && ms_to_ns(p.p99_ms) <= self.window.p99_budget_ns
    }
}

/// A quantile back in the integer nanoseconds it was measured in.
fn ms_to_ns(ms: f64) -> u64 {
    (ms * 1e6).round() as u64
}

/// The knee: the last point `Budget::of(points)` passes, or `None`
/// when none does. `reproduce report` applies it to a manifest's rows.
pub fn knee(points: &[CapacityPoint]) -> Option<usize> {
    let budget = Budget::of(points);
    points.iter().rposition(|p| budget.passes(p))
}

/// What first pushed a run past its budget inside a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KneeReason {
    /// Admission control started shedding in this window.
    SheddingStarted,
    /// The window's p99 crossed the sweep's p99 limit.
    P99OverBudget,
}

/// Where overload first shows *inside* a run, from the per-window
/// timelines — finer-grained than the whole-run-aggregate knee, which
/// can hide a late-run collapse behind healthy whole-run averages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineKnee {
    /// Index into [`CapacityCurve::points`] of the first distressed run.
    pub point: usize,
    /// Window index within that run where distress first appears.
    pub window: usize,
    /// Virtual-time start of that window, seconds into the run.
    pub at_s: f64,
    /// What was detected.
    pub reason: KneeReason,
    /// The window's p99 (ms) when [`KneeReason::P99OverBudget`], or the
    /// percent of its arrivals shed when [`KneeReason::SheddingStarted`].
    pub value: f64,
}

/// The first window, scanning the sweep points in offered-load order,
/// that `Budget::window` marks violated. `None` when the sweep carried
/// no timelines or every window stayed healthy.
pub fn timeline_knee(curve: &CapacityCurve) -> Option<TimelineKnee> {
    let spec = Budget::of(&curve.points).window;
    curve.timelines.iter().enumerate().find_map(|(point, tl)| {
        let report = slo::evaluate(tl, &spec);
        let w = report.windows.iter().find(|w| w.violated)?;
        let (reason, value) = if w.shed_pct > 0.0 {
            (KneeReason::SheddingStarted, w.shed_pct)
        } else {
            (KneeReason::P99OverBudget, w.p99_ns as f64 / 1e6)
        };
        Some(TimelineKnee {
            point,
            window: w.window,
            at_s: w.window as f64 * tl.interval().as_secs_f64(),
            reason,
            value,
        })
    })
}

/// Which latency stage dominates the tail past the knee — the anatomy of
/// the knee itself.
///
/// Open-loop overload can blow the tail up two different ways: arrivals
/// stack up behind a busy shard (queue-wait dominates — the classic
/// M/G/1 departure for the asymptote), or the procedure mix itself got
/// slower per event (service dominates — a calibration or profile
/// regression, not congestion). Distinguishing the two from the
/// per-stage p99s turns "p99 went up" into an actionable diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KneeAnatomy {
    /// Queue-wait p99 exceeds service p99 past the knee: the tail is
    /// congestion, and shedding/backpressure tuning is the lever.
    WaitDominated,
    /// Service p99 is still the bigger stage past the knee: the tail is
    /// the work itself, and only faster procedures move it.
    ServiceDominated,
}

impl std::fmt::Display for KneeAnatomy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KneeAnatomy::WaitDominated => "wait-dominated",
            KneeAnatomy::ServiceDominated => "service-dominated",
        })
    }
}

/// Classifies the first point past `knee` (the knee itself when nothing
/// lies past it; the lightest point when there is no knee) by its
/// dominant latency stage. Returns the verdict and the point it read.
pub fn knee_anatomy(points: &[CapacityPoint], knee: Option<usize>) -> (KneeAnatomy, usize) {
    let idx = knee.map_or(0, |k| (k + 1).min(points.len().saturating_sub(1)));
    let p = &points[idx];
    let anatomy = if p.queue_wait_p99_ms > p.service_p99_ms {
        KneeAnatomy::WaitDominated
    } else {
        KneeAnatomy::ServiceDominated
    };
    (anatomy, idx)
}

/// The full experiment: Free5GC (kernel/HTTP) vs L²5GC (shm).
pub fn sweep(params: &CapacityParams) -> Vec<CapacityCurve> {
    vec![
        sweep_deployment(Deployment::Free5gc, params),
        sweep_deployment(Deployment::L25gc, params),
    ]
}

/// At the baseline's knee-p99 operating budget, the events/s each system
/// sustains — the "equal p99" comparison line. `None` without a free5GC
/// knee.
pub fn equal_p99_comparison(curves: &[CapacityCurve]) -> Option<(f64, f64, f64)> {
    let free = curves
        .iter()
        .find(|c| c.deployment == Deployment::Free5gc)?;
    let l25 = curves.iter().find(|c| c.deployment == Deployment::L25gc)?;
    let budget_ms = free.knee_p99_ms()?;
    // Highest achieved rate whose p99 fits the budget, per system.
    let best_under = |c: &CapacityCurve| {
        c.points
            .iter()
            .filter(|p| p.p99_ms <= budget_ms && p.loss_pct < Budget::MAX_LOSS_PCT)
            .map(|p| p.achieved_eps)
            .fold(0.0f64, f64::max)
    };
    Some((budget_ms, best_under(free), best_under(l25)))
}

/// One row of the shard-count scaling study.
#[derive(Debug, Clone)]
pub struct ShardScalingRow {
    /// Shard / worker-thread count.
    pub shards: u16,
    /// Offered load (0.9× that shard count's capacity), events/s.
    pub offered_eps: f64,
    /// Analytic backend's achieved events/s.
    pub analytic_eps: f64,
    /// Analytic p99, ms.
    pub analytic_p99_ms: f64,
    /// Mean wall-clock sustained events/s over
    /// [`CapacityParams::repeats`] threaded reruns of this point.
    pub threaded_wall_eps: f64,
    /// Coefficient of variation of `sustained_eps` across the reruns,
    /// percent (0 when `repeats == 1`). The stability metric pinning and
    /// the wait ladder exist to drive down.
    pub wall_cv_pct: f64,
    /// Threaded reruns behind the mean ± CV.
    pub repeats: usize,
    /// Threaded backend's achieved (virtual-time) events/s — identical
    /// across reruns, which share the seed.
    pub threaded_eps: f64,
}

/// Mean and coefficient of variation (percent) of a sample.
fn mean_cv_pct(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    if samples.len() < 2 || mean <= 0.0 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    (mean, 100.0 * var.sqrt() / mean)
}

/// Walks doubling shard counts in `[lo, hi]`, running each point on both
/// backends at 0.9× that shard count's capacity: the analytic column is
/// the model's scaling limit, the threaded column is what one OS thread
/// per shard over real SPSC rings actually moves per wall-clock second.
/// Each threaded point reruns [`CapacityParams::repeats`] times (same
/// seed — the virtual workload is identical, only the wall clock
/// varies) and reports mean ± CV of `sustained_eps`.
pub fn shard_scaling(params: &CapacityParams, lo: u16, hi: u16) -> Vec<ShardScalingRow> {
    let deployment = Deployment::L25gc;
    let profiles = calibrate(deployment);
    let mix = EventMix::default();
    let occ = profiles.mean_occupancy(&mix.weights).as_secs_f64();
    let repeats = params.repeats.max(1);

    let mut rows = Vec::new();
    let mut shards = lo.max(1);
    while shards <= hi.max(1) {
        let offered = f64::from(shards) / occ * 0.9;
        let scaled = CapacityParams {
            shards,
            ..params.clone()
        };
        let seed = point_seed(&scaled, deployment, 700 + shards as usize);
        let mk = |backend: ExecBackend| {
            base_builder(&scaled, &mix)
                .backend(backend)
                .offered_eps(offered)
                .seed(seed)
                .build()
                .expect("scaling config is valid")
        };
        let a = run(mk(ExecBackend::Analytic), &profiles);
        let mut walls = Vec::with_capacity(repeats);
        let mut threaded_eps = 0.0;
        for _ in 0..repeats {
            let t = run(mk(ExecBackend::Threaded), &profiles);
            walls.push(t.wall.map(|w| w.sustained_eps).unwrap_or(0.0));
            threaded_eps = t.achieved_eps;
        }
        let (wall_mean, wall_cv_pct) = mean_cv_pct(&walls);
        rows.push(ShardScalingRow {
            shards,
            offered_eps: offered,
            analytic_eps: a.achieved_eps,
            analytic_p99_ms: a.p99.as_millis_f64(),
            threaded_wall_eps: wall_mean,
            wall_cv_pct,
            repeats,
            threaded_eps,
        });
        shards = shards.saturating_mul(2);
    }
    rows
}

/// What a [`saturation_search`] ran and found.
#[derive(Debug, Clone)]
pub struct Saturation {
    /// Every closed-loop run, `(workers, point)`, by worker count.
    pub probes: Vec<(usize, CapacityPoint)>,
    /// Index into `probes` of the first count on the throughput plateau.
    pub plateau: usize,
}

/// Closed-loop saturation search on L25GC: instead of sweeping fixed
/// fractions of a guessed maximum, find the worker count where achieved
/// events/s plateaus. Doubling probes climb until a doubling buys < 2%
/// more throughput (or `max_workers` is hit); a binary search then pins
/// the smallest count achieving ≥ 98% of the plateau rate. Deterministic:
/// each worker count probes with a seed derived from the count, so
/// re-probing a count replays the identical run.
pub fn saturation_search(params: &CapacityParams, max_workers: usize) -> Saturation {
    let deployment = Deployment::L25gc;
    let profiles = calibrate(deployment);
    let mix = EventMix::default();
    let think = SimDuration::from_secs_f64(params.think_ms.max(0.001) / 1e3);
    let max_workers = max_workers.max(1);

    let mut probes: Vec<(usize, CapacityPoint)> = Vec::new();
    // Achieved events/s at `workers`, running each count once.
    let mut probe = |workers: usize| -> f64 {
        if let Some((_, p)) = probes.iter().find(|(w, _)| *w == workers) {
            return p.achieved_eps;
        }
        let cfg = base_builder(params, &mix)
            .closed_loop(workers, think)
            .seed(point_seed(params, deployment, 2_000 + workers))
            .build()
            .expect("saturation probe config is valid");
        let r = run(cfg, &profiles);
        let p = CapacityPoint::from_report(r.offered as f64 / params.duration_s, &r);
        probes.push((workers, p));
        r.achieved_eps
    };

    // Exponential climb: stop when a doubling buys < 2%.
    const PLATEAU_GAIN: f64 = 1.02;
    let mut below = probe(1);
    let mut lo = 1usize;
    let mut hi = lo;
    while hi < max_workers {
        let next = (hi * 2).min(max_workers);
        let eps = probe(next);
        if eps < below * PLATEAU_GAIN {
            hi = next;
            break;
        }
        lo = next;
        below = eps;
        hi = next;
    }
    // The plateau rate is the best seen; binary search for the smallest
    // count in (lo, hi] achieving 98% of it. If the climb never
    // plateaued, lo == hi == max_workers and the loop is skipped.
    let target = 0.98 * below.max(probe(hi));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if probe(mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let found = if probe(lo) >= target { lo } else { hi };
    probes.sort_by_key(|(w, _)| *w);
    let plateau = probes.iter().position(|(w, _)| *w == found);
    let plateau = plateau.expect("the search probed the count it found");
    Saturation { probes, plateau }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> CapacityParams {
        CapacityParams {
            ues: 20_000,
            shards: 4,
            duration_s: 5.0,
            seed: 0,
            ..CapacityParams::default()
        }
    }

    #[test]
    fn sweep_produces_curves_with_knees() {
        let curves = sweep(&small_params());
        assert_eq!(curves.len(), 2);
        for c in &curves {
            assert_eq!(c.points.len(), SWEEP_FRACTIONS.len());
            let knee = c.knee.expect("a light sweep has a healthy point");
            assert!(knee < c.points.len());
            // The lightest point must be healthy; the knee can't be 0
            // unless everything past it overloaded.
            assert!(c.points[0].loss_pct < 1.0, "{:?}", c.deployment);
            // Latency is monotone-ish: the heaviest point's p99 is at
            // least the lightest point's.
            let first = c.points.first().unwrap().p99_ms;
            let last = c.points.last().unwrap().p99_ms;
            assert!(last >= first * 0.99, "{:?}: {first} → {last}", c.deployment);
            // Analytic points carry no wall-clock column.
            assert!(c.points.iter().all(|p| p.wall_eps.is_none()));
            // Every point reports its stage anatomy, and the stages can
            // never exceed the end-to-end tail they decompose.
            for p in &c.points {
                assert!(p.service_p99_ms > 0.0, "service stage always runs");
                assert!(p.queue_wait_p99_ms <= p.p99_ms + 1e-9);
                assert!(p.service_p99_ms <= p.p99_ms + 1e-9);
            }
            // Past the knee the tail must be congestion, not slower
            // procedures: the sweep holds the profiles fixed.
            assert_eq!(
                knee_anatomy(&c.points, c.knee).0,
                KneeAnatomy::WaitDominated
            );
            // Utilization anatomy: one busy fraction per shard at every
            // point, and the knee names its busiest shard.
            for p in &c.points {
                assert_eq!(p.shard_utilization.len(), 4, "{:?}", c.deployment);
                assert!(p.shard_utilization.iter().all(|&u| u > 0.0 && u <= 1.0));
            }
            let (peak_shard, peak_util) = c.peak_shard_at_knee().expect("knee above");
            assert!(peak_shard < 4);
            assert_eq!(
                peak_util,
                c.points[knee]
                    .shard_utilization
                    .iter()
                    .cloned()
                    .fold(0.0, f64::max)
            );
        }
    }

    #[test]
    fn slo_reports_cover_every_sweep_point_and_find_the_overload() {
        let params = CapacityParams {
            ues: 20_000,
            duration_s: 2.0,
            metrics_interval_ms: Some(100.0),
            ..small_params()
        };
        let curve = sweep_deployment(Deployment::L25gc, &params);
        // The knee's p99 limit with some shed allowed: light points hold
        // it, the 1.2× point cannot.
        let budget_ns = Budget::of(&curve.points).window.p99_budget_ns;
        let spec = SloSpec::new(budget_ns, 0.5);
        let slo_reports = |c: &CapacityCurve, spec: &SloSpec| -> Vec<slo::SloReport> {
            c.timelines
                .iter()
                .map(|tl| slo::evaluate(tl, spec))
                .collect()
        };
        let reports = slo_reports(&curve, &spec);
        assert_eq!(reports.len(), SWEEP_FRACTIONS.len());
        let first = &reports[0];
        assert_eq!(first.violating_windows, 0, "lightest point holds the SLO");
        assert_eq!(first.recovery_windows, Some(0));
        let last = reports.last().unwrap();
        assert!(
            last.violating_windows > 0,
            "1.2× capacity must violate the knee budget"
        );
        assert!(last.burn_rate > first.burn_rate);
        // Recovery (or its horizon clamp) is always reportable.
        assert!(last.recovery_ns_or_horizon() > 0);
        // No timelines, no reports.
        let plain = sweep_deployment(Deployment::L25gc, &small_params());
        assert!(slo_reports(&plain, &spec).is_empty());
    }

    #[test]
    fn threaded_points_also_report_stage_anatomy() {
        let params = CapacityParams {
            ues: 10_000,
            duration_s: 1.0,
            backend: ExecBackend::Threaded,
            ..small_params()
        };
        let curve = sweep_deployment(Deployment::L25gc, &params);
        for p in &curve.points {
            assert!(p.service_p99_ms > 0.0, "threaded stage hists merged");
            assert!(p.service_p99_ms <= p.p99_ms + 1e-9);
        }
        assert_eq!(
            knee_anatomy(&curve.points, curve.knee).0,
            KneeAnatomy::WaitDominated
        );
    }

    #[test]
    fn l25gc_sustains_strictly_more_than_free5gc_at_equal_p99() {
        let curves = sweep(&small_params());
        let (budget, free_eps, l25_eps) =
            equal_p99_comparison(&curves).expect("both curves present");
        assert!(budget > 0.0);
        assert!(
            l25_eps > free_eps,
            "L25GC {l25_eps} must beat free5GC {free_eps} at p99 ≤ {budget} ms"
        );
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let a = sweep(&small_params());
        let b = sweep(&small_params());
        for (ca, cb) in a.iter().zip(&b) {
            for (pa, pb) in ca.points.iter().zip(&cb.points) {
                assert_eq!(pa.achieved_eps, pb.achieved_eps);
                assert_eq!(pa.p99_ms, pb.p99_ms);
                assert_eq!(pa.loss_pct, pb.loss_pct);
            }
            assert_eq!(ca.knee, cb.knee);
        }
    }

    #[test]
    fn threaded_sweep_reports_wall_clock() {
        let params = CapacityParams {
            ues: 10_000,
            duration_s: 1.0,
            backend: ExecBackend::Threaded,
            ..small_params()
        };
        let curve = sweep_deployment(Deployment::L25gc, &params);
        for p in &curve.points {
            let wall = p.wall_eps.expect("threaded points carry wall stats");
            assert!(wall > 0.0);
        }
    }

    #[test]
    fn sweep_collects_timelines_and_knee_trace_when_requested() {
        let params = CapacityParams {
            ues: 10_000,
            duration_s: 1.0,
            metrics_interval_ms: Some(100.0),
            trace_sample: 64,
            ..small_params()
        };
        let curve = sweep_deployment(Deployment::L25gc, &params);
        assert_eq!(curve.timelines.len(), SWEEP_FRACTIONS.len());
        for (p, tl) in curve.points.iter().zip(&curve.timelines) {
            assert_eq!(tl.shards(), params.shards);
            // Per-window dispatch counts sum back to the point's rate.
            let total = tl.dispatched_total();
            assert!(total > 0, "point at {} eps recorded nothing", p.offered_eps);
            assert!(tl.window_count() >= 9, "1 s / 100 ms windows");
        }
        let trace = curve.knee_trace.as_ref().expect("trace was requested");
        assert!(!trace.spans.is_empty(), "knee point carries sampled spans");
        assert!(trace.spans.iter().all(|s| s.ue % 64 == 0));

        // Off by default: no timelines, no trace.
        let plain = sweep_deployment(Deployment::L25gc, &small_params());
        assert!(plain.timelines.is_empty());
        assert!(plain.knee_trace.is_none());
    }

    #[test]
    fn shard_scaling_covers_both_backends() {
        let params = CapacityParams {
            ues: 10_000,
            duration_s: 1.0,
            ..small_params()
        };
        let rows = shard_scaling(&params, 1, 4);
        assert_eq!(rows.len(), 3, "1, 2, 4 shards");
        for r in &rows {
            assert!(r.analytic_eps > 0.0);
            assert!(r.threaded_wall_eps > 0.0);
        }
        // More shards must buy more analytic throughput (offered scales
        // with capacity and the knee sits below it).
        assert!(rows[2].analytic_eps > rows[0].analytic_eps);
    }

    #[test]
    fn shard_scaling_repeats_report_mean_and_cv() {
        let params = CapacityParams {
            ues: 10_000,
            duration_s: 0.5,
            repeats: 3,
            ..small_params()
        };
        let rows = shard_scaling(&params, 1, 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.repeats, 3);
            assert!(r.threaded_wall_eps > 0.0, "mean over reruns");
            assert!(r.wall_cv_pct >= 0.0);
            assert!(
                r.threaded_eps > 0.0,
                "virtual-time rate identical across reruns"
            );
        }
        // repeats = 1 degenerates to a zero CV.
        let single = shard_scaling(
            &CapacityParams {
                repeats: 1,
                ..params
            },
            1,
            1,
        );
        assert_eq!(single[0].wall_cv_pct, 0.0);
    }

    #[test]
    fn mean_cv_handles_degenerate_samples() {
        assert_eq!(mean_cv_pct(&[]), (0.0, 0.0));
        assert_eq!(mean_cv_pct(&[5.0]), (5.0, 0.0));
        let (m, cv) = mean_cv_pct(&[10.0, 10.0, 10.0]);
        assert_eq!((m, cv), (10.0, 0.0));
        let (m, cv) = mean_cv_pct(&[9.0, 11.0]);
        assert_eq!(m, 10.0);
        assert!((cv - 10.0).abs() < 1e-9, "stddev 1 on mean 10 = 10%");
    }

    #[test]
    fn timeline_knee_finds_first_distressed_window() {
        let params = CapacityParams {
            ues: 20_000,
            duration_s: 2.0,
            metrics_interval_ms: Some(100.0),
            ..small_params()
        };
        let curve = sweep_deployment(Deployment::L25gc, &params);
        let knee = timeline_knee(&curve).expect("1.2× capacity point must distress some window");
        assert!(knee.point < curve.points.len());
        assert!(knee.window < curve.timelines[knee.point].window_count());
        // Windows can run past the nominal horizon while in-flight work
        // drains, so only the window-index arithmetic is exact.
        assert!((knee.at_s - knee.window as f64 * 0.1).abs() < 1e-9);
        assert!(knee.value > 0.0);
        // The aggregate knee says "last healthy point"; the timeline knee
        // points at the first *unhealthy* one, so it can't sit before it.
        assert!(
            Some(knee.point) >= curve.knee,
            "timeline knee {} vs aggregate {:?}",
            knee.point,
            curve.knee
        );
        // Without timelines there is nothing to scan.
        let plain = sweep_deployment(Deployment::L25gc, &small_params());
        assert!(timeline_knee(&plain).is_none());
    }

    #[test]
    fn saturation_search_finds_plateau_start() {
        let params = CapacityParams {
            ues: 10_000,
            duration_s: 2.0,
            ..small_params()
        };
        let sat = saturation_search(&params, 256);
        let (workers, at) = &sat.probes[sat.plateau];
        assert!(*workers >= 1 && *workers <= 256);
        assert!(at.achieved_eps > 0.0);
        assert!(sat.probes.len() >= 2, "search must actually probe");
        // The found count really is on the plateau: doubling it (within
        // bounds) buys < 5% more throughput.
        let think = SimDuration::from_secs_f64(params.think_ms / 1e3);
        let mix = EventMix::default();
        let profiles = calibrate(Deployment::L25gc);
        let double = (workers * 2).min(256);
        let cfg = base_builder(&params, &mix)
            .closed_loop(double, think)
            .seed(point_seed(&params, Deployment::L25gc, 2_000 + double))
            .build()
            .unwrap();
        let r = run(cfg, &profiles);
        assert!(
            r.achieved_eps <= at.achieved_eps * 1.05,
            "doubling {} → {} buys {} vs {}",
            workers,
            double,
            r.achieved_eps,
            at.achieved_eps
        );
        // Deterministic: same params, same answer.
        let again = saturation_search(&params, 256);
        assert_eq!(again.probes[again.plateau].0, *workers);
        assert_eq!(again.probes[again.plateau].1.achieved_eps, at.achieved_eps);
    }

    #[test]
    fn saturation_probe_table_is_sorted_and_holds_the_plateau() {
        let params = CapacityParams {
            ues: 10_000,
            duration_s: 2.0,
            ..small_params()
        };
        let sat = saturation_search(&params, 32);
        let workers: Vec<usize> = sat.probes.iter().map(|(w, _)| *w).collect();
        assert!(workers.windows(2).all(|w| w[0] < w[1]), "{workers:?}");
        assert_eq!(workers.first(), Some(&1), "the climb starts at one worker");
        assert!(*workers.last().unwrap() <= 32, "capped: {workers:?}");
        assert!(sat.plateau < sat.probes.len());
        assert!(sat.probes.iter().all(|(_, p)| p.achieved_eps > 0.0));
        // More workers never reduce throughput by much (self-limiting).
        let (first, last) = (&sat.probes[0].1, &sat.probes.last().unwrap().1);
        assert!(last.achieved_eps >= first.achieved_eps * 0.9);
    }

    fn point(offered_eps: f64, achieved_eps: f64, p99_ms: f64, loss_pct: f64) -> CapacityPoint {
        CapacityPoint {
            offered_eps,
            achieved_eps,
            p99_ms,
            loss_pct,
            ..CapacityPoint::default()
        }
    }

    #[test]
    fn knee_is_none_when_no_point_is_healthy() {
        // Each point fails one rule: achieved share, loss, p99 limit.
        let points = [
            point(10.0, 5.0, 100.0, 0.0),
            point(20.0, 20.0, 100.0, 2.0),
            point(30.0, 30.0, 301.0, 0.0),
        ];
        assert_eq!(knee(&points), None);
        assert_eq!(knee(&[]), None);
        // The p99 limit is inclusive and in whole nanoseconds.
        let budget = Budget::of(&points);
        assert_eq!(budget.window.p99_budget_ns, 300_000_000);
        assert_eq!(budget.window.shed_budget_pct, 0.0);
        assert!(budget.passes(&point(30.0, 30.0, 300.0, 0.0)));
        // The knee is the last passing point, not the last of a run.
        let points = [
            points[0].clone(),
            point(20.0, 20.0, 250.0, 0.0),
            points[2].clone(),
        ];
        assert_eq!(knee(&points), Some(1));
        let curve = CapacityCurve {
            deployment: Deployment::L25gc,
            mean_occupancy_ms: 1.0,
            points: vec![points[0].clone()],
            knee: None,
            timelines: Vec::new(),
            knee_trace: None,
        };
        assert_eq!(curve.sustainable_eps(), None);
        assert_eq!(curve.peak_shard_at_knee(), None);
        // Without a knee the anatomy reads the lightest point.
        assert_eq!(knee_anatomy(&points, None).1, 0);
        assert_eq!(knee_anatomy(&points, Some(1)).1, 2);
        assert_eq!(knee_anatomy(&points, Some(2)).1, 2);
    }

    #[test]
    fn equal_p99_needs_a_free5gc_knee() {
        let curve = |deployment, knee| CapacityCurve {
            deployment,
            mean_occupancy_ms: 1.0,
            points: vec![point(10.0, 10.0, 100.0, 0.0)],
            knee,
            timelines: Vec::new(),
            knee_trace: None,
        };
        let both = [
            curve(Deployment::Free5gc, None),
            curve(Deployment::L25gc, Some(0)),
        ];
        assert_eq!(equal_p99_comparison(&both), None);
        let both = [
            curve(Deployment::Free5gc, Some(0)),
            curve(Deployment::L25gc, None),
        ];
        assert_eq!(equal_p99_comparison(&both), Some((100.0, 10.0, 10.0)));
    }

    #[test]
    fn dispatch_ladder_moves_only_the_wall_clock_column() {
        let params = CapacityParams {
            ues: 5_000,
            shards: 2,
            duration_s: 1.0,
            ..small_params()
        };
        let ladder = dispatch_ladder(&params);
        assert_eq!(ladder.len(), DISPATCH_BATCHES.len());
        assert_eq!(ladder[0].0, 1, "ladder starts at per-event dispatch");
        let base = &ladder[0].1;
        assert_eq!(base.loss_pct, 0.0, "ladder config must stay unshed");
        for (batch, p) in &ladder {
            // Virtual-time truth is batch-invariant: exact counts and
            // exact quantiles, not tolerances.
            assert_eq!(p.achieved_eps, base.achieved_eps, "batch={batch}");
            assert_eq!(p.p50_ms, base.p50_ms, "batch={batch}");
            assert_eq!(p.p99_ms, base.p99_ms, "batch={batch}");
            assert_eq!(p.queue_wait_p99_ms, base.queue_wait_p99_ms);
            assert_eq!(p.service_p99_ms, base.service_p99_ms);
            assert_eq!(p.loss_pct, 0.0);
            // The threaded backend always reports its wall-clock rate.
            assert!(p.wall_eps.is_some(), "batch={batch}");
        }
    }
}
