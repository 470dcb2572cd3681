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
//! **Knee detection**: the sustainable rate is the last sweep point that
//! (a) sheds < 1% of arrivals, (b) achieves ≥ 90% of its offered rate,
//! and (c) keeps p99 under 3× the lightest point's p99. Past the knee
//! the open-loop curve does what queueing theory says: latency departs
//! for the asymptote and admission control sheds the excess.
//!
//! Satellite studies share the calibration machinery:
//! [`burst_policy_table`] crosses MMPP-2 burstiness against the
//! admission policy at a fixed near-knee operating point;
//! [`shard_scaling`] walks shard counts and compares analytic
//! achieved-rate scaling against the threaded backend's wall-clock
//! sustained rate; [`closed_loop_table`] sweeps the closed-loop worker
//! population.

use l25gc_core::Deployment;
use l25gc_load::{
    calibrate, Driver, EventMix, ExecBackend, LoadConfig, LoadConfigBuilder, LoadReport,
    OverloadPolicy, ProfileSet, ShardConfig,
};
use l25gc_obs::{Log2Histogram, MetricsTimeline, TraceBundle};
use l25gc_sim::SimDuration;

/// Offered-load fractions of theoretical capacity the sweep visits.
pub const SWEEP_FRACTIONS: [f64; 6] = [0.25, 0.5, 0.75, 0.9, 1.0, 1.2];

/// Burstiness ratios the MMPP study crosses with the admission policy.
pub(crate) const BURST_LEVELS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

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
    /// Index into `points` of the detected knee.
    pub knee: usize,
    /// Per-point metrics timelines, in [`SWEEP_FRACTIONS`] order
    /// (empty unless [`CapacityParams::metrics_interval_ms`] is set).
    pub timelines: Vec<MetricsTimeline>,
    /// Sampled spans/events of the knee point, ready for the
    /// Chrome-trace exporter (`None` unless
    /// [`CapacityParams::trace_sample`] is set).
    pub knee_trace: Option<TraceBundle>,
}

impl CapacityCurve {
    /// The sustainable events/s: achieved rate at the knee.
    pub fn sustainable_eps(&self) -> f64 {
        self.points[self.knee].achieved_eps
    }

    /// p99 at the knee, ms.
    pub fn knee_p99_ms(&self) -> f64 {
        self.points[self.knee].p99_ms
    }

    /// Which shard saturated: index and busy fraction of the busiest
    /// shard at the knee point.
    pub fn peak_shard_at_knee(&self) -> (u16, f64) {
        super::scenario::peak_shard_util(&self.points[self.knee].shard_utilization)
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
    /// When set, [`closed_loop_table`] sweeps up to this many workers.
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

fn shard_cfg(shards: u16) -> ShardConfig {
    ShardConfig {
        shards,
        high_water: 192,
        policy: OverloadPolicy::Shed,
        ring_capacity: 256,
    }
}

/// Distinct deterministic seed per point (and per deployment, via the
/// calibration-independent tag), preserved exactly from the original
/// sweep so analytic output stays byte-identical across releases.
fn point_seed(params: &CapacityParams, deployment: Deployment, i: usize) -> u64 {
    params
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(deployment_tag(deployment))
        .wrapping_add(i as u64)
}

fn base_builder(params: &CapacityParams, mix: &EventMix) -> LoadConfigBuilder {
    let mut b = LoadConfig::builder()
        .ues(params.ues)
        .shard_cfg(shard_cfg(params.shards))
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
    let knee = detect_knee(&points);
    let knee_trace = if traces.is_empty() {
        None
    } else {
        Some(traces.swap_remove(knee))
    };
    CapacityCurve {
        deployment,
        mean_occupancy_ms: occ.as_millis_f64(),
        points,
        knee,
        timelines,
        knee_trace,
    }
}

fn deployment_tag(d: Deployment) -> u64 {
    match d {
        Deployment::Free5gc => 101,
        Deployment::OnvmUpf => 202,
        Deployment::L25gc => 303,
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

/// The last point that still behaves: low loss, near-offered throughput,
/// p99 within 3× the lightest point's. `reproduce report` applies the
/// same rule to a manifest's rows.
pub fn detect_knee(points: &[CapacityPoint]) -> usize {
    let base_p99 = points.first().map(|p| p.p99_ms).unwrap_or(0.0).max(1e-6);
    let mut knee = 0;
    for (i, p) in points.iter().enumerate() {
        let healthy = p.loss_pct < 1.0
            && p.achieved_eps >= 0.90 * p.offered_eps
            && p.p99_ms <= 3.0 * base_p99;
        if healthy {
            knee = i;
        }
    }
    knee
}

/// What first pushed a run past its budget inside a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KneeReason {
    /// Admission control started shedding in this window.
    SheddingStarted,
    /// The window's p99 crossed the latency budget (3× the lightest
    /// sweep point's whole-run p99, the same budget [`detect_knee`] uses).
    P99OverBudget,
}

impl std::fmt::Display for KneeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KneeReason::SheddingStarted => "shedding started",
            KneeReason::P99OverBudget => "p99 over budget",
        })
    }
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
    /// window's shed count when [`KneeReason::SheddingStarted`].
    pub value: f64,
}

/// Scans each sweep point's [`MetricsTimeline`] in offered-load order
/// for the first window where shedding starts or the windowed p99
/// (merged across shards) crosses the budget. Returns `None` when the
/// sweep carried no timelines or every window stayed healthy.
pub fn timeline_knee(curve: &CapacityCurve) -> Option<TimelineKnee> {
    let budget_ms = 3.0
        * curve
            .points
            .first()
            .map(|p| p.p99_ms)
            .unwrap_or(0.0)
            .max(1e-6);
    for (pi, tl) in curve.timelines.iter().enumerate() {
        let interval_s = tl.interval().as_secs_f64();
        for w in 0..tl.window_count() {
            let mut shed = 0u64;
            let mut lat = Log2Histogram::new();
            for s in 0..tl.shards() {
                if let Some(win) = tl.lane(s).get(w) {
                    shed += win.shed;
                    lat.merge(&win.latency);
                }
            }
            let reason = if shed > 0 {
                Some((KneeReason::SheddingStarted, shed as f64))
            } else if lat.count() > 0 {
                let p99_ms = lat.quantile(0.99) as f64 / 1e6;
                (p99_ms > budget_ms).then_some((KneeReason::P99OverBudget, p99_ms))
            } else {
                None
            };
            if let Some((reason, value)) = reason {
                return Some(TimelineKnee {
                    point: pi,
                    window: w,
                    at_s: w as f64 * interval_s,
                    reason,
                    value,
                });
            }
        }
    }
    None
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

/// Classifies the first sweep point past the knee (or the knee point
/// itself when nothing lies past it) by its dominant latency stage.
pub fn knee_anatomy(curve: &CapacityCurve) -> KneeAnatomy {
    let idx = (curve.knee + 1).min(curve.points.len().saturating_sub(1));
    let p = &curve.points[idx];
    if p.queue_wait_p99_ms > p.service_p99_ms {
        KneeAnatomy::WaitDominated
    } else {
        KneeAnatomy::ServiceDominated
    }
}

/// Evaluates `spec` against every per-point timeline the sweep carried,
/// in [`SWEEP_FRACTIONS`] order. Empty when the sweep ran without
/// [`CapacityParams::metrics_interval_ms`].
pub fn slo_reports(curve: &CapacityCurve, spec: &l25gc_obs::SloSpec) -> Vec<l25gc_obs::SloReport> {
    curve
        .timelines
        .iter()
        .map(|tl| l25gc_obs::slo::evaluate(tl, spec))
        .collect()
}

/// The full experiment: Free5GC (kernel/HTTP) vs L²5GC (shm).
pub fn sweep(params: &CapacityParams) -> Vec<CapacityCurve> {
    vec![
        sweep_deployment(Deployment::Free5gc, params),
        sweep_deployment(Deployment::L25gc, params),
    ]
}

/// At the baseline's knee-p99 operating budget, the events/s each system
/// sustains — the "equal p99" comparison line.
pub fn equal_p99_comparison(curves: &[CapacityCurve]) -> Option<(f64, f64, f64)> {
    let free = curves
        .iter()
        .find(|c| c.deployment == Deployment::Free5gc)?;
    let l25 = curves.iter().find(|c| c.deployment == Deployment::L25gc)?;
    let budget_ms = free.knee_p99_ms();
    // Highest achieved rate whose p99 fits the budget, per system.
    let best_under = |c: &CapacityCurve| {
        c.points
            .iter()
            .filter(|p| p.p99_ms <= budget_ms && p.loss_pct < 1.0)
            .map(|p| p.achieved_eps)
            .fold(0.0f64, f64::max)
    };
    Some((budget_ms, best_under(free), best_under(l25)))
}

/// One row of the burstiness × admission-policy study.
#[derive(Debug, Clone)]
pub struct BurstPolicyRow {
    /// MMPP-2 high/low rate ratio (1.0 = Poisson).
    pub burst: f64,
    /// Admission policy past the high-water mark.
    pub policy: OverloadPolicy,
    /// Achieved events/s.
    pub achieved_eps: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Percent of arrivals shed or backpressured.
    pub loss_pct: f64,
    /// Deepest shard queue observed.
    pub peak_depth: usize,
}

/// Crosses [`BURST_LEVELS`] against Shed/Queue on L²5GC at a fixed
/// near-knee operating point (0.9× capacity, tight high-water mark so
/// bursts actually hit the admission controller). Shows the trade the
/// paper's admission design makes: shedding caps tail latency at the
/// cost of loss; queueing keeps everything at the cost of the tail.
pub fn burst_policy_table(params: &CapacityParams) -> Vec<BurstPolicyRow> {
    let deployment = Deployment::L25gc;
    let profiles = calibrate(deployment);
    let mix = EventMix::default();
    let occ = profiles.mean_occupancy(&mix.weights);
    let capacity_eps = f64::from(params.shards) / occ.as_secs_f64();
    let offered = capacity_eps * 0.9;

    let mut rows = Vec::with_capacity(BURST_LEVELS.len() * 2);
    for (i, &burst) in BURST_LEVELS.iter().enumerate() {
        for policy in [OverloadPolicy::Shed, OverloadPolicy::Queue] {
            let cfg = base_builder(params, &mix)
                .shard_cfg(ShardConfig {
                    shards: params.shards,
                    high_water: 64,
                    policy,
                    ring_capacity: 128,
                })
                .burst(burst)
                .offered_eps(offered)
                .seed(point_seed(params, deployment, 600 + i))
                .build()
                .expect("burst study config is valid");
            let r = run(cfg, &profiles);
            let denom = r.offered.max(1) as f64;
            rows.push(BurstPolicyRow {
                burst,
                policy,
                achieved_eps: r.achieved_eps,
                p99_ms: r.p99.as_millis_f64(),
                loss_pct: 100.0 * (r.shed + r.backpressure) as f64 / denom,
                peak_depth: r.peak_depth,
            });
        }
    }
    rows
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

/// One row of the closed-loop worker-population sweep.
#[derive(Debug, Clone)]
pub struct ClosedLoopRow {
    /// Concurrent worker count.
    pub workers: usize,
    /// Achieved events/s.
    pub achieved_eps: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Mean shard CPU utilisation.
    pub utilisation: f64,
    /// Wall-clock sustained events/s (threaded backend only).
    pub wall_eps: Option<f64>,
}

/// Sweeps the closed-loop worker population over [`SWEEP_FRACTIONS`] of
/// `max_workers`: throughput self-limits, so instead of a knee the curve
/// shows saturation — added workers stop buying events/s once the shards
/// are busy.
pub fn closed_loop_table(params: &CapacityParams, max_workers: usize) -> Vec<ClosedLoopRow> {
    let deployment = Deployment::L25gc;
    let profiles = calibrate(deployment);
    let mix = EventMix::default();
    let think = SimDuration::from_secs_f64(params.think_ms.max(0.001) / 1e3);

    let mut rows = Vec::with_capacity(SWEEP_FRACTIONS.len());
    for (i, frac) in SWEEP_FRACTIONS.iter().enumerate() {
        let workers = ((max_workers as f64 * frac).round() as usize).max(1);
        let cfg = base_builder(params, &mix)
            .closed_loop(workers, think)
            .seed(point_seed(params, deployment, 800 + i))
            .build()
            .expect("closed-loop config is valid");
        let r = run(cfg, &profiles);
        rows.push(ClosedLoopRow {
            workers,
            achieved_eps: r.achieved_eps,
            p50_ms: r.p50.as_millis_f64(),
            p99_ms: r.p99.as_millis_f64(),
            utilisation: r.busy_fraction,
            wall_eps: r.wall.map(|w| w.sustained_eps),
        });
    }
    rows
}

/// The saturation point a [`saturation_search`] converged on.
#[derive(Debug, Clone, Copy)]
pub struct SaturationPoint {
    /// Smallest closed-loop worker count on the throughput plateau.
    pub workers: usize,
    /// Achieved events/s at that count.
    pub achieved_eps: f64,
    /// p99 latency at that count, ms.
    pub p99_ms: f64,
    /// Mean shard CPU utilisation at that count.
    pub utilisation: f64,
    /// Closed-loop runs the search spent converging.
    pub probes: usize,
}

/// Closed-loop saturation search on L25GC: instead of sweeping fixed
/// fractions of a guessed maximum, find the worker count where achieved
/// events/s plateaus. Doubling probes climb until a doubling buys < 2%
/// more throughput (or `max_workers` is hit); a binary search then pins
/// the smallest count achieving ≥ 98% of the plateau rate. Deterministic:
/// each worker count probes with a seed derived from the count, so
/// re-probing a count replays the identical run.
pub fn saturation_search(params: &CapacityParams, max_workers: usize) -> SaturationPoint {
    let deployment = Deployment::L25gc;
    let profiles = calibrate(deployment);
    let mix = EventMix::default();
    let think = SimDuration::from_secs_f64(params.think_ms.max(0.001) / 1e3);
    let max_workers = max_workers.max(1);

    let mut cache: Vec<(usize, SaturationPoint)> = Vec::new();
    let mut probes = 0usize;
    let mut probe = |workers: usize, probes: &mut usize| -> SaturationPoint {
        if let Some((_, p)) = cache.iter().find(|(w, _)| *w == workers) {
            return *p;
        }
        *probes += 1;
        let cfg = base_builder(params, &mix)
            .closed_loop(workers, think)
            .seed(point_seed(params, deployment, 2_000 + workers))
            .build()
            .expect("saturation probe config is valid");
        let r = run(cfg, &profiles);
        let p = SaturationPoint {
            workers,
            achieved_eps: r.achieved_eps,
            p99_ms: r.p99.as_millis_f64(),
            utilisation: r.busy_fraction,
            probes: 0,
        };
        cache.push((workers, p));
        p
    };

    // Exponential climb: stop when a doubling buys < 2%.
    const PLATEAU_GAIN: f64 = 1.02;
    let mut below = probe(1, &mut probes);
    let mut lo = 1usize;
    let mut hi = lo;
    while hi < max_workers {
        let next = (hi * 2).min(max_workers);
        let p = probe(next, &mut probes);
        if p.achieved_eps < below.achieved_eps * PLATEAU_GAIN {
            hi = next;
            break;
        }
        lo = next;
        below = p;
        hi = next;
    }
    // The plateau rate is the best seen; binary search for the smallest
    // count in (lo, hi] achieving 98% of it. If the climb never
    // plateaued, lo == hi == max_workers and the loop is skipped.
    let plateau_eps = below.achieved_eps.max(probe(hi, &mut probes).achieved_eps);
    let target = 0.98 * plateau_eps;
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if probe(mid, &mut probes).achieved_eps >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let found = if probe(lo, &mut probes).achieved_eps >= target {
        lo
    } else {
        hi
    };
    let mut result = probe(found, &mut probes);
    result.probes = probes;
    result
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
            assert!(c.knee < c.points.len());
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
            assert_eq!(knee_anatomy(c), KneeAnatomy::WaitDominated);
            // Utilization anatomy: one busy fraction per shard at every
            // point, and the knee names its busiest shard.
            for p in &c.points {
                assert_eq!(p.shard_utilization.len(), 4, "{:?}", c.deployment);
                assert!(p.shard_utilization.iter().all(|&u| u > 0.0 && u <= 1.0));
            }
            let (peak_shard, peak_util) = c.peak_shard_at_knee();
            assert!(peak_shard < 4);
            assert_eq!(
                peak_util,
                c.points[c.knee]
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
        // A budget at the lightest point's whole-run p99: light points
        // hold it, the 1.2× point cannot.
        let budget_ns = (curve.points[0].p99_ms * 3.0 * 1e6) as u64;
        let spec = l25gc_obs::SloSpec::new(budget_ns.max(1), 0.5);
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
        assert_eq!(knee_anatomy(&curve), KneeAnatomy::WaitDominated);
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
    fn burstier_arrivals_cost_shed_loss_or_queue_tail() {
        let params = CapacityParams {
            ues: 10_000,
            duration_s: 2.0,
            ..small_params()
        };
        let rows = burst_policy_table(&params);
        assert_eq!(rows.len(), BURST_LEVELS.len() * 2);
        for r in &rows {
            if r.policy == OverloadPolicy::Queue {
                assert_eq!(r.loss_pct, 0.0, "queue policy never sheds at high water");
            }
        }
        // At the burstiest level, queueing pays in tail latency relative
        // to shedding.
        let at = |burst: f64, policy: OverloadPolicy| {
            rows.iter()
                .find(|r| r.burst == burst && r.policy == policy)
                .unwrap()
        };
        let shed8 = at(8.0, OverloadPolicy::Shed);
        let queue8 = at(8.0, OverloadPolicy::Queue);
        assert!(
            queue8.p99_ms >= shed8.p99_ms,
            "queueing tail {} must be >= shedding tail {}",
            queue8.p99_ms,
            shed8.p99_ms
        );
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
            knee.point >= curve.knee,
            "timeline knee {} vs aggregate {}",
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
        assert!(sat.workers >= 1 && sat.workers <= 256);
        assert!(sat.achieved_eps > 0.0);
        assert!(sat.probes >= 2, "search must actually probe");
        // The found count really is on the plateau: doubling it (within
        // bounds) buys < 5% more throughput.
        let think = SimDuration::from_secs_f64(params.think_ms / 1e3);
        let mix = EventMix::default();
        let profiles = calibrate(Deployment::L25gc);
        let double = (sat.workers * 2).min(256);
        let cfg = base_builder(&params, &mix)
            .closed_loop(double, think)
            .seed(point_seed(&params, Deployment::L25gc, 2_000 + double))
            .build()
            .unwrap();
        let r = run(cfg, &profiles);
        assert!(
            r.achieved_eps <= sat.achieved_eps * 1.05,
            "doubling {} → {} buys {} vs {}",
            sat.workers,
            double,
            r.achieved_eps,
            sat.achieved_eps
        );
        // Deterministic: same params, same answer.
        let again = saturation_search(&params, 256);
        assert_eq!(again.workers, sat.workers);
        assert_eq!(again.achieved_eps, sat.achieved_eps);
    }

    #[test]
    fn closed_loop_table_saturates() {
        let params = CapacityParams {
            ues: 10_000,
            duration_s: 2.0,
            ..small_params()
        };
        let rows = closed_loop_table(&params, 64);
        assert_eq!(rows.len(), SWEEP_FRACTIONS.len());
        assert!(rows.iter().all(|r| r.achieved_eps > 0.0));
        // More workers never reduce throughput by much (self-limiting).
        assert!(rows.last().unwrap().achieved_eps >= rows[0].achieved_eps * 0.9);
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
