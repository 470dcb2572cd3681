//! Scenario matrix: named incident scenarios × admission policy, scored
//! by the windowed SLO engine — the recovery-time regression experiment.
//!
//! The capacity sweep answers "where is the knee"; this experiment
//! answers the operational question the paper's overload story implies:
//! *when an incident hits, how long until the system is healthy again,
//! and what did admission control pay to get there?* Each
//! [`ScenarioSpec`] from the `l25gc-load` library (flash-crowd,
//! post-outage-reattach, diurnal, stadium-egress) is converted to an
//! absolute scripted profile against the calibrated L²5GC capacity,
//! then run under both [`OverloadPolicy::Shed`] and
//! [`OverloadPolicy::Queue`] with a per-window metrics timeline. The
//! timeline is scored against an [`SloSpec`] whose p99 budget is
//! derived from a short *baseline probe* at the scenario's
//! pre-disturbance rate (so the budget scales with the procedure mix
//! instead of being a magic number), and each run reports recovery
//! time, time-to-first-violation, peak per-window shed, and the
//! violation-span count.
//!
//! Determinism: the probe always runs on the analytic backend, and the
//! main run's seed depends only on (master seed, scenario name) — not
//! the policy or backend — so Shed and Queue face the *same* arrival
//! sequence and the analytic matrix is byte-identical per seed.

use l25gc_core::Deployment;
use l25gc_load::{
    calibrate, Driver, ExecBackend, LoadConfig, LoadReport, OverloadPolicy, ProfileSet,
    ScenarioSpec, ShardConfig,
};
use l25gc_obs::{slo, SloSpec};
use l25gc_sim::SimDuration;

/// Per-window shed budget (percent of window arrivals) for derived SLO
/// specs — tighter than the regression gate's 1% so scenario sheds are
/// actually visible as violations.
pub const SLO_SHED_BUDGET_PCT: f64 = 0.5;

/// Derived p99 budget = this multiple of the baseline probe's p99.
pub const SLO_P99_MULTIPLE: f64 = 4.0;

/// Matrix parameters (CLI-settable).
#[derive(Debug, Clone)]
pub struct ScenarioParams {
    /// Fleet size override; `None` uses each scenario's own default.
    pub ues: Option<usize>,
    /// Worker shards.
    pub shards: u16,
    /// Master seed.
    pub seed: u64,
    /// Execution engine for the main runs (the baseline probe is always
    /// analytic so derived budgets match across backends).
    pub backend: ExecBackend,
    /// Metrics snapshot interval — the SLO window width, ms.
    pub metrics_interval_ms: f64,
    /// Explicit SLO spec; `None` derives one per scenario from the
    /// baseline probe.
    pub slo: Option<SloSpec>,
    /// Pin threaded workers to cores (ignored by the analytic backend).
    pub pin: bool,
    /// Serve a live `GET /metrics` endpoint on this address while the
    /// matrix runs (e.g. `127.0.0.1:0`); `None` disables it.
    pub serve_metrics: Option<String>,
}

impl Default for ScenarioParams {
    fn default() -> ScenarioParams {
        ScenarioParams {
            ues: None,
            shards: 4,
            seed: 0,
            backend: ExecBackend::Analytic,
            metrics_interval_ms: 100.0,
            slo: None,
            pin: false,
            serve_metrics: None,
        }
    }
}

/// One (scenario, policy) cell of the matrix.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Library name of the scenario.
    pub scenario: String,
    /// Admission policy past the high-water mark.
    pub policy: OverloadPolicy,
    /// Calibrated sustainable capacity the profile was scaled to,
    /// events/s.
    pub capacity_eps: f64,
    /// Scripted horizon, seconds.
    pub duration_s: f64,
    /// Fleet size the run used.
    pub ues: usize,
    /// Arrivals the generator produced.
    pub offered: u64,
    /// Procedures completed within the horizon.
    pub completed: u64,
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Arrivals rejected by ring backpressure.
    pub backpressure: u64,
    /// Completed events/s over the horizon.
    pub achieved_eps: f64,
    /// Percent of arrivals shed or backpressured.
    pub loss_pct: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Queue-wait stage p99 (arrival → service), ms.
    pub queue_wait_p99_ms: f64,
    /// Service stage p99 (shard occupancy), ms.
    pub service_p99_ms: f64,
    /// Completion-transit stage p99, ms.
    pub transit_p99_ms: f64,
    /// Deepest shard queue observed.
    pub peak_depth: usize,
    /// Worst single-window shed count (lanes merged) — the incident's
    /// sharpest edge.
    pub peak_window_shed: u64,
    /// Maximal contiguous violating runs of windows.
    pub violation_spans: usize,
    /// Total violating windows.
    pub violating_windows: usize,
    /// Start of the first violating window, ms from the run origin;
    /// `None` when the run never violated.
    pub time_to_first_violation_ms: Option<f64>,
    /// Recovery time, ms (first violating window → last, with the
    /// spec's clean windows after); `None` when the run never recovered
    /// inside its horizon.
    pub recovery_ms: Option<f64>,
    /// Recovery with the unrecovered case clamped to the observed
    /// horizon — the gated numeric form.
    pub recovery_or_horizon_ms: f64,
    /// The observed horizon (window count × interval), ms — what the
    /// clamp above saturates to.
    pub horizon_ms: f64,
    /// The p99 budget the run was scored against, ms.
    pub p99_budget_ms: f64,
    /// The shed budget the run was scored against, percent.
    pub shed_budget_pct: f64,
    /// Mean per-window burn rate (1.0 = exactly on budget).
    pub burn_rate: f64,
    /// Engine-measured worst outage span (kill instant → replayed
    /// backlog drained), ms; `None` when the scenario scripts no fault.
    pub disruption_ms: Option<f64>,
    /// Procedures re-run from the packet log after a scripted kill.
    pub replayed: u64,
    /// Arrivals shed while their shard was inside a scripted outage.
    pub completions_lost: u64,
    /// Per-shard CPU-busy fraction over the horizon (0..1), comparable
    /// across backends.
    pub shard_utilization: Vec<f64>,
    /// Shard index with the highest busy fraction.
    pub peak_shard: u16,
    /// That shard's busy fraction.
    pub peak_shard_util: f64,
}

/// Index and value of the busiest shard in a utilization vector
/// (shard 0 when the vector is empty).
pub fn peak_shard_util(util: &[f64]) -> (u16, f64) {
    util.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or((0, 0.0), |(i, &u)| (i as u16, u))
}

/// Per-shard backlog bound, expressed as drain time. The capacity
/// sweep's fixed 192-event high-water mark is several *seconds* of
/// backlog at these multi-ms control-plane occupancies — no few-second
/// incident can fill it, and Shed would degenerate into Queue. Sizing
/// the mark in time (the queueing delay admission control is willing to
/// impose) keeps the policies distinct at any calibrated capacity.
pub const HIGH_WATER_DRAIN_S: f64 = 0.25;

fn scenario_shard_cfg(shards: u16, policy: OverloadPolicy, capacity_eps: f64) -> ShardConfig {
    let hw = ((HIGH_WATER_DRAIN_S * capacity_eps / f64::from(shards)).ceil() as usize).max(4);
    ShardConfig {
        shards,
        high_water: hw,
        policy,
        // 4x the mark: room for Queue to actually queue past it.
        ring_capacity: (hw * 4).max(16),
    }
}

/// FNV-1a over the scenario name: a stable per-scenario tag for seed
/// derivation (names, unlike enum tags, are the scenario identity).
fn scenario_tag(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Distinct deterministic seed per (master seed, scenario, salt).
/// Deliberately independent of policy and backend: every cell of a
/// scenario's row faces the identical arrival sequence.
fn scenario_seed(params: &ScenarioParams, name: &str, salt: u64) -> u64 {
    params
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(scenario_tag(name))
        .wrapping_add(salt)
}

fn run(cfg: LoadConfig, profiles: &ProfileSet) -> LoadReport {
    Driver::new(cfg)
        .expect("scenario matrix builds valid configs")
        .run(profiles)
}

/// Derives the SLO spec for `spec`: a 1 s analytic probe at the
/// scenario's pre-disturbance baseline rate, whose whole-run p99 ×
/// [`SLO_P99_MULTIPLE`] becomes the per-window budget. The probe uses
/// its own seed salt so it never perturbs the main run's stream.
pub fn derive_slo(
    spec: &ScenarioSpec,
    params: &ScenarioParams,
    profiles: &ProfileSet,
    capacity_eps: f64,
) -> SloSpec {
    let cfg = LoadConfig::builder()
        .ues(params.ues.unwrap_or(spec.ues))
        .shard_cfg(scenario_shard_cfg(
            params.shards,
            OverloadPolicy::Shed,
            capacity_eps,
        ))
        .mix(spec.mix.clone())
        .offered_eps(spec.baseline_fraction() * capacity_eps)
        .duration(SimDuration::from_secs(1))
        .seed(scenario_seed(params, spec.name, 1))
        .backend(ExecBackend::Analytic)
        .build()
        .expect("baseline probe config is valid");
    let probe = run(cfg, profiles);
    let budget_ns = ((probe.p99.as_nanos() as f64 * SLO_P99_MULTIPLE) as u64).max(1);
    SloSpec::new(budget_ns, SLO_SHED_BUDGET_PCT)
}

fn run_cell(
    spec: &ScenarioSpec,
    params: &ScenarioParams,
    cfg_shards: ShardConfig,
    profiles: &ProfileSet,
    capacity_eps: f64,
    slo_spec: &SloSpec,
) -> ScenarioOutcome {
    let ues = params.ues.unwrap_or(spec.ues);
    let mut builder = LoadConfig::builder()
        .ues(ues)
        .shard_cfg(cfg_shards)
        .mix(spec.mix.clone())
        .script(spec.absolute_segments(capacity_eps))
        .duration(spec.duration())
        .seed(scenario_seed(params, spec.name, 0))
        .backend(params.backend)
        .metrics_interval(SimDuration::from_secs_f64(
            params.metrics_interval_ms.max(1.0) / 1e3,
        ))
        .pin(params.pin);
    if let Some(addr) = &params.serve_metrics {
        builder = builder.serve_metrics(addr.clone());
    }
    if let Some(fault) = &spec.fault {
        builder = builder.fault(fault.clone());
    }
    let cfg = builder.build().expect("scenario run config is valid");
    let mut r = run(cfg, profiles);
    let tl = r
        .timeline
        .take()
        .expect("scenario runs always carry a timeline");
    let report = slo::evaluate(&tl, slo_spec);
    let denom = r.offered.max(1) as f64;
    ScenarioOutcome {
        scenario: spec.name.to_string(),
        policy: cfg_shards.policy,
        capacity_eps,
        duration_s: spec.duration().as_secs_f64(),
        ues,
        offered: r.offered,
        completed: r.completed,
        shed: r.shed,
        backpressure: r.backpressure,
        achieved_eps: r.achieved_eps,
        loss_pct: 100.0 * (r.shed + r.backpressure) as f64 / denom,
        p50_ms: r.p50.as_millis_f64(),
        p95_ms: r.p95.as_millis_f64(),
        p99_ms: r.p99.as_millis_f64(),
        queue_wait_p99_ms: r.queue_wait_p99.as_millis_f64(),
        service_p99_ms: r.service_p99.as_millis_f64(),
        transit_p99_ms: r.transit_p99.as_millis_f64(),
        peak_depth: r.peak_depth,
        peak_window_shed: tl.peak_window_shed(),
        violation_spans: report.spans.len(),
        violating_windows: report.violating_windows,
        time_to_first_violation_ms: report.time_to_first_violation_ns.map(|ns| ns as f64 / 1e6),
        recovery_ms: report.recovery_ns.map(|ns| ns as f64 / 1e6),
        recovery_or_horizon_ms: report.recovery_ns_or_horizon() as f64 / 1e6,
        horizon_ms: (report.window_count as u64 * report.interval_ns) as f64 / 1e6,
        p99_budget_ms: slo_spec.p99_budget_ns as f64 / 1e6,
        shed_budget_pct: slo_spec.shed_budget_pct,
        burn_rate: report.burn_rate,
        disruption_ms: r.disruption.map(|d| d.disruption_ms),
        replayed: r.disruption.map_or(0, |d| d.replayed),
        completions_lost: r.disruption.map_or(0, |d| d.completions_lost),
        peak_shard: peak_shard_util(&r.shard_utilization).0,
        peak_shard_util: peak_shard_util(&r.shard_utilization).1,
        shard_utilization: r.shard_utilization,
    }
}

/// Runs one scenario under one policy (calibrating L²5GC and deriving
/// the SLO budget itself) — the single-cell entry point.
pub fn run_scenario(
    spec: &ScenarioSpec,
    params: &ScenarioParams,
    policy: OverloadPolicy,
) -> ScenarioOutcome {
    let profiles = calibrate(Deployment::L25gc);
    let capacity_eps =
        f64::from(params.shards) / profiles.mean_occupancy(&spec.mix.weights).as_secs_f64();
    let slo_spec = params
        .slo
        .unwrap_or_else(|| derive_slo(spec, params, &profiles, capacity_eps));
    run_cell(
        spec,
        params,
        scenario_shard_cfg(params.shards, policy, capacity_eps),
        &profiles,
        capacity_eps,
        &slo_spec,
    )
}

/// The full matrix: each spec × {Shed, Queue}, in (scenario, policy)
/// order. Calibration runs once; capacity and the derived SLO budget
/// are per-scenario (the mix changes the mean occupancy).
pub fn run_matrix(specs: &[ScenarioSpec], params: &ScenarioParams) -> Vec<ScenarioOutcome> {
    let profiles = calibrate(Deployment::L25gc);
    let mut out = Vec::with_capacity(specs.len() * 2);
    for spec in specs {
        let capacity_eps =
            f64::from(params.shards) / profiles.mean_occupancy(&spec.mix.weights).as_secs_f64();
        let slo_spec = params
            .slo
            .unwrap_or_else(|| derive_slo(spec, params, &profiles, capacity_eps));
        for policy in [OverloadPolicy::Shed, OverloadPolicy::Queue] {
            out.push(run_cell(
                spec,
                params,
                scenario_shard_cfg(params.shards, policy, capacity_eps),
                &profiles,
                capacity_eps,
                &slo_spec,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> ScenarioParams {
        ScenarioParams {
            ues: Some(20_000),
            shards: 2,
            seed: 7,
            ..ScenarioParams::default()
        }
    }

    /// A library spec with every segment duration scaled by `f` — same
    /// rate shape, shorter horizon, for wall-clock-bounded tests.
    fn shrunk(name: &str, f: f64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::by_name(name).expect("library name");
        for s in &mut spec.segments {
            s.duration_s *= f;
        }
        // Fault times are absolute into the scenario; compress them with
        // the segments or the kill falls off the shortened horizon.
        spec.fault = spec.fault.map(|p| p.scaled(f));
        spec
    }

    #[test]
    fn matrix_covers_every_cell_and_reports_recovery() {
        let specs = ScenarioSpec::library();
        let rows = run_matrix(&specs, &small_params());
        assert_eq!(rows.len(), specs.len() * 2);
        for (i, spec) in specs.iter().enumerate() {
            for (j, policy) in [OverloadPolicy::Shed, OverloadPolicy::Queue]
                .iter()
                .enumerate()
            {
                let r = &rows[i * 2 + j];
                assert_eq!(r.scenario, spec.name);
                assert_eq!(r.policy, *policy);
                assert!(r.offered > 0, "{}: empty stream", spec.name);
                assert!(r.completed > 0, "{}: nothing completed", spec.name);
                assert!(r.capacity_eps > 0.0);
                assert!(r.p99_budget_ms > 0.0);
                // Recovery (or its horizon clamp) is always a finite,
                // positive number — the gated form.
                assert!(
                    r.recovery_or_horizon_ms >= 0.0 && r.recovery_or_horizon_ms.is_finite(),
                    "{}/{:?}: unreportable recovery",
                    spec.name,
                    policy
                );
                assert!(r.horizon_ms >= r.duration_s * 1e3 * 0.99);
                // Utilization anatomy: one busy fraction per shard, the
                // peak picked from them, all inside (0, 1].
                assert_eq!(r.shard_utilization.len(), 2, "{}: lanes", spec.name);
                assert!(
                    r.peak_shard_util > 0.0 && r.peak_shard_util <= 1.0,
                    "{}/{:?}: peak shard util {} out of range",
                    spec.name,
                    policy,
                    r.peak_shard_util
                );
                assert_eq!(
                    r.shard_utilization[r.peak_shard as usize],
                    r.peak_shard_util
                );
                // Violations and their onset marker agree.
                assert_eq!(
                    r.time_to_first_violation_ms.is_some(),
                    r.violating_windows > 0,
                    "{}/{:?}: onset marker out of sync",
                    spec.name,
                    policy
                );
            }
        }
        // The three overload incidents must actually disturb at least
        // one policy — otherwise the library spec is mis-scaled.
        // (Diurnal's busy hour sits below capacity: it is the control
        // that shows the derived budget is not trivially violated.)
        for name in ["flash-crowd", "post-outage-reattach", "stadium-egress"] {
            let disturbed = rows
                .iter()
                .filter(|r| r.scenario == name)
                .any(|r| r.violating_windows > 0);
            assert!(disturbed, "{name}: no cell ever violated");
        }
        // The failover incident carries a disruption block; the pure
        // load profiles do not.
        for r in &rows {
            if r.scenario == "amf-restart" {
                let d = r.disruption_ms.expect("amf-restart measures disruption");
                assert!(d > 0.0, "zero-width outage");
                assert!(r.replayed > 0, "the mid-plateau kill replays backlog");
            } else {
                assert!(r.disruption_ms.is_none(), "{}: phantom fault", r.scenario);
                assert_eq!(r.replayed, 0);
            }
        }
    }

    #[test]
    fn shed_recovers_no_slower_than_queue_on_flash_crowd() {
        let spec = ScenarioSpec::by_name("flash-crowd").unwrap();
        let params = small_params();
        let shed = run_scenario(&spec, &params, OverloadPolicy::Shed);
        let queue = run_scenario(&spec, &params, OverloadPolicy::Queue);
        // Same seed, same arrivals: the policies face one incident.
        assert_eq!(shed.offered, queue.offered);
        // Shedding bounds the backlog at the high-water mark, so once
        // the spike ends the system is clean almost immediately; queue
        // must still drain what it admitted.
        assert!(
            shed.recovery_or_horizon_ms <= queue.recovery_or_horizon_ms,
            "shed {} ms must not recover slower than queue {} ms",
            shed.recovery_or_horizon_ms,
            queue.recovery_or_horizon_ms
        );
        assert!(shed.shed > 0, "the 1.8x spike must trip admission control");
        assert_eq!(queue.shed, 0, "queue policy never sheds");
        // And the tail cost points the other way.
        assert!(queue.p99_ms >= shed.p99_ms);
    }

    #[test]
    fn matrix_is_deterministic_per_seed() {
        let specs = vec![ScenarioSpec::by_name("flash-crowd").unwrap()];
        let a = run_matrix(&specs, &small_params());
        let b = run_matrix(&specs, &small_params());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.offered, y.offered);
            assert_eq!(x.completed, y.completed);
            assert_eq!(x.shed, y.shed);
            assert_eq!(x.p99_ms, y.p99_ms);
            assert_eq!(x.recovery_or_horizon_ms, y.recovery_or_horizon_ms);
            assert_eq!(x.time_to_first_violation_ms, y.time_to_first_violation_ms);
        }
    }

    /// ISSUE 7 satellite: with admission control effectively disabled
    /// (Queue policy, high-water/ring far above any backlog the shrunken
    /// profiles can build), the analytic and threaded backends agree on
    /// completed counts for every library scenario — the scripted
    /// generator feeds both from the same virtual stream.
    #[test]
    fn backends_agree_on_completed_counts_when_unshed() {
        let params = ScenarioParams {
            ues: Some(5_000),
            shards: 2,
            seed: 11,
            ..ScenarioParams::default()
        };
        let profiles = calibrate(Deployment::L25gc);
        for name in l25gc_load::SCENARIO_NAMES {
            let spec = shrunk(name, 0.2);
            let capacity_eps =
                f64::from(params.shards) / profiles.mean_occupancy(&spec.mix.weights).as_secs_f64();
            let wide = ShardConfig {
                shards: params.shards,
                high_water: 1 << 15,
                policy: OverloadPolicy::Queue,
                ring_capacity: 1 << 15,
            };
            let slo_spec = SloSpec::default_gate();
            let cell = |backend| {
                let p = ScenarioParams {
                    backend,
                    ..params.clone()
                };
                run_cell(&spec, &p, wide, &profiles, capacity_eps, &slo_spec)
            };
            let a = cell(ExecBackend::Analytic);
            let t = cell(ExecBackend::Threaded);
            assert_eq!(
                a.shed + a.backpressure,
                0,
                "{name}: analytic run lost events"
            );
            assert_eq!(
                t.shed + t.backpressure,
                0,
                "{name}: threaded run lost events"
            );
            assert_eq!(a.offered, t.offered, "{name}: streams diverged");
            assert_eq!(
                a.completed, t.completed,
                "{name}: backends disagree on completed"
            );
        }
    }
}
