//! Run manifests and run-to-run regression detection.
//!
//! A [`RunManifest`] is the machine-readable record of one `reproduce
//! capacity` invocation: the exact configuration (seed, fleet size,
//! backend, burstiness) plus every sweep point's headline metrics. The
//! `reproduce` binary writes it with `--manifest-out BENCH_capacity.json`
//! and [`compare`] diffs two of them — a committed baseline against a
//! fresh run — flagging throughput or latency regressions beyond a
//! threshold.
//!
//! The comparison is **histogram-error aware**: latency quantiles come
//! out of `l25gc_obs::Log2Histogram`, which over-estimates by at most
//! `2^-bits` relative (3.125% at the default 5 sub-bucket bits). Two
//! runs of the *same* binary on the *same* seed can therefore legally
//! differ by the sum of both histograms' error bounds, so [`compare`]
//! widens the user threshold by exactly that much before calling a
//! latency delta a regression. Throughput (`achieved_eps`) is exact
//! event counting and uses the raw threshold.

use l25gc_codec::json;
use l25gc_codec::{ObjectBuilder, Value};
use l25gc_core::Deployment;
use l25gc_load::{OverloadPolicy, ScenarioSpec};
use l25gc_obs::DEFAULT_BITS;
use l25gc_testbed::exp::capacity::{
    slo_reports, CapacityCurve, CapacityParams, CapacityPoint, SWEEP_FRACTIONS,
};
use l25gc_testbed::exp::scenario::{peak_shard_util, ScenarioOutcome, ScenarioParams};

/// The `kind` discriminator stored in every manifest.
pub const MANIFEST_KIND: &str = "l25gc-capacity-manifest";

/// Human-readable deployment label used in tables and metric names.
pub fn deployment_name(d: Deployment) -> &'static str {
    match d {
        Deployment::Free5gc => "free5GC",
        Deployment::OnvmUpf => "ONVM-UPF",
        Deployment::L25gc => "L25GC",
    }
}

/// Lowercase admission-policy label used in scenario metric names
/// (`flash-crowd/shed`).
pub fn policy_name(p: OverloadPolicy) -> &'static str {
    match p {
        OverloadPolicy::Shed => "shed",
        OverloadPolicy::Queue => "queue",
    }
}

/// One sweep point's headline metrics, named `<deployment>@<frac>x`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricRow {
    /// Series name, e.g. `L25GC@0.9x`.
    pub name: String,
    /// Offered load, events/s.
    pub offered_eps: f64,
    /// Completed events/s within the horizon (exact count, no histogram
    /// error).
    pub achieved_eps: f64,
    /// Wall-clock sustained events/s (threaded backend only).
    /// Informational — not gated by [`compare`]: wall-clock throughput
    /// is host-dependent, so a committed baseline cannot bind it.
    pub sustained_eps: Option<f64>,
    /// Median latency, ms (log2-histogram estimate).
    pub p50_ms: f64,
    /// 95th percentile, ms (log2-histogram estimate).
    pub p95_ms: f64,
    /// 99th percentile, ms (log2-histogram estimate).
    pub p99_ms: f64,
    /// Percent of arrivals shed or backpressured (exact count).
    pub loss_pct: f64,
    /// Queue-wait stage p99, ms (`None` on pre-anatomy manifests).
    pub queue_wait_p99_ms: Option<f64>,
    /// Service stage p99, ms (`None` on pre-anatomy manifests).
    pub service_p99_ms: Option<f64>,
    /// Completion-transit stage p99, ms (`None` on pre-anatomy
    /// manifests).
    pub transit_p99_ms: Option<f64>,
    /// SLO recovery time against the default gate
    /// ([`l25gc_obs::SloSpec::default_gate`]), ms; unrecovered runs are
    /// clamped to the timeline horizon so the gate still bites. `None`
    /// when the run carried no metrics timeline (or predates the field).
    pub recovery_ms: Option<f64>,
    /// Start of the first SLO-violating window, ms from the run origin
    /// — the disturbance-onset half of recovery. Informational (not
    /// gated by [`compare`]: earlier onset with the same recovery is
    /// not by itself worse). `None` when the run never violated or
    /// carried no timeline.
    pub time_to_first_violation_ms: Option<f64>,
    /// Externally visible failover disruption, ms — the full scripted
    /// charge (detect + reroute + replay) for kills, the measured stall
    /// span for freezes. `None` on fault-free runs and pre-fault
    /// manifests; gated by [`compare`] with the same 1 ms floor as
    /// `recovery_ms`.
    pub disruption_ms: Option<f64>,
    /// Mean shard CPU-busy fraction over the run (0..1). Informational
    /// (not gated by [`compare`] — higher utilization at the same
    /// throughput/latency is not by itself worse). `None` on
    /// pre-utilization manifests.
    pub util: Option<f64>,
    /// Index of the busiest shard — which shard saturated. Informational.
    pub peak_shard: Option<u16>,
    /// The busiest shard's busy fraction. Informational.
    pub peak_shard_util: Option<f64>,
}

/// One library scenario's declarative spec as the manifest records it:
/// the scripted profile (rates in capacity fractions), the procedure
/// mix, and the sizes the run resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioEntry {
    /// Library name (`flash-crowd`, ...).
    pub name: String,
    /// One-line incident description.
    pub summary: String,
    /// Fleet size the run used.
    pub ues: u64,
    /// Calibrated sustainable capacity the profile was scaled to,
    /// events/s.
    pub capacity_eps: f64,
    /// The p99 budget the scenario was scored against, ms.
    pub p99_budget_ms: f64,
    /// Per segment: `(duration_s, rate_start, rate_end, burst)`, rates
    /// as capacity fractions.
    pub segments: Vec<(f64, f64, f64, f64)>,
    /// Procedure-mix weights as `(event, weight)` pairs.
    pub mix: Vec<(String, f64)>,
    /// The scripted fault plan the run rode, in `FaultPlan` spec-string
    /// form (`kill@2500ms:shard=0`); `None` for pure load profiles.
    pub fault: Option<String>,
}

/// The saturation-search result carried on a manifest when the run was
/// invoked with `--saturate`: the smallest closed-loop worker count that
/// reaches the throughput plateau.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationRow {
    /// Plateau-start worker count.
    pub workers: u64,
    /// Completed events/s at that count.
    pub achieved_eps: f64,
    /// 99th percentile latency, ms, at that count.
    pub p99_ms: f64,
    /// Closed-loop probes the search spent converging.
    pub probes: u64,
}

/// The machine-readable record of one capacity run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Always [`MANIFEST_KIND`]; rejects unrelated JSON on load.
    pub kind: String,
    /// Crate version that produced the run.
    pub version: String,
    /// Master seed (`--seed`).
    pub seed: u64,
    /// Fleet size (`--ues`).
    pub ues: u64,
    /// Worker shard count (`--shards`).
    pub shards: u16,
    /// Horizon per sweep point, seconds (`--duration-s`).
    pub duration_s: f64,
    /// Execution backend (`analytic` / `threaded`).
    pub backend: String,
    /// MMPP-2 burstiness ratio (1 = Poisson).
    pub burst: f64,
    /// Whether worker threads were pinned to physical cores (`--pin`).
    /// Placement changes wall-clock numbers, so runs that differ here are
    /// not comparable.
    pub pin: bool,
    /// Staged-dispatch burst size the run used (`--dispatch-batch`;
    /// 1 = per-event). Batching changes wall-clock behaviour and shed
    /// decisions under overload, so runs that differ here are not
    /// comparable. Dispatch-ladder manifests record 1 here and carry
    /// the ladder in their row names instead.
    pub dispatch_batch: u64,
    /// Log2-histogram sub-bucket bits the latency quantiles carry;
    /// bounds their relative error at `2^-bits`.
    pub hist_bits: u32,
    /// One row per deployment × sweep fraction, in sweep order — or,
    /// for scenario manifests, one per scenario × admission policy.
    pub metrics: Vec<MetricRow>,
    /// Saturation-search result when the run was invoked with
    /// `--saturate`.
    pub saturation: Option<SaturationRow>,
    /// The declarative scenario specs behind a `reproduce scenarios`
    /// run, in matrix order. Empty on capacity manifests.
    pub scenarios: Vec<ScenarioEntry>,
}

/// How [`compare`] judges one [`MetricRow`] column.
#[derive(Clone, Copy)]
enum Gate {
    /// Informational: recorded, never a regression.
    Info,
    /// Regresses when it *drops* more than the threshold (exact event
    /// counts — no measurement-error allowance).
    HigherBetter,
    /// Regresses when it *rises* more than the threshold **plus** both
    /// runs' histogram error bounds, so quantisation noise alone can
    /// never fail a run.
    Latency,
    /// Regresses when it rises more than the threshold relative to the
    /// baseline floored at 1 ms: a baseline that recovered instantly
    /// (0 ms) would otherwise turn any nonzero value into an infinite
    /// relative delta.
    FlooredRise,
    /// Regresses when it rises more than the threshold in absolute
    /// *percentage points* (relative deltas of a near-zero loss rate are
    /// meaningless).
    AbsolutePoints,
}

/// One numeric [`MetricRow`] column: its JSON key, whether a manifest
/// must carry it, how [`compare`] gates it, and its accessors.
struct Column {
    key: &'static str,
    required: bool,
    gate: Gate,
    get: fn(&MetricRow) -> Option<Value>,
    /// Stores a JSON value; `None` when it has the wrong type.
    set: fn(&mut MetricRow, &Value) -> Option<()>,
}

/// `col!(field, Gate)` declares a required `f64` column, `col!(field?,
/// Gate)` an `Option<f64>` one; the JSON key is the field name.
macro_rules! col {
    ($f:ident, $gate:ident) => {
        Column {
            key: stringify!($f),
            required: true,
            gate: Gate::$gate,
            get: |r| Some(Value::F64(r.$f)),
            set: |r, v| v.as_f64().map(|x| r.$f = x),
        }
    };
    ($f:ident?, $gate:ident) => {
        Column {
            key: stringify!($f),
            required: false,
            gate: Gate::$gate,
            get: |r| r.$f.map(Value::F64),
            set: |r, v| v.as_f64().map(|x| r.$f = Some(x)),
        }
    };
}

/// Every [`MetricRow`] column after `name` — the one declaration
/// [`RunManifest::to_json`], [`RunManifest::from_json`] and [`compare`]
/// all walk. JSON carries the required columns first, then the optional
/// ones that are present, each group in this order; [`compare`] reports
/// a row's regressions in this order. An optional column absent from
/// either manifest is never gated — a baseline written before the column
/// existed cannot fail a current run on it.
const COLUMNS: [Column; 16] = [
    col!(offered_eps, Info),
    col!(achieved_eps, HigherBetter),
    col!(sustained_eps?, Info),
    col!(p50_ms, Latency),
    col!(p95_ms, Latency),
    col!(p99_ms, Latency),
    col!(queue_wait_p99_ms?, Latency),
    col!(service_p99_ms?, Latency),
    col!(transit_p99_ms?, Latency),
    col!(recovery_ms?, FlooredRise),
    col!(time_to_first_violation_ms?, Info),
    col!(disruption_ms?, FlooredRise),
    col!(loss_pct, AbsolutePoints),
    col!(util?, Info),
    Column {
        key: "peak_shard",
        required: false,
        gate: Gate::Info,
        get: |r| r.peak_shard.map(|s| Value::U64(u64::from(s))),
        set: |r, v| {
            let shard = v.as_u64().and_then(|s| u16::try_from(s).ok())?;
            r.peak_shard = Some(shard);
            Some(())
        },
    },
    col!(peak_shard_util?, Info),
];

impl MetricRow {
    /// The columns one load-engine point fills: everything but the SLO
    /// and failover columns, which need a timeline or a fault plan.
    fn from_point(name: String, p: &CapacityPoint) -> MetricRow {
        let peak = peak_shard_util(&p.shard_utilization);
        MetricRow {
            name,
            offered_eps: p.offered_eps,
            achieved_eps: p.achieved_eps,
            sustained_eps: p.wall_eps,
            p50_ms: p.p50_ms,
            p95_ms: p.p95_ms,
            p99_ms: p.p99_ms,
            loss_pct: p.loss_pct,
            queue_wait_p99_ms: Some(p.queue_wait_p99_ms),
            service_p99_ms: Some(p.service_p99_ms),
            transit_p99_ms: Some(p.transit_p99_ms),
            util: Some(p.utilisation),
            peak_shard: Some(peak.0),
            peak_shard_util: Some(peak.1),
            ..MetricRow::default()
        }
    }

    /// One scenario × admission-policy cell, named `<scenario>/<policy>`.
    fn from_outcome(o: &ScenarioOutcome) -> MetricRow {
        MetricRow {
            name: format!("{}/{}", o.scenario, policy_name(o.policy)),
            offered_eps: o.offered as f64 / o.duration_s.max(1e-9),
            achieved_eps: o.achieved_eps,
            sustained_eps: None,
            p50_ms: o.p50_ms,
            p95_ms: o.p95_ms,
            p99_ms: o.p99_ms,
            loss_pct: o.loss_pct,
            queue_wait_p99_ms: Some(o.queue_wait_p99_ms),
            service_p99_ms: Some(o.service_p99_ms),
            transit_p99_ms: Some(o.transit_p99_ms),
            recovery_ms: Some(o.recovery_or_horizon_ms),
            time_to_first_violation_ms: o.time_to_first_violation_ms,
            disruption_ms: o.disruption_ms,
            util: Some(
                o.shard_utilization.iter().sum::<f64>() / o.shard_utilization.len().max(1) as f64,
            ),
            peak_shard: Some(o.peak_shard),
            peak_shard_util: Some(o.peak_shard_util),
        }
    }
}

impl RunManifest {
    /// The manifest header of a run configured by `params`, around its
    /// finished `metrics` rows.
    fn new(params: &CapacityParams, metrics: Vec<MetricRow>) -> RunManifest {
        RunManifest {
            kind: MANIFEST_KIND.to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            seed: params.seed,
            ues: params.ues as u64,
            shards: params.shards,
            duration_s: params.duration_s,
            backend: params.backend.to_string(),
            burst: params.burst,
            pin: params.pin,
            dispatch_batch: params.dispatch_batch as u64,
            hist_bits: DEFAULT_BITS,
            metrics,
            saturation: None,
            scenarios: Vec::new(),
        }
    }

    /// Builds a manifest from a finished capacity sweep.
    pub fn from_capacity(params: &CapacityParams, curves: &[CapacityCurve]) -> RunManifest {
        let mut metrics = Vec::new();
        for c in curves {
            let name = deployment_name(c.deployment);
            // Per-point SLO recovery against the fixed default gate —
            // fixed so a committed baseline and a fresh run always gate
            // against the same budget. Only sweeps that carried
            // timelines (one per point) can report it.
            let gate = l25gc_obs::SloSpec::default_gate();
            let reports = (c.timelines.len() == c.points.len()).then(|| slo_reports(c, &gate));
            for (i, (frac, p)) in SWEEP_FRACTIONS.iter().zip(&c.points).enumerate() {
                let slo = reports.as_ref().map(|r| &r[i]);
                metrics.push(MetricRow {
                    recovery_ms: slo.map(|r| r.recovery_ns_or_horizon() as f64 / 1e6),
                    time_to_first_violation_ms: slo
                        .and_then(|r| r.time_to_first_violation_ns)
                        .map(|ns| ns as f64 / 1e6),
                    ..MetricRow::from_point(format!("{name}@{frac}x"), p)
                });
            }
        }
        RunManifest::new(params, metrics)
    }

    /// Builds a manifest from a finished staged-dispatch ladder
    /// (`reproduce dispatch`). Rows are named `dispatch/batch=<N>`;
    /// every virtual-time column must agree across the ladder, so a
    /// committed baseline gates exact counts and quantiles on any host,
    /// while `sustained_eps` rides along as the informational wall-clock
    /// column batching exists to move. The manifest-level
    /// `dispatch_batch` stays 1 because the ladder itself spans batch
    /// sizes — the per-row batch lives in the row name.
    pub fn from_dispatch(
        params: &CapacityParams,
        ladder: &[(usize, CapacityPoint)],
    ) -> RunManifest {
        let metrics = ladder
            .iter()
            .map(|(batch, p)| MetricRow::from_point(format!("dispatch/batch={batch}"), p))
            .collect();
        let mut manifest = RunManifest::new(params, metrics);
        manifest.backend = "threaded".to_string();
        manifest.dispatch_batch = 1;
        manifest
    }

    /// Builds a manifest from a finished scenario matrix. Rows are named
    /// `<scenario>/<policy>`; each library spec rides along verbatim in
    /// [`RunManifest::scenarios`] so a baseline records *what* incident
    /// it measured, not just the numbers. `ues` is the CLI override
    /// (0 = every scenario used its own default fleet) and `duration_s`
    /// is the summed scripted horizon.
    pub fn from_scenarios(
        params: &ScenarioParams,
        specs: &[ScenarioSpec],
        outcomes: &[ScenarioOutcome],
    ) -> RunManifest {
        let scenarios = specs
            .iter()
            .map(|spec| {
                // The matrix derives capacity and the budget per
                // scenario; both policies share them, so read the first
                // matching outcome.
                let cell = outcomes.iter().find(|o| o.scenario == spec.name);
                ScenarioEntry {
                    name: spec.name.to_string(),
                    summary: spec.summary.to_string(),
                    ues: cell.map(|o| o.ues as u64).unwrap_or(spec.ues as u64),
                    capacity_eps: cell.map(|o| o.capacity_eps).unwrap_or(0.0),
                    p99_budget_ms: cell.map(|o| o.p99_budget_ms).unwrap_or(0.0),
                    segments: spec
                        .segments
                        .iter()
                        .map(|s| (s.duration_s, s.rate_start, s.rate_end, s.burst))
                        .collect(),
                    mix: spec
                        .mix
                        .weights
                        .iter()
                        .map(|(k, w)| (format!("{k:?}"), *w))
                        .collect(),
                    fault: spec.fault.as_ref().map(|p| p.to_string()),
                }
            })
            .collect();
        // The matrix knobs that have a capacity twin; the rest of the
        // header (Poisson arrivals, per-event dispatch) is the capacity
        // default, which is what the matrix runs.
        let header = CapacityParams {
            ues: params.ues.unwrap_or(0),
            shards: params.shards,
            duration_s: specs.iter().map(|s| s.duration().as_secs_f64()).sum(),
            seed: params.seed,
            backend: params.backend,
            pin: params.pin,
            ..CapacityParams::default()
        };
        let metrics = outcomes.iter().map(MetricRow::from_outcome).collect();
        let mut manifest = RunManifest::new(&header, metrics);
        manifest.scenarios = scenarios;
        manifest
    }

    /// Serializes to deterministic JSON (field order fixed, `f64`
    /// round-trips exactly through the codec).
    pub fn to_json(&self) -> String {
        let rows: Vec<Value> = self
            .metrics
            .iter()
            .map(|m| {
                let mut row = ObjectBuilder::new().field("name", Value::Str(m.name.clone()));
                for required in [true, false] {
                    for c in COLUMNS.iter().filter(|c| c.required == required) {
                        row = row.opt(c.key, (c.get)(m));
                    }
                }
                row.build()
            })
            .collect();
        let scenarios: Vec<Value> = self
            .scenarios
            .iter()
            .map(|s| {
                let segments: Vec<Value> = s
                    .segments
                    .iter()
                    .map(|&(duration_s, rate_start, rate_end, burst)| {
                        ObjectBuilder::new()
                            .field("duration_s", Value::F64(duration_s))
                            .field("rate_start", Value::F64(rate_start))
                            .field("rate_end", Value::F64(rate_end))
                            .field("burst", Value::F64(burst))
                            .build()
                    })
                    .collect();
                let mix: Vec<Value> = s
                    .mix
                    .iter()
                    .map(|(event, weight)| {
                        ObjectBuilder::new()
                            .field("event", Value::Str(event.clone()))
                            .field("weight", Value::F64(*weight))
                            .build()
                    })
                    .collect();
                ObjectBuilder::new()
                    .field("name", Value::Str(s.name.clone()))
                    .field("summary", Value::Str(s.summary.clone()))
                    .field("ues", Value::U64(s.ues))
                    .field("capacity_eps", Value::F64(s.capacity_eps))
                    .field("p99_budget_ms", Value::F64(s.p99_budget_ms))
                    .field("segments", Value::Array(segments))
                    .field("mix", Value::Array(mix))
                    .opt("fault", s.fault.clone().map(Value::Str))
                    .build()
            })
            .collect();
        let saturation = self.saturation.as_ref().map(|s| {
            ObjectBuilder::new()
                .field("workers", Value::U64(s.workers))
                .field("achieved_eps", Value::F64(s.achieved_eps))
                .field("p99_ms", Value::F64(s.p99_ms))
                .field("probes", Value::U64(s.probes))
                .build()
        });
        let v = ObjectBuilder::new()
            .field("kind", Value::Str(self.kind.clone()))
            .field("version", Value::Str(self.version.clone()))
            .field("seed", Value::U64(self.seed))
            .field("ues", Value::U64(self.ues))
            .field("shards", Value::U64(u64::from(self.shards)))
            .field("duration_s", Value::F64(self.duration_s))
            .field("backend", Value::Str(self.backend.clone()))
            .field("burst", Value::F64(self.burst))
            .field("pin", Value::Bool(self.pin))
            .opt(
                "dispatch_batch",
                (self.dispatch_batch != 1).then_some(Value::U64(self.dispatch_batch)),
            )
            .field("hist_bits", Value::U64(u64::from(self.hist_bits)))
            .field("metrics", Value::Array(rows))
            .opt("saturation", saturation)
            // Only scenario manifests carry the spec block; capacity
            // manifest bytes stay identical to earlier releases.
            .opt(
                "scenarios",
                (!scenarios.is_empty()).then_some(Value::Array(scenarios)),
            )
            .build();
        json::to_string(&v)
    }

    /// Parses a manifest back from [`RunManifest::to_json`] output.
    pub fn from_json(text: &str) -> Result<RunManifest, String> {
        fn array<'a>(v: &'a Value, key: &str, of: &str) -> Result<&'a [Value], String> {
            let items = v.get(key).and_then(Value::as_array);
            items.ok_or_else(|| format!("{of}missing `{key}` array"))
        }
        let v = json::parse(text).map_err(|e| format!("not valid JSON: {e:?}"))?;
        let kind = v.str_of("kind")?;
        if kind != MANIFEST_KIND {
            return Err(format!("not a capacity manifest (kind `{kind}`)"));
        }
        let mut metrics = Vec::new();
        for row in array(&v, "metrics", "")? {
            let mut m = MetricRow {
                name: row.str_of("name")?,
                ..MetricRow::default()
            };
            for c in &COLUMNS {
                if c.required {
                    row.f64_of(c.key)?;
                }
                // A mistyped optional column reads as absent.
                row.get(c.key).and_then(|v| (c.set)(&mut m, v));
            }
            metrics.push(m);
        }
        // Capacity manifests (and all pre-scenario manifests) carry no
        // scenario spec block.
        let entries = match v.get("scenarios") {
            None | Some(Value::Null) => &[][..],
            Some(s) => s.as_array().ok_or("`scenarios` is not an array")?,
        };
        let mut scenarios = Vec::new();
        for e in entries {
            let mut segments = Vec::new();
            for seg in array(e, "segments", "scenario entry ")? {
                segments.push((
                    seg.f64_of("duration_s")?,
                    seg.f64_of("rate_start")?,
                    seg.f64_of("rate_end")?,
                    seg.f64_of("burst")?,
                ));
            }
            let mut mix = Vec::new();
            for m in array(e, "mix", "scenario entry ")? {
                mix.push((m.str_of("event")?, m.f64_of("weight")?));
            }
            scenarios.push(ScenarioEntry {
                name: e.str_of("name")?,
                summary: e.str_of("summary")?,
                ues: e.u64_of("ues")?,
                capacity_eps: e.f64_of("capacity_eps")?,
                p99_budget_ms: e.f64_of("p99_budget_ms")?,
                segments,
                mix,
                fault: e.str_of("fault").ok(),
            });
        }
        let saturation = match v.get("saturation") {
            None | Some(Value::Null) => None,
            Some(s) => Some(SaturationRow {
                workers: s.u64_of("workers")?,
                achieved_eps: s.f64_of("achieved_eps")?,
                p99_ms: s.f64_of("p99_ms")?,
                probes: s.u64_of("probes")?,
            }),
        };
        Ok(RunManifest {
            kind,
            version: v.str_of("version")?,
            seed: v.u64_of("seed")?,
            ues: v.u64_of("ues")?,
            shards: u16::try_from(v.u64_of("shards")?)
                .map_err(|_| "`shards` out of u16 range".to_string())?,
            duration_s: v.f64_of("duration_s")?,
            backend: v.str_of("backend")?,
            burst: v.f64_of("burst")?,
            // Pre-placement manifests carry no `pin`; those runs were
            // unpinned.
            pin: v.get("pin").and_then(Value::as_bool).unwrap_or(false),
            // Pre-batching manifests were all per-event dispatch.
            dispatch_batch: v.u64_of("dispatch_batch").unwrap_or(1),
            hist_bits: u32::try_from(v.u64_of("hist_bits")?)
                .map_err(|_| "`hist_bits` out of u32 range".to_string())?,
            metrics,
            saturation,
            scenarios,
        })
    }
}

/// One metric that moved past its threshold between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Series name (`L25GC@0.9x`).
    pub metric: String,
    /// Which field regressed (`achieved_eps`, `p50_ms`, ...).
    pub field: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Signed percent change from baseline (positive = worse for
    /// latency/loss, negative = worse for throughput).
    pub delta_pct: f64,
    /// The effective threshold the delta was judged against, percent
    /// (user threshold plus the histogram error guard for latency
    /// fields).
    pub threshold_pct: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}: {:.4} -> {:.4} ({:+.2}%, threshold {:.2}%)",
            self.metric,
            self.field,
            self.baseline,
            self.current,
            self.delta_pct,
            self.threshold_pct
        )
    }
}

/// Percent change of `cur` relative to `base`, guarded against a zero
/// baseline.
fn pct_delta(base: f64, cur: f64) -> f64 {
    100.0 * (cur - base) / base.max(1e-9)
}

/// Diffs `cur` against `base`, returning every metric whose movement
/// exceeds `threshold_pct`.
///
/// Each column is judged by the gate its `COLUMNS` entry declares:
/// `achieved_eps` must not drop (exact event counts); `p50/p95/p99` and
/// the per-stage p99s must not rise past the threshold widened by both
/// runs' histogram error bounds (`100 · (2^-bits_base + 2^-bits_cur)`);
/// `recovery_ms` and `disruption_ms` must not rise relative to the
/// baseline floored at 1 ms; `loss_pct` must not rise by more than
/// `threshold_pct` percentage points. Optional columns gate only when
/// both manifests carry them. A series present in the baseline but
/// missing from the current run is itself a regression (field
/// `missing`).
///
/// Errors when the manifests are not comparable (different sweep
/// configuration).
pub fn compare(
    base: &RunManifest,
    cur: &RunManifest,
    threshold_pct: f64,
) -> Result<Vec<Regression>, String> {
    let cfg = |m: &RunManifest| {
        format!(
            "{} UEs/{} shards/{}/burst {}/pin={}/batch {}",
            m.ues, m.shards, m.backend, m.burst, m.pin, m.dispatch_batch
        )
    };
    if cfg(base) != cfg(cur) {
        return Err(format!(
            "manifests are not comparable: baseline {} vs current {}",
            cfg(base),
            cfg(cur)
        ));
    }
    let err_guard = 100.0 * ((-(base.hist_bits as f64)).exp2() + (-(cur.hist_bits as f64)).exp2());
    let lat_threshold = threshold_pct + err_guard;
    let mut out = Vec::new();
    for b in &base.metrics {
        let mut flag = |field, baseline, current, delta_pct, threshold_pct| {
            out.push(Regression {
                metric: b.name.clone(),
                field,
                baseline,
                current,
                delta_pct,
                threshold_pct,
            })
        };
        let Some(c) = cur.metrics.iter().find(|c| c.name == b.name) else {
            flag("missing", b.achieved_eps, 0.0, -100.0, threshold_pct);
            continue;
        };
        for col in &COLUMNS {
            let value = |row: &MetricRow| (col.get)(row).and_then(|v| v.as_f64());
            let Some((bv, cv)) = value(b).zip(value(c)) else {
                continue;
            };
            let d = pct_delta(bv, cv);
            let floor = bv.max(1.0);
            let (regressed, delta_pct, threshold) = match col.gate {
                Gate::Info => continue,
                Gate::HigherBetter => (d < -threshold_pct, d, threshold_pct),
                Gate::Latency => (d > lat_threshold, d, lat_threshold),
                Gate::FlooredRise => (
                    cv - bv > threshold_pct * floor / 100.0,
                    pct_delta(floor, cv),
                    threshold_pct,
                ),
                Gate::AbsolutePoints => (cv > bv + threshold_pct, cv - bv, threshold_pct),
            };
            if regressed {
                flag(col.key, bv, cv, delta_pct, threshold);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use l25gc_testbed::exp::capacity::sweep_deployment;

    fn small_params() -> CapacityParams {
        CapacityParams {
            ues: 2_000,
            duration_s: 0.5,
            seed: 7,
            ..CapacityParams::default()
        }
    }

    fn small_manifest() -> RunManifest {
        let params = small_params();
        let curves = vec![sweep_deployment(Deployment::L25gc, &params)];
        RunManifest::from_capacity(&params, &curves)
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = small_manifest();
        assert_eq!(m.kind, MANIFEST_KIND);
        assert_eq!(m.metrics.len(), SWEEP_FRACTIONS.len());
        assert!(m.metrics.iter().any(|r| r.name == "L25GC@0.9x"));
        assert!(m.metrics.iter().any(|r| r.name == "L25GC@1x"));
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn saturation_row_round_trips_and_old_manifests_get_defaults() {
        let mut m = small_manifest();
        assert!(!m.pin);
        m.saturation = Some(SaturationRow {
            workers: 24,
            achieved_eps: 123_456.5,
            p99_ms: 0.75,
            probes: 9,
        });
        m.pin = true;
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);

        // A manifest written before the placement field existed still
        // parses, as an unpinned run without saturation data.
        let legacy = small_manifest().to_json().replace("\"pin\":false,", "");
        assert!(!legacy.contains("pin"), "field really stripped");
        let parsed = RunManifest::from_json(&legacy).unwrap();
        assert!(!parsed.pin);
        assert_eq!(parsed.saturation, None);
    }

    #[test]
    fn legacy_wait_key_is_ignored_whatever_its_value() {
        // Manifests written while the wait discipline was a knob carry a
        // `"wait"` header key; it no longer names anything, so such a
        // manifest loads as — and gates against — the same run without it.
        let m = small_manifest();
        let json = m.to_json();
        assert!(!json.contains("\"wait\""), "the writer no longer emits it");
        for header in ["", "\"wait\":\"adaptive\",", "\"wait\":\"spin\","] {
            let legacy = json.replace("\"pin\":false,", &format!("\"pin\":false,{header}"));
            assert_eq!(legacy.contains("\"wait\""), !header.is_empty());
            let parsed = RunManifest::from_json(&legacy).unwrap();
            assert_eq!(parsed, m);
            assert_eq!(compare(&parsed, &m, 10.0).unwrap(), vec![]);
        }
    }

    #[test]
    fn scenario_manifest_round_trips_and_feeds_compare() {
        use l25gc_load::ScenarioSpec;
        use l25gc_testbed::exp::scenario::{run_matrix, ScenarioParams};

        let params = ScenarioParams {
            ues: Some(2_000),
            shards: 2,
            seed: 7,
            ..ScenarioParams::default()
        };
        let specs = vec![ScenarioSpec::by_name("flash-crowd").unwrap()];
        let outcomes = run_matrix(&specs, &params);
        let m = RunManifest::from_scenarios(&params, &specs, &outcomes);

        assert_eq!(m.kind, MANIFEST_KIND);
        assert_eq!(m.metrics.len(), 2, "one row per policy");
        assert!(m.metrics.iter().any(|r| r.name == "flash-crowd/shed"));
        assert!(m.metrics.iter().any(|r| r.name == "flash-crowd/queue"));
        assert!(m.metrics.iter().all(|r| r.recovery_ms.is_some()));
        assert_eq!(m.scenarios.len(), 1);
        assert_eq!(m.scenarios[0].name, "flash-crowd");
        assert!(m.scenarios[0].capacity_eps > 0.0);
        assert!(!m.scenarios[0].segments.is_empty());
        assert!(!m.scenarios[0].mix.is_empty());

        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);

        // Scenario manifests flow through the same gate as capacity
        // manifests: identical runs compare clean, a recovery
        // regression is flagged.
        assert_eq!(compare(&m, &back, 10.0).unwrap(), vec![]);
        let mut slower = m.clone();
        for r in &mut slower.metrics {
            r.recovery_ms = r.recovery_ms.map(|v| v.max(1.0) * 2.0);
        }
        let regs = compare(&m, &slower, 10.0).unwrap();
        assert!(
            regs.iter().any(|r| r.field == "recovery_ms"),
            "doubled recovery must trip the gate: {regs:?}"
        );
    }

    #[test]
    fn time_to_first_violation_round_trips_and_is_not_gated() {
        let mut m = small_manifest();
        m.metrics[0].time_to_first_violation_ms = Some(123.5);
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);

        // The field is informational: an earlier onset with the same
        // recovery time is not a regression.
        let mut earlier = m.clone();
        earlier.metrics[0].time_to_first_violation_ms = Some(10.0);
        assert_eq!(compare(&m, &earlier, 10.0).unwrap(), vec![]);

        // Manifests written before the field existed still parse.
        let legacy = m
            .to_json()
            .replace(",\"time_to_first_violation_ms\":123.5", "");
        assert!(!legacy.contains("time_to_first_violation_ms"));
        let parsed = RunManifest::from_json(&legacy).unwrap();
        assert_eq!(parsed.metrics[0].time_to_first_violation_ms, None);
        assert!(parsed.scenarios.is_empty());
    }

    #[test]
    fn utilization_columns_round_trip_and_are_not_gated() {
        let m = small_manifest();
        // Fresh sweeps always carry the utilization anatomy.
        for r in &m.metrics {
            let util = r.util.expect("mean utilization recorded");
            assert!(util > 0.0 && util <= 1.0, "{util}");
            let peak = r.peak_shard_util.expect("peak shard utilization");
            assert!(peak >= util - 1e-12, "the peak bounds the mean");
            assert!(r.peak_shard.expect("peak shard index") < m.shards);
        }
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);

        // The columns are informational: a hotter run with the same
        // throughput and latency is not a regression.
        let mut hotter = m.clone();
        for r in &mut hotter.metrics {
            r.util = r.util.map(|v| (v * 2.0).min(1.0));
            r.peak_shard_util = r.peak_shard_util.map(|v| (v * 2.0).min(1.0));
            r.peak_shard = Some(3);
        }
        assert_eq!(compare(&m, &hotter, 10.0).unwrap(), vec![]);

        // Pre-utilization manifests (no columns) still parse.
        let mut tagged = m.clone();
        tagged.metrics.truncate(1);
        tagged.metrics[0].util = Some(0.5);
        tagged.metrics[0].peak_shard = Some(2);
        tagged.metrics[0].peak_shard_util = Some(0.75);
        let legacy = tagged
            .to_json()
            .replace(",\"util\":0.5", "")
            .replace(",\"peak_shard\":2", "")
            .replace(",\"peak_shard_util\":0.75", "");
        assert!(!legacy.contains("util"), "fields really stripped");
        let parsed = RunManifest::from_json(&legacy).unwrap();
        assert_eq!(parsed.metrics[0].util, None);
        assert_eq!(parsed.metrics[0].peak_shard, None);
        assert_eq!(parsed.metrics[0].peak_shard_util, None);
    }

    #[test]
    fn placement_mismatch_refuses_to_compare() {
        let base = small_manifest();
        let mut pinned = base.clone();
        pinned.pin = true;
        assert!(compare(&base, &pinned, 10.0)
            .unwrap_err()
            .contains("not comparable"));
    }

    #[test]
    fn unrelated_json_is_rejected() {
        assert!(RunManifest::from_json("{\"kind\":\"other\"}")
            .unwrap_err()
            .contains("not a capacity manifest"));
        assert!(RunManifest::from_json("[1, 2]").is_err());
        assert!(RunManifest::from_json("not json at all").is_err());
    }

    #[test]
    fn same_seed_runs_compare_clean() {
        let a = small_manifest();
        let b = small_manifest();
        assert_eq!(a, b, "analytic backend is seed-deterministic");
        assert_eq!(compare(&a, &b, 10.0).unwrap(), vec![]);
    }

    #[test]
    fn injected_slowdown_is_flagged() {
        let base = small_manifest();
        let mut cur = base.clone();
        for r in &mut cur.metrics {
            r.p99_ms *= 2.0;
        }
        let regs = compare(&base, &cur, 10.0).unwrap();
        assert_eq!(regs.len(), SWEEP_FRACTIONS.len());
        assert!(regs.iter().all(|r| r.field == "p99_ms"));
        assert!(regs.iter().all(|r| (r.delta_pct - 100.0).abs() < 1e-9));
    }

    #[test]
    fn throughput_drop_is_flagged_without_error_guard() {
        let base = small_manifest();
        let mut cur = base.clone();
        cur.metrics[3].achieved_eps *= 0.8;
        let regs = compare(&base, &cur, 10.0).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].field, "achieved_eps");
        assert_eq!(regs[0].metric, base.metrics[3].name);
        assert!(
            (regs[0].threshold_pct - 10.0).abs() < 1e-9,
            "no guard on counts"
        );
    }

    #[test]
    fn latency_threshold_absorbs_histogram_error() {
        // Both runs at DEFAULT_BITS = 5: each quantile may over-read by
        // 2^-5 = 3.125%, so the 10% user threshold widens to 16.25%.
        let base = small_manifest();
        let mut cur = base.clone();
        cur.metrics[0].p95_ms *= 1.15; // inside 10% + 6.25% guard
        assert_eq!(compare(&base, &cur, 10.0).unwrap(), vec![]);
        cur.metrics[0].p95_ms = base.metrics[0].p95_ms * 1.20; // outside
        let regs = compare(&base, &cur, 10.0).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].field, "p95_ms");
        assert!((regs[0].threshold_pct - 16.25).abs() < 1e-9);
    }

    #[test]
    fn stage_p99s_gate_like_latency_but_only_when_both_sides_carry_them() {
        let base = small_manifest();
        assert!(
            base.metrics.iter().all(|m| m.queue_wait_p99_ms.is_some()),
            "fresh sweeps always carry the anatomy columns"
        );
        let mut cur = base.clone();
        cur.metrics[4].queue_wait_p99_ms = cur.metrics[4].queue_wait_p99_ms.map(|v| v * 2.0);
        let regs = compare(&base, &cur, 10.0).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].field, "queue_wait_p99_ms");
        assert!((regs[0].threshold_pct - 16.25).abs() < 1e-9, "error guard");

        // A pre-anatomy baseline (no stage columns) never flags them.
        let mut legacy = base.clone();
        for m in &mut legacy.metrics {
            m.queue_wait_p99_ms = None;
            m.service_p99_ms = None;
            m.transit_p99_ms = None;
        }
        assert_eq!(compare(&legacy, &cur, 10.0).unwrap(), vec![]);
    }

    #[test]
    fn recovery_regression_is_flagged_with_a_floor() {
        let mut base = small_manifest();
        let mut cur = base.clone();
        // Baseline recovered instantly (0 ms): the 1 ms floor makes the
        // allowance 10% × 1 ms = 0.1 ms, so a 0.05 ms wobble passes and
        // a 5 ms recovery fails.
        base.metrics[0].recovery_ms = Some(0.0);
        cur.metrics[0].recovery_ms = Some(0.05);
        assert_eq!(compare(&base, &cur, 10.0).unwrap(), vec![]);
        cur.metrics[0].recovery_ms = Some(5.0);
        let regs = compare(&base, &cur, 10.0).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].field, "recovery_ms");
        // Improvement or a missing side never flags.
        cur.metrics[0].recovery_ms = None;
        assert_eq!(compare(&base, &cur, 10.0).unwrap(), vec![]);
        base.metrics[0].recovery_ms = Some(500.0);
        cur.metrics[0].recovery_ms = Some(100.0);
        assert_eq!(compare(&base, &cur, 10.0).unwrap(), vec![]);
    }

    #[test]
    fn disruption_regression_is_flagged_with_a_floor() {
        let mut base = small_manifest();
        let mut cur = base.clone();
        // Same contract as recovery_ms: a zero baseline gets a 1 ms
        // floor, so sub-allowance wobble passes and a real rise fails.
        base.metrics[0].disruption_ms = Some(0.0);
        cur.metrics[0].disruption_ms = Some(0.05);
        assert_eq!(compare(&base, &cur, 10.0).unwrap(), vec![]);
        cur.metrics[0].disruption_ms = Some(5.0);
        let regs = compare(&base, &cur, 10.0).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].field, "disruption_ms");
        // Improvement, or a side that scripted no fault, never flags.
        base.metrics[0].disruption_ms = Some(500.0);
        cur.metrics[0].disruption_ms = Some(100.0);
        assert_eq!(compare(&base, &cur, 10.0).unwrap(), vec![]);
        cur.metrics[0].disruption_ms = None;
        assert_eq!(compare(&base, &cur, 10.0).unwrap(), vec![]);
    }

    #[test]
    fn fault_scenario_manifest_records_the_plan_and_disruption() {
        use l25gc_load::ScenarioSpec;
        use l25gc_testbed::exp::scenario::{run_matrix, ScenarioParams};

        let params = ScenarioParams {
            ues: Some(2_000),
            shards: 2,
            seed: 7,
            ..ScenarioParams::default()
        };
        let specs = vec![ScenarioSpec::by_name("amf-restart").unwrap()];
        let outcomes = run_matrix(&specs, &params);
        let m = RunManifest::from_scenarios(&params, &specs, &outcomes);

        assert_eq!(
            m.scenarios[0].fault.as_deref(),
            Some("kill@2500ms:shard=0"),
            "the scripted plan rides the manifest in spec-string form"
        );
        assert!(
            m.metrics
                .iter()
                .all(|r| r.disruption_ms.is_some_and(|v| v > 0.0)),
            "both policy rows charge the failover: {:?}",
            m.metrics
        );
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);

        // A worsened failover trips the gate on the new field.
        let mut slower = m.clone();
        for r in &mut slower.metrics {
            r.disruption_ms = r.disruption_ms.map(|v| v * 2.0);
        }
        let regs = compare(&m, &slower, 10.0).unwrap();
        assert!(
            regs.iter().any(|r| r.field == "disruption_ms"),
            "doubled disruption must trip the gate: {regs:?}"
        );

        // Pre-fault manifests (no fault, no disruption column) parse.
        let legacy = m
            .to_json()
            .replace(",\"fault\":\"kill@2500ms:shard=0\"", "");
        assert!(!legacy.contains("\"fault\""), "field really stripped");
        let parsed = RunManifest::from_json(&legacy).unwrap();
        assert_eq!(parsed.scenarios[0].fault, None);
    }

    #[test]
    fn manifests_with_timelines_carry_recovery() {
        let params = CapacityParams {
            metrics_interval_ms: Some(100.0),
            ..small_params()
        };
        let curves = vec![sweep_deployment(Deployment::L25gc, &params)];
        let m = RunManifest::from_capacity(&params, &curves);
        assert!(
            m.metrics.iter().all(|r| r.recovery_ms.is_some()),
            "every point with a timeline reports recovery (or its horizon)"
        );
        assert!(m.metrics.iter().all(|r| r.recovery_ms.unwrap() >= 0.0));
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        // Without timelines the column is absent, not zero.
        let plain = small_manifest();
        assert!(plain.metrics.iter().all(|r| r.recovery_ms.is_none()));
    }

    #[test]
    fn missing_series_and_config_mismatch_are_surfaced() {
        let base = small_manifest();
        let mut cur = base.clone();
        cur.metrics.pop();
        let regs = compare(&base, &cur, 10.0).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].field, "missing");

        let mut other = base.clone();
        other.ues += 1;
        assert!(compare(&base, &other, 10.0)
            .unwrap_err()
            .contains("not comparable"));
    }

    #[test]
    fn dispatch_batch_mismatch_refuses_to_compare() {
        let base = small_manifest();
        assert_eq!(base.dispatch_batch, 1, "per-event dispatch by default");
        let mut batched = base.clone();
        batched.dispatch_batch = 32;
        let err = compare(&base, &batched, 10.0).unwrap_err();
        assert!(err.contains("not comparable"), "{err}");
        assert!(err.contains("batch 32"), "names the mismatch: {err}");
    }

    #[test]
    fn dispatch_batch_round_trips_and_legacy_manifests_default_to_one() {
        let mut m = small_manifest();
        m.dispatch_batch = 32;
        let text = m.to_json();
        assert!(text.contains("\"dispatch_batch\":32"));
        assert_eq!(RunManifest::from_json(&text).unwrap(), m);

        // Per-event manifests omit the field entirely, so committed
        // pre-batching baselines stay byte-identical — and parse back
        // to batch 1.
        m.dispatch_batch = 1;
        let text = m.to_json();
        assert!(!text.contains("dispatch_batch"), "1 is the silent default");
        assert_eq!(RunManifest::from_json(&text).unwrap().dispatch_batch, 1);
    }

    #[test]
    fn sustained_eps_round_trips_and_is_not_gated() {
        let mut m = small_manifest();
        assert!(
            m.metrics.iter().all(|r| r.sustained_eps.is_none()),
            "analytic rows carry no wall-clock column"
        );
        m.metrics[0].sustained_eps = Some(1234.5);
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);

        // Wall-clock throughput is host-dependent and informational: a
        // slower wall rate with identical virtual-time columns is not a
        // regression.
        let mut slower = m.clone();
        slower.metrics[0].sustained_eps = Some(1.0e3);
        assert_eq!(compare(&m, &slower, 10.0).unwrap(), vec![]);

        // Manifests written before the column existed still parse.
        let legacy = m.to_json().replace(",\"sustained_eps\":1234.5", "");
        assert!(!legacy.contains("sustained_eps"), "field really stripped");
        let parsed = RunManifest::from_json(&legacy).unwrap();
        assert!(parsed.metrics.iter().all(|r| r.sustained_eps.is_none()));
    }

    #[test]
    fn dispatch_manifest_gates_counts_and_quantiles_exactly() {
        use l25gc_testbed::exp::capacity::{dispatch_ladder, DISPATCH_BATCHES};

        let params = CapacityParams {
            ues: 2_000,
            shards: 2,
            duration_s: 0.5,
            seed: 7,
            ..CapacityParams::default()
        };
        let ladder = dispatch_ladder(&params);
        let m = RunManifest::from_dispatch(&params, &ladder);
        assert_eq!(m.metrics.len(), DISPATCH_BATCHES.len());
        assert!(m.metrics.iter().any(|r| r.name == "dispatch/batch=1"));
        assert!(m.metrics.iter().any(|r| r.name == "dispatch/batch=32"));
        assert_eq!(m.dispatch_batch, 1, "the ladder spans sizes via rows");
        assert!(
            m.metrics.iter().all(|r| r.sustained_eps.is_some()),
            "threaded rows always carry the wall-clock column"
        );
        // The virtual-time columns are the gated ones, and they agree
        // across the whole ladder by construction.
        for r in &m.metrics {
            assert_eq!(r.achieved_eps, m.metrics[0].achieved_eps);
            assert_eq!(r.p99_ms, m.metrics[0].p99_ms);
            assert_eq!(r.loss_pct, 0.0);
        }
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(compare(&m, &back, 10.0).unwrap(), vec![]);
        // A count drop on one batch row trips the exact gate.
        let mut worse = m.clone();
        worse.metrics[2].achieved_eps *= 0.8;
        let regs = compare(&m, &worse, 10.0).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].field, "achieved_eps");
        assert_eq!(regs[0].metric, "dispatch/batch=32");
    }
}
