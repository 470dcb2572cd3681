//! The `reproduce` command line, declared once.
//!
//! Three registries describe the whole CLI: [`FLAGS`] (one entry per
//! flag: name, metavar, help text, value kind + setter, and what it
//! needs alongside it), [`SUBCOMMANDS`] (`compare`, `baseline`,
//! `report`, `validate-prom`) and [`EXPERIMENTS`] (one entry per
//! experiment id: help text, whether `all` includes it, and the
//! function that runs it). [`Args::parse`], [`help`] and the binary's
//! dispatch are all derived from them, so a new flag is one [`FLAGS`]
//! entry and a new experiment one [`EXPERIMENTS`] entry.
//!
//! Flags whose values are little declarative languages — `--slo`
//! (`p99=2ms,shed=1%`), `--scenario` (comma-separated library names),
//! `--fault` (`kill@3s:shard=2,recover@5s`), `--scale-shards` (`lo..hi`)
//! — keep their grammar with their domain type where one exists
//! ([`l25gc_obs::SloSpec::parse`], [`l25gc_load::ScenarioSpec::by_name`],
//! [`l25gc_load::FaultPlan::parse`]); the functions here give them the
//! CLI's one error contract: `Err` is exactly one human-readable line
//! naming the flag, the offending input, and (where the domain has one)
//! the valid vocabulary. The binary prints it to stderr and exits 2 —
//! never a panic or a multi-line dump.

use std::num::TryFromIntError;

use l25gc_load::{ExecBackend, FaultPlan, ScenarioSpec, SCENARIO_NAMES};
use l25gc_obs::SloSpec;
use l25gc_sim::SimDuration;
use l25gc_testbed::exp::capacity::CapacityParams;

use crate::run;

/// Parses an `--slo` spec (`p99=<N>ms,shed=<P>%[,clean=<K>]`).
pub fn slo(s: &str) -> Result<SloSpec, String> {
    SloSpec::parse(s).map_err(|e| format!("--slo: {e}"))
}

/// Parses a `--scenario` list: comma-separated, trimmed, every name
/// validated against the scenario library's vocabulary.
pub fn scenario_names(s: &str) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    for name in s.split(',').map(str::trim) {
        if !SCENARIO_NAMES.contains(&name) {
            return Err(format!(
                "--scenario: unknown scenario `{name}` (library: {})",
                SCENARIO_NAMES.join(", ")
            ));
        }
        names.push(name.to_string());
    }
    Ok(names)
}

/// Parses a `--fault` plan (`kill@3s:shard=2,recover@5s`). Structural
/// validation against the run's shard count and horizon happens later,
/// once both are known; this rejects only grammar errors.
pub fn fault_plan(s: &str) -> Result<FaultPlan, String> {
    FaultPlan::parse(s).map_err(|e| format!("--fault: {e}"))
}

/// Parses a `--scale-shards` range (`lo..hi`, 1 <= lo <= hi <= 64).
pub fn scale_shards(s: &str) -> Result<(u16, u16), String> {
    let range = s.split_once("..");
    let (lo, hi) = range.ok_or_else(|| mistyped("--scale-shards", s, "`lo..hi`"))?;
    let lo: u16 = num("--scale-shards", lo, "a shard count")?;
    let hi: u16 = num("--scale-shards", hi, "a shard count")?;
    if lo == 0 || hi < lo || hi > 64 {
        return Err(format!(
            "--scale-shards needs 1 <= lo <= hi <= 64, got {lo}..{hi}"
        ));
    }
    Ok((lo, hi))
}

fn mistyped(flag: &str, v: &str, what: &str) -> String {
    format!("{flag} needs {what}, got `{v}`")
}

fn num<T: std::str::FromStr>(flag: &str, v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| mistyped(flag, v, what))
}

/// A finite float > 0.
fn positive(flag: &str, v: &str, what: &str) -> Result<f64, String> {
    let x: f64 = num(flag, v, what)?;
    if !x.is_finite() || x <= 0.0 {
        return Err(format!("{flag} must be positive"));
    }
    Ok(x)
}

/// The parsed command line: every flag typed, every id validated.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// `--help` / `-h` / `help`.
    pub help: bool,
    /// `--seed`: perturbs every harness RNG.
    pub seed: u64,
    /// `--csv`: directory for the Fig 13/14 RTT series.
    pub csv: Option<String>,
    /// `--trace-out`: flight-recorder trace file.
    pub trace_out: Option<String>,
    /// `--metrics-out`: capacity timeline file (.csv/.prom/.jsonl).
    pub metrics_out: Option<String>,
    /// `--manifest-out`: capacity run-manifest JSON.
    pub manifest_out: Option<String>,
    /// `--threshold-pct`: regression threshold for `compare`.
    pub threshold_pct: f64,
    /// `compare <baseline> <current>`: diff two run manifests.
    pub compare: Option<(String, String)>,
    /// `baseline`: rerun the CI gate config and rewrite the committed
    /// baseline manifest.
    pub baseline: bool,
    /// `report <manifest.json>`: print a human-readable run digest.
    pub report: Option<String>,
    /// `validate-prom <file|->`: validate a Prometheus exposition.
    pub validate_prom: Option<String>,
    /// `--saturate`: closed-loop saturation search on the capacity run.
    pub saturate: bool,
    /// `--slo p99=<N>ms,shed=<P>%[,clean=<K>]`: evaluate every capacity
    /// sweep point's timeline against this SLO and print violation
    /// spans, burn rate, and recovery time. Implies a metrics timeline.
    pub slo: Option<SloSpec>,
    /// `--slo-out`: write the per-point SLO reports as JSON.
    pub slo_out: Option<String>,
    /// The load-engine knobs (`--ues`, `--shards`, `--backend`, ...).
    pub cap: CapacityParams,
    /// `--scale-shards lo..hi`: run the shard-scaling study.
    pub scale_shards: Option<(u16, u16)>,
    /// `--scenario <names>`: comma-separated subset of the scenario
    /// library for the `scenarios` matrix (empty = whole library).
    pub scenario: Vec<String>,
    /// Explicit `--ues` for the `scenarios` matrix; `None` keeps each
    /// scenario's own default fleet size (the capacity sweep's 1 M
    /// default must not leak into scenario runs).
    pub scenario_ues: Option<usize>,
    /// `--fault kill@3s:shard=2,recover@5s`: overrides the scripted
    /// fault plan of every selected scenario (validated at parse time
    /// against each scenario's horizon and the run's shard count).
    pub fault: Option<FaultPlan>,
    /// Validated experiment ids, in given order (empty = everything).
    pub experiments: Vec<String>,
}

/// How a flag's value is checked before its setter stores it.
#[derive(Clone, Copy)]
pub enum Kind {
    /// Takes no value.
    Switch(fn(&mut Args)),
    /// A positive integer that fits the field: what the value is (for
    /// the type error), advice trailing "must be positive", and the
    /// setter, which fails when the count overflows the field.
    Count(
        &'static str,
        &'static str,
        fn(&mut Args, u64) -> Result<(), TryFromIntError>,
    ),
    /// A finite duration > 0 — its unit, units per second, and the
    /// setter (which stores the value in its own unit) — that still is
    /// one as a [`SimDuration`]: a value that rounds to zero nanoseconds
    /// is rejected here rather than deep in a sweep.
    Duration(&'static str, f64, fn(&mut Args, f64)),
    /// A finite ratio >= 1.
    Ratio(fn(&mut Args, f64)),
    /// An output or input path, taken verbatim.
    Path(fn(&mut Args, String)),
    /// A value with its own grammar; the setter parses it.
    Spec(fn(&mut Args, &str) -> Result<(), String>),
}

/// A positive count with the standard wording.
const fn count(set: fn(&mut Args, u64) -> Result<(), TryFromIntError>) -> Kind {
    Kind::Count("a positive count", "", set)
}

/// One command-line flag.
pub struct Flag {
    /// The flag and its value placeholder as `--help` shows them
    /// (`--ues <n>`; switches have no placeholder).
    pub label: &'static str,
    /// `--help` text, one `\n` per line break.
    pub help: &'static str,
    /// Value check and setter.
    pub kind: Kind,
    /// Flags or experiment ids of which at least one must accompany
    /// this flag (empty: it stands alone).
    pub needs: &'static [&'static str],
}

const fn flag(label: &'static str, help: &'static str, kind: Kind) -> Flag {
    Flag {
        label,
        help,
        kind,
        needs: &[],
    }
}

impl Flag {
    const fn needs(self, needs: &'static [&'static str]) -> Flag {
        Flag { needs, ..self }
    }

    /// The flag as typed, `--` included.
    pub fn name(&self) -> &'static str {
        self.label.split(' ').next().unwrap_or(self.label)
    }

    /// Checks `v` against the flag's kind and stores it.
    fn set(&self, args: &mut Args, v: &str) -> Result<(), String> {
        let flag = self.name();
        match self.kind {
            Kind::Switch(set) => set(args),
            Kind::Count(what, hint, set) => {
                let n: u64 = num(flag, v, what)?;
                if n == 0 {
                    return Err(format!("{flag} must be positive{hint}"));
                }
                set(args, n).map_err(|_| mistyped(flag, v, what))?;
            }
            Kind::Duration(what, per_s, set) => {
                let x = positive(flag, v, what)?;
                if SimDuration::from_secs_f64(x / per_s) == SimDuration::ZERO {
                    return Err(format!(
                        "{flag} must be positive (`{v}` rounds to zero nanoseconds)"
                    ));
                }
                set(args, x);
            }
            Kind::Ratio(set) => {
                let x: f64 = num(flag, v, "a ratio >= 1")?;
                if !x.is_finite() || x < 1.0 {
                    return Err(format!("{flag} must be finite and >= 1"));
                }
                set(args, x);
            }
            Kind::Path(set) => set(args, v.to_string()),
            Kind::Spec(set) => set(args, v)?,
        }
        Ok(())
    }
}

/// Every flag, in `--help` order.
pub const FLAGS: [Flag; 25] = [
    flag(
        "--seed <u64>",
        "perturb every harness RNG (default 0: paper tables;\n\
         any fixed seed is byte-identical across runs)",
        Kind::Spec(|a, v| num("--seed", v, "a u64").map(|seed| a.seed = seed)),
    ),
    flag(
        "--ues <n>",
        "capacity: fleet size (default 1000000)",
        count(|a, n| {
            a.cap.ues = n.try_into()?;
            // Only an explicit --ues overrides the per-scenario fleets.
            a.scenario_ues = Some(a.cap.ues);
            Ok(())
        }),
    ),
    flag(
        "--shards <n>",
        "capacity: worker shards (default 4)",
        count(|a, n| n.try_into().map(|n| a.cap.shards = n)),
    ),
    flag(
        "--duration-s <secs>",
        "capacity: horizon per sweep point (default 10)",
        Kind::Duration("seconds", 1.0, |a, s| a.cap.duration_s = s),
    ),
    flag(
        "--backend <b>",
        "capacity: `analytic` (default, deterministic) or\n\
         `threaded` (one OS thread per shard over SPSC\n\
         rings; adds wall-clock sustained ev/s)",
        Kind::Spec(|a, v| ExecBackend::parse(v).map(|b| a.cap.backend = b)),
    ),
    flag(
        "--burst <ratio>",
        "capacity: MMPP-2 burstiness, 1 = Poisson (default)",
        Kind::Ratio(|a, r| a.cap.burst = r),
    ),
    flag(
        "--workers <n>",
        "capacity: also sweep a closed loop up to n workers",
        count(|a, n| n.try_into().map(|n| a.cap.workers = Some(n))),
    ),
    flag(
        "--think-ms <ms>",
        "closed-loop mean think time (default 10)",
        Kind::Duration("milliseconds", 1e3, |a, ms| a.cap.think_ms = ms),
    ),
    flag(
        "--pin",
        "threaded: pin each shard worker (and the\n\
         dispatcher when a core is spare) to its own\n\
         physical core; warns and runs unpinned where\n\
         affinity is restricted",
        Kind::Switch(|a| a.cap.pin = true),
    ),
    flag(
        "--dispatch-batch <n>",
        "threaded: stage up to n routed events per shard\n\
         and flush them as one ring burst (default 1 =\n\
         per-event dispatch); virtual-time results are\n\
         identical at every size when unshed",
        count(|a, n| n.try_into().map(|n| a.cap.dispatch_batch = n)),
    ),
    flag(
        "--repeats <n>",
        "shard scaling: rerun each point n times, report\n\
         mean +/- CV of the wall-clock rate (default 1)",
        count(|a, n| n.try_into().map(|n| a.cap.repeats = n)),
    ),
    flag(
        "--saturate",
        "capacity: binary-search the closed-loop worker\n\
         count where throughput plateaus; recorded in the\n\
         manifest",
        Kind::Switch(|a| a.saturate = true),
    ),
    flag(
        "--scale-shards l..h",
        "shard-scaling study over doubling shard counts,\n\
         both backends (with no ids: only this study runs)",
        Kind::Spec(|a, v| scale_shards(v).map(|r| a.scale_shards = Some(r))),
    ),
    flag(
        "--csv <dir>",
        "write fig13/fig14 RTT series as CSV",
        Kind::Path(|a, p| a.csv = Some(p)),
    ),
    flag(
        "--trace-out <path>",
        "write the traced scenario (Chrome JSON, or JSONL\n\
         if the path ends in .jsonl); with --trace-sample\n\
         the capacity L25GC knee-point trace instead",
        Kind::Path(|a, p| a.trace_out = Some(p)),
    ),
    flag(
        "--metrics-out <p>",
        "capacity: write every sweep point's windowed\n\
         per-shard timeline (.csv, .prom/.txt Prometheus\n\
         text, JSONL otherwise)",
        Kind::Path(|a, p| a.metrics_out = Some(p)),
    ),
    flag(
        "--metrics-interval-ms <ms>",
        "timeline window width (default 100; needs\n\
         --metrics-out, --slo, --serve-metrics, or\n\
         scenarios)",
        Kind::Duration("milliseconds", 1e3, |a, ms| {
            a.cap.metrics_interval_ms = Some(ms)
        }),
    )
    .needs(TIMELINE_CONSUMERS),
    flag(
        "--serve-metrics <addr>",
        "serve live telemetry while capacity, scenarios,\n\
         or --saturate runs: GET /metrics returns the\n\
         current Prometheus exposition (refreshed every\n\
         timeline window and on failover transitions),\n\
         GET /healthz the run phase. Port 0 picks a free\n\
         port; the resolved address is advertised on\n\
         stderr. Implies --metrics-interval-ms 100.",
        Kind::Spec(|a, v| {
            if !v.contains(':') {
                let what = "a socket address like 127.0.0.1:9500 (port 0 picks a free one)";
                return Err(mistyped("--serve-metrics", v, what));
            }
            a.cap.serve_metrics = Some(v.to_string());
            Ok(())
        }),
    ),
    flag(
        "--slo <spec>",
        "capacity: evaluate every sweep point's timeline\n\
         against `p99=<N>ms,shed=<P>%[,clean=<K>]` and\n\
         print violation spans, burn rate, and recovery\n\
         time (never changes the exit status)",
        Kind::Spec(|a, v| slo(v).map(|s| a.slo = Some(s))),
    ),
    flag(
        "--slo-out <path>",
        "write the per-point SLO reports as JSON (needs\n\
         --slo)",
        Kind::Path(|a, p| a.slo_out = Some(p)),
    )
    .needs(&["--slo"]),
    flag(
        "--scenario <names>",
        "scenarios: comma-separated subset of the library\n\
         (default: all five); --ues, --shards, --backend,\n\
         --slo, --metrics-interval-ms, and --manifest-out\n\
         apply to the matrix too",
        Kind::Spec(|a, v| scenario_names(v).map(|n| a.scenario = n)),
    )
    .needs(&["scenarios"]),
    flag(
        "--fault <plan>",
        "scenarios: override every selected scenario's\n\
         scripted fault plan, e.g.\n\
         `kill@3s:shard=2,recover@5s` (validated against\n\
         each scenario's horizon and --shards)",
        Kind::Spec(|a, v| fault_plan(v).map(|p| a.fault = Some(p))),
    )
    .needs(&["scenarios"]),
    flag(
        "--trace-sample <n>",
        "capacity: keep every nth UE's procedure spans\n\
         (strided, allocation-free when sampled out)",
        Kind::Count("a positive stride", " (omit it to disable)", |a, n| {
            a.cap.trace_sample = n;
            Ok(())
        }),
    ),
    flag(
        "--manifest-out <p>",
        "capacity: write the machine-readable run manifest\n\
         (seed, config, per-point quantiles) as JSON",
        Kind::Path(|a, p| a.manifest_out = Some(p)),
    ),
    flag(
        "--threshold-pct <p>",
        "compare: regression threshold (default 10;\n\
         latency thresholds additionally absorb the log2\n\
         histogram error bound)",
        Kind::Spec(|a, v| {
            positive("--threshold-pct", v, "a percentage").map(|p| a.threshold_pct = p)
        }),
    ),
];

/// What can consume a metrics timeline: the run carries one exactly
/// when one of these is present (`scenarios` always scores windows;
/// `--serve-metrics` has nothing to publish without them), and
/// `--metrics-interval-ms` is meaningless without one.
const TIMELINE_CONSUMERS: &[&str] = &["--metrics-out", "--slo", "--serve-metrics", "scenarios"];

/// A standalone subcommand: it takes path operands, not experiment ids.
pub struct Subcommand {
    /// The word as typed.
    pub name: &'static str,
    /// Path operands that must follow it.
    pub operands: usize,
    /// Usage after `reproduce `, as `--help` prints it.
    pub usage: &'static str,
    /// The error when an operand is missing.
    missing: &'static str,
    /// What the "is standalone" error says to drop.
    drop: &'static str,
    set: fn(&mut Args, &[String]),
    /// Runs the subcommand if it was given: the process exit code.
    pub run: fn(&Args) -> Option<i32>,
}

/// Every subcommand, in `--help` order.
pub const SUBCOMMANDS: [Subcommand; 4] = [
    Subcommand {
        name: "compare",
        operands: 2,
        usage: "compare <baseline.json> <current.json> [--threshold-pct <p>]",
        missing: "compare needs two paths: compare <baseline> <current>",
        drop: "experiment ids",
        set: |a, p| a.compare = Some((p[0].clone(), p[1].clone())),
        run: |a| {
            let (base, cur) = a.compare.as_ref()?;
            Some(run::run_compare(base, cur, a.threshold_pct))
        },
    },
    Subcommand {
        name: "baseline",
        operands: 0,
        usage: "baseline    (rerun the CI gate configs, rewrite\n\
                results/BENCH_capacity_baseline.json,\n\
                results/BENCH_scenarios_baseline.json, and\n\
                results/BENCH_dispatch_baseline.json)",
        missing: "",
        drop: "experiment ids",
        set: |a, _| a.baseline = true,
        run: |a| a.baseline.then(run::run_baseline),
    },
    Subcommand {
        name: "report",
        operands: 1,
        usage: "report <manifest.json>   (human-readable run digest:\n\
                knee + anatomy, per-shard utilization,\n\
                SLO verdicts, disruption spans)",
        missing: "report needs a manifest path: report <manifest.json>",
        drop: "other subcommands and ids",
        set: |a, p| a.report = Some(p[0].clone()),
        run: |a| a.report.as_deref().map(run::run_report),
    },
    Subcommand {
        name: "validate-prom",
        operands: 1,
        usage: "validate-prom <file|->   (validate a Prometheus\n\
                exposition, e.g. a live /metrics scrape;\n\
                `-` reads stdin)",
        missing: "validate-prom needs a file path (or `-` for stdin)",
        drop: "other subcommands and ids",
        set: |a, p| a.validate_prom = Some(p[0].clone()),
        run: |a| a.validate_prom.as_deref().map(run::run_validate_prom),
    },
];

/// One experiment: a figure, table or study `reproduce` can regenerate.
pub struct Experiment {
    /// The id as typed.
    pub id: &'static str,
    /// `--help` text, one `\n` per line break.
    pub help: &'static str,
    /// Whether `all` (or no ids at all) runs it; the heavy side studies
    /// run only on explicit request.
    pub in_all: bool,
    /// Runs it and prints its tables.
    pub run: fn(&Args),
}

/// Every experiment, in `--help` and execution order.
pub const EXPERIMENTS: [Experiment; 24] = {
    const fn e(id: &'static str, help: &'static str, run: fn(&Args)) -> Experiment {
        Experiment {
            id,
            help,
            in_all: true,
            run,
        }
    }
    const fn explicit(id: &'static str, help: &'static str, run: fn(&Args)) -> Experiment {
        Experiment {
            in_all: false,
            ..e(id, help, run)
        }
    }
    [
        e(
            "fig6",
            "PostSmContextsRequest serialization cost",
            run::fig6,
        ),
        e("fig7", "single PFCP message latency, SMF<->UPF", run::fig7),
        e(
            "fig8",
            "UE event completion times across deployments",
            run::fig8,
        ),
        e("fig9", "SBI exchange speedup over HTTP", run::fig9),
        e(
            "fig10",
            "data-plane throughput and latency vs packet size",
            run::fig10,
        ),
        e(
            "fig11",
            "PDR lookup latency/throughput per structure",
            run::fig11,
        ),
        e(
            "pdr-update",
            "PDR update latency per structure",
            run::pdr_update,
        ),
        e(
            "scaling40g",
            "UPF cores vs forwarding rate at MTU",
            run::scaling40g,
        ),
        e(
            "fig12",
            "page load time with intermittent handovers",
            run::fig12,
        ),
        e("fig13", "paging: RTT series and Table 1", run::fig13),
        e("fig14", "handover: RTT series and Table 2", run::fig14),
        e(
            "eq12",
            "smart-buffering drop/OWD estimate (Eq 1/2)",
            run::eq12,
        ),
        e(
            "failover-cp",
            "handover completion with mid-flight 5GC failure",
            run::failover_cp,
        ),
        e("fig15", "failover during a bulk transfer", run::fig15),
        e("fig16", "failover during handover + transfer", run::fig16),
        e("fig17", "repeated handovers under 10 TCP flows", run::fig17),
        e(
            "capacity",
            "fleet-scale load-latency sweep (l25gc-load engine)",
            run::capacity,
        ),
        explicit(
            "capacity-burst",
            "MMPP burstiness x admission policy (not part of `all`)",
            run::capacity_burst,
        ),
        explicit(
            "scenarios",
            "incident scenario x admission-policy recovery matrix\n\
             over the scripted-arrival library (flash-crowd,\n\
             post-outage-reattach, diurnal, stadium-egress,\n\
             amf-restart); reports recovery time, time to first\n\
             violation, peak shed, and failover disruption per\n\
             cell (not part of `all`)",
            run::scenarios,
        ),
        explicit(
            "dispatch",
            "staged-dispatch ladder: rerun one threaded point at\n\
             batch sizes 1/8/32/128, prove the virtual-time\n\
             columns are batch-invariant, and report the\n\
             wall-clock sustained rate per size (not part of\n\
             `all`)",
            run::dispatch,
        ),
        e("ablate-dos", "tuple-space explosion DoS", run::ablate_dos),
        e(
            "ablate-checkpoint",
            "checkpoint interval sweep",
            run::ablate_checkpoint,
        ),
        e("ablate-canary", "canary rollout split", run::ablate_canary),
        e(
            "ablate-lb",
            "UE-aware load balancing across 5GC units",
            run::ablate_lb,
        ),
    ]
};

/// The experiment ids, in registry order.
pub const EXPERIMENT_IDS: [&str; EXPERIMENTS.len()] = {
    let mut ids = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].id;
        i += 1;
    }
    ids
};

impl Args {
    /// Parses the raw argument list (after the binary name). Errors are
    /// one-line human-readable strings; `main` prints them to stderr and
    /// exits 2.
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            threshold_pct: 10.0,
            ..Args::default()
        };
        // Flag and subcommand names given so far.
        let mut seen: Vec<&'static str> = Vec::new();
        let mut once = |name: &'static str| {
            if seen.contains(&name) {
                return Err(format!("{name} given more than once"));
            }
            seen.push(name);
            Ok(())
        };
        let mut i = 0;
        while i < raw.len() {
            let a = raw[i].as_str();
            i += 1;
            if a == "--help" || a == "-h" || a == "help" {
                args.help = true;
            } else if let Some(sub) = SUBCOMMANDS.iter().find(|s| s.name == a) {
                once(sub.name)?;
                let paths = raw
                    .get(i..i + sub.operands)
                    .filter(|paths| paths.iter().all(|p| !p.starts_with("--")))
                    .ok_or(sub.missing)?;
                (sub.set)(&mut args, paths);
                i += sub.operands;
            } else if a.starts_with("--") {
                let flag = FLAGS
                    .iter()
                    .find(|f| f.name() == a)
                    .ok_or_else(|| format!("unknown flag `{a}` (see --help)"))?;
                once(flag.name())?;
                let mut value = "";
                if !matches!(flag.kind, Kind::Switch(_)) {
                    let next = raw.get(i);
                    value = next.ok_or_else(|| format!("{} needs a value", flag.name()))?;
                    i += 1;
                }
                flag.set(&mut args, value)?;
            } else if a == "all" || EXPERIMENT_IDS.contains(&a) {
                args.experiments.push(a.to_string());
            } else {
                return Err(format!("unknown experiment id `{a}` (see --help)"));
            }
        }
        let selected = |id: &str| args.experiments.iter().any(|e| e == id);
        let present = |names: &[&str]| names.iter().any(|n| seen.contains(n) || selected(n));
        let mut given = SUBCOMMANDS.iter().filter(|s| seen.contains(&s.name));
        if let Some(sub) = given.next() {
            if given.next().is_some() || !args.experiments.is_empty() {
                return Err(format!("{} is standalone; drop the {}", sub.name, sub.drop));
            }
        }
        for flag in FLAGS.iter().filter(|f| seen.contains(&f.name())) {
            let what = match flag.needs {
                [] => continue,
                needs if present(needs) => continue,
                [id] if !id.starts_with("--") => format!("the `{id}` experiment"),
                [one] => one.to_string(),
                [init @ .., last] => format!("{}, or {last}", init.join(", ")),
            };
            return Err(format!("{} needs {what}", flag.name()));
        }
        args.cap.seed = args.seed;
        if let Some(fault) = &args.fault {
            // Structural fit is checkable right here: the override must
            // suit every scenario it will ride (each has its own
            // horizon) and the run's shard count.
            for spec in args.scenario_specs() {
                fault
                    .validate(args.cap.shards, spec.duration())
                    .map_err(|e| format!("--fault does not fit scenario `{}`: {e}", spec.name))?;
            }
        }
        let manifests = [
            selected("scenarios"),
            selected("capacity") || selected("all"),
            selected("dispatch"),
        ];
        if args.manifest_out.is_some() && manifests.iter().filter(|&&s| s).count() > 1 {
            return Err(
                "--manifest-out is ambiguous with more than one of `capacity`, `scenarios`, \
                 and `dispatch` selected; run them separately"
                    .into(),
            );
        }
        if present(TIMELINE_CONSUMERS) {
            args.cap.metrics_interval_ms.get_or_insert(100.0);
        }
        Ok(args)
    }

    /// The scenarios the `scenarios` matrix runs: the `--scenario`
    /// subset, or the whole library.
    pub fn scenario_specs(&self) -> Vec<ScenarioSpec> {
        if self.scenario.is_empty() {
            return ScenarioSpec::library();
        }
        let by_name = |n: &String| ScenarioSpec::by_name(n).expect("names validated at parse");
        self.scenario.iter().map(by_name).collect()
    }

    /// Whether this command line asks for experiment `e`: by id, or
    /// through `all` / no ids at all when `e` is part of `all`.
    pub fn selects(&self, e: &Experiment) -> bool {
        let given = |id: &str| self.experiments.iter().any(|x| x == id);
        given(e.id) || (e.in_all && (self.experiments.is_empty() || given("all")))
    }
}

/// Appends one `--help` entry: `label` padded to `width` columns, then
/// `help` with its continuation lines aligned under the first; a label
/// that fills the column gets a line of its own.
fn entry(out: &mut String, label: &str, width: usize, help: &str) {
    let indent = " ".repeat(2 + width);
    let mut lines = help.lines();
    if label.len() < width {
        let first = lines.next().unwrap_or_default();
        out.push_str(&format!("  {label:<width$}{first}\n"));
    } else {
        out.push_str(&format!("  {label}\n"));
    }
    for line in lines {
        out.push_str(&format!("{indent}{line}\n"));
    }
}

/// The `--help` text, generated from the three registries.
pub fn help() -> String {
    let mut out = String::from(
        "reproduce — regenerate the paper's figures and tables\n\n\
         usage: reproduce [flags] [experiment ids...]   (no ids, or `all`: everything)\n",
    );
    for sub in &SUBCOMMANDS {
        let usage = sub.usage.replace('\n', &format!("\n{}", " ".repeat(30)));
        out.push_str(&format!("       reproduce {usage}\n"));
    }
    out.push_str("\nexperiments:\n");
    for e in &EXPERIMENTS {
        entry(&mut out, e.id, 18, e.help);
    }
    out.push_str("\nflags:\n");
    for f in &FLAGS {
        entry(&mut out, f.label, 20, f.help);
    }
    entry(&mut out, "--help", 20, "this listing");
    out.push_str(
        "\nexit status: 0 ok; 1 compare found regressions or validate-prom found\n\
         an invalid exposition; 2 bad usage or unreadable inputs\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_one_line(err: &str) {
        assert!(!err.contains('\n'), "multi-line error: {err:?}");
        assert!(!err.is_empty());
    }

    #[test]
    fn slo_parses_and_prefixes_errors_with_the_flag() {
        let spec = slo("p99=2ms,shed=1%").expect("valid spec");
        assert_eq!(spec.p99_budget_ns, 2_000_000);
        let err = slo("p99=fast").unwrap_err();
        assert!(err.starts_with("--slo: "), "{err}");
        assert_one_line(&err);
    }

    #[test]
    fn scenario_names_trim_split_and_validate() {
        let names = scenario_names("flash-crowd, amf-restart").expect("both in library");
        assert_eq!(names, vec!["flash-crowd", "amf-restart"]);
        let err = scenario_names("flash-crowd,flash-mob").unwrap_err();
        assert!(
            err.starts_with("--scenario: unknown scenario `flash-mob`"),
            "{err}"
        );
        assert!(
            err.contains("amf-restart"),
            "error lists the vocabulary: {err}"
        );
        assert_one_line(&err);
    }

    #[test]
    fn fault_plans_parse_and_prefix_errors_with_the_flag() {
        let plan = fault_plan("kill@3s:shard=2,recover@5s").expect("valid plan");
        assert_eq!(plan.kills().count(), 1);
        let err = fault_plan("explode@3s:shard=2").unwrap_err();
        assert!(err.starts_with("--fault: "), "{err}");
        assert_one_line(&err);
    }

    #[test]
    fn every_surface_rejects_empty_input_with_one_line() {
        // `--slo ""` is legal (all-default gate); the other two are not.
        assert!(slo("").is_ok());
        for err in [scenario_names("").unwrap_err(), fault_plan("").unwrap_err()] {
            assert_one_line(&err);
        }
    }
}
