//! What the `reproduce` command line does: one function per
//! [`crate::spec::EXPERIMENTS`] entry, each printing its tables, and one
//! per [`crate::spec::SUBCOMMANDS`] entry, each returning the process
//! exit code. `reproduce --help` lists them all.

use l25gc_core::Deployment;
use l25gc_load::{ExecBackend, ScenarioSpec};
use l25gc_nfv::CostModel;
use l25gc_obs::TraceBundle;
use l25gc_testbed::exp;
use l25gc_testbed::exp::capacity::{knee, knee_anatomy, CapacityParams, CapacityPoint};

use crate::spec::Args;
use crate::{
    deployment_name, f, policy_name, print_table, write_or_exit, Column, MetricRow, RunManifest,
    SaturationRow,
};

/// Reports a subcommand's unusable input on one stderr line; returns
/// the usage-error exit code.
fn unusable(subcommand: &str, error: impl std::fmt::Display) -> i32 {
    eprintln!("reproduce: {subcommand}: {error}");
    2
}

/// Reads and parses a run manifest; the error is one line naming the
/// path.
fn load_manifest(path: &str) -> Result<RunManifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    RunManifest::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs `compare <baseline> <current>` and returns the process exit
/// code: 0 clean, 1 regressions found, 2 unreadable or unrelated
/// inputs.
pub fn run_compare(base_path: &str, cur_path: &str, threshold_pct: f64) -> i32 {
    let compared = load_manifest(base_path).and_then(|base| {
        let cur = load_manifest(cur_path)?;
        let regs = crate::compare(&base, &cur, threshold_pct)?;
        Ok((base, cur, regs))
    });
    let (base, cur, regs) = match compared {
        Ok(c) => c,
        Err(e) => return unusable("compare", e),
    };
    println!(
        "compare: {} baseline series (seed {}, {} UEs, {} backend) vs {} current, \
         threshold {threshold_pct}%",
        base.metrics.len(),
        base.seed,
        base.ues,
        base.backend,
        cur.metrics.len(),
    );
    if regs.is_empty() {
        println!("no regressions");
        return 0;
    }
    for r in &regs {
        println!("REGRESSION {r}");
    }
    eprintln!("reproduce: compare: {} regression(s)", regs.len());
    1
}

/// `reproduce report <manifest.json>`: prints a human-readable digest
/// of a finished run. Returns the process exit code: 0 printed, 2
/// unreadable input.
pub fn run_report(path: &str) -> i32 {
    match load_manifest(path) {
        Ok(manifest) => {
            print!("{}", render_report(&manifest));
            0
        }
        Err(e) => unusable("report", e),
    }
}

/// Renders the `report` digest: run identity, knee + anatomy per
/// deployment (capacity manifests) or the scenario roster (scenario
/// manifests), then per-series SLO verdicts, failover disruption, and
/// utilization. Works on any manifest `compare` accepts — the
/// utilization columns are optional, so pre-upgrade manifests digest
/// cleanly, just with less detail.
pub fn render_report(m: &RunManifest) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run digest: seed {}, {} UEs, {} shards, {} backend, burst {}, {} metric series \
         (manifest v{})",
        m.seed,
        m.ues,
        m.shards,
        m.backend,
        m.burst,
        m.metrics.len(),
        m.version,
    );
    if m.scenarios.is_empty() {
        // Capacity manifest: rows are named `<deployment>@<frac>x`.
        // Each deployment's rows go through the sweep's own knee.
        let mut deployments: Vec<&str> = Vec::new();
        for (dep, _) in m.metrics.iter().filter_map(|r| r.name.split_once('@')) {
            if !deployments.contains(&dep) {
                deployments.push(dep);
            }
        }
        for dep in deployments {
            let prefix = format!("{dep}@");
            let rows: Vec<&MetricRow> = m
                .metrics
                .iter()
                .filter(|r| r.name.starts_with(&prefix))
                .collect();
            let points: Vec<CapacityPoint> = rows
                .iter()
                .map(|r| CapacityPoint {
                    offered_eps: r.offered_eps,
                    achieved_eps: r.achieved_eps,
                    p99_ms: r.p99_ms,
                    loss_pct: r.loss_pct,
                    queue_wait_p99_ms: r.queue_wait_p99_ms.unwrap_or_default(),
                    service_p99_ms: r.service_p99_ms.unwrap_or_default(),
                    ..CapacityPoint::default()
                })
                .collect();
            let knee = knee(&points);
            let _ = match knee.map(|i| rows[i]) {
                Some(k) => writeln!(
                    out,
                    "{dep}: knee at {} — {} ev/s offered, {} achieved, p99 {} ms, loss {:.2}%",
                    k.name,
                    f(k.offered_eps),
                    f(k.achieved_eps),
                    f(k.p99_ms),
                    k.loss_pct,
                ),
                None => writeln!(out, "{dep}: no healthy point"),
            };
            let (anatomy, i) = knee_anatomy(&points, knee);
            if let (Some(qw), Some(svc)) = (rows[i].queue_wait_p99_ms, rows[i].service_p99_ms) {
                let _ = writeln!(
                    out,
                    "{dep}: anatomy {}: {anatomy} — queue-wait p99 {} ms vs service p99 {} ms",
                    knee.map_or("at the lightest point", |_| "past the knee"),
                    f(qw),
                    f(svc),
                );
            }
            let shards = |k: &MetricRow| Some((k.util?, k.peak_shard?, k.peak_shard_util?));
            if let Some((util, ps, pu)) = knee.and_then(|i| shards(rows[i])) {
                let _ = writeln!(
                    out,
                    "{dep}: utilization at the knee: mean {:.0}%, peak shard {ps} at {:.0}% — \
                     shard {ps} saturates first",
                    util * 100.0,
                    pu * 100.0,
                );
            }
        }
    } else {
        for s in &m.scenarios {
            let fault = s
                .fault
                .as_deref()
                .map(|p| format!(", fault {p}"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "scenario {}: {} ({} UEs, capacity {} ev/s, p99 budget {} ms{fault})",
                s.name,
                s.summary,
                s.ues,
                f(s.capacity_eps),
                f(s.p99_budget_ms),
            );
        }
    }
    for r in &m.metrics {
        let verdict = match r.recovery_ms {
            None => "no SLO timeline".to_string(),
            Some(rec) => match r.time_to_first_violation_ms {
                None => "clean (no violating window)".to_string(),
                Some(t) => format!("first violation at {} ms, recovered in {} ms", f(t), f(rec)),
            },
        };
        let disruption = r
            .disruption_ms
            .map(|d| format!(", failover disruption {} ms", f(d)))
            .unwrap_or_default();
        let util = r
            .util
            .map(|u| format!(", mean util {:.0}%", u * 100.0))
            .unwrap_or_default();
        let peak = r
            .peak_shard
            .zip(r.peak_shard_util)
            .map(|(s, u)| format!(" (peak shard {s} at {:.0}%)", u * 100.0))
            .unwrap_or_default();
        let _ = writeln!(out, "  {}: SLO {verdict}{disruption}{util}{peak}", r.name);
    }
    out
}

/// `reproduce validate-prom <file|->`: validates a Prometheus text
/// exposition — typically a live `/metrics` scrape — with the same
/// checker the exporters self-validate with. Returns the process exit
/// code: 0 valid (sample count printed), 1 invalid, 2 unreadable.
pub fn run_validate_prom(path: &str) -> i32 {
    let (source, text) = if path == "-" {
        ("stdin", std::io::read_to_string(std::io::stdin()))
    } else {
        (path, std::fs::read_to_string(path))
    };
    let text = match text {
        Ok(t) => t,
        Err(e) => return unusable("validate-prom", format_args!("{source}: {e}")),
    };
    match l25gc_obs::validate_prometheus(&text) {
        Ok(samples) => {
            println!("{path}: valid Prometheus exposition, {samples} samples");
            0
        }
        Err(e) => {
            eprintln!("reproduce: validate-prom: {path}: {e}");
            1
        }
    }
}

/// `reproduce baseline`: reruns the exact configurations the CI
/// regression gates use — `capacity --ues 10000 --duration-s 1 --seed 7`
/// and the full scenario matrix at `--ues 20000 --shards 2 --seed 7`,
/// both analytic, then the threaded `dispatch --ues 5000 --shards 2
/// --duration-s 1 --seed 7` ladder — and rewrites the three committed
/// baseline manifests under `results/`. Returns exit code 0; an
/// unwritable path exits 2 on the spot.
pub(crate) fn run_baseline() -> i32 {
    let write = |path: &str, what: &str, backend: &str, m: RunManifest| {
        write_or_exit(path, &m.to_json());
        println!(
            "wrote {path}: {what}baseline manifest (seed {}, {} UEs, {} shards{backend}), {} \
             metric series",
            m.seed,
            m.ues,
            m.shards,
            m.metrics.len()
        );
    };
    let params = CapacityParams {
        ues: 10_000,
        duration_s: 1.0,
        seed: 7,
        // Keep a timeline so the baseline carries recovery_ms and the
        // compare gate can watch it.
        metrics_interval_ms: Some(100.0),
        ..CapacityParams::default()
    };
    let curves = exp::capacity::sweep(&params);
    let manifest = RunManifest::from_capacity(&params, &curves);
    let path = "results/BENCH_capacity_baseline.json";
    write(path, "", ", analytic backend", manifest);
    let params = exp::scenario::ScenarioParams {
        ues: Some(20_000),
        shards: 2,
        seed: 7,
        ..exp::scenario::ScenarioParams::default()
    };
    let specs = ScenarioSpec::library();
    let outcomes = exp::scenario::run_matrix(&specs, &params);
    let manifest = RunManifest::from_scenarios(&params, &specs, &outcomes);
    let path = "results/BENCH_scenarios_baseline.json";
    write(path, "scenario ", "", manifest);
    // The dispatch ladder gates exact virtual-time counts and
    // quantiles, which are host-independent even on the threaded
    // backend; the wall-clock column rides along uncompared.
    let params = CapacityParams {
        ues: 5_000,
        shards: 2,
        duration_s: 1.0,
        seed: 7,
        ..CapacityParams::default()
    };
    let ladder = exp::capacity::dispatch_ladder(&params);
    print_dispatch_ladder(&params, &ladder);
    let manifest = RunManifest::from_dispatch(&params, &ladder);
    let path = "results/BENCH_dispatch_baseline.json";
    write(path, "dispatch ", ", threaded", manifest);
    0
}

/// The studies that hang off flags rather than experiment ids — the
/// traced end-to-end scenario (`--trace-out` without `--trace-sample`;
/// with it the trace comes out of the capacity sweep instead) and the
/// shard-scaling study (`--scale-shards`). Returns whether they are the
/// whole run: given with no experiment ids, only they run.
pub fn side_studies(args: &Args) -> bool {
    let trace = args
        .trace_out
        .as_deref()
        .filter(|_| args.cap.trace_sample == 0);
    if let Some(path) = trace {
        let bundle = l25gc_testbed::trace::trace_scenario();
        write_bundle(path, &bundle);
        println!(
            "wrote {path}: {} events, {} spans, {} segments ({} events lost to ring overwrites)\n",
            bundle.events.len(),
            bundle.spans.len(),
            bundle.segments.len(),
            bundle.dropped_events,
        );
        print!("{}", l25gc_obs::to_summary(&bundle));
    }
    if let Some((lo, hi)) = args.scale_shards {
        shard_scaling(&args.cap, lo, hi);
    }
    (trace.is_some() || args.scale_shards.is_some()) && args.experiments.is_empty()
}

/// With `--manifest-out`, builds the run's manifest, writes it, and
/// says what it holds.
fn write_manifest(args: &Args, what: &str, build: impl FnOnce() -> RunManifest) {
    let Some(path) = args.manifest_out.as_deref() else {
        return;
    };
    let manifest = build();
    write_or_exit(path, &manifest.to_json());
    print!(
        "wrote {path}: {what}, {} metric series",
        manifest.metrics.len()
    );
    if manifest.saturation.is_some() {
        print!(" + saturation point");
    }
    if !manifest.scenarios.is_empty() {
        print!(", {} scenario specs", manifest.scenarios.len());
    }
    println!();
}

/// Writes a trace as JSON Lines when the path ends in `.jsonl`, Chrome
/// `trace_event` JSON otherwise.
fn write_bundle(path: &str, bundle: &TraceBundle) {
    let text = if path.ends_with(".jsonl") {
        l25gc_obs::to_jsonl(bundle)
    } else {
        l25gc_obs::to_chrome_trace(bundle)
    };
    write_or_exit(path, &text);
}

/// Writes every sweep point's timeline to one file, format chosen by
/// extension, and self-validates the output by re-parsing it.
fn write_metrics(path: &str, curves: &[exp::capacity::CapacityCurve]) {
    let csv = path.ends_with(".csv");
    let prom = path.ends_with(".prom") || path.ends_with(".txt");
    let mut text = match (csv, prom) {
        (true, _) => l25gc_obs::timeline_csv_header().to_string(),
        (_, true) => l25gc_obs::prometheus_header(),
        _ => String::new(),
    };
    let mut series = 0usize;
    for c in curves {
        let name = deployment_name(c.deployment);
        for (frac, tl) in exp::capacity::SWEEP_FRACTIONS.iter().zip(&c.timelines) {
            let label = format!("{name}@{frac}x");
            if csv {
                text.push_str(&tl.to_csv_rows(&label));
            } else if prom {
                text.push_str(&tl.to_prometheus_samples(&label));
            } else {
                text.push_str(&tl.to_jsonl(&label));
            }
            series += 1;
        }
    }
    let size = if prom {
        let samples = l25gc_obs::validate_prometheus(&text).expect("exposition self-check");
        format!("{samples} Prometheus samples")
    } else {
        if !csv {
            for line in text.lines() {
                l25gc_obs::parse_timeline_jsonl_line(line).expect("timeline JSONL self-check");
            }
        }
        format!("{} lines", text.lines().count())
    };
    write_or_exit(path, &text);
    println!("wrote {path}: {series} timeline series, {size}");
}

/// `capacity`: the load-latency sweep per deployment, with the knee,
/// its anatomy, and whichever outputs the flags ask for.
pub(crate) fn capacity(args: &Args) {
    let params = &args.cap;
    let threaded = params.backend == ExecBackend::Threaded;
    let curves = exp::capacity::sweep(params);
    let mut slo_values: Vec<l25gc_codec::Value> = Vec::new();
    for c in &curves {
        let name = deployment_name(c.deployment);
        let mut columns: Vec<Column<(bool, &CapacityPoint)>> = vec![
            ("offered (ev/s)", |(knee, p)| {
                format!("{}{}", f(p.offered_eps), if *knee { " *" } else { "" })
            }),
            ("achieved (ev/s)", |(_, p)| f(p.achieved_eps)),
            ("p50 (ms)", |(_, p)| f(p.p50_ms)),
            ("p95 (ms)", |(_, p)| f(p.p95_ms)),
            ("p99 (ms)", |(_, p)| f(p.p99_ms)),
            ("qw p99 (ms)", |(_, p)| f(p.queue_wait_p99_ms)),
            ("svc p99 (ms)", |(_, p)| f(p.service_p99_ms)),
            ("tr p99 (ms)", |(_, p)| f(p.transit_p99_ms)),
            ("loss", |(_, p)| format!("{:.2}%", p.loss_pct)),
            ("active UEs", |(_, p)| p.active_ues.to_string()),
            ("util", |(_, p)| format!("{:.0}%", p.utilisation * 100.0)),
        ];
        if threaded {
            columns.push(("wall (ev/s)", |(_, p)| {
                p.wall_eps.map(f).unwrap_or_default()
            }));
        }
        print_table(
            &format!(
                "Capacity: {name} load-latency sweep ({} UEs, {} shards, {:.0} s/point, * = knee)",
                params.ues, params.shards, params.duration_s
            ),
            c.points
                .iter()
                .enumerate()
                .map(|(i, p)| (Some(i) == c.knee, p)),
            &columns,
        );
        let occupancy = f(c.mean_occupancy_ms);
        match c.sustainable_eps().zip(c.knee_p99_ms()) {
            Some((eps, p99)) => println!(
                "{name} sustainable: {} events/s at p99 {} ms (shard occupancy {occupancy} \
                 ms/event)",
                f(eps),
                f(p99),
            ),
            None => println!("{name}: no healthy point (shard occupancy {occupancy} ms/event)"),
        }
        let (anatomy, past) = knee_anatomy(&c.points, c.knee);
        let past = &c.points[past];
        println!(
            "{name} knee anatomy: {anatomy} ({}, queue-wait p99 {} ms vs service p99 {} ms)",
            c.knee.map_or("at the lightest point", |_| "past the knee"),
            f(past.queue_wait_p99_ms),
            f(past.service_p99_ms),
        );
        if let (Some(knee), Some((peak_shard, peak_util))) = (c.knee, c.peak_shard_at_knee()) {
            println!(
                "{name} knee utilization: mean {:.0}%, peak shard {peak_shard} at {:.0}%",
                c.points[knee].utilisation * 100.0,
                peak_util * 100.0,
            );
            if let Some(wall) = c.points[knee].wall_eps {
                println!(
                    "{name} threaded knee point moved {} events/s of wall-clock throughput \
                     through the shard rings",
                    f(wall)
                );
            }
        }
        if let Some(tk) = exp::capacity::timeline_knee(c) {
            let (reason, value) = match tk.reason {
                exp::capacity::KneeReason::SheddingStarted => (
                    "shedding started",
                    format!("{:.2}% of its arrivals shed", tk.value),
                ),
                exp::capacity::KneeReason::P99OverBudget => (
                    "p99 over budget",
                    format!("windowed p99 {} ms", f(tk.value)),
                ),
            };
            println!(
                "{name} timeline knee: {reason} at {:.2} s into the {}x point (window {}, {value})",
                tk.at_s,
                exp::capacity::SWEEP_FRACTIONS[tk.point],
                tk.window,
            );
        }
        if let Some(spec) = args.slo.as_ref() {
            for (frac, tl) in exp::capacity::SWEEP_FRACTIONS.iter().zip(&c.timelines) {
                let report = l25gc_obs::slo::evaluate(tl, spec);
                let label = format!("{name}/{frac}x");
                let recovery = match report.recovery_ns {
                    Some(0) => "clean (no violation)".to_string(),
                    Some(ns) => format!("recovered in {} ms", f(ns as f64 / 1e6)),
                    None => format!(
                        "never recovered (clamped to {} ms horizon)",
                        f(report.recovery_ns_or_horizon() as f64 / 1e6)
                    ),
                };
                println!(
                    "{label} SLO: {}/{} windows violating, burn rate {:.2}, {}",
                    report.violating_windows, report.window_count, report.burn_rate, recovery,
                );
                slo_values.push(report.to_value(&label));
            }
        }
    }
    if let Some((budget_ms, free_eps, l25_eps)) = exp::capacity::equal_p99_comparison(&curves) {
        println!(
            "at equal p99 <= {} ms: free5GC {} ev/s vs L25GC {} ev/s ({:.1}x)\n",
            f(budget_ms),
            f(free_eps),
            f(l25_eps),
            l25_eps / free_eps.max(1e-9),
        );
    }
    if let Some(path) = args.metrics_out.as_deref() {
        write_metrics(path, &curves);
    }
    if let Some(path) = args.slo_out.as_deref() {
        let n = slo_values.len();
        let text = l25gc_codec::json::to_string(&l25gc_codec::Value::Array(slo_values));
        write_or_exit(path, &text);
        println!("wrote {path}: {n} per-point SLO reports");
    }
    let saturation = params
        .workers
        .map(|max_workers| saturation(params, max_workers));
    write_manifest(args, "run manifest", || {
        let mut manifest = RunManifest::from_capacity(params, &curves);
        manifest.saturation = saturation;
        manifest
    });
    if params.trace_sample > 0 {
        if let Some(path) = args.trace_out.as_deref() {
            let l25 = curves.iter().find(|c| c.deployment == Deployment::L25gc);
            let l25 = l25.expect("the sweep runs L25GC");
            let bundle = l25
                .knee_trace
                .as_ref()
                .expect("a sampled sweep keeps a trace");
            write_bundle(path, bundle);
            println!(
                "wrote {path}: L25GC {} trace, {} spans (1 in {} UEs sampled)",
                l25.knee
                    .map_or("lightest-point (no healthy point)", |_| "knee-point"),
                bundle.spans.len(),
                params.trace_sample
            );
        }
    }
}

/// `--workers n`: the closed-loop saturation search capped at `n`. Prints
/// every probe, by worker count, with the plateau start starred, and
/// returns the manifest's `saturation` row.
fn saturation(params: &CapacityParams, max_workers: usize) -> SaturationRow {
    let sat = exp::capacity::saturation_search(params, max_workers);
    let mut columns: Vec<Column<(bool, &(usize, CapacityPoint))>> = vec![
        ("workers", |(plateau, (w, _))| {
            format!("{w}{}", if *plateau { " *" } else { "" })
        }),
        ("achieved (ev/s)", |(_, (_, p))| f(p.achieved_eps)),
        ("p50 (ms)", |(_, (_, p))| f(p.p50_ms)),
        ("p99 (ms)", |(_, (_, p))| f(p.p99_ms)),
        ("util", |(_, (_, p))| {
            format!("{:.0}%", p.utilisation * 100.0)
        }),
    ];
    if params.backend == ExecBackend::Threaded {
        columns.push(("wall (ev/s)", |(_, (_, p))| {
            p.wall_eps.map(f).unwrap_or_default()
        }));
    }
    print_table(
        &format!(
            "Capacity: L25GC closed loop, think {} ms ({} backend, * = plateau start)",
            f(params.think_ms),
            params.backend
        ),
        sat.probes
            .iter()
            .enumerate()
            .map(|(i, probe)| (i == sat.plateau, probe)),
        &columns,
    );
    let (workers, p) = &sat.probes[sat.plateau];
    println!(
        "saturation: L25GC closed-loop throughput plateaus from {workers} workers \
         ({} ev/s, p99 {} ms, {:.0}% util; {} probes, cap {max_workers})",
        f(p.achieved_eps),
        f(p.p99_ms),
        p.utilisation * 100.0,
        sat.probes.len(),
    );
    SaturationRow {
        workers: *workers as u64,
        achieved_eps: p.achieved_eps,
        p99_ms: p.p99_ms,
        probes: sat.probes.len() as u64,
    }
}

/// `scenarios`: runs the scenario × admission-policy recovery matrix
/// and prints one row per cell; `--manifest-out` additionally writes a
/// scenario run manifest for the `compare` gate.
pub(crate) fn scenarios(args: &Args) {
    let mut specs = args.scenario_specs();
    // `--fault` overrides every selected scenario's scripted plan
    // (validated against each horizon and the shard count at parse
    // time), turning any library profile into a failover run.
    if let Some(fault) = &args.fault {
        for spec in &mut specs {
            spec.fault = Some(fault.clone());
        }
    }
    let params = exp::scenario::ScenarioParams {
        ues: args.scenario_ues,
        shards: args.cap.shards,
        seed: args.seed,
        backend: args.cap.backend,
        metrics_interval_ms: args.cap.metrics_interval_ms.unwrap_or(100.0),
        slo: args.slo,
        pin: args.cap.pin,
        serve_metrics: args.cap.serve_metrics.clone(),
    };
    let outcomes = exp::scenario::run_matrix(&specs, &params);
    print_table(
        &format!(
            "Scenarios: incident x admission-policy recovery matrix \
             (seed {}, {} shards, {} backend, {} ms windows)",
            params.seed, params.shards, params.backend, params.metrics_interval_ms
        ),
        &outcomes,
        &[
            ("scenario/policy", |o| {
                format!("{}/{}", o.scenario, policy_name(o.policy))
            }),
            ("cap (ev/s)", |o| f(o.capacity_eps)),
            ("offered", |o| o.offered.to_string()),
            ("shed", |o| o.shed.to_string()),
            ("bp", |o| o.backpressure.to_string()),
            ("p99 (ms)", |o| f(o.p99_ms)),
            ("budget (ms)", |o| f(o.p99_budget_ms)),
            ("peak shed/win", |o| o.peak_window_shed.to_string()),
            ("spans", |o| o.violation_spans.to_string()),
            ("first viol (ms)", |o| {
                o.time_to_first_violation_ms
                    .map_or_else(|| "-".to_string(), f)
            }),
            ("recovery", |o| match o.recovery_ms {
                Some(0.0) => "clean".to_string(),
                Some(v) => format!("{} ms", f(v)),
                None => format!("never (>= {} ms)", f(o.horizon_ms)),
            }),
            ("disruption", |o| {
                o.disruption_ms
                    .map_or_else(|| "-".to_string(), |v| format!("{} ms", f(v)))
            }),
        ],
    );
    for spec in &specs {
        if let Some(o) = outcomes.iter().find(|o| o.scenario == spec.name) {
            println!(
                "{}: {} ({} UEs, {} s scripted, capacity {} ev/s, p99 budget {} ms)",
                spec.name,
                spec.summary,
                o.ues,
                f(o.duration_s),
                f(o.capacity_eps),
                f(o.p99_budget_ms),
            );
        }
    }
    write_manifest(args, "scenario run manifest", || {
        RunManifest::from_scenarios(&params, &specs, &outcomes)
    });
}

/// Prints the staged-dispatch ladder table plus the lines CI greps: the
/// batch-invariance verdict on the virtual-time columns and the batch=32
/// wall-clock speedup over per-event dispatch. The table itself carries
/// only virtual-time (seed-determined) columns so the whole table is
/// run-to-run byte-stable; the host-dependent wall-clock sustained rates
/// print as separate `dispatch wall:` lines CI strips before diffing.
fn print_dispatch_ladder(params: &CapacityParams, ladder: &[(usize, CapacityPoint)]) {
    print_table(
        &format!(
            "Dispatch: staged-burst ladder at {} ev/s offered ({} UEs, {} shards, \
             {} s/point, threaded, unshed Queue policy, dispatcher-saturating)",
            exp::capacity::DISPATCH_OFFERED_EPS,
            params.ues,
            params.shards,
            params.duration_s
        ),
        ladder,
        &[
            ("batch", |(batch, _)| batch.to_string()),
            ("achieved (ev/s)", |(_, p)| f(p.achieved_eps)),
            ("p50 (ms)", |(_, p)| f(p.p50_ms)),
            ("p99 (ms)", |(_, p)| f(p.p99_ms)),
            ("qw p99 (ms)", |(_, p)| f(p.queue_wait_p99_ms)),
            ("loss", |(_, p)| format!("{:.2}%", p.loss_pct)),
        ],
    );
    for (batch, p) in ladder {
        if let Some(w) = p.wall_eps {
            println!("dispatch wall: batch={batch} sustained {} ev/s", f(w));
        }
    }
    let base = &ladder[0].1;
    let invariant = ladder.iter().all(|(_, p)| {
        p.achieved_eps == base.achieved_eps
            && p.p50_ms == base.p50_ms
            && p.p99_ms == base.p99_ms
            && p.queue_wait_p99_ms == base.queue_wait_p99_ms
            && p.service_p99_ms == base.service_p99_ms
            && p.loss_pct == 0.0
    });
    println!(
        "dispatch determinism: virtual-time columns {} across batch sizes {:?}",
        if invariant { "identical" } else { "DIVERGED" },
        exp::capacity::DISPATCH_BATCHES,
    );
    let wall_at = |b: usize| {
        ladder
            .iter()
            .find(|(batch, _)| *batch == b)
            .and_then(|(_, p)| p.wall_eps)
    };
    if let (Some(one), Some(batched)) = (wall_at(1), wall_at(32)) {
        println!(
            "dispatch speedup: batch=32 sustained {} ev/s vs per-event {} ev/s ({:.2}x)",
            f(batched),
            f(one),
            batched / one.max(1e-9),
        );
    }
}

/// `dispatch`: run the ladder at the CLI config and optionally write
/// the gateable manifest.
pub(crate) fn dispatch(args: &Args) {
    let params = &args.cap;
    let ladder = exp::capacity::dispatch_ladder(params);
    print_dispatch_ladder(params, &ladder);
    write_manifest(args, "dispatch ladder manifest", || {
        RunManifest::from_dispatch(params, &ladder)
    });
}

fn shard_scaling(params: &CapacityParams, lo: u16, hi: u16) {
    let rows = exp::capacity::shard_scaling(params, lo, hi);
    let repeats = rows.first().map(|r| r.repeats).unwrap_or(1);
    print_table(
        &format!(
            "Capacity: L25GC shard scaling at 0.9x capacity per count \
             ({} UEs, {:.0} s/point, {repeats} run(s)/point, pin={})",
            params.ues, params.duration_s, params.pin
        ),
        rows,
        &[
            ("shards", |r| r.shards.to_string()),
            ("offered (ev/s)", |r| f(r.offered_eps)),
            ("analytic (ev/s)", |r| f(r.analytic_eps)),
            ("analytic p99 (ms)", |r| f(r.analytic_p99_ms)),
            ("threaded (ev/s)", |r| f(r.threaded_eps)),
            ("wall mean (ev/s)", |r| f(r.threaded_wall_eps)),
            ("wall CV", |r| format!("{:.1}%", r.wall_cv_pct)),
        ],
    );
}

/// The `ablate-dos` experiment.
pub(crate) fn ablate_dos(_: &Args) {
    print_table(
        "Ablation: tuple-space explosion DoS, 2000 attack rules (Sec 3.4)",
        exp::ablation::tss_dos(2_000),
        &[
            ("structure", |r| r.structure.to_string()),
            ("before (ns)", |r| f(r.before_ns)),
            ("after (ns)", |r| f(r.after_ns)),
            ("slowdown", |r| format!("{:.1}x", r.slowdown)),
        ],
    );
}

/// The `ablate-checkpoint` experiment.
pub(crate) fn ablate_checkpoint(_: &Args) {
    print_table(
        "Ablation: checkpoint interval (paper picks periodic 10ms-scale sync)",
        exp::ablation::checkpoint_sweep(&[1, 5, 10, 50, 100]),
        &[
            ("interval (ms)", |r| r.interval_ms.to_string()),
            ("checkpoints", |r| r.checkpoints.to_string()),
            ("replay backlog", |r| r.replay_backlog.to_string()),
            ("max RTT (ms)", |r| f(r.max_rtt_ms)),
            ("lost", |r| r.lost.to_string()),
        ],
    );
}

/// The `ablate-canary` experiment.
pub(crate) fn ablate_canary(_: &Args) {
    print_table(
        "Ablation: canary rollout split (Sec 4)",
        [1u32, 5, 10, 50].map(|pct| exp::ablation::canary_rollout(pct, 10_000)),
        &[
            ("configured", |r| format!("{}%", r.weight_pct)),
            ("canary sessions /10k", |r| r.canary_sessions.to_string()),
            ("observed", |r| {
                format!("{:.1}%", r.canary_sessions as f64 / r.total as f64 * 100.0)
            }),
        ],
    );
}

/// The `ablate-lb` experiment.
pub(crate) fn ablate_lb(_: &Args) {
    print_table(
        "Ablation: UE-aware LB across 5GC units, 10k sessions (Sec 4)",
        [2u32, 4, 8].map(|units| exp::ablation::lb_scaling(units, 10_000)),
        &[
            ("units", |r| r.units.to_string()),
            ("min load", |r| r.min_load.to_string()),
            ("max load", |r| r.max_load.to_string()),
            ("migrated on unit failure", |r| {
                r.migrated_on_failure.to_string()
            }),
        ],
    );
}

/// The `fig6` experiment.
pub(crate) fn fig6(_: &Args) {
    print_table(
        "Fig 6: PostSmContextsRequest serialization (measured)",
        exp::serialization::fig6_serialization(),
        &[
            ("codec", |r| r.codec.to_string()),
            ("serialize (ns)", |r| f(r.serialize_ns)),
            ("deserialize (ns)", |r| f(r.deserialize_ns)),
            ("bytes", |r| r.wire_bytes.to_string()),
        ],
    );
}

/// The `fig7` experiment.
pub(crate) fn fig7(_: &Args) {
    print_table(
        "Fig 7: single PFCP message latency SMF<->UPF (paper: 21-39% reduction)",
        exp::control_plane::fig7(),
        &[
            ("message", |r| r.message.to_string()),
            ("free5GC (ms)", |r| f(r.free5gc_ms)),
            ("L25GC (ms)", |r| f(r.l25gc_ms)),
            ("reduction", |r| format!("{:.0}%", r.reduction_pct)),
        ],
    );
}

/// The `fig8` experiment.
pub(crate) fn fig8(_: &Args) {
    print_table(
        "Fig 8: UE event completion time (paper: ~50% reduction, HO 227->130ms)",
        exp::control_plane::fig8(),
        &[
            ("event", |r| format!("{:?}", r.event)),
            ("free5GC (ms)", |r| f(r.free5gc_ms)),
            ("ONVM-UPF (ms)", |r| f(r.onvm_upf_ms)),
            ("L25GC (ms)", |r| f(r.l25gc_ms)),
            ("reduction", |r| format!("{:.0}%", r.reduction_pct())),
        ],
    );
}

/// The `fig9` experiment.
pub(crate) fn fig9(_: &Args) {
    let (rows, avg) = exp::serialization::fig9_speedup(&CostModel::paper());
    print_table(
        "Fig 9: exchange speedup over HTTP (paper: 13x average)",
        rows,
        &[
            ("message", |r| r.message.to_string()),
            ("HTTP (us)", |r| f(r.http_us)),
            ("shm (us)", |r| f(r.shm_us)),
            ("speedup", |r| format!("{:.1}x", r.speedup)),
        ],
    );
    println!("average speedup: {avg:.1}x");
}

/// The `fig10` experiment.
pub(crate) fn fig10(_: &Args) {
    for dep in [Deployment::Free5gc, Deployment::L25gc] {
        print_table(
            &format!(
                "Fig 10: {} data plane (paper: 27x tput, 15x latency at 68B)",
                deployment_name(dep)
            ),
            exp::dataplane::fig10(dep, &CostModel::paper(), 10.0),
            &[
                ("pkt size (B)", |r| r.size.to_string()),
                ("uni (Gbps)", |r| f(r.uni_gbps)),
                ("bidir (Gbps)", |r| f(r.bidir_gbps)),
                ("latency (us)", |r| f(r.latency_us)),
            ],
        );
    }
}

/// The `fig11` experiment.
pub(crate) fn fig11(_: &Args) {
    print_table(
        "Fig 11: PDR lookup latency & throughput (measured; paper: PS best, TSS_Worst 2.9us@100)",
        exp::pdr::fig11(&exp::pdr::RULE_COUNTS),
        &[
            ("structure", |r| r.structure.to_string()),
            ("rules", |r| r.rules.to_string()),
            ("lookup (ns)", |r| f(r.lookup_ns)),
            ("rate (Mpps)", |r| f(r.mpps)),
        ],
    );
}

/// The `pdr-update` experiment.
pub(crate) fn pdr_update(_: &Args) {
    print_table(
        "PDR update latency (measured; paper: LL 0.38us, TSS 1.41us, PS 6.14us)",
        exp::pdr::pdr_update(),
        &[
            ("structure", |r| r.structure.to_string()),
            ("update (us)", |r| f(r.update_us)),
        ],
    );
}

/// The `scaling40g` experiment.
pub(crate) fn scaling40g(_: &Args) {
    print_table(
        "Sec 5.3: UPF cores vs forwarding rate at MTU (paper: 1->10G, 2->28G, 4->40G)",
        exp::dataplane::scaling_40g(&CostModel::paper()),
        &[
            ("cores", |r| r.cores.to_string()),
            ("rate (Gbps)", |r| f(r.gbps)),
        ],
    );
}

/// The `fig12` experiment.
pub(crate) fn fig12(_: &Args) {
    print_table(
        "Fig 12: page load with handovers (paper: 32s vs 28s, free5GC stalls 463ms)",
        exp::webpage::fig12(),
        &[
            ("system", |r| r.system.to_string()),
            ("PLT (s)", |r| f(r.plt_s)),
            ("max stall (ms)", |r| f(r.max_stall_ms)),
            ("timeouts", |r| r.timeouts.to_string()),
            ("spurious rtx", |r| r.spurious_retransmissions.to_string()),
            ("rtx", |r| r.retransmissions.to_string()),
        ],
    );
}

/// With `--csv <dir>`, writes one RTT time series as `<dir>/<name>.csv`.
fn write_series_csv(args: &Args, name: &str, series: &l25gc_sim::TimeSeries) {
    let Some(dir) = args.csv.as_deref() else {
        return;
    };
    let path = format!("{dir}/{name}.csv");
    let mut out = String::from("time_s,rtt_us\n");
    for (t, v) in series.sorted() {
        out.push_str(&format!("{:.6},{:.1}\n", t.as_secs_f64(), v));
    }
    write_or_exit(&path, &out);
    println!("wrote {path}");
}

/// The `fig13` experiment.
pub(crate) fn fig13(args: &Args) {
    let rows = exp::paging::table1();
    print_table(
        "Fig 13/Table 1: paging (paper: 116us/59ms/63ms/608 vs 25us/28ms/30ms/294)",
        &rows,
        &[
            ("system", |r| r.system.to_string()),
            ("base RTT (us)", |r| f(r.base_rtt_us)),
            ("paging (ms)", |r| f(r.paging_time_ms)),
            ("RTT after (ms)", |r| f(r.rtt_after_ms)),
            ("#pkts higher RTT", |r| r.pkts_higher_rtt.to_string()),
        ],
    );
    for r in &rows {
        write_series_csv(args, &format!("fig13_{}", r.system), &r.series);
    }
}

/// The `fig14` experiment.
pub(crate) fn fig14(args: &Args) {
    let rows = exp::handover::table2();
    print_table(
        "Fig 14/Table 2: handover (paper expt i: 118us/242ms/2301/0 vs 24us/132ms/1437/0)",
        &rows,
        &[
            ("system", |(label, _)| label.clone()),
            ("base RTT (us)", |(_, r)| f(r.base_rtt_us)),
            ("RTT after (ms)", |(_, r)| f(r.rtt_after_ms)),
            ("#pkts higher RTT", |(_, r)| r.pkts_higher_rtt.to_string()),
            ("#dropped", |(_, r)| r.pkts_dropped.to_string()),
        ],
    );
    for (label, r) in &rows {
        let name = label.replace([' ', '(', ')'], "_");
        write_series_csv(args, &format!("fig14_{name}"), &r.series);
    }
}

/// The `eq12` experiment.
pub(crate) fn eq12(_: &Args) {
    print_table(
        "Eq 1/2: smart buffering estimate (paper: ~800 drops case i, 0 case ii, +20ms OWD)",
        exp::analytic::smart_buffering_table(&CostModel::paper()),
        &[
            ("case", |r| r.case.to_string()),
            ("gNB buf", |r| r.gnb_buffer.to_string()),
            ("UPF buf", |r| r.upf_buffer.to_string()),
            ("3GPP drops", |r| r.drops_3gpp.to_string()),
            ("L25GC drops", |r| r.drops_l25gc.to_string()),
            ("3GPP extra OWD (ms)", |r| f(r.extra_owd_ms)),
        ],
    );
}

/// The `failover-cp` experiment.
pub(crate) fn failover_cp(_: &Args) {
    print_table(
        "Sec 5.5.1: handover with mid-flight 5GC failure (paper: 134ms vs 401ms)",
        [
            exp::failover::failover_handover_l25gc(),
            exp::failover::failover_handover_3gpp(),
        ],
        &[
            ("approach", |r| r.approach.to_string()),
            ("HO no-failure (ms)", |r| f(r.ho_baseline_ms)),
            ("HO with failure (ms)", |r| f(r.ho_with_failure_ms)),
        ],
    );
}

fn failover_data(title: &str, rows: Vec<exp::failover::FailoverDataRow>) {
    print_table(
        title,
        rows,
        &[
            ("approach", |r| r.approach.to_string()),
            ("transferred (MB)", |r| f(r.transferred_mb)),
            ("dropped", |r| r.packets_dropped.to_string()),
            ("timeouts", |r| r.timeouts.to_string()),
            ("max RTT (ms)", |r| f(r.max_rtt_ms)),
        ],
    );
}

/// The `fig15` experiment.
pub(crate) fn fig15(_: &Args) {
    failover_data(
        "Fig 15: failover during data transfer (paper: 3GPP drops ~121 pkts, L25GC none)",
        exp::failover::fig15(),
    );
}

/// The `fig16` experiment.
pub(crate) fn fig16(_: &Args) {
    failover_data(
        "Fig 16: failover during handover + transfer (paper: seamless for L25GC)",
        exp::failover::fig16(),
    );
}

/// The `fig17` experiment.
pub(crate) fn fig17(_: &Args) {
    print_table(
        "Fig 17: repeated handovers, 10 TCP flows (paper: 442MB vs 416MB, RTT 130 vs 328ms)",
        exp::tcp_impact::fig17(),
        &[
            ("system", |r| r.system.to_string()),
            ("transferred (MB)", |r| f(r.transferred_mb)),
            ("max RTT (ms)", |r| f(r.max_rtt_ms)),
            ("timeouts", |r| r.timeouts.to_string()),
            ("spurious rtx", |r| r.spurious_retransmissions.to_string()),
            ("handovers", |r| r.handovers.to_string()),
        ],
    );
}
