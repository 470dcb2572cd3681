//! Regenerates every figure and table of the paper's evaluation.
//!
//! ```text
//! cargo run -p l25gc-bench --bin reproduce --release -- all
//! cargo run -p l25gc-bench --bin reproduce --release -- fig8 fig13 fig14
//! cargo run -p l25gc-bench --bin reproduce --release -- --help
//! ```
//!
//! `--help` is the reference for every experiment id, subcommand and
//! flag; it is generated from the registries in [`l25gc_bench::spec`],
//! which are also the only place any of them is declared.

use l25gc_bench::spec::{self, Args, EXPERIMENTS, SUBCOMMANDS};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("reproduce: {e}");
            std::process::exit(2);
        }
    };
    if args.help {
        print!("{}", spec::help());
        return;
    }
    for sub in &SUBCOMMANDS {
        if let Some(code) = (sub.run)(&args) {
            std::process::exit(code);
        }
    }
    if l25gc_bench::run::side_studies(&args) {
        return;
    }
    for e in EXPERIMENTS.iter().filter(|e| args.selects(e)) {
        (e.run)(&args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l25gc_bench::run::{render_report, run_compare, run_report, run_validate_prom};
    use l25gc_bench::spec::EXPERIMENT_IDS as EXPERIMENTS;
    use l25gc_bench::RunManifest;
    use l25gc_load::{ExecBackend, MAX_THREADED_SHARDS};

    fn parse(args: &[&str]) -> Result<Args, String> {
        let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw)
    }

    #[test]
    fn defaults_match_published_tables() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.seed, 0);
        assert_eq!(args.cap.backend, ExecBackend::Analytic);
        assert_eq!(args.cap.burst, 1.0);
        assert_eq!(args.cap.workers, None);
        assert!(args.experiments.is_empty(), "empty ids mean `all`");
        assert!(!args.help);
    }

    #[test]
    fn flags_and_ids_parse_into_typed_fields() {
        let args = parse(&[
            "capacity",
            "--seed",
            "7",
            "--ues",
            "5000",
            "--shards",
            "8",
            "--duration-s",
            "2.5",
            "--backend",
            "threaded",
            "--burst",
            "4",
            "--workers",
            "32",
            "--think-ms",
            "5",
            "--scale-shards",
            "1..16",
        ])
        .unwrap();
        assert_eq!(args.seed, 7);
        assert_eq!(args.cap.seed, 7, "capacity inherits the master seed");
        assert_eq!(args.cap.ues, 5000);
        assert_eq!(args.cap.shards, 8);
        assert_eq!(args.cap.duration_s, 2.5);
        assert_eq!(args.cap.backend, ExecBackend::Threaded);
        assert_eq!(args.cap.burst, 4.0);
        assert_eq!(args.cap.workers, Some(32));
        assert_eq!(args.cap.think_ms, 5.0);
        assert_eq!(args.scale_shards, Some((1, 16)));
        assert_eq!(args.experiments, vec!["capacity".to_string()]);
    }

    #[test]
    fn unknown_flags_and_ids_are_rejected() {
        assert!(parse(&["--frobnicate", "1"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&["fig99"])
            .unwrap_err()
            .contains("unknown experiment"));
    }

    #[test]
    fn duplicate_and_valueless_flags_are_rejected() {
        assert!(parse(&["--seed", "1", "--seed", "2"])
            .unwrap_err()
            .contains("more than once"));
        assert!(parse(&["--seed"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        assert!(parse(&["--ues", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--shards", "0"]).unwrap_err().contains("positive"));
        // Checked at parse time, never by spawning the threads.
        let cap = MAX_THREADED_SHARDS.to_string();
        let over = (MAX_THREADED_SHARDS + 1).to_string();
        let threaded = |n: &str| parse(&["capacity", "--backend", "threaded", "--shards", n]);
        assert!(threaded(&cap).is_ok());
        assert!(threaded(&over)
            .unwrap_err()
            .starts_with("--shards: the threaded backend runs at most"));
        assert!(parse(&["capacity", "--shards", &over]).is_ok());
        assert!(parse(&["--burst", "0.5"]).unwrap_err().contains(">= 1"));
        assert!(parse(&["--workers", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--seed", "banana"]).unwrap_err().contains("u64"));
        assert!(parse(&["--backend", "gpu"])
            .unwrap_err()
            .contains("unknown backend"));
        assert!(parse(&["--scale-shards", "4"])
            .unwrap_err()
            .contains("lo..hi"));
        assert!(parse(&["--scale-shards", "8..2"])
            .unwrap_err()
            .contains("lo <= hi"));
    }

    #[test]
    fn help_short_circuits() {
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["help"]).unwrap().help);
        assert!(parse(&["-h"]).unwrap().help);
    }

    #[test]
    fn every_listed_experiment_id_is_accepted() {
        for id in EXPERIMENTS {
            let args = parse(&[id]).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(args.experiments, vec![id.to_string()]);
        }
        assert!(parse(&["all"]).unwrap().experiments == vec!["all".to_string()]);
    }

    #[test]
    fn scenario_flags_parse_into_typed_fields() {
        let args = parse(&["scenarios"]).unwrap();
        assert!(args.scenario.is_empty(), "empty filter = whole library");
        assert_eq!(
            args.scenario_ues, None,
            "without --ues each scenario keeps its own fleet size"
        );
        assert_eq!(
            args.cap.metrics_interval_ms,
            Some(100.0),
            "scenarios always carry a timeline"
        );

        let args = parse(&[
            "scenarios",
            "--scenario",
            "flash-crowd,diurnal",
            "--ues",
            "5000",
            "--shards",
            "2",
            "--metrics-interval-ms",
            "50",
        ])
        .unwrap();
        assert_eq!(
            args.scenario,
            vec!["flash-crowd".to_string(), "diurnal".to_string()]
        );
        assert_eq!(args.scenario_ues, Some(5000));
        assert_eq!(args.cap.metrics_interval_ms, Some(50.0));
    }

    #[test]
    fn unknown_scenario_names_are_rejected() {
        let err = parse(&["scenarios", "--scenario", "tsunami"]).unwrap_err();
        assert!(err.contains("unknown scenario `tsunami`"), "{err}");
        assert!(err.contains("flash-crowd"), "lists the library: {err}");
        assert!(parse(&["scenarios", "--scenario", "flash-crowd,nope"])
            .unwrap_err()
            .contains("unknown scenario `nope`"));
    }

    #[test]
    fn scenario_flag_needs_the_scenarios_experiment() {
        assert!(parse(&["--scenario", "flash-crowd"])
            .unwrap_err()
            .contains("needs the `scenarios` experiment"));
        assert!(parse(&["capacity", "--scenario", "flash-crowd"])
            .unwrap_err()
            .contains("needs the `scenarios` experiment"));
    }

    #[test]
    fn fault_flag_parses_and_validates_against_the_selection() {
        let args = parse(&[
            "scenarios",
            "--scenario",
            "diurnal",
            "--fault",
            "kill@3s:shard=2",
        ])
        .unwrap();
        let fault = args.fault.expect("plan parsed");
        assert_eq!(fault.kills().count(), 1);

        // Grammar errors surface the flag, one line.
        let err = parse(&["scenarios", "--fault", "explode@1s"]).unwrap_err();
        assert!(err.contains("--fault"), "{err}");
        assert!(!err.contains('\n'), "{err}");

        // Structural misfit against a selected scenario is caught at
        // parse time: shard out of range for the default 4-shard run...
        let err = parse(&[
            "scenarios",
            "--scenario",
            "diurnal",
            "--fault",
            "kill@3s:shard=9",
        ])
        .unwrap_err();
        assert!(err.contains("does not fit scenario `diurnal`"), "{err}");
        // ...and a kill scripted past the scenario's own horizon.
        let err = parse(&[
            "scenarios",
            "--scenario",
            "amf-restart",
            "--fault",
            "kill@60s:shard=0",
        ])
        .unwrap_err();
        assert!(err.contains("does not fit scenario `amf-restart`"), "{err}");
        // With no --scenario filter the plan must fit the whole library.
        assert!(parse(&["scenarios", "--fault", "kill@2s:shard=0"]).is_ok());
    }

    #[test]
    fn fault_flag_needs_the_scenarios_experiment() {
        assert!(parse(&["--fault", "kill@1s:shard=0"])
            .unwrap_err()
            .contains("needs the `scenarios` experiment"));
        assert!(parse(&["capacity", "--fault", "kill@1s:shard=0"])
            .unwrap_err()
            .contains("needs the `scenarios` experiment"));
    }

    #[test]
    fn manifest_out_refuses_capacity_plus_scenarios() {
        for ids in [["capacity", "scenarios"], ["all", "scenarios"]] {
            let err = parse(&[ids[0], ids[1], "--manifest-out", "run.json"]).unwrap_err();
            assert!(err.contains("ambiguous"), "{ids:?}: {err}");
        }
        // Each alone is fine.
        assert!(parse(&["scenarios", "--manifest-out", "run.json"]).is_ok());
        assert!(parse(&["capacity", "--manifest-out", "run.json"]).is_ok());
    }

    #[test]
    fn telemetry_flags_parse_into_typed_fields() {
        let args = parse(&[
            "capacity",
            "--metrics-out",
            "tl.jsonl",
            "--metrics-interval-ms",
            "250",
            "--trace-sample",
            "64",
            "--manifest-out",
            "run.json",
            "--threshold-pct",
            "5",
        ])
        .unwrap();
        assert_eq!(args.metrics_out.as_deref(), Some("tl.jsonl"));
        assert_eq!(args.cap.metrics_interval_ms, Some(250.0));
        assert_eq!(args.cap.trace_sample, 64);
        assert_eq!(args.manifest_out.as_deref(), Some("run.json"));
        assert_eq!(args.threshold_pct, 5.0);
    }

    #[test]
    fn telemetry_defaults_are_off_except_compare_threshold() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.metrics_out, None);
        assert_eq!(args.cap.metrics_interval_ms, None);
        assert_eq!(args.cap.trace_sample, 0);
        assert_eq!(args.manifest_out, None);
        assert_eq!(args.threshold_pct, 10.0);
        assert_eq!(args.compare, None);

        let args = parse(&["--metrics-out", "tl.csv"]).unwrap();
        assert_eq!(
            args.cap.metrics_interval_ms,
            Some(100.0),
            "--metrics-out alone uses the 100 ms default window"
        );
    }

    #[test]
    fn invalid_telemetry_values_are_rejected() {
        assert!(parse(&["--trace-sample", "0"])
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--trace-sample", "-4"])
            .unwrap_err()
            .contains("positive stride"));
        assert!(parse(&["--metrics-interval-ms", "0", "--metrics-out", "x"])
            .unwrap_err()
            .contains("positive"));
        assert!(
            parse(&["--metrics-interval-ms", "nan", "--metrics-out", "x"])
                .unwrap_err()
                .contains("positive")
        );
        assert!(parse(&["--metrics-interval-ms", "100"])
            .unwrap_err()
            .contains("needs --metrics-out"));
        assert!(parse(&["--threshold-pct", "0"])
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--threshold-pct", "banana"])
            .unwrap_err()
            .contains("percentage"));
    }

    #[test]
    fn placement_and_saturation_flags_parse() {
        let args = parse(&[
            "capacity",
            "--backend",
            "threaded",
            "--pin",
            "--repeats",
            "5",
            "--workers",
            "32",
        ])
        .unwrap();
        assert!(args.cap.pin);
        assert_eq!(args.cap.repeats, 5);
        assert_eq!(args.cap.workers, Some(32), "--workers runs the search");

        let args = parse(&[]).unwrap();
        assert!(!args.cap.pin, "pinning is opt-in");
        assert_eq!(args.cap.repeats, 1);
        assert_eq!(args.cap.workers, None);
        assert!(parse(&["capacity", "--saturate"])
            .unwrap_err()
            .contains("unknown flag"));

        assert!(parse(&["--pin", "--pin"])
            .unwrap_err()
            .contains("more than once"));
        assert!(parse(&["--repeats", "0"]).unwrap_err().contains("positive"));
    }

    #[test]
    fn slo_flags_parse_and_imply_a_timeline() {
        let args = parse(&["capacity", "--slo", "p99=5ms,shed=1%"]).unwrap();
        let spec = args.slo.expect("--slo parses into a spec");
        assert_eq!(spec.p99_budget_ns, 5_000_000);
        assert_eq!(spec.shed_budget_pct, 1.0);
        assert_eq!(
            args.cap.metrics_interval_ms,
            Some(100.0),
            "--slo alone turns the timeline on at the default window"
        );

        let args = parse(&[
            "capacity",
            "--slo",
            "p99=10ms,shed=0.5%,clean=5",
            "--slo-out",
            "slo.json",
            "--metrics-interval-ms",
            "50",
        ])
        .unwrap();
        assert_eq!(args.slo.unwrap().clean_windows, 5);
        assert_eq!(args.slo_out.as_deref(), Some("slo.json"));
        assert_eq!(
            args.cap.metrics_interval_ms,
            Some(50.0),
            "--metrics-interval-ms is honoured with --slo and no --metrics-out"
        );

        assert_eq!(parse(&[]).unwrap().slo, None, "SLO evaluation is opt-in");
        assert!(parse(&["--slo-out", "slo.json"])
            .unwrap_err()
            .contains("needs --slo"));
        assert!(parse(&["--slo", "p99=banana"]).unwrap_err().contains("p99"));
    }

    #[test]
    fn baseline_is_a_standalone_subcommand() {
        assert!(parse(&["baseline"]).unwrap().baseline);
        assert!(!parse(&[]).unwrap().baseline);
        assert!(parse(&["baseline", "capacity"])
            .unwrap_err()
            .contains("standalone"));
        assert!(parse(&["baseline", "baseline"])
            .unwrap_err()
            .contains("more than once"));
        assert!(parse(&["baseline", "compare", "a", "b"])
            .unwrap_err()
            .contains("standalone"));
    }

    #[test]
    fn compare_is_a_standalone_subcommand() {
        let args = parse(&["compare", "base.json", "cur.json"]).unwrap();
        assert_eq!(
            args.compare,
            Some(("base.json".to_string(), "cur.json".to_string()))
        );
        assert!(args.experiments.is_empty());

        let args = parse(&["compare", "a", "b", "--threshold-pct", "2"]).unwrap();
        assert_eq!(args.threshold_pct, 2.0);

        assert!(parse(&["compare", "only-one"])
            .unwrap_err()
            .contains("two paths"));
        assert!(parse(&["compare", "a", "--threshold-pct", "2"])
            .unwrap_err()
            .contains("two paths"));
        assert!(parse(&["compare", "a", "b", "capacity"])
            .unwrap_err()
            .contains("standalone"));
        assert!(parse(&["compare", "a", "b", "compare", "c", "d"])
            .unwrap_err()
            .contains("more than once"));
    }

    fn tiny_manifest(p99_ms: f64) -> RunManifest {
        tiny_manifest_with_recovery(p99_ms, None)
    }

    fn tiny_manifest_with_recovery(p99_ms: f64, recovery_ms: Option<f64>) -> RunManifest {
        RunManifest {
            kind: l25gc_bench::manifest::MANIFEST_KIND.to_string(),
            version: "test".to_string(),
            seed: 7,
            ues: 1000,
            shards: 4,
            duration_s: 1.0,
            backend: "analytic".to_string(),
            burst: 1.0,
            pin: false,
            dispatch_batch: 1,
            hist_bits: 5,
            metrics: vec![l25gc_bench::MetricRow {
                name: "L25GC@0.9x".to_string(),
                offered_eps: 900.0,
                achieved_eps: 890.0,
                sustained_eps: None,
                p50_ms: 1.0,
                p95_ms: 2.0,
                p99_ms,
                queue_wait_p99_ms: None,
                service_p99_ms: None,
                transit_p99_ms: None,
                loss_pct: 0.0,
                recovery_ms,
                time_to_first_violation_ms: None,
                disruption_ms: None,
                util: None,
                peak_shard: None,
                peak_shard_util: None,
            }],
            saturation: None,
            scenarios: Vec::new(),
        }
    }

    fn write_tmp(name: &str, text: &str) -> String {
        let path = std::env::temp_dir().join(format!("reproduce-test-{name}"));
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn run_compare_exit_codes_cover_clean_regressed_and_broken_inputs() {
        let base = write_tmp("base.json", &tiny_manifest(4.0).to_json());
        let same = write_tmp("same.json", &tiny_manifest(4.0).to_json());
        let slow = write_tmp("slow.json", &tiny_manifest(8.0).to_json());
        let junk = write_tmp("junk.json", "{\"kind\":\"other\"}");
        assert_eq!(run_compare(&base, &same, 10.0), 0, "identical runs pass");
        assert_eq!(run_compare(&base, &slow, 10.0), 1, "2x p99 regresses");
        assert_eq!(run_compare(&base, &junk, 10.0), 2, "unrelated JSON");

        let quick = write_tmp(
            "quick.json",
            &tiny_manifest_with_recovery(4.0, Some(100.0)).to_json(),
        );
        let stuck = write_tmp(
            "stuck.json",
            &tiny_manifest_with_recovery(4.0, Some(900.0)).to_json(),
        );
        assert_eq!(
            run_compare(&quick, &stuck, 10.0),
            1,
            "9x SLO recovery time regresses"
        );
        assert_eq!(
            run_compare(&stuck, &quick, 10.0),
            0,
            "faster recovery is not a regression"
        );
        assert_eq!(run_compare(&base, "/no/such/file.json", 10.0), 2);
    }

    #[test]
    fn serve_metrics_parses_and_implies_a_timeline() {
        let args = parse(&["capacity", "--serve-metrics", "127.0.0.1:0"]).unwrap();
        assert_eq!(args.cap.serve_metrics.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(
            args.cap.metrics_interval_ms,
            Some(100.0),
            "--serve-metrics implies the default timeline window"
        );

        let args = parse(&[
            "capacity",
            "--serve-metrics",
            "127.0.0.1:9500",
            "--metrics-interval-ms",
            "50",
        ])
        .unwrap();
        assert_eq!(
            args.cap.metrics_interval_ms,
            Some(50.0),
            "an explicit window width wins; --serve-metrics alone satisfies the gate"
        );

        assert_eq!(parse(&["capacity"]).unwrap().cap.serve_metrics, None);
        assert!(
            parse(&["--serve-metrics", "9500"])
                .unwrap_err()
                .contains("socket address"),
            "a bare port is not an address"
        );
        let gate = parse(&["--metrics-interval-ms", "100"]).unwrap_err();
        assert!(
            gate.contains("needs --metrics-out") && gate.contains("--serve-metrics"),
            "the gating error names every flag that satisfies it: {gate}"
        );
    }

    #[test]
    fn report_and_validate_prom_are_standalone_subcommands() {
        assert_eq!(
            parse(&["report", "m.json"]).unwrap().report.as_deref(),
            Some("m.json")
        );
        assert_eq!(parse(&[]).unwrap().report, None);
        assert!(parse(&["report"]).unwrap_err().contains("manifest path"));
        assert!(parse(&["report", "m.json", "capacity"])
            .unwrap_err()
            .contains("standalone"));
        assert!(parse(&["report", "a.json", "report", "b.json"])
            .unwrap_err()
            .contains("more than once"));
        assert!(parse(&["report", "m.json", "baseline"])
            .unwrap_err()
            .contains("standalone"));

        assert_eq!(
            parse(&["validate-prom", "-"])
                .unwrap()
                .validate_prom
                .as_deref(),
            Some("-")
        );
        assert!(parse(&["validate-prom"]).unwrap_err().contains("file path"));
        assert!(parse(&["validate-prom", "x.prom", "fig6"])
            .unwrap_err()
            .contains("standalone"));
        assert!(parse(&["report", "m.json", "validate-prom", "x.prom"])
            .unwrap_err()
            .contains("standalone"));
    }

    #[test]
    fn run_report_digests_manifests_and_rejects_junk() {
        let mut manifest = tiny_manifest_with_recovery(4.0, Some(120.0));
        let row = &mut manifest.metrics[0];
        row.util = Some(0.6);
        row.peak_shard = Some(2);
        row.peak_shard_util = Some(0.9);
        let good = write_tmp("report-good.json", &manifest.to_json());
        assert_eq!(run_report(&good), 0, "a capacity manifest digests");

        let digest = render_report(&manifest);
        assert!(digest.contains("knee at L25GC@0.9x"), "digest: {digest}");
        assert!(
            digest.contains("peak shard 2 at 90%"),
            "per-shard utilization surfaces: {digest}"
        );
        assert!(
            digest.contains("clean (no violating window)"),
            "recovered-with-no-violation rows read as clean: {digest}"
        );

        let junk = write_tmp("report-junk.json", "{\"kind\":\"other\"}");
        assert_eq!(run_report(&junk), 2, "unrelated JSON is a usage error");
        assert_eq!(run_report("/no/such/manifest.json"), 2);
    }

    /// `report` names the knee `capacity` marks with `*`: the last row
    /// with under 1% loss, at least 90% of its offered rate achieved and
    /// p99 within 3x the lightest row's.
    #[test]
    fn report_knee_keeps_the_sweeps_p99_budget() {
        let mut manifest = tiny_manifest(1.0);
        let row = manifest.metrics[0].clone();
        manifest.metrics = [(0.25, 1.0), (0.5, 1.5), (0.75, 4.0), (0.9, 6.0)]
            .into_iter()
            .map(|(frac, p99_ms)| l25gc_bench::MetricRow {
                name: format!("L25GC@{frac}x"),
                offered_eps: 1000.0 * frac,
                achieved_eps: 1000.0 * frac,
                p99_ms,
                ..row.clone()
            })
            .collect();
        // No row loses anything or falls behind its offered rate; only the
        // 3 ms p99 budget rules out 0.75x and 0.9x.
        let digest = render_report(&manifest);
        assert!(
            digest.contains("L25GC: knee at L25GC@0.5x"),
            "digest: {digest}"
        );
    }

    #[test]
    fn report_without_a_healthy_row_names_no_knee() {
        let mut manifest = tiny_manifest(1.0);
        let row = manifest.metrics[0].clone();
        // Each row fails one rule: achieved share, loss, the p99 budget.
        manifest.metrics = [
            (0.25, 300.0, 0.0, 1.0),
            (0.5, 1000.0, 5.0, 1.0),
            (0.75, 1500.0, 0.0, 9.0),
        ]
        .into_iter()
        .map(
            |(frac, achieved_eps, loss_pct, p99_ms)| l25gc_bench::MetricRow {
                name: format!("L25GC@{frac}x"),
                offered_eps: 2000.0 * frac,
                achieved_eps,
                loss_pct,
                p99_ms,
                util: Some(0.5),
                peak_shard: Some(1),
                peak_shard_util: Some(0.9),
                ..row.clone()
            },
        )
        .collect();
        let digest = render_report(&manifest);
        assert!(
            digest.contains("L25GC: no healthy point\n"),
            "digest: {digest}"
        );
        assert!(!digest.contains("knee at"), "digest: {digest}");
        assert!(!digest.contains("at the knee"), "digest: {digest}");
    }

    #[test]
    fn run_validate_prom_checks_expositions() {
        let valid = write_tmp("scrape-valid.prom", &l25gc_obs::prometheus_header());
        assert_eq!(
            run_validate_prom(&valid),
            0,
            "type declarations without samples validate"
        );
        let invalid = write_tmp("scrape-invalid.prom", "l25gc_mystery_metric 1\n");
        assert_eq!(run_validate_prom(&invalid), 1, "undeclared metric fails");
        assert_eq!(run_validate_prom("/no/such/scrape.prom"), 2);
    }
}
