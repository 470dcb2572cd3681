//! The `reproduce` command line as its registries declare it: `--help`
//! and the parser agree with `FLAGS` / `SUBCOMMANDS` / `EXPERIMENTS`,
//! no token sequence panics the parser, and bad output paths,
//! degenerate durations or hostile inputs exit 2 with one stderr line.

use std::process::Command;

use l25gc_bench::spec::{self, Args, Flag, Kind, EXPERIMENT_IDS, FLAGS, SUBCOMMANDS};
use proptest::prelude::*;

fn parse(args: &[&str]) -> Result<Args, String> {
    let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    Args::parse(&raw)
}

/// A value the flag accepts (`None` for switches).
fn sample(flag: &Flag) -> Option<&'static str> {
    Some(match flag.kind {
        Kind::Switch(_) => return None,
        Kind::Count(..) => "3",
        Kind::Duration(..) => "5",
        Kind::Ratio(_) => "2",
        Kind::Path(_) => "out.json",
        Kind::Spec(_) => match flag.name() {
            "--seed" => "7",
            "--threshold-pct" => "5",
            "--backend" => "threaded",
            "--scale-shards" => "1..4",
            "--serve-metrics" => "127.0.0.1:0",
            "--slo" => "p99=5ms,shed=1%",
            "--scenario" => "diurnal",
            "--fault" => "kill@2s:shard=0",
            other => panic!("no sample value for spec flag {other}"),
        },
    })
}

/// The labels `--help` lists in one section: the first word of every
/// line indented by exactly two spaces.
fn help_labels(section: &str) -> Vec<String> {
    let help = spec::help();
    let body = help
        .split_once(&format!("\n{section}:\n"))
        .unwrap_or_else(|| panic!("--help has a `{section}:` section"))
        .1;
    let body = body.split("\n\n").next().unwrap();
    body.lines()
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect()
}

#[test]
fn help_lists_every_registry_entry_exactly_once() {
    let ids: Vec<&str> = EXPERIMENT_IDS.to_vec();
    assert_eq!(help_labels("experiments"), ids);
    let mut flags: Vec<&str> = FLAGS.iter().map(|f| f.name()).collect();
    assert_eq!(flags.len(), 24, "flag count is part of the CLI contract");
    flags.push("--help");
    assert_eq!(help_labels("flags"), flags);
    let help = spec::help();
    for sub in &SUBCOMMANDS {
        let usage = format!("\n       reproduce {} ", sub.name);
        assert_eq!(help.matches(&usage).count(), 1, "{}", sub.name);
    }
}

#[test]
fn every_name_in_help_parses() {
    for id in help_labels("experiments") {
        let args = parse(&[&id]).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(args.experiments, vec![id]);
    }
    for label in help_labels("flags") {
        if label == "--help" {
            assert!(parse(&["--help"]).unwrap().help);
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name() == label)
            .unwrap_or_else(|| panic!("--help lists unregistered flag {label}"));
        let mut line = vec![flag.name()];
        line.extend(sample(flag));
        // Bring along the first thing the flag needs, if anything.
        if let Some(&need) = flag.needs.first() {
            line.push(need);
            line.extend(FLAGS.iter().find(|f| f.name() == need).and_then(sample));
        }
        parse(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        let switch = matches!(flag.kind, Kind::Switch(_));
        assert_eq!(
            switch,
            !flag.label.contains(' '),
            "{label}: only switches lack a metavar"
        );
    }
}

#[test]
fn durations_that_round_to_zero_nanoseconds_are_rejected() {
    for line in [
        [
            "--metrics-interval-ms",
            "0.0000001",
            "--metrics-out",
            "x.csv",
        ],
        ["--duration-s", "1e-10", "--metrics-out", "x.csv"],
        ["--think-ms", "0.0000001", "--metrics-out", "x.csv"],
    ] {
        let err = parse(&line).unwrap_err();
        assert!(err.contains("positive"), "{line:?}: {err}");
        assert!(err.contains("rounds to zero"), "{line:?}: {err}");
        assert!(err.starts_with(line[0]), "names the flag: {err}");
        assert!(!err.contains('\n'), "{err}");
    }
    // The smallest representable durations still pass.
    assert!(parse(&["--duration-s", "1e-9"]).is_ok());
    assert!(parse(&["--think-ms", "0.000001"]).is_ok());
}

#[test]
fn durations_whose_nanoseconds_overflow_u64_are_rejected() {
    for line in [
        ["--duration-s", "1e300"],
        ["--duration-s", "18446744074"],
        ["--think-ms", "1e20"],
    ] {
        let err = parse(&line).unwrap_err();
        assert!(err.starts_with(line[0]), "names the flag: {err}");
        assert!(err.contains("overflows u64 nanoseconds"), "{line:?}: {err}");
        assert!(!err.contains('\n'), "{err}");
    }
    // The longest duration a u64 of nanoseconds holds still parses.
    assert!(parse(&["--duration-s", "18446744073"]).is_ok());
    // Refused at parse time: the run never starts.
    let stderr = assert_exit_2_with_one_line(&["capacity", "--ues", "1", "--duration-s", "1e300"]);
    assert!(stderr.contains("--duration-s"), "{stderr}");
}

/// Tokens a user (or a fuzzer) might type: every registered name, the
/// values the kinds accept, near-miss values, and junk.
fn token() -> BoxedStrategy<String> {
    let mut pool: Vec<&'static str> = vec![
        "all",
        "help",
        "--help",
        "-h",
        "--",
        "--frobnicate",
        "fig99",
        "",
        "0",
        "1",
        "7",
        "-4",
        "2.5",
        "0.5",
        "1e-10",
        "0.0000001",
        "1e300",
        "nan",
        "inf",
        "70000",
        "99999999999999999999",
        "1..4",
        "8..2",
        "0..1",
        "analytic",
        "threaded",
        "gpu",
        "127.0.0.1:0",
        "9500",
        "p99=5ms,shed=1%",
        "p99=banana",
        "flash-crowd",
        "flash-crowd,diurnal",
        "tsunami",
        "kill@2s:shard=0",
        "kill@60s:shard=9",
        "explode@1s",
        "out.json",
        "-",
    ];
    pool.extend(FLAGS.iter().map(|f| f.name()));
    pool.extend(SUBCOMMANDS.iter().map(|s| s.name));
    pool.extend(EXPERIMENT_IDS);
    prop_oneof![
        (0..pool.len()).prop_map(move |i| pool[i].to_string()),
        "\\PC{0,12}",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn parse_never_panics_and_errors_are_one_line(
        line in proptest::collection::vec(token(), 0..8),
    ) {
        if let Err(e) = Args::parse(&line) {
            prop_assert!(!e.is_empty() && !e.contains('\n'), "{line:?}: {e:?}");
        }
    }
}

/// Runs the built binary; returns its exit code and stderr.
fn reproduce(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_exit_2_with_one_line(args: &[&str]) -> String {
    let (code, stderr) = reproduce(args);
    assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr}");
    assert!(
        stderr.starts_with("reproduce: "),
        "{args:?}: stderr {stderr}"
    );
    stderr
}

#[test]
fn unwritable_output_paths_exit_2_after_the_run() {
    let missing = "/nonexistent/dir/out";
    let small = ["capacity", "--ues", "1000", "--duration-s", "0.2"];
    for out_flags in [
        vec!["--manifest-out", missing],
        vec!["--metrics-out", missing],
        vec!["--slo", "p99=400ms,shed=1%", "--slo-out", missing],
        vec!["--trace-sample", "64", "--trace-out", missing],
    ] {
        let stderr = assert_exit_2_with_one_line(&[&small[..], &out_flags[..]].concat());
        assert!(stderr.contains(missing), "names the path: {stderr}");
    }
    assert_exit_2_with_one_line(&["--trace-out", missing]);
    assert_exit_2_with_one_line(&["fig13", "--csv", "/nonexistent/dir"]);
}

#[test]
fn unreadable_inputs_and_bad_usage_exit_2() {
    assert_exit_2_with_one_line(&["report", "/nonexistent/m.json"]);
    assert_exit_2_with_one_line(&["compare", "/nonexistent/a.json", "/nonexistent/b.json"]);
    let stderr = assert_exit_2_with_one_line(&[
        "capacity",
        "--metrics-out",
        "x.csv",
        "--metrics-interval-ms",
        "0.0000001",
    ]);
    assert!(stderr.contains("--metrics-interval-ms"), "{stderr}");
    // The wait discipline was a flag once; it is an unknown one now.
    let stderr = assert_exit_2_with_one_line(&["--wait", "adaptive"]);
    assert!(stderr.contains("unknown flag `--wait`"), "{stderr}");
    // So are the saturation switch (`--workers` runs the search) and the
    // burst x policy study (Shed and Queue printed identical rows).
    let stderr = assert_exit_2_with_one_line(&["capacity", "--saturate"]);
    assert!(stderr.contains("unknown flag `--saturate`"), "{stderr}");
    let stderr = assert_exit_2_with_one_line(&["capacity-burst"]);
    assert!(
        stderr.contains("unknown experiment id `capacity-burst`"),
        "{stderr}"
    );
}

#[test]
fn deeply_nested_json_to_report_exits_2() {
    let path = std::env::temp_dir().join(format!("reproduce-deep-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(50_000) + &"]".repeat(50_000)).unwrap();
    let stderr = assert_exit_2_with_one_line(&["report", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert!(stderr.contains("TooDeep"), "{stderr}");
}
