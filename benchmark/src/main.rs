//! The repo benchmark. One process runs one workload (`--trace 0`, the
//! end-to-end metrics) or the whole per-layer ledger (`--trace 1`); see
//! `benchmark/README.md`.

mod alloc;
mod cp;
mod gen;
mod ledger;
mod load;
mod os;
mod probes;
mod report;
mod span;
mod stats;
mod upf;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use load::Load;
use report::Metric;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// What one run of the program produced.
pub struct Outcome {
    /// Operations attempted over the timed repeats.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics to report.
    pub metrics: Vec<Metric>,
    /// What the human reader gets before the metric table: the workload's
    /// one-line description, or the printed ledgers.
    pub text: String,
}

/// The six workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] = [
    "dispatch_b1",
    "dispatch_b32",
    "analytic_plain",
    "analytic_timeline",
    "upf_forward",
    "cp_lifecycle",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 7,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            a.workload
        ));
    }
    Ok(a)
}

fn run(a: &Args) -> Result<Outcome, String> {
    match a.workload.as_str() {
        "dispatch_b1" => load::run(Load::DispatchB1, a.seed, a.seconds),
        "dispatch_b32" => load::run(Load::DispatchB32, a.seed, a.seconds),
        "analytic_plain" => load::run(Load::AnalyticPlain, a.seed, a.seconds),
        "analytic_timeline" => load::run(Load::AnalyticTimeline, a.seed, a.seconds),
        "upf_forward" => upf::run(a.seed, a.seconds),
        "cp_lifecycle" => cp::run(a.seed, a.seconds),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("l25gc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        ledger::run(args.seed, &args.out)
    } else {
        run(&args)
    };
    match outcome {
        Ok(o) => {
            println!("{}", o.text.trim_end());
            print!("{}", report::table(&o.metrics));
            let file = if args.trace {
                "ledger.tsv".to_string()
            } else {
                format!("result_{}.tsv", args.workload)
            };
            if let Err(e) = write_out(&args.out, &file, &report::tsv(&args.workload, &o.metrics)) {
                eprintln!("l25gc-benchmark: cannot write {file}: {e}");
            }
            println!(
                "{}",
                report::result_line(true, o.attempted, o.failed, &o.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            // A failed correctness check prints no metrics.
            eprintln!(
                "l25gc-benchmark: {}: correctness check failed: {e}",
                args.workload
            );
            ExitCode::FAILURE
        }
    }
}

/// Writes `text` to `dir/file`, creating `dir`.
pub fn write_out(dir: &Path, file: &str, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(file), text)
}
