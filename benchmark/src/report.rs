//! What a run prints: every metric by name and unit with its repeat
//! count, median and quartiles, then — as the last line of standard
//! output — the one JSON object the driver reads.

use std::fmt::Write as _;
use std::time::Instant;

use crate::os;
use crate::stats;

/// One named metric: the reported value and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// One sample per timed repeat (a single one for a ledger row).
    pub samples: Vec<f64>,
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times and costs.
    Lower,
    /// Rates.
    Higher,
}

impl Metric {
    /// A metric whose value is the median of its samples.
    pub fn median(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: stats::median(&samples),
            samples,
        }
    }

    /// A metric whose value is the quartile on the good side of its
    /// samples: q1 of a cost, q3 of a rate.
    ///
    /// The host is a shared VM on which a neighbour's memory traffic
    /// slows cache-missing code by 20–60 % for 10–20 s at a time, every
    /// minute or so, and never speeds it up. A repeat that ran inside
    /// such a spell says nothing about the code; the fast quartile is
    /// what the code costs when at least a quarter of the repeats ran
    /// undisturbed, and it is still an order statistic, not a lucky
    /// minimum.
    pub fn fast_quartile(
        name: impl Into<String>,
        unit: &'static str,
        better: Better,
        samples: Vec<f64>,
    ) -> Metric {
        let (q1, _, q3) = stats::quartiles(&samples);
        Metric {
            name: name.into(),
            unit,
            value: match better {
                Better::Lower => q1,
                Better::Higher => q3,
            },
            samples,
        }
    }

    /// A metric measured once.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::median(name, unit, vec![value])
    }
}

/// One timed repeat of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Operations the timed call(s) completed.
    pub ops: u64,
    /// Operations that failed (shed, lost, dropped, unfinished).
    pub failed: u64,
    /// Wall time of the timed call(s), ns.
    pub wall_ns: u64,
    /// Process CPU time (user + sys, all threads) over the same region, ns.
    pub cpu_ns: u64,
}

/// Times `f` on both clocks; returns its result, wall ns and CPU ns.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let cpu0 = os::process_cpu_ns();
    let t0 = Instant::now();
    let r = f();
    let wall = t0.elapsed().as_nanos() as u64;
    let cpu = os::process_cpu_ns() - cpu0;
    (r, wall, cpu)
}

/// The timed repeats of a run, and the process's peak resident set once
/// the warm-up and the first timed repeat were done. Reading the
/// high-water mark at that fixed point keeps it independent of how many
/// repeats the host's speed let into the time budget (an allocator
/// fragments a little more with every world or report built and freed).
pub struct Repeats {
    /// One entry per timed repeat.
    pub passes: Vec<Pass>,
    /// `VmHWM` after warm-up + one timed repeat, MB.
    pub peak_rss_mb: f64,
}

/// Runs `pass` once as a discarded warm-up, then repeatedly until the
/// timed passes add up to `seconds` of wall clock (at least three).
pub fn repeat(seconds: f64, mut pass: impl FnMut() -> Pass) -> Repeats {
    pass();
    let budget_ns = (seconds * 1e9) as u64;
    let mut passes = vec![pass()];
    let peak_rss_mb = os::peak_rss_mb();
    let mut spent = passes[0].wall_ns;
    while spent < budget_ns || passes.len() < 3 {
        let p = pass();
        spent += p.wall_ns;
        passes.push(p);
    }
    Repeats {
        passes,
        peak_rss_mb,
    }
}

impl Repeats {
    /// Operations attempted over the timed repeats.
    pub fn attempted(&self) -> u64 {
        self.passes.iter().map(|p| p.ops + p.failed).sum()
    }

    /// Operations that failed over the timed repeats.
    pub fn failed(&self) -> u64 {
        self.passes.iter().map(|p| p.failed).sum()
    }

    /// The end-to-end metrics of the workload, given its set-up samples.
    pub fn end_to_end(&self, setup_s: Vec<f64>) -> Vec<Metric> {
        let per_pass = |f: fn(&Pass) -> f64| self.passes.iter().map(f).collect();
        vec![
            Metric::fast_quartile(
                "ops_per_s",
                "ops/s",
                Better::Higher,
                per_pass(|p| p.ops as f64 * 1e9 / p.wall_ns as f64),
            ),
            Metric::fast_quartile(
                "cpu_ns_per_op",
                "ns/op",
                Better::Lower,
                per_pass(|p| p.cpu_ns as f64 / p.ops as f64),
            ),
            Metric::single("peak_rss_mb", "MB", self.peak_rss_mb),
            Metric::median("setup_s", "s", setup_s),
        ]
    }
}

/// Human-readable table: `name value unit  n= q1= median= q3=`.
pub fn table(metrics: &[Metric]) -> String {
    let mut s = String::new();
    for m in metrics {
        let _ = write!(s, "{:<44} {:>16} {:<8}", m.name, fmt_num(m.value), m.unit);
        if m.samples.len() > 1 {
            let (q1, med, q3) = stats::quartiles(&m.samples);
            let _ = write!(
                s,
                " n={} q1={} median={} q3={}",
                m.samples.len(),
                fmt_num(q1),
                fmt_num(med),
                fmt_num(q3),
            );
        }
        s.push('\n');
    }
    s
}

/// Tab-separated rows for `run.sh` / `selfcheck.sh`:
/// `workload name value q1 q3 n unit`.
pub fn tsv(workload: &str, metrics: &[Metric]) -> String {
    let mut s = String::new();
    for m in metrics {
        let (q1, _, q3) = stats::quartiles(&m.samples);
        let _ = writeln!(
            s,
            "{workload}\t{}\t{}\t{q1}\t{q3}\t{}\t{}",
            m.name,
            m.value,
            m.samples.len(),
            m.unit
        );
    }
    s
}

/// A number with all the digits it was measured with, but readable.
fn fmt_num(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.01 && v.abs() < 1e7) {
        format!("{v:.4}")
    } else {
        format!("{v:.6e}")
    }
}

/// The driver's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // `{:?}` prints an f64 with every digit needed to round-trip.
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_discards_warm_up_and_fills_the_budget() {
        let mut calls = 0;
        let Repeats {
            passes,
            peak_rss_mb,
        } = repeat(0.0, || {
            calls += 1;
            Pass {
                ops: calls,
                failed: 0,
                wall_ns: 1,
                cpu_ns: 1,
            }
        });
        assert_eq!(calls, 4, "one warm-up + the three-repeat floor");
        assert_eq!(passes[0].ops, 2, "warm-up pass is not reported");
        assert!(peak_rss_mb > 0.0);
        let r = repeat(1e-6, || Pass {
            ops: 1,
            failed: 0,
            wall_ns: 100,
            cpu_ns: 1,
        });
        assert_eq!(r.passes.len(), 10, "1 µs budget / 100 ns passes");
        assert_eq!((r.attempted(), r.failed()), (10, 0));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let m = vec![
            Metric::median("ops_per_s", "ops/s", vec![1.0, 3.0, 2.0]),
            Metric::single("setup_s", "s", 0.125),
        ];
        assert_eq!(
            result_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 2.0, \"unit\": \"ops/s\"}, \
             \"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn end_to_end_derives_rates_from_passes() {
        // Five repeats of 1000 ops; the third and fifth ran disturbed.
        let pass = |wall_ns, cpu_ns| Pass {
            ops: 1000,
            failed: 0,
            wall_ns,
            cpu_ns,
        };
        let r = Repeats {
            passes: vec![
                pass(500_000, 750_000),
                pass(500_000, 750_000),
                pass(900_000, 990_000),
                pass(500_000, 750_000),
                pass(800_000, 800_000),
            ],
            peak_rss_mb: 12.5,
        };
        let m = r.end_to_end(vec![0.5, 0.7, 0.6]);
        assert_eq!(m[0].value, 2_000_000.0, "fast quartile of the rate");
        assert_eq!(m[1].value, 750.0, "fast quartile of the cost");
        assert_eq!(m[2].value, 12.5);
        assert_eq!(m[3].value, 0.6, "set-up time is a median");
        let names: Vec<&str> = m.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            ["ops_per_s", "cpu_ns_per_op", "peak_rss_mb", "setup_s"]
        );
    }
}
