//! SLO evaluation over metrics timelines: violation spans, burn rate,
//! and recovery time.
//!
//! A [`SloSpec`] is a windowed service-level objective — a p99 latency
//! budget plus a shed-rate budget. [`evaluate`] scores every window of a
//! [`MetricsTimeline`] against it (shard lanes merged window-wise),
//! producing per-window verdicts, contiguous [`ViolationSpan`]s, a
//! Google-SRE-style **burn rate** (how many multiples of the budget each
//! window consumed, averaged over the run), and the first-class
//! **recovery time**: the width of the violating region, counted from
//! the first violating window, provided at least
//! [`SloSpec::clean_windows`] consecutive clean windows follow the last
//! violation — otherwise the run never recovered and
//! [`SloReport::recovery_ns`] is `None`.
//!
//! Recovery is monotone under budget widening: loosening either budget
//! can only shrink the violated window set, so the first violation moves
//! later, the last moves earlier, and the recovery time never grows.
//! `obs/tests/slo_prop.rs` property-checks exactly that.

use l25gc_codec::value::{ObjectBuilder, Value};

use crate::hist::Log2Histogram;
use crate::timeline::MetricsTimeline;

/// A windowed service-level objective: latency and loss budgets plus
/// the clean-window count that defines "recovered".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Per-window p99 latency budget, nanoseconds.
    pub p99_budget_ns: u64,
    /// Per-window shed budget: percent of window arrivals admission
    /// control may drop before the window violates.
    pub shed_budget_pct: f64,
    /// Consecutive clean windows required after the last violation for
    /// the run to count as recovered (min 1).
    pub clean_windows: u32,
}

impl SloSpec {
    /// A spec with the default recovery requirement (3 clean windows).
    pub fn new(p99_budget_ns: u64, shed_budget_pct: f64) -> SloSpec {
        SloSpec {
            p99_budget_ns,
            shed_budget_pct,
            clean_windows: 3,
        }
    }

    /// The fixed spec the regression gate evaluates manifests against:
    /// p99 ≤ 10 ms, shed ≤ 1 %, 3 clean windows. Committed baselines and
    /// fresh runs must score recovery against the *same* spec for the
    /// comparison to mean anything, so this is deliberately not
    /// CLI-tunable.
    pub fn default_gate() -> SloSpec {
        SloSpec::new(10_000_000, 1.0)
    }

    /// Parses the CLI form `p99=<N>ms,shed=<P>%[,clean=<K>]`, e.g.
    /// `p99=5ms,shed=1%`. Omitted keys keep the [`SloSpec::default_gate`]
    /// values.
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let mut spec = SloSpec::default_gate();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("bad SLO clause `{part}` (want key=value)"))?;
            match k {
                "p99" => {
                    let ms = v
                        .strip_suffix("ms")
                        .ok_or_else(|| format!("p99 budget `{v}` must end in `ms`"))?;
                    let ms: f64 = ms.parse().map_err(|_| format!("bad p99 budget `{v}`"))?;
                    if !ms.is_finite() || ms <= 0.0 {
                        return Err(format!("p99 budget `{v}` must be positive"));
                    }
                    spec.p99_budget_ns = (ms * 1e6) as u64;
                }
                "shed" => {
                    let p = v
                        .strip_suffix('%')
                        .ok_or_else(|| format!("shed budget `{v}` must end in `%`"))?;
                    let p: f64 = p.parse().map_err(|_| format!("bad shed budget `{v}`"))?;
                    if !(0.0..=100.0).contains(&p) {
                        return Err(format!("shed budget `{v}` must be in 0..=100%"));
                    }
                    spec.shed_budget_pct = p;
                }
                "clean" => {
                    let k: u32 = v
                        .parse()
                        .map_err(|_| format!("bad clean-window count `{v}`"))?;
                    if k == 0 {
                        return Err("clean-window count must be >= 1".to_owned());
                    }
                    spec.clean_windows = k;
                }
                other => return Err(format!("unknown SLO key `{other}`")),
            }
        }
        Ok(spec)
    }
}

/// One window's score against the spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowVerdict {
    /// Window index (start = `window × interval`).
    pub window: usize,
    /// The window's p99 across all shard lanes, nanoseconds (0 when the
    /// window completed nothing).
    pub p99_ns: u64,
    /// Percent of the window's arrivals shed by admission control.
    pub shed_pct: f64,
    /// Budget multiples this window consumed:
    /// `max(p99/p99_budget, shed/shed_budget)` (infinite when any shed
    /// occurs against a zero shed budget).
    pub burn_rate: f64,
    /// Whether either budget was exceeded.
    pub violated: bool,
}

/// A maximal run of consecutive violating windows (inclusive indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViolationSpan {
    /// First violating window of the run.
    pub first: usize,
    /// Last violating window of the run.
    pub last: usize,
}

/// The result of evaluating one timeline against one spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The spec evaluated.
    pub(crate) spec: SloSpec,
    /// Snapshot interval of the evaluated timeline, nanoseconds.
    pub interval_ns: u64,
    /// Windows the timeline touched.
    pub window_count: usize,
    /// Per-window verdicts, in window order.
    pub windows: Vec<WindowVerdict>,
    /// Maximal contiguous violating runs.
    pub spans: Vec<ViolationSpan>,
    /// Total violating windows.
    pub violating_windows: usize,
    /// Mean per-window burn rate over the run (1.0 = exactly on budget).
    pub burn_rate: f64,
    /// Recovery time in windows: first violating window → last, provided
    /// [`SloSpec::clean_windows`] clean windows follow. `Some(0)` when
    /// nothing violated; `None` when the run never recovered inside its
    /// horizon.
    pub recovery_windows: Option<u64>,
    /// [`SloReport::recovery_windows`] × interval, nanoseconds.
    pub recovery_ns: Option<u64>,
    /// Start of the first violating window, nanoseconds from the run
    /// origin — the disturbance-onset half of recovery (recovery counts
    /// the violated width; this pins down *when* it began). `None` when
    /// the run never violated.
    pub time_to_first_violation_ns: Option<u64>,
}

impl SloReport {
    /// Recovery time with the unrecovered case clamped to the observed
    /// horizon (`window_count × interval`) — the numeric form gated
    /// metrics use, since an unrecovered run is at least as bad as one
    /// that took the whole horizon to recover.
    pub fn recovery_ns_or_horizon(&self) -> u64 {
        self.recovery_ns
            .unwrap_or(self.window_count as u64 * self.interval_ns)
    }

    /// The report as one JSON object (spec, summary, and spans; the
    /// per-window verdicts stay in memory — the timeline exporters
    /// already carry per-window data).
    pub fn to_value(&self, series: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                ObjectBuilder::new()
                    .field("first", Value::U64(s.first as u64))
                    .field("last", Value::U64(s.last as u64))
                    .build()
            })
            .collect();
        ObjectBuilder::new()
            .field("series", Value::Str(series.to_owned()))
            .field("p99_budget_ns", Value::U64(self.spec.p99_budget_ns))
            .field("shed_budget_pct", Value::F64(self.spec.shed_budget_pct))
            .field(
                "clean_windows",
                Value::U64(u64::from(self.spec.clean_windows)),
            )
            .field("interval_ns", Value::U64(self.interval_ns))
            .field("windows", Value::U64(self.window_count as u64))
            .field(
                "violating_windows",
                Value::U64(self.violating_windows as u64),
            )
            .field("burn_rate", Value::F64(self.burn_rate))
            .opt("recovery_windows", self.recovery_windows.map(Value::U64))
            .opt("recovery_ns", self.recovery_ns.map(Value::U64))
            .opt(
                "time_to_first_violation_ns",
                self.time_to_first_violation_ns.map(Value::U64),
            )
            .field("spans", Value::Array(spans))
            .build()
    }
}

/// Scores every window of `tl` against `spec`, merging shard lanes
/// window-wise first (the verdict is about the system, not one shard).
pub fn evaluate(tl: &MetricsTimeline, spec: &SloSpec) -> SloReport {
    let count = tl.window_count();
    let interval_ns = tl.interval().as_nanos();
    let mut windows = Vec::with_capacity(count);
    let mut spans: Vec<ViolationSpan> = Vec::new();
    let mut violating = 0usize;
    let mut burn_sum = 0.0f64;
    for w in 0..count {
        let mut lat = Log2Histogram::new();
        let mut dispatched = 0u64;
        let mut shed = 0u64;
        for s in 0..tl.shards() {
            if let Some(win) = tl.lane(s).get(w) {
                lat.merge(&win.latency);
                dispatched += win.dispatched;
                shed += win.shed;
            }
        }
        // An empty window has p99 0 and sheds 0 % of nothing.
        let p99_ns = lat.quantile(0.99);
        let shed_pct = 100.0 * shed as f64 / (dispatched + shed).max(1) as f64;
        let lat_burn = p99_ns as f64 / spec.p99_budget_ns.max(1) as f64;
        let shed_burn = if spec.shed_budget_pct > 0.0 {
            shed_pct / spec.shed_budget_pct
        } else if shed_pct > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        let burn_rate = lat_burn.max(shed_burn);
        let violated = p99_ns > spec.p99_budget_ns || shed_pct > spec.shed_budget_pct;
        if violated {
            violating += 1;
            match spans.last_mut() {
                Some(span) if span.last + 1 == w => span.last = w,
                _ => spans.push(ViolationSpan { first: w, last: w }),
            }
        }
        burn_sum += burn_rate;
        windows.push(WindowVerdict {
            window: w,
            p99_ns,
            shed_pct,
            burn_rate,
            violated,
        });
    }
    let burn_rate = burn_sum / count.max(1) as f64;
    let recovery_windows = match (spans.first(), spans.last()) {
        (Some(first), Some(last)) => {
            let clean_after = count - 1 - last.last;
            (clean_after >= spec.clean_windows as usize)
                .then(|| (last.last - first.first + 1) as u64)
        }
        _ => Some(0),
    };
    SloReport {
        spec: *spec,
        interval_ns,
        window_count: count,
        windows,
        time_to_first_violation_ns: spans.first().map(|s| s.first as u64 * interval_ns),
        spans,
        violating_windows: violating,
        burn_rate,
        recovery_windows,
        recovery_ns: recovery_windows.map(|w| w * interval_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l25gc_codec::json;
    use l25gc_sim::{SimDuration, SimTime};

    fn ms(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000_000)
    }

    /// 10 windows at 100 ms; windows 3..=5 violate the 10 ms p99 budget,
    /// everything else completes in 1 ms.
    fn distressed_timeline() -> MetricsTimeline {
        let mut tl = MetricsTimeline::new(SimDuration::from_millis(100), 2);
        for w in 0..10u64 {
            let at = ms(w * 100 + 50);
            let lat = if (3..=5).contains(&w) {
                50_000_000
            } else {
                1_000_000
            };
            tl.record_dispatched((w % 2) as u16, at);
            tl.record_completion((w % 2) as u16, at, lat);
        }
        tl
    }

    #[test]
    fn parse_accepts_the_cli_form_and_rejects_junk() {
        let spec = SloSpec::parse("p99=5ms,shed=2%").unwrap();
        assert_eq!(spec.p99_budget_ns, 5_000_000);
        assert_eq!(spec.shed_budget_pct, 2.0);
        assert_eq!(spec.clean_windows, 3, "default K");
        let spec = SloSpec::parse("p99=0.5ms,shed=0%,clean=5").unwrap();
        assert_eq!(spec.p99_budget_ns, 500_000);
        assert_eq!(spec.shed_budget_pct, 0.0);
        assert_eq!(spec.clean_windows, 5);
        assert_eq!(SloSpec::parse(""), Ok(SloSpec::default_gate()));
        for bad in [
            "p99=5",
            "p99=xms",
            "p99=-1ms",
            "shed=2",
            "shed=101%",
            "clean=0",
            "latency=1ms",
            "p99",
            "p99=0ms",
        ] {
            assert!(SloSpec::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn evaluate_finds_spans_burn_and_recovery() {
        let tl = distressed_timeline();
        let report = evaluate(&tl, &SloSpec::new(10_000_000, 1.0));
        assert_eq!(report.window_count, 10);
        assert_eq!(report.violating_windows, 3);
        assert_eq!(report.spans, vec![ViolationSpan { first: 3, last: 5 }]);
        // 4 clean windows follow window 5 ≥ the 3 required.
        assert_eq!(report.recovery_windows, Some(3));
        assert_eq!(report.recovery_ns, Some(300_000_000));
        assert_eq!(report.recovery_ns_or_horizon(), 300_000_000);
        // Onset: window 3 starts at 300 ms.
        assert_eq!(report.time_to_first_violation_ns, Some(300_000_000));
        // Burn rate: violating windows burn ~5×, clean ones ~0.1×.
        assert!(report.burn_rate > 1.0 && report.burn_rate < 5.0);
        assert!(report.windows[3].violated && !report.windows[2].violated);
        assert!(report.windows[3].burn_rate > 1.0);
    }

    #[test]
    fn unrecovered_runs_report_none_and_clamp_to_horizon() {
        let mut tl = distressed_timeline();
        // Violate the second-to-last window too: only 1 clean window
        // remains after it, short of the 3 required.
        tl.record_dispatched(0, ms(850));
        tl.record_completion(0, ms(850), 60_000_000);
        let report = evaluate(&tl, &SloSpec::new(10_000_000, 1.0));
        assert_eq!(report.recovery_windows, None);
        assert_eq!(report.recovery_ns, None);
        assert_eq!(
            report.recovery_ns_or_horizon(),
            10 * 100_000_000,
            "clamps to the observed horizon"
        );
        // Even unrecovered runs know when trouble started.
        assert_eq!(report.time_to_first_violation_ns, Some(300_000_000));
        // A fully clean run recovers instantly and has no onset.
        let clean = evaluate(&tl, &SloSpec::new(1_000_000_000, 100.0));
        assert_eq!(clean.recovery_windows, Some(0));
        assert_eq!(clean.violating_windows, 0);
        assert_eq!(clean.time_to_first_violation_ns, None);
    }

    #[test]
    fn shed_budget_violations_and_infinite_burn() {
        let mut tl = MetricsTimeline::new(SimDuration::from_millis(100), 1);
        tl.record_dispatched(0, ms(10));
        tl.record_completion(0, ms(10), 1_000_000);
        tl.record_shed(0, ms(20));
        let spec = SloSpec {
            p99_budget_ns: 10_000_000,
            shed_budget_pct: 0.0,
            clean_windows: 1,
        };
        let report = evaluate(&tl, &spec);
        assert_eq!(report.violating_windows, 1, "50% shed vs 0% budget");
        assert!(report.windows[0].burn_rate.is_infinite());
        // With a 60% budget the same window is clean.
        let lax = evaluate(&tl, &SloSpec::new(10_000_000, 60.0));
        assert_eq!(lax.violating_windows, 0);
        assert!((report.windows[0].shed_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn report_serializes_to_parseable_json() {
        let tl = distressed_timeline();
        let report = evaluate(&tl, &SloSpec::default_gate());
        let text = json::to_string(&report.to_value("L25GC@1x"));
        let v = json::parse(&text).expect("report JSON parses");
        assert_eq!(v.get("series").and_then(Value::as_str), Some("L25GC@1x"));
        assert_eq!(v.get("windows").and_then(Value::as_u64), Some(10));
        assert_eq!(v.get("violating_windows").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("recovery_windows").and_then(Value::as_u64), Some(3));
        assert_eq!(
            v.get("time_to_first_violation_ns").and_then(Value::as_u64),
            Some(300_000_000)
        );
        assert!(v.get("spans").is_some());
    }
}
