//! Offline stand-in for the `criterion` crate (no network in the build
//! environment). Implements the subset of the API the workspace's
//! `harness = false` benches use — `criterion_group!`/`criterion_main!`,
//! benchmark groups, `Bencher::iter`/`iter_batched` — with a deliberately
//! lightweight measurement loop: a short warm-up, then timed batches,
//! reporting mean ns/iter to stdout. No statistics, plots, or baselines;
//! good enough for relative comparisons in a pinch and for keeping the
//! bench targets compiling and runnable.

use std::fmt;
use std::time::{Duration, Instant};

/// Measurement entry point handed to each benchmark function.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _c: self,
        }
    }
}

/// A named set of benchmarks reported under a common prefix.
pub struct BenchmarkGroup<'a> {
    name: String,
    _c: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Records the amount of work per iteration (reported, not used).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Shrinks/extends measurement parameters (accepted, ignored).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher::default();
        f(&mut b);
        b.report(&self.name, &id.label());
        self
    }

    /// Benchmarks `f` with an input value, labelled by `id`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::default();
        f(&mut b, input);
        b.report(&self.name, &id.label());
        self
    }

    /// Ends the group (upstream flushes reports here; we report inline).
    pub fn finish(self) {}
}

/// Identifies one benchmark: a function name plus an optional parameter.
pub struct BenchmarkId {
    name: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// An id with a parameter, rendered as `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: name.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    /// An id consisting of only a parameter value.
    pub fn from_parameter(parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: String::new(),
            parameter: Some(parameter.to_string()),
        }
    }

    fn label(&self) -> String {
        match &self.parameter {
            Some(p) if self.name.is_empty() => p.clone(),
            Some(p) => format!("{}/{}", self.name, p),
            None => self.name.clone(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> BenchmarkId {
        BenchmarkId {
            name: name.to_owned(),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> BenchmarkId {
        BenchmarkId {
            name,
            parameter: None,
        }
    }
}

/// Units of work per iteration, for throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Batch sizing hints for [`Bencher::iter_batched`].
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs; large batches.
    SmallInput,
    /// Large per-iteration inputs; small batches.
    LargeInput,
    /// One input per measured call.
    PerIteration,
}

/// Runs the measured routine and accumulates timing.
#[derive(Default)]
pub struct Bencher {
    total: Duration,
    iters: u64,
    /// Per-sample mean ns/iter; the report takes the median so one
    /// scheduler preemption cannot poison the estimate.
    samples: Vec<f64>,
}

/// Measurement budget per benchmark. Below upstream criterion's
/// defaults on purpose: these stand-in numbers are for smoke comparisons,
/// not publication. The budget splits into [`SAMPLES`] timed samples and
/// the report is the median sample, which shrugs off the occasional
/// descheduling on busy or single-core hosts where a single mean would
/// wander by tens of percent.
const WARMUP_ITERS: u64 = 3;
const TARGET: Duration = Duration::from_millis(100);
const SAMPLES: u32 = 10;
const MIN_ITERS: u64 = 1;
const MAX_ITERS: u64 = 100_000;

impl Bencher {
    /// Times repeated calls of `routine`: [`SAMPLES`] timed batches,
    /// each batch capped by its share of [`TARGET`].
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        for _ in 0..WARMUP_ITERS {
            std::hint::black_box(routine());
        }
        let per_sample = TARGET / SAMPLES;
        for _ in 0..SAMPLES {
            let start = Instant::now();
            let mut iters = 0u64;
            while iters < MIN_ITERS || (start.elapsed() < per_sample && iters < MAX_ITERS) {
                std::hint::black_box(routine());
                iters += 1;
            }
            let elapsed = start.elapsed();
            self.total += elapsed;
            self.iters += iters;
            self.samples.push(elapsed.as_nanos() as f64 / iters as f64);
        }
    }

    /// Times `routine` over inputs produced by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..WARMUP_ITERS {
            let input = setup();
            std::hint::black_box(routine(input));
        }
        let per_sample = TARGET / SAMPLES;
        for _ in 0..SAMPLES {
            let mut measured = Duration::ZERO;
            let mut iters = 0u64;
            while iters < MIN_ITERS || (measured < per_sample && iters < MAX_ITERS) {
                let input = setup();
                let start = Instant::now();
                std::hint::black_box(routine(input));
                measured += start.elapsed();
                iters += 1;
            }
            self.total += measured;
            self.iters += iters;
            self.samples.push(measured.as_nanos() as f64 / iters as f64);
        }
    }

    fn report(&self, group: &str, label: &str) {
        if self.iters == 0 || self.samples.is_empty() {
            println!("{group}/{label}: no measurements");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("sample is finite"));
        let median = sorted[sorted.len() / 2];
        println!(
            "{group}/{label}: {median:.1} ns/iter (median of {} samples, {} iters)",
            sorted.len(),
            self.iters
        );
    }
}

/// Declares a function that runs the given benchmark functions in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher::default();
        b.iter(|| 1 + 1);
        assert!(b.iters >= MIN_ITERS);
        b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput);
        assert!(b.total > Duration::ZERO);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.throughput(Throughput::Elements(1));
        g.bench_function("add", |b| b.iter(|| 2 + 2));
        g.bench_with_input(BenchmarkId::new("with_input", 4), &4u32, |b, &n| {
            b.iter(|| n * 2)
        });
        g.finish();
    }
}
