//! Metric recording: time series, latency statistics, and counters.
//!
//! Experiment harnesses record per-packet and per-event observations into
//! these structures during a run; figure/table printers read them back out
//! afterwards. All statistics are computed on demand so recording stays a
//! single `Vec::push`.

use crate::hash::FastMap;
use crate::time::{SimDuration, SimTime};

/// A series of `(time, value)` samples, e.g. RTT-over-time for Fig 13/14.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample. Samples may be recorded out of order; readers that
    /// need order should call [`TimeSeries::sorted`].
    pub(crate) fn record(&mut self, t: SimTime, value: f64) {
        self.samples.push((t, value));
    }

    /// Appends a duration sample in microseconds (the paper's usual unit).
    pub fn record_dur(&mut self, t: SimTime, d: SimDuration) {
        self.record(t, d.as_micros_f64());
    }

    /// Samples sorted by time (stable, preserving recording order on ties).
    pub fn sorted(&self) -> Vec<(SimTime, f64)> {
        let mut v = self.samples.clone();
        v.sort_by_key(|&(t, _)| t);
        v
    }

    /// Number of samples.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.samples.len()
    }

    /// Largest sample value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().map(|&(_, v)| v).fold(None, |acc, v| {
            Some(match acc {
                Some(m) if m >= v => m,
                _ => v,
            })
        })
    }

    /// Number of samples strictly above `threshold` — e.g. "packets that
    /// experienced higher RTT" in Tables 1 and 2.
    pub fn count_above(&self, threshold: f64) -> usize {
        self.samples.iter().filter(|&&(_, v)| v > threshold).count()
    }

    /// Statistics over the values.
    pub fn stats(&self) -> Stats {
        Stats::from_values(self.samples.iter().map(|&(_, v)| v))
    }

    /// Mean value over samples with `t` in `[from, to)`.
    pub fn mean_in_window(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let vals: Vec<f64> = self
            .samples
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

/// Summary statistics over a set of scalar observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Number of observations.
    pub(crate) count: usize,
    /// Smallest observation (0 if empty).
    pub(crate) min: f64,
    /// Largest observation (0 if empty).
    pub max: f64,
    /// Arithmetic mean (0 if empty).
    pub mean: f64,
    /// Median (0 if empty).
    pub(crate) p50: f64,
    /// 95th percentile (0 if empty).
    pub(crate) p95: f64,
    /// 99th percentile (0 if empty).
    pub(crate) p99: f64,
}

impl Stats {
    /// Computes statistics from an iterator of values. NaN observations
    /// (e.g. a rate computed over an empty window) are skipped rather
    /// than poisoning the whole summary.
    pub(crate) fn from_values(values: impl IntoIterator<Item = f64>) -> Stats {
        let mut v: Vec<f64> = values.into_iter().filter(|x| !x.is_nan()).collect();
        if v.is_empty() {
            return Stats {
                count: 0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        v.sort_by(f64::total_cmp);
        let count = v.len();
        let sum: f64 = v.iter().sum();
        let pct = |p: f64| -> f64 {
            // Nearest-rank percentile on the sorted sample.
            let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as usize;
            v[rank.min(count) - 1]
        };
        Stats {
            count,
            min: v[0],
            max: v[count - 1],
            mean: sum / count as f64,
            p50: pct(50.0),
            p95: pct(95.0),
            p99: pct(99.0),
        }
    }
}

/// A labelled monotonic counter set, e.g. packets sent/dropped/buffered.
///
/// Lookup goes through a [`FastMap`] index so `add`/`inc` on the data path
/// are O(1) regardless of how many distinct counters a run creates (the
/// names are the program's own literals, so an unkeyed hash is safe); the
/// `entries` vector preserves creation order for deterministic printing.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    entries: Vec<(&'static str, u64)>,
    index: FastMap<&'static str, usize>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named counter, creating it at zero if absent.
    pub fn add(&mut self, name: &'static str, n: u64) {
        match self.index.get(name) {
            Some(&i) => self.entries[i].1 += n,
            None => {
                self.index.insert(name, self.entries.len());
                self.entries.push((name, n));
            }
        }
    }

    /// Increments the named counter by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Reads a counter; absent counters read as zero.
    pub fn get(&self, name: &str) -> u64 {
        self.index
            .get(name)
            .map(|&i| self.entries[i].1)
            .unwrap_or(0)
    }

    /// All counters in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_values() {
        let s = Stats::from_values([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p99, 5.0);
    }

    #[test]
    fn stats_empty_is_zeroed() {
        let s = Stats::from_values(std::iter::empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn percentile_of_single_value() {
        let s = Stats::from_values([7.0]);
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.p95, 7.0);
        assert_eq!(s.p99, 7.0);
    }

    #[test]
    fn stats_skip_nan_instead_of_panicking() {
        // Regression: `sort_by(partial_cmp)` used to panic on NaN input.
        let s = Stats::from_values([2.0, f64::NAN, 1.0, f64::NAN, 3.0]);
        assert_eq!(s.count, 3, "NaN observations are excluded");
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.mean, 2.0);

        let all_nan = Stats::from_values([f64::NAN, f64::NAN]);
        assert_eq!(all_nan.count, 0, "all-NaN input degrades to empty");
    }

    #[test]
    fn counters_iterate_in_creation_order_at_scale() {
        let mut c = Counters::new();
        let names: Vec<&'static str> = vec!["zeta", "alpha", "mid", "beta", "last"];
        for (i, n) in names.iter().enumerate() {
            c.add(n, i as u64 + 1);
        }
        for n in &names {
            c.inc(n);
        }
        let seen: Vec<&str> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(seen, names, "creation order survives indexed lookup");
        assert_eq!(c.get("zeta"), 2);
        assert_eq!(c.get("last"), 6);
    }

    #[test]
    fn series_count_above_and_max() {
        let mut ts = TimeSeries::new();
        for (i, v) in [1.0, 10.0, 3.0, 12.0].iter().enumerate() {
            ts.record(SimTime::from_nanos(i as u64), *v);
        }
        assert_eq!(ts.count_above(5.0), 2);
        assert_eq!(ts.max(), Some(12.0));
        assert_eq!(ts.len(), 4);
    }

    #[test]
    fn series_window_mean() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_nanos(0), 2.0);
        ts.record(SimTime::from_nanos(10), 4.0);
        ts.record(SimTime::from_nanos(20), 100.0);
        let m = ts.mean_in_window(SimTime::ZERO, SimTime::from_nanos(20));
        assert_eq!(m, Some(3.0));
        assert_eq!(
            ts.mean_in_window(SimTime::from_nanos(30), SimTime::from_nanos(40)),
            None
        );
    }

    #[test]
    fn series_sorted_orders_by_time() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_nanos(20), 1.0);
        ts.record(SimTime::from_nanos(10), 2.0);
        let s = ts.sorted();
        assert_eq!(s[0], (SimTime::from_nanos(10), 2.0));
        assert_eq!(s[1], (SimTime::from_nanos(20), 1.0));
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::new();
        c.inc("tx");
        c.add("tx", 4);
        c.inc("drop");
        assert_eq!(c.get("tx"), 5);
        assert_eq!(c.get("drop"), 1);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(c.iter().count(), 2);
    }

    #[test]
    fn record_dur_stores_microseconds() {
        let mut ts = TimeSeries::new();
        ts.record_dur(SimTime::ZERO, SimDuration::from_micros(250));
        assert_eq!(ts.sorted()[0].1, 250.0);
    }
}
