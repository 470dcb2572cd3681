//! A range-compact log2-bucket latency histogram.
//!
//! The layout follows the HdrHistogram idea specialised to power-of-two
//! groups: values below `2^DEFAULT_BITS` land in exact unit-width
//! buckets; above that, each doubling of magnitude gets `2^DEFAULT_BITS`
//! buckets of equal width, so the bucket width at value `v` is at most
//! `v >> DEFAULT_BITS`. Quantile estimates therefore carry a bounded
//! *relative* error of `2^-DEFAULT_BITS` (3.125 %), regardless of the
//! value range.
//!
//! # Canonical form
//!
//! Exact zeros are a count of their own, outside the stored buckets. A
//! latency stage is often exactly 0 (no queue-wait behind an idle shard,
//! no transit beyond occupancy), and a zero among the buckets would
//! stretch their range from bucket 0 up to the distribution's tail —
//! several hundred empty buckets between.
//!
//! The non-zero samples are stored in one of two forms, chosen by how
//! many there are:
//!
//! - **Log.** While at most [`LOG_MAX`] non-zero samples are recorded,
//!   `buckets` is an append-only log of their bucket indices, four `u16`
//!   to a `u64` word, in record order. A timeline window's histogram holds
//!   about a hundred samples in as many buckets spread over a thousand;
//!   the log keeps 2 bytes per sample where the bucket range keeps 8 per
//!   bucket, most of them zero.
//! - **Pages.** The record that would overflow the log folds it, once
//!   and for good, into bucket counts: the 64-bucket pages, aligned to
//!   64, that cover the bucket of the smallest non-zero sample through
//!   the bucket of the largest, grown a page at a time at either end when
//!   a sample falls outside them. Whole pages keep range extensions (a
//!   reallocation plus, at the front, a shift) to a fraction of what
//!   bucket-exact ends cost. A run-wide histogram reaches this form after
//!   its first [`LOG_MAX`] non-zero samples and records in O(1) from then
//!   on.
//!
//! An empty or all-zero histogram owns no heap, a full log is 1 KiB, and
//! the worst page range (a `1` and a `u64::MAX`) is the dense
//! `(65 - DEFAULT_BITS) << DEFAULT_BITS` array — exactly 30 pages,
//! 15 KiB. Recording allocates only when the log grows or the pages
//! widen, and never for a 0.
//!
//! The form, the zero count and the stored pages are a function of the
//! recorded multiset alone (the log's order is not, so `==` compares logs
//! sorted): two histograms holding the same samples compare equal however
//! they were built, and two histograms merge by adding their zero counts
//! and concatenating their logs, or, past [`LOG_MAX`], by element-wise
//! addition over the union of their pages — which is what lets per-NF
//! recorders be combined into a fleet-wide distribution at export time.
//! Bucket 0 holds exactly the value 0, so every read treats the zero
//! count as bucket 0, reads a log by sorting a copy of it, and returns
//! what the dense histogram returns.

/// Precision: 2^5 = 32 sub-buckets per power-of-two group.
pub const DEFAULT_BITS: u32 = 5;

/// Buckets of the full `u64` line at the default precision.
const BUCKETS: usize = (65 - DEFAULT_BITS as usize) << DEFAULT_BITS;

/// Buckets per page of the stored range; both ends are multiples of it.
const PAGE: usize = 64;

/// Most non-zero samples a histogram keeps as a bucket-index log.
const LOG_MAX: usize = 512;

/// Log entries per `u64` word of `buckets`.
const PER_WORD: usize = 4;

// Every bucket index fits a log entry.
const _: () = assert!(BUCKETS <= 1 << (64 / PER_WORD));

/// Bucket index for a value. Values below `2^DEFAULT_BITS` are exact.
fn index(v: u64) -> usize {
    let b = DEFAULT_BITS;
    if v < (1u64 << b) {
        v as usize
    } else {
        // Highest set bit m >= b; group g = m - b + 1 >= 1.
        let m = 63 - v.leading_zeros();
        let g = (m - b + 1) as usize;
        let sub = ((v >> (m - b)) - (1u64 << b)) as usize;
        (g << b) + sub
    }
}

/// Inclusive `[low, high]` value range covered by bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    let b = DEFAULT_BITS;
    let g = i >> b;
    if g == 0 {
        (i as u64, i as u64)
    } else {
        let m = b + g as u32 - 1;
        let sub = (i & ((1 << b) - 1)) as u64;
        let width = 1u64 << (m - b);
        let low = ((1u64 << b) + sub) << (m - b);
        // `width - 1` first: the top bucket's high end is exactly
        // `u64::MAX` and `low + width` would overflow.
        (low, low + (width - 1))
    }
}

/// The first `n` bucket indices of a log packed into `words`.
fn log_entries(words: &[u64], n: usize) -> impl Iterator<Item = usize> + '_ {
    let lanes = |w: u64| (0..PER_WORD).map(move |k| usize::from((w >> (16 * k)) as u16));
    words.iter().flat_map(move |&w| lanes(w)).take(n)
}

/// A mergeable log2-bucket histogram over `u64` samples (nanoseconds, byte
/// counts, queue depths — any non-negative magnitude).
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    /// Samples that were exactly 0 (bucket 0, kept out of `buckets`).
    zeros: u64,
    /// Bucket index of `buckets[0]` in the page form, a multiple of
    /// [`PAGE`]; 0 in the log form.
    lo: usize,
    /// The log form: the bucket indices of the non-zero samples, four to
    /// a word in record order. The page form: the counts of the pages
    /// covering buckets `index(smallest non-zero) ..= index(max)`. Which
    /// one is [`Log2Histogram::is_log`].
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Log2Histogram {
    /// An empty histogram. Nothing is allocated until the first non-zero
    /// sample; memory is then the log, at most [`LOG_MAX`] × 2 bytes =
    /// 1 KiB, and past it the occupied pages, at worst all
    /// `(65 - DEFAULT_BITS) << DEFAULT_BITS` buckets (1920 × 8 bytes =
    /// 15 KiB).
    pub fn new() -> Log2Histogram {
        Log2Histogram {
            zeros: 0,
            lo: 0,
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Non-zero samples recorded: the log's length while it is one.
    fn nonzero(&self) -> u64 {
        self.count - self.zeros
    }

    /// Whether `buckets` is the log (else the pages): a function of the
    /// recorded multiset.
    fn is_log(&self) -> bool {
        self.nonzero() <= LOG_MAX as u64
    }

    /// The log's bucket indices, in record order.
    fn log(&self) -> impl Iterator<Item = usize> + '_ {
        log_entries(&self.buckets, self.nonzero() as usize)
    }

    /// A copy of the log on the stack, and its length.
    fn log_copy(&self) -> ([u16; LOG_MAX], usize) {
        let mut buf = [0u16; LOG_MAX];
        for (slot, i) in buf.iter_mut().zip(self.log()) {
            *slot = i as u16;
        }
        (buf, self.nonzero() as usize)
    }

    /// Appends bucket `i` as the log's entry `n` (its current length).
    fn log_push(&mut self, n: usize, i: usize) {
        let entry = (i as u64) << (16 * (n % PER_WORD));
        match self.buckets.get_mut(n / PER_WORD) {
            Some(word) => *word |= entry,
            None => self.buckets.push(entry),
        }
    }

    /// Turns the log into the pages covering it, once and for good.
    #[cold]
    fn fold(&mut self) {
        let words = std::mem::take(&mut self.buckets);
        self.count_log(&words, self.nonzero() as usize);
    }

    /// Adds the first `n` bucket indices logged in `words` to the page
    /// form, widening it once to cover them all.
    fn count_log(&mut self, words: &[u64], n: usize) {
        let (first, last) = (log_entries(words, n).min(), log_entries(words, n).max());
        if let (Some(first), Some(last)) = (first, last) {
            self.cover(first, last);
            for i in log_entries(words, n) {
                self.buckets[i - self.lo] += 1;
            }
        }
    }

    /// Widens the stored range to the pages covering buckets
    /// `first ..= last`, with one exact-size reallocation.
    #[cold]
    fn cover(&mut self, first: usize, last: usize) {
        let first = first & !(PAGE - 1);
        let end = (last | (PAGE - 1)) + 1;
        if self.buckets.is_empty() {
            self.lo = first;
        }
        let lo = self.lo.min(first);
        let end = end.max(self.lo + self.buckets.len());
        self.buckets.reserve_exact(end - lo - self.buckets.len());
        if lo < self.lo {
            let add = self.lo - lo;
            self.buckets.splice(0..0, std::iter::repeat_n(0, add));
            self.lo = lo;
        }
        self.buckets.resize(end - lo, 0);
    }

    /// Records one sample. Allocates only when a non-zero `v` grows the
    /// log or falls outside the pages recorded so far.
    pub fn record(&mut self, v: u64) {
        if v == 0 {
            self.zeros += 1;
        } else {
            let i = index(v);
            let n = self.nonzero();
            if n < LOG_MAX as u64 {
                self.log_push(n as usize, i);
            } else {
                if n == LOG_MAX as u64 {
                    self.fold();
                }
                // A bucket below `lo` wraps to a huge offset and widens too.
                if i.wrapping_sub(self.lo) >= self.buckets.len() {
                    self.cover(i, i);
                }
                self.buckets[i - self.lo] += 1;
            }
        }
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest recorded sample, or 0 when empty.
    #[cfg(test)]
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An estimate of the `q`-quantile (`0.0..=1.0`) by nearest-rank walk.
    ///
    /// The estimate `est` brackets the exact nearest-rank quantile
    /// `exact` of the recorded samples as
    /// `exact <= est <= exact + (exact >> DEFAULT_BITS)` — i.e. relative
    /// error is bounded by `2^-DEFAULT_BITS` from above and zero from
    /// below.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest rank: smallest rank r (1-based) with r >= q * count.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        // The walk starts past bucket 0, whose count is `zeros`.
        let mut seen = self.zeros;
        if seen >= rank {
            return 0;
        }
        if self.is_log() {
            // The rank falls among the `n >= 1` logged samples: the
            // bucket is the log's (rank - zeros)-th smallest entry.
            let (mut log, n) = self.log_copy();
            let k = ((rank - seen) as usize).min(n) - 1;
            let (_, &mut i, _) = log[..n].select_nth_unstable(k);
            return bucket_bounds(usize::from(i)).1.min(self.max);
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, high) = bucket_bounds(self.lo + i);
                // The bucket's high end over-estimates by at most the
                // bucket width (<= exact >> DEFAULT_BITS); clamping to the exact
                // recorded max keeps the top quantiles tight.
                return high.min(self.max);
            }
        }
        self.max
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Cumulative bucket counts for Prometheus-style exposition: one
    /// `(upper_bound, cumulative_count)` pair per *non-empty* bucket, in
    /// increasing bound order. The caller appends the `+Inf` terminal
    /// (whose cumulative count is [`Log2Histogram::count`]); skipping
    /// empty buckets keeps the series compact without changing what a
    /// cumulative-histogram consumer reconstructs.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = self.zeros;
        if cum > 0 {
            out.push((0, cum));
        }
        if self.is_log() {
            let (mut log, n) = self.log_copy();
            let log = &mut log[..n];
            log.sort_unstable();
            for (k, &i) in log.iter().enumerate() {
                cum += 1;
                // The last entry of each run of equal buckets.
                if log.get(k + 1) != Some(&i) {
                    out.push((bucket_bounds(usize::from(i)).1, cum));
                }
            }
            return out;
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                cum += c;
                let (_, high) = bucket_bounds(self.lo + i);
                out.push((high, cum));
            }
        }
        out
    }

    /// Merges another histogram into this one. Equivalent to having
    /// recorded both sample streams into one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        let (n, m) = (self.nonzero(), other.nonzero());
        if n + m <= LOG_MAX as u64 {
            for (k, i) in other.log().enumerate() {
                self.log_push(n as usize + k, i);
            }
        } else {
            if self.is_log() {
                self.fold();
            }
            if other.is_log() {
                self.count_log(&other.buckets, m as usize);
            } else {
                self.cover(other.lo, other.lo + other.buckets.len() - 1);
                let at = other.lo - self.lo;
                for (a, b) in self.buckets[at..].iter_mut().zip(&other.buckets) {
                    *a += b;
                }
            }
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Same multiset: the scalars, and the logs sorted or the pages as they
/// are (equal scalars put both sides in the same form).
impl PartialEq for Log2Histogram {
    fn eq(&self, other: &Log2Histogram) -> bool {
        let scalars = |h: &Log2Histogram| (h.zeros, h.count, h.sum, h.min, h.max);
        if scalars(self) != scalars(other) {
            return false;
        }
        if !self.is_log() {
            return self.lo == other.lo && self.buckets == other.buckets;
        }
        let ((mut a, n), (mut b, _)) = (self.log_copy(), other.log_copy());
        a[..n].sort_unstable();
        b[..n].sort_unstable();
        a[..n] == b[..n]
    }
}

impl Eq for Log2Histogram {}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Exact nearest-rank quantile over a sorted copy, for comparison.
    fn exact_quantile(samples: &[u64], q: f64) -> u64 {
        let mut v = samples.to_vec();
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).max(1);
        v[rank.min(v.len()) - 1]
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 5, 17, 31] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn bucket_bounds_partition_the_u64_line() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (low, high) = bucket_bounds(i);
            assert_eq!(low, next, "bucket {i} starts where the last ended");
            assert!(high >= low);
            if high == u64::MAX {
                return; // covered the whole line
            }
            next = high + 1;
        }
        panic!("buckets did not reach u64::MAX");
    }

    #[test]
    fn index_maps_into_own_bucket() {
        for v in [
            0u64,
            31,
            32,
            33,
            63,
            64,
            100,
            1000,
            1 << 20,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let i = index(v);
            let (low, high) = bucket_bounds(i);
            assert!(low <= v && v <= high, "v={v} i={i} [{low},{high}]");
        }
    }

    #[test]
    fn quantile_error_is_bounded_on_a_spread() {
        let mut h = Log2Histogram::new();
        let samples: Vec<u64> = (0..2000u64).map(|i| i * i * 37 + 13).collect();
        for &s in &samples {
            h.record(s);
        }
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&samples, q);
            let est = h.quantile(q);
            assert!(est >= exact, "q={q} est={est} exact={exact}");
            assert!(
                est - exact <= exact >> DEFAULT_BITS,
                "q={q} est={est} exact={exact}"
            );
        }
    }

    #[test]
    fn merge_equals_concatenated_recording() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut both = Log2Histogram::new();
        for i in 0..500u64 {
            let v = i * 7919 % 100_000;
            a.record(v);
            both.record(v);
        }
        for i in 0..300u64 {
            let v = i * 104_729 % 1_000_000;
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_conserve_counts() {
        let mut h = Log2Histogram::new();
        assert!(h.cumulative_buckets().is_empty(), "empty hist, no buckets");
        for v in [0u64, 0, 5, 31, 32, 1000, 1 << 30, u64::MAX] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        let mut prev_bound = None;
        let mut prev_cum = 0u64;
        for &(bound, cum) in &buckets {
            if let Some(p) = prev_bound {
                assert!(bound > p, "bounds strictly increase");
            }
            assert!(cum >= prev_cum, "cumulative counts never decrease");
            prev_bound = Some(bound);
            prev_cum = cum;
        }
        assert_eq!(buckets.last().unwrap().1, h.count(), "terminal = count");
        assert_eq!(
            h.sum(),
            u128::from(5u64 + 31 + 32 + 1000 + (1 << 30)) + u128::from(u64::MAX)
        );
    }

    #[test]
    fn new_allocates_nothing() {
        assert_eq!(Log2Histogram::new().buckets.capacity(), 0);
    }

    #[test]
    fn recording_does_not_allocate() {
        // A 0 never allocates: it is counted, not stored in the range.
        let mut h = Log2Histogram::new();
        for _ in 0..1000 {
            h.record(0);
        }
        assert_eq!(h.buckets.capacity(), 0);
        assert_eq!((h.count(), h.quantile(1.0)), (1000, 0));
        // The log grows to at most 1 KiB, then folds into the pages
        // covering it: here the two non-zero extremes of the sample
        // stream, the first recorded over and over.
        let sample = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (lo, hi) = (0..100_000)
            .map(sample)
            .filter(|&v| v != 0)
            .fold((u64::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)));
        h.record(hi);
        for _ in 1..LOG_MAX {
            h.record(lo);
        }
        assert!(h.is_log());
        assert!(h.buckets.capacity() <= LOG_MAX / PER_WORD);
        h.record(lo);
        assert!(!h.is_log());
        // Nothing else allocates once the pages are covered.
        let cap = h.buckets.capacity();
        assert!(cap <= BUCKETS);
        for i in 0..100_000 {
            h.record(sample(i));
        }
        assert_eq!(h.buckets.capacity(), cap);
        assert_eq!(h.zeros, 1001, "sample(0) is the stream's one zero");
    }

    #[test]
    fn a_zero_does_not_stretch_the_range() {
        // Bucket 582 (5 ms) and bucket 729 (120 ms) are pages 9 and 11:
        // three pages, 192 buckets. Stored bucket-exact from bucket 0,
        // as a zero used to force, the range was 730 buckets.
        // The log holds the two non-zero samples' indices only.
        let mut h = Log2Histogram::new();
        for v in [0, 5_000_000, 120_000_000] {
            h.record(v);
        }
        assert_eq!((index(5_000_000), index(120_000_000)), (582, 729));
        assert_eq!(h.log().collect::<Vec<_>>(), [582, 729]);
        assert_eq!(h.buckets.len(), 1);
        assert_eq!(h.cumulative_buckets()[0], (0, 1));
        // Folded into pages, it keeps the same three.
        for _ in 0..LOG_MAX {
            h.record(5_000_000);
        }
        assert_eq!((h.lo, h.buckets.len()), (576, 192));
        assert_eq!(h.buckets.capacity(), 192);
        assert_eq!(h.cumulative_buckets()[0], (0, 1));
    }

    #[test]
    fn header_is_80_bytes() {
        // Every timeline window holds four of these headers. The zero
        // count was paid for by deleting the precision field: a 96-byte
        // header made a `TimelineWindow` 480 B and raised the 1 ms-window
        // capacity run's VmHWM by 11-12 % (31.9 -> 35.3 MB; 32.2 -> 36.1).
        assert_eq!(std::mem::size_of::<Log2Histogram>(), 80);
    }

    /// The dense `(65 - bits) << bits` layout the log and page forms replaced:
    /// one slot per bucket, allocated up front.
    struct Dense {
        buckets: Vec<u64>,
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
    }

    impl Dense {
        fn new() -> Dense {
            Dense {
                buckets: vec![0; BUCKETS],
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }
        }

        fn record(&mut self, v: u64) {
            self.buckets[index(v)] += 1;
            self.count += 1;
            self.sum += u128::from(v);
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }

        fn merge(&mut self, other: &Dense) {
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += b;
            }
            self.count += other.count;
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }

        fn quantile(&self, q: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (i, &c) in self.buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_bounds(i).1.min(self.max);
                }
            }
            self.max
        }

        fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
            let mut cum = 0u64;
            let mut out = Vec::new();
            for (i, &c) in self.buckets.iter().enumerate() {
                if c > 0 {
                    cum += c;
                    out.push((bucket_bounds(i).1, cum));
                }
            }
            out
        }
    }

    fn assert_matches_dense(h: &Log2Histogram, d: &Dense, q: f64) {
        assert_eq!(h.count(), d.count);
        assert_eq!(h.sum(), d.sum);
        assert_eq!(h.min(), if d.count == 0 { 0 } else { d.min });
        assert_eq!(h.max(), d.max);
        for q in [0.0, q, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), d.quantile(q), "q={q}");
        }
        assert_eq!(h.cumulative_buckets(), d.cumulative_buckets());
        // The canonical form: zeros counted apart; up to `LOG_MAX`
        // non-zero samples, a log of exactly their bucket indices packed
        // four to a word; past it, exactly the aligned pages covering
        // them, nothing else, at exact capacity.
        assert_eq!(h.zeros, d.buckets[0]);
        let nonzero = d.count - d.buckets[0];
        assert_eq!(h.is_log(), nonzero <= LOG_MAX as u64);
        if h.is_log() {
            let mut logged = vec![0u64; BUCKETS];
            for i in h.log() {
                logged[i] += 1;
            }
            assert_eq!(logged[0], 0);
            assert_eq!(&logged[1..], &d.buckets[1..]);
            assert_eq!(h.buckets.len(), (nonzero as usize).div_ceil(PER_WORD));
            assert_eq!(h.lo, 0);
        } else {
            assert_eq!(h.buckets.capacity(), h.buckets.len());
            let first = d.buckets.iter().skip(1).position(|&c| c > 0).unwrap() + 1;
            assert_eq!(h.lo, first / PAGE * PAGE);
            assert_eq!(h.lo + h.buckets.len(), (index(d.max) / PAGE + 1) * PAGE);
        }
    }

    /// Samples that stretch the range every way: the exact-zero bucket,
    /// the top bucket, anything between, ascending / descending runs
    /// that widen one end a bucket at a time, and zero-heavy streams
    /// (one sample in three is 0) like the timeline's stage histograms,
    /// and streams about `LOG_MAX` long, which fold the log as they are
    /// recorded or merged.
    fn samples() -> impl Strategy<Value = Vec<u64>> {
        let run = (0u64..1 << 40, 1u64..1 << 20, 1usize..40);
        prop_oneof![
            proptest::collection::vec(any::<u64>(), 0..60),
            proptest::collection::vec(0u64..5_000_000, 0..60),
            proptest::collection::vec(prop_oneof![Just(0u64), Just(u64::MAX)], 0..4),
            proptest::collection::vec(
                prop_oneof![Just(0u64), 1u64..5_000_000, 1u64..=1 << 40],
                0..60
            ),
            run.clone()
                .prop_map(|(base, step, n)| (0..n as u64).map(|i| base + i * step).collect()),
            run.prop_map(|(base, step, n)| (0..n as u64).rev().map(|i| base + i * step).collect()),
            proptest::collection::vec(1u64..5_000_000, LOG_MAX - 4..LOG_MAX + 4),
            proptest::collection::vec(
                prop_oneof![Just(0u64), 1u64..5_000_000, 1u64..=1 << 40],
                LOG_MAX - 60..LOG_MAX + 120
            ),
        ]
    }

    proptest! {
        /// Record/merge sequences agree with the dense model on every
        /// read, and the same multiset compares `==` whatever the record
        /// order or merge tree that built it.
        #[test]
        fn range_form_is_the_dense_histogram(
            parts in proptest::collection::vec(samples(), 1..5),
            q in 0.0f64..1.0,
        ) {
            // Left fold: merge each part into an accumulator as it comes.
            let mut folded = Log2Histogram::new();
            let mut dense = Dense::new();
            let mut leaves = Vec::new();
            for part in &parts {
                let (mut h, mut d) = (Log2Histogram::new(), Dense::new());
                for (k, &v) in part.iter().enumerate() {
                    h.record(v);
                    d.record(v);
                    // Every record of a short part; of a long one, the
                    // first, the last and those either side of the fold.
                    if k < 64 || k + 1 == part.len() || h.nonzero().abs_diff(LOG_MAX as u64) <= 1 {
                        assert_matches_dense(&h, &d, q);
                    }
                }
                folded.merge(&h);
                dense.merge(&d);
                assert_matches_dense(&folded, &dense, q);
                leaves.push(h);
            }
            // Right fold over the same leaves, and one flat recording of
            // every sample in reverse order.
            let mut right = Log2Histogram::new();
            for h in leaves.iter().rev() {
                let mut acc = h.clone();
                acc.merge(&right);
                right = acc;
            }
            let mut flat = Log2Histogram::new();
            for &v in parts.iter().flatten().rev() {
                flat.record(v);
            }
            prop_assert_eq!(&right, &folded);
            prop_assert_eq!(&flat, &folded);
        }
    }
}
