//! A windowed metrics timeline: the *when* that summary reports lose.
//!
//! The capacity engine's [`super::Obs`] bundle answers "what happened
//! over the whole run"; a [`MetricsTimeline`] answers "what happened in
//! each interval, on each shard". It partitions simulated time into
//! fixed-width windows and accumulates, per `(shard, window)`:
//!
//! - **counters** — procedures dispatched, completed, shed by admission
//!   control, rejected by ring backpressure;
//! - **a latency delta** — a [`Log2Histogram`] of only that window's
//!   completions, so per-window p50/p95/p99 fall out with the same
//!   bounded relative error as the run-wide histograms;
//! - **a latency anatomy** — one histogram per pipeline [`Stage`]
//!   (`queue_wait`, `service`, `completion_transit`), so a p99 excursion
//!   is attributable to queueing delay, service time, or ring transit;
//! - **a depth gauge** — the deepest in-flight queue observed.
//!
//! Recording is allocation-free once a window exists (windows allocate
//! lazily, capped at [`MAX_WINDOWS`]; past the cap samples land in the
//! last window and are counted in [`MetricsTimeline::clamped`], never
//! silently lost). Timelines follow the same cross-thread discipline as
//! `Obs`: worker threads record into private timelines and the
//! dispatcher merges them window-wise at join via
//! [`MetricsTimeline::absorb`].
//!
//! Three exporters cover the consumption paths: CSV for plotting, JSON
//! Lines (with its own round-tripping parser,
//! [`parse_timeline_jsonl_line`]) for archival, and Prometheus text
//! exposition ([`MetricsTimeline::to_prometheus_samples`], checked by
//! [`validate_prometheus`]) for scrape-style tooling.
//!
//! # The lane table
//!
//! What a window exports is declared once, in the private `LANES` table;
//! the recorders above are the only other code that names a lane. A row
//! is one of three things. A **stored lane** (`lane!`) is a `u64` field
//! of [`TimelineWindow`]: its name (CSV header name = JSONL key), a
//! getter and a `&mut` slot, its merge rule (sum, or max for the depth
//! gauge), whether the JSONL reader may read the key as 0 when absent,
//! and the Prometheus family (name, help; a sum is a counter, a max a
//! gauge) its per-shard fold is exposed as. A **derived column** is a
//! name and a getter over the window's histograms (`count`, `p99_ns`,
//! ...). A **family** row is a Prometheus name, type and help whose
//! samples are not one window field (`l25gc_latency_ns`,
//! `l25gc_shard_outage`, ...) and are written by hand. Walking the rows
//! in table order yields the CSV header and rows, the JSONL writer *and*
//! reader, the `# HELP` / `# TYPE` preamble, each shard's block of lane
//! samples, and the window-wise merge behind
//! [`MetricsTimeline::absorb`] — one order for all three formats, which
//! is why a row's position is part of the export contract
//! (`tests/fixtures/timeline_golden.*` pin the bytes).
//!
//! Adding a lane: a `u64` field on [`TimelineWindow`] (and its zero in
//! `new`), the `record_*` that writes it, and one `lane!` row placed
//! after the last column — marked `?` so archived JSONL without the key
//! still reads. No exporter, parser or merge code changes; a unit test
//! fails if a field has no row.

use std::fmt::Write as _;
use std::sync::OnceLock;

use l25gc_codec::json;
use l25gc_codec::value::Value;
use l25gc_sim::{SimDuration, SimTime};

use crate::export::JsonlError;
use crate::hist::Log2Histogram;

/// Hard cap on windows per shard lane. A window is 416 bytes of counters
/// and histogram headers plus the occupied bucket ranges of its four
/// histograms: a lane idle-finalized to the cap without a sample is
/// 27 MB, one with every histogram stretched over the whole `u64` line
/// 4 GB — in practice a lane holds a run's horizon divided by its
/// interval, a few hundred windows of a few KB each.
pub const MAX_WINDOWS: usize = 1 << 16;

/// One stage of the dispatch→completion pipeline, as decomposed by the
/// latency anatomy. The three stages tile the end-to-end latency of a
/// dispatched event:
///
/// - [`Stage::QueueWait`] — dispatch (analytic: arrival at the shard
///   model; threaded: submit-ring push) to the instant the shard server
///   starts work (worker pop on the threaded backend);
/// - [`Stage::Service`] — shard CPU occupancy, start of work to
///   completion-push;
/// - [`Stage::CompletionTransit`] — completion-push to the completion
///   instant the dispatcher observes when it drains the event
///   (propagation/transit tail beyond the CPU occupancy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Dispatch → start of service: time spent queued behind the shard.
    QueueWait,
    /// Start of service → completion-push: shard CPU occupancy.
    Service,
    /// Completion-push → dispatcher-observed completion: ring transit
    /// and any latency beyond occupancy.
    CompletionTransit,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 3] = [Stage::QueueWait, Stage::Service, Stage::CompletionTransit];

    /// The stable label used in exports (`stage="..."`, CSV columns).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Service => "service",
            Stage::CompletionTransit => "completion_transit",
        }
    }
}

/// One `(shard, window)` cell: counters plus that window's latency delta.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineWindow {
    /// Procedures dispatched into the shard during the window.
    pub dispatched: u64,
    /// Procedures whose completion instant fell inside the window.
    pub completed: u64,
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Arrivals rejected by ring backpressure.
    pub backpressure: u64,
    /// Deepest in-flight queue observed during the window.
    pub peak_depth: u64,
    /// Virtual time the shard server spent executing charged service
    /// time inside this window, nanoseconds
    /// ([`MetricsTimeline::record_busy`], overlap-split across window
    /// boundaries). Both backends derive it from the same FIFO
    /// recurrence, so analytic and threaded lanes agree when unshed.
    pub busy_ns: u64,
    /// Idle time apportioned to the yield/blocked tier by
    /// [`MetricsTimeline::finalize_idle`], nanoseconds. Together with
    /// `busy_ns` and `parked_ns` it tiles the window exactly.
    pub blocked_ns: u64,
    /// Idle time apportioned to the park tier by
    /// [`MetricsTimeline::finalize_idle`], nanoseconds.
    pub parked_ns: u64,
    /// Ring-occupancy time integral: the summed per-event sojourn
    /// (arrival → CPU done) overlapping this window, nanoseconds
    /// ([`MetricsTimeline::record_occupancy`]). Unlike `busy_ns` this
    /// counts concurrent residents multiply, so occupancy/window-length
    /// is the mean queue depth.
    pub occupancy_ns: u64,
    /// Staged-dispatch bursts flushed into the shard's submit ring
    /// during the window ([`MetricsTimeline::record_batch_flush`]).
    /// Zero under per-event dispatch.
    pub batch_flushes: u64,
    /// Events those flushed bursts carried; `batch_events /
    /// batch_flushes` is the window's mean burst fill.
    pub batch_events: u64,
    /// Latency distribution of this window's completions only.
    pub latency: Log2Histogram,
    /// [`Stage::QueueWait`] distribution of this window's completions.
    pub queue_wait: Log2Histogram,
    /// [`Stage::Service`] distribution of this window's completions.
    pub service: Log2Histogram,
    /// [`Stage::CompletionTransit`] distribution of this window's
    /// completions.
    pub completion_transit: Log2Histogram,
}

impl TimelineWindow {
    fn new() -> TimelineWindow {
        TimelineWindow {
            dispatched: 0,
            completed: 0,
            shed: 0,
            backpressure: 0,
            peak_depth: 0,
            busy_ns: 0,
            blocked_ns: 0,
            parked_ns: 0,
            occupancy_ns: 0,
            batch_flushes: 0,
            batch_events: 0,
            latency: Log2Histogram::new(),
            queue_wait: Log2Histogram::new(),
            service: Log2Histogram::new(),
            completion_transit: Log2Histogram::new(),
        }
    }

    /// The per-stage histogram for `stage`.
    pub fn stage(&self, stage: Stage) -> &Log2Histogram {
        match stage {
            Stage::QueueWait => &self.queue_wait,
            Stage::Service => &self.service,
            Stage::CompletionTransit => &self.completion_transit,
        }
    }

    fn absorb(&mut self, other: &TimelineWindow) {
        for lane in stored_lanes() {
            let mine = (lane.slot)(self);
            *mine = lane.merge.fold(*mine, (lane.get)(other));
        }
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
        self.service.merge(&other.service);
        self.completion_transit.merge(&other.completion_transit);
    }
}

// ---------------------------------------------------------------------------
// The lane table
// ---------------------------------------------------------------------------

/// How a stored lane combines: across timelines in
/// [`MetricsTimeline::absorb`], and across one shard's windows into its
/// Prometheus sample — a sum is exposed as a counter, a max as a gauge.
#[derive(Clone, Copy)]
enum Merge {
    Sum,
    Max,
}

impl Merge {
    fn fold(self, a: u64, b: u64) -> u64 {
        match self {
            Merge::Sum => a + b,
            Merge::Max => a.max(b),
        }
    }

    fn prom_type(self) -> &'static str {
        match self {
            Merge::Sum => "counter",
            Merge::Max => "gauge",
        }
    }
}

/// A window's value for one CSV / JSONL column.
type Getter = fn(&TimelineWindow) -> u64;

/// A stored lane: a `u64` field of [`TimelineWindow`], exported as a
/// column and, folded over a shard's windows, as a Prometheus family.
struct Lane {
    /// The field's name: CSV header name and JSONL key.
    name: &'static str,
    get: Getter,
    slot: fn(&mut TimelineWindow) -> &mut u64,
    merge: Merge,
    /// Whether [`parse_timeline_jsonl_line`] reads an absent key as 0 —
    /// set on lanes younger than exports already archived. A key that
    /// is present must hold an unsigned integer either way.
    optional: bool,
    family: &'static str,
    help: &'static str,
}

/// One row of [`LANES`].
enum Row {
    Lane(Lane),
    /// A column computed from the window's histograms: `(name, getter)`.
    Derived(&'static str, Getter),
    /// A Prometheus family `(name, type, help)` that is not one window
    /// field; its samples are written by hand in
    /// [`MetricsTimeline::to_prometheus_samples`] / [`shard_outage_samples`].
    Family(&'static str, &'static str, &'static str),
}

impl Row {
    /// The row's CSV / JSONL column: `(name, getter, optional)`.
    fn column(&self) -> Option<(&'static str, Getter, bool)> {
        match *self {
            Row::Lane(ref lane) => Some((lane.name, lane.get, lane.optional)),
            Row::Derived(name, get) => Some((name, get, false)),
            Row::Family(..) => None,
        }
    }

    /// The row's Prometheus family: `(name, type, help)`.
    fn family(&self) -> Option<(&'static str, &'static str, &'static str)> {
        match *self {
            Row::Lane(ref lane) => Some((lane.family, lane.merge.prom_type(), lane.help)),
            Row::Family(name, kind, help) => Some((name, kind, help)),
            Row::Derived(..) => None,
        }
    }
}

/// `lane!(field, Merge, family, help)` declares the stored lane behind
/// [`TimelineWindow`]'s `field`; `lane!(field?, ..)` marks it optional
/// for the JSONL reader.
macro_rules! lane {
    (@ $optional:expr, $f:ident, $merge:ident, $family:expr, $help:expr) => {
        Row::Lane(Lane {
            name: stringify!($f),
            get: |w| w.$f,
            slot: |w| &mut w.$f,
            merge: Merge::$merge,
            optional: $optional,
            family: $family,
            help: $help,
        })
    };
    ($f:ident?, $($rest:tt)*) => { lane!(@ true, $f, $($rest)*) };
    ($f:ident, $($rest:tt)*) => { lane!(@ false, $f, $($rest)*) };
}

/// Every exported lane, declared once (see the module docs). Rows with
/// a column are, in this order, the CSV columns and JSONL keys after
/// `start_ns`; rows with a family, the Prometheus preamble; the
/// [`Row::Lane`]s also each shard's leading block of samples and what
/// [`TimelineWindow::absorb`] merges. A row's position is part of the
/// export contract: append new columns, never reorder.
#[rustfmt::skip] // a table, kept as one: a row per entry, its help text on the line below
static LANES: [Row; 26] = [
    lane!(dispatched, Sum, "l25gc_dispatched_total",
        "Procedures dispatched into a shard over the run."),
    lane!(completed, Sum, "l25gc_completed_total",
        "Procedures completed over the run."),
    lane!(shed, Sum, "l25gc_shed_total",
        "Arrivals shed by admission control."),
    lane!(backpressure, Sum, "l25gc_backpressure_total",
        "Arrivals rejected by ring backpressure."),
    lane!(peak_depth, Max, "l25gc_peak_depth",
        "Deepest in-flight shard queue observed."),
    Row::Derived("count", |w| w.latency.count()),
    Row::Derived("p50_ns", |w| w.latency.quantile(0.50)),
    Row::Derived("p95_ns", |w| w.latency.quantile(0.95)),
    Row::Derived("p99_ns", |w| w.latency.quantile(0.99)),
    Row::Family("l25gc_latency_ns", "gauge",
        "Whole-run latency quantile per shard, nanoseconds."),
    Row::Derived("queue_wait_p99_ns", |w| w.queue_wait.quantile(0.99)),
    Row::Derived("service_p99_ns", |w| w.service.quantile(0.99)),
    Row::Derived("transit_p99_ns", |w| w.completion_transit.quantile(0.99)),
    Row::Family("l25gc_stage_latency_ns", "histogram",
        "Whole-run per-stage latency distribution per shard, nanoseconds."),
    Row::Family("l25gc_timeline_windows", "gauge",
        "Timeline windows the run touched."),
    Row::Family("l25gc_timeline_clamped_total", "counter",
        "Samples folded into the last window past the cap."),
    lane!(busy_ns, Sum, "l25gc_worker_busy_ns_total",
        "Charged service time executed by a shard worker, nanoseconds."),
    lane!(blocked_ns, Sum, "l25gc_worker_blocked_ns_total",
        "Idle shard time apportioned to the yield/blocked tier, nanoseconds."),
    lane!(parked_ns, Sum, "l25gc_worker_parked_ns_total",
        "Idle shard time apportioned to the park tier, nanoseconds."),
    lane!(occupancy_ns, Sum, "l25gc_ring_occupancy_ns_total",
        "Summed per-event ring-residency sojourn per shard, nanoseconds."),
    Row::Family("l25gc_worker_utilization_ratio", "gauge",
        "Shard busy time over its touched window span, 0..1."),
    Row::Family("l25gc_dispatcher_utilization_ratio", "gauge",
        "Dispatcher busy wall time over its total wall time, 0..1."),
    Row::Family("l25gc_shard_outage", "gauge",
        "1 while a scripted fault holds the shard down, else 0."),
    lane!(batch_flushes?, Sum, "l25gc_dispatch_batch_flushes_total",
        "Staged-dispatch bursts flushed into a shard's submit ring."),
    lane!(batch_events?, Sum, "l25gc_dispatch_batch_events_total",
        "Events carried by staged-dispatch bursts into a shard's submit ring."),
    Row::Family("l25gc_dispatch_batch_fill", "histogram",
        "Events per flushed staged-dispatch burst over the run."),
];

/// The CSV / JSONL columns in export order: `(name, getter, optional)`.
fn columns() -> impl Iterator<Item = (&'static str, Getter, bool)> {
    LANES.iter().filter_map(Row::column)
}

/// The stored lanes, in export order.
fn stored_lanes() -> impl Iterator<Item = &'static Lane> {
    LANES.iter().filter_map(|row| match row {
        Row::Lane(lane) => Some(lane),
        _ => None,
    })
}

/// Per-shard, per-interval counter/gauge/histogram snapshots over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsTimeline {
    interval: SimDuration,
    /// One lane per shard; windows allocate lazily and contiguously.
    lanes: Vec<Vec<TimelineWindow>>,
    clamped: u64,
    /// Wall time the dispatcher spent doing work (total minus its
    /// waiters' descheduled time), nanoseconds.
    dispatcher_busy_ns: u64,
    /// Total dispatcher wall time the busy figure is measured against,
    /// nanoseconds. Zero on backends that have no dispatcher thread
    /// (the analytic loop runs in virtual time).
    dispatcher_wall_ns: u64,
    /// Whole-run distribution of flushed burst fills (events per
    /// `push_burst`) — how full the dispatcher's staging buffers were at
    /// flush time. Empty under per-event dispatch.
    batch_fill: Log2Histogram,
}

impl MetricsTimeline {
    /// A timeline with `shards` lanes snapshotting every `interval`.
    ///
    /// `interval` must be non-zero (the window index divides by it).
    pub fn new(interval: SimDuration, shards: u16) -> MetricsTimeline {
        assert!(!interval.is_zero(), "timeline interval must be non-zero");
        MetricsTimeline {
            interval,
            lanes: vec![Vec::new(); shards as usize],
            clamped: 0,
            dispatcher_busy_ns: 0,
            dispatcher_wall_ns: 0,
            batch_fill: Log2Histogram::new(),
        }
    }

    /// The snapshot interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Shard lane count.
    pub fn shards(&self) -> u16 {
        self.lanes.len() as u16
    }

    /// Samples recorded past the [`MAX_WINDOWS`] cap (folded into the
    /// last window rather than lost).
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Longest lane length — the number of windows the run touched.
    pub fn window_count(&self) -> usize {
        self.lanes.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// One shard's windows, in time order (index × interval = start).
    pub fn lane(&self, shard: u16) -> &[TimelineWindow] {
        &self.lanes[shard as usize]
    }

    /// Window `i < MAX_WINDOWS` of `shard`, materialising the lane up to
    /// it. Counts nothing: idle finalization and absorb place no sample.
    fn window_at(&mut self, shard: u16, i: usize) -> &mut TimelineWindow {
        let lane = &mut self.lanes[shard as usize];
        while lane.len() <= i {
            lane.push(TimelineWindow::new());
        }
        &mut lane[i]
    }

    /// The window a sample at `at` lands in: the terminal one, counted
    /// in `clamped`, when `at` lies past the cap.
    fn window_mut(&mut self, shard: u16, at: SimTime) -> &mut TimelineWindow {
        let mut i = (at.as_nanos() / self.interval.as_nanos()) as usize;
        if i >= MAX_WINDOWS {
            i = MAX_WINDOWS - 1;
            self.clamped += 1;
        }
        self.window_at(shard, i)
    }

    /// Counts a dispatch into `shard` at `at`.
    pub fn record_dispatched(&mut self, shard: u16, at: SimTime) {
        self.window_mut(shard, at).dispatched += 1;
    }

    /// Counts a completion at `at` and records its latency delta.
    pub fn record_completion(&mut self, shard: u16, at: SimTime, latency_ns: u64) {
        let w = self.window_mut(shard, at);
        w.completed += 1;
        w.latency.record(latency_ns);
    }

    /// Records one completion's per-stage latency anatomy into the
    /// window containing `at` — call alongside
    /// [`MetricsTimeline::record_completion`] with the same completion
    /// instant so stage deltas land in the same window as the end-to-end
    /// delta. The three values tile the event's end-to-end latency (up
    /// to any end-to-end slack beyond the three stages):
    /// `queue_wait + service ≤ end-to-end`.
    pub fn record_stages(
        &mut self,
        shard: u16,
        at: SimTime,
        queue_wait_ns: u64,
        service_ns: u64,
        transit_ns: u64,
    ) {
        let w = self.window_mut(shard, at);
        w.queue_wait.record(queue_wait_ns);
        w.service.record(service_ns);
        w.completion_transit.record(transit_ns);
    }

    /// Counts an admission-control shed.
    pub fn record_shed(&mut self, shard: u16, at: SimTime) {
        self.window_mut(shard, at).shed += 1;
    }

    /// Counts a ring-backpressure rejection.
    pub fn record_backpressure(&mut self, shard: u16, at: SimTime) {
        self.window_mut(shard, at).backpressure += 1;
    }

    /// Folds a queue-depth sample into the window's peak gauge.
    pub fn record_depth(&mut self, shard: u16, at: SimTime, depth: u64) {
        let w = self.window_mut(shard, at);
        w.peak_depth = w.peak_depth.max(depth);
    }

    /// Counts one staged-dispatch burst of `fill` events flushed into
    /// `shard`'s submit ring at virtual time `at` (the burst's oldest
    /// staged arrival), and records the fill into the run-wide
    /// [`MetricsTimeline::batch_fill`] distribution.
    pub fn record_batch_flush(&mut self, shard: u16, at: SimTime, fill: u64) {
        let w = self.window_mut(shard, at);
        w.batch_flushes += 1;
        w.batch_events += fill;
        self.batch_fill.record(fill);
    }

    /// Whole-run flushed-burst fill distribution (events per
    /// `push_burst`); empty under per-event dispatch.
    pub fn batch_fill(&self) -> &Log2Histogram {
        &self.batch_fill
    }

    /// One lane summed across every shard and window.
    fn total(&self, get: Getter) -> u64 {
        self.lanes.iter().flatten().map(get).sum()
    }

    /// Total staged-dispatch bursts flushed across every shard and
    /// window.
    pub fn batch_flush_total(&self) -> u64 {
        self.total(|w| w.batch_flushes)
    }

    /// Total events carried by flushed bursts across every shard and
    /// window.
    pub fn batch_events_total(&self) -> u64 {
        self.total(|w| w.batch_events)
    }

    /// Adds the virtual interval `[start, end)` into one duty-cycle
    /// bucket, overlap-split across window boundaries so each window
    /// receives exactly the nanoseconds falling inside it. Spans past
    /// the [`MAX_WINDOWS`] cap fold into the terminal window.
    fn record_span(
        &mut self,
        shard: u16,
        start: SimTime,
        end: SimTime,
        pick: fn(&mut TimelineWindow) -> &mut u64,
    ) {
        let iv = self.interval.as_nanos();
        let end = end.as_nanos();
        let mut cur = start.as_nanos();
        while cur < end {
            let i = (cur / iv) as usize;
            if i >= MAX_WINDOWS - 1 {
                // The terminal window also takes the clamp spill.
                let w = self.window_mut(shard, SimTime::from_nanos(cur));
                *pick(w) += end - cur;
                return;
            }
            let chunk_end = end.min((i as u64 + 1) * iv);
            *pick(self.window_at(shard, i)) += chunk_end - cur;
            cur = chunk_end;
        }
    }

    /// Records charged service time `[start, end)` as shard busy time,
    /// overlap-split across windows. Both backends call this with the
    /// same FIFO-recurrence instants (`start = max(busy_until, arrival)`
    /// floored through scripted outages, `end = start + occupancy`), so
    /// the busy lanes agree byte-for-byte when unshed.
    pub fn record_busy(&mut self, shard: u16, start: SimTime, end: SimTime) {
        self.record_span(shard, start, end, |w| &mut w.busy_ns);
    }

    /// Records one event's ring-residency sojourn `[arrival, cpu_done)`
    /// into the occupancy time integral, overlap-split across windows.
    pub fn record_occupancy(&mut self, shard: u16, start: SimTime, end: SimTime) {
        self.record_span(shard, start, end, |w| &mut w.occupancy_ns);
    }

    /// Apportions each window's idle remainder (window length minus
    /// `busy_ns`, clamped at zero) between the blocked and parked
    /// buckets, so `busy + blocked + parked` tiles every window inside
    /// `horizon` exactly. `parked_ratio` is the shard's measured
    /// park-tier share of its descheduled wall time (0 on the analytic
    /// backend, which never parks).
    ///
    /// Call once per shard on the **final merged** timeline — the
    /// blocked/parked buckets are overwritten, not accumulated, so a
    /// second call (or a later absorb of this lane) would double-count
    /// idle time.
    pub fn finalize_idle(&mut self, shard: u16, horizon: SimDuration, parked_ratio: f64) {
        let iv = self.interval.as_nanos();
        let horizon_ns = horizon.as_nanos();
        if horizon_ns == 0 {
            return;
        }
        let last = (((horizon_ns - 1) / iv) as usize).min(MAX_WINDOWS - 1);
        let ratio = if parked_ratio.is_finite() {
            parked_ratio.clamp(0.0, 1.0)
        } else {
            0.0
        };
        // Materialise every window up to the horizon, then tile.
        self.window_at(shard, last);
        let lane = &mut self.lanes[shard as usize];
        for (i, w) in lane.iter_mut().enumerate().take(last + 1) {
            let start = i as u64 * iv;
            let len = iv.min(horizon_ns - start);
            let idle = len.saturating_sub(w.busy_ns);
            w.parked_ns = (idle as f64 * ratio) as u64;
            w.blocked_ns = idle - w.parked_ns;
        }
    }

    /// One shard's whole-run duty-cycle utilization: busy time over the
    /// lane's window span, clamped to `(0, 1]`. Usable mid-run (before
    /// [`MetricsTimeline::finalize_idle`]) because the denominator is
    /// the windows the lane has touched, not the idle buckets.
    pub fn shard_utilization(&self, shard: u16) -> f64 {
        let lane = self.lane(shard);
        let span = lane.len() as u64 * self.interval.as_nanos();
        if span == 0 {
            return 0.0;
        }
        let busy: u64 = lane.iter().map(|w| w.busy_ns).sum();
        (busy as f64 / span as f64).min(1.0)
    }

    /// Adds a dispatcher duty-cycle measurement: `busy_ns` of `wall_ns`
    /// spent doing work rather than descheduled in a wait ladder.
    pub fn record_dispatcher_utilization(&mut self, busy_ns: u64, wall_ns: u64) {
        self.dispatcher_busy_ns += busy_ns;
        self.dispatcher_wall_ns += wall_ns;
    }

    /// Dispatcher busy wall time, nanoseconds.
    pub fn dispatcher_busy_ns(&self) -> u64 {
        self.dispatcher_busy_ns
    }

    /// Dispatcher total wall time, nanoseconds (zero when no dispatcher
    /// thread exists — the analytic backend).
    pub fn dispatcher_wall_ns(&self) -> u64 {
        self.dispatcher_wall_ns
    }

    /// Dispatcher utilization ratio in `[0, 1]`; `0.0` when no
    /// dispatcher wall time was recorded.
    pub fn dispatcher_utilization(&self) -> f64 {
        if self.dispatcher_wall_ns == 0 {
            return 0.0;
        }
        (self.dispatcher_busy_ns as f64 / self.dispatcher_wall_ns as f64).min(1.0)
    }

    /// Total dispatches across every shard and window.
    pub fn dispatched_total(&self) -> u64 {
        self.total(|w| w.dispatched)
    }

    /// Total completions across every shard and window.
    pub fn completed_total(&self) -> u64 {
        self.total(|w| w.completed)
    }

    /// Total sheds across every shard and window.
    pub fn shed_total(&self) -> u64 {
        self.total(|w| w.shed)
    }

    /// Sheds in window `w`, summed across every shard lane.
    pub fn window_shed(&self, w: usize) -> u64 {
        self.lanes
            .iter()
            .filter_map(|lane| lane.get(w))
            .map(|win| win.shed)
            .sum()
    }

    /// The worst single window's shed count (shard lanes merged
    /// window-wise) — the scenario tables' "peak shed" column: how hard
    /// admission control bit at the height of a disturbance.
    pub fn peak_window_shed(&self) -> u64 {
        (0..self.window_count())
            .map(|w| self.window_shed(w))
            .max()
            .unwrap_or(0)
    }

    /// One shard's whole-run latency distribution (window deltas merged).
    pub fn shard_latency(&self, shard: u16) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for w in self.lane(shard) {
            h.merge(&w.latency);
        }
        h
    }

    /// One shard's whole-run distribution for a pipeline `stage`.
    pub fn shard_stage_latency(&self, shard: u16, stage: Stage) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for w in self.lane(shard) {
            h.merge(w.stage(stage));
        }
        h
    }

    /// The whole-run distribution for a pipeline `stage`, merged across
    /// every shard.
    pub fn stage_latency(&self, stage: Stage) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for shard in 0..self.shards() {
            h.merge(&self.shard_stage_latency(shard, stage));
        }
        h
    }

    /// Merges another timeline window-wise into this one. Panics when
    /// the interval or shard count differ — merged lanes must describe
    /// the same time base, the same discipline as histogram precision.
    pub fn absorb(&mut self, other: &MetricsTimeline) {
        assert_eq!(self.interval, other.interval, "interval mismatch in absorb");
        assert_eq!(
            self.lanes.len(),
            other.lanes.len(),
            "shard-count mismatch in absorb"
        );
        self.clamped += other.clamped;
        self.dispatcher_busy_ns += other.dispatcher_busy_ns;
        self.dispatcher_wall_ns += other.dispatcher_wall_ns;
        self.batch_fill.merge(&other.batch_fill);
        for (shard, lane) in other.lanes.iter().enumerate() {
            for (i, w) in lane.iter().enumerate() {
                self.window_at(shard as u16, i).absorb(w);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

/// The CSV header matching [`MetricsTimeline::to_csv_rows`].
pub fn timeline_csv_header() -> &'static str {
    static HEADER: OnceLock<String> = OnceLock::new();
    HEADER.get_or_init(|| {
        let mut header = String::from("series,shard,window,start_ns");
        for (name, ..) in columns() {
            header.push(',');
            header.push_str(name);
        }
        header.push('\n');
        header
    })
}

impl MetricsTimeline {
    /// Data rows (no header) labelled with `series`, one per
    /// `(shard, window)`.
    pub fn to_csv_rows(&self, series: &str) -> String {
        let mut out = String::new();
        for (shard, lane) in self.lanes.iter().enumerate() {
            for (i, w) in lane.iter().enumerate() {
                let start = i as u64 * self.interval.as_nanos();
                let _ = write!(out, "{series},{shard},{i},{start}");
                for (_, get, _) in columns() {
                    let _ = write!(out, ",{}", get(w));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Header plus this timeline's rows — the single-series convenience.
    pub fn to_csv(&self, series: &str) -> String {
        format!("{}{}", timeline_csv_header(), self.to_csv_rows(series))
    }
}

// ---------------------------------------------------------------------------
// JSON Lines
// ---------------------------------------------------------------------------

fn obj() -> l25gc_codec::value::ObjectBuilder {
    l25gc_codec::value::ObjectBuilder::new()
}

/// A line parsed back out of the timeline JSONL export.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineLine {
    /// One `(shard, window)` cell.
    Window {
        /// Caller-chosen series label (deployment, sweep point, ...).
        series: String,
        /// Shard lane.
        shard: u64,
        /// Window index (start = `window * interval`).
        window: u64,
        /// Window start, nanoseconds.
        start_ns: u64,
        /// The window's columns — counters, latency quantiles (ns),
        /// duty-cycle and batch lanes — one per [`timeline_csv_header`]
        /// name after `start_ns`, in that order. Read one by name with
        /// [`TimelineLine::column`].
        values: Vec<u64>,
    },
    /// The per-series trailing metadata line.
    Meta {
        /// Series label.
        series: String,
        /// Snapshot interval, nanoseconds.
        interval_ns: u64,
        /// Shard lane count.
        shards: u64,
        /// Windows the run touched.
        windows: u64,
        /// Samples folded into the last window past [`MAX_WINDOWS`].
        clamped: u64,
        /// Dispatcher busy wall time, ns.
        dispatcher_busy_ns: u64,
        /// Dispatcher total wall time, ns (0 = no dispatcher thread).
        dispatcher_wall_ns: u64,
    },
}

impl TimelineLine {
    /// A window line's column `name` — a [`timeline_csv_header`] name
    /// after `start_ns`, e.g. `"dispatched"` or `"p99_ns"`. `None` on a
    /// meta line and for a name that is not a column.
    pub fn column(&self, name: &str) -> Option<u64> {
        let TimelineLine::Window { values, .. } = self else {
            return None;
        };
        let at = columns().position(|(column, ..)| column == name)?;
        values.get(at).copied()
    }

    /// Re-serializes to the exact [`Value`] shape
    /// [`MetricsTimeline::to_jsonl`] emits, for round-trip checks.
    pub fn to_value(&self) -> Value {
        match self {
            TimelineLine::Window {
                series,
                shard,
                window,
                start_ns,
                values,
            } => {
                let mut line = obj()
                    .field("t", Value::Str("tl".into()))
                    .field("series", Value::Str(series.clone()))
                    .field("shard", Value::U64(*shard))
                    .field("window", Value::U64(*window))
                    .field("start_ns", Value::U64(*start_ns));
                for ((name, ..), v) in columns().zip(values) {
                    line = line.field(name, Value::U64(*v));
                }
                line.build()
            }
            TimelineLine::Meta {
                series,
                interval_ns,
                shards,
                windows,
                clamped,
                dispatcher_busy_ns,
                dispatcher_wall_ns,
            } => obj()
                .field("t", Value::Str("tl_meta".into()))
                .field("series", Value::Str(series.clone()))
                .field("interval_ns", Value::U64(*interval_ns))
                .field("shards", Value::U64(*shards))
                .field("windows", Value::U64(*windows))
                .field("clamped", Value::U64(*clamped))
                .field("dispatcher_busy_ns", Value::U64(*dispatcher_busy_ns))
                .field("dispatcher_wall_ns", Value::U64(*dispatcher_wall_ns))
                .build(),
        }
    }
}

/// Parses one line of [`MetricsTimeline::to_jsonl`] output.
pub fn parse_timeline_jsonl_line(line: &str) -> Result<TimelineLine, JsonlError> {
    let v = json::parse(line.trim()).map_err(|_| JsonlError::BadJson)?;
    match v.str_of("t")?.as_str() {
        "tl" => Ok(TimelineLine::Window {
            series: v.str_of("series")?,
            shard: v.u64_of("shard")?,
            window: v.u64_of("window")?,
            start_ns: v.u64_of("start_ns")?,
            values: columns()
                .map(|(name, _, optional)| match v.get(name) {
                    // Only absence defaults: a key that is present but
                    // not an integer is a malformed line, not a zero.
                    None if optional => Ok(0),
                    _ => v.u64_of(name),
                })
                .collect::<Result<_, _>>()?,
        }),
        "tl_meta" => Ok(TimelineLine::Meta {
            series: v.str_of("series")?,
            interval_ns: v.u64_of("interval_ns")?,
            shards: v.u64_of("shards")?,
            windows: v.u64_of("windows")?,
            clamped: v.u64_of("clamped")?,
            dispatcher_busy_ns: v.u64_of("dispatcher_busy_ns")?,
            dispatcher_wall_ns: v.u64_of("dispatcher_wall_ns")?,
        }),
        _ => Err(JsonlError::BadShape),
    }
}

impl MetricsTimeline {
    /// The timeline as JSON Lines: one object per `(shard, window)` in
    /// lane order, plus a trailing `tl_meta` line. Every line parses
    /// back through [`parse_timeline_jsonl_line`] value-for-value.
    pub fn to_jsonl(&self, series: &str) -> String {
        let mut out = String::new();
        for (shard, lane) in self.lanes.iter().enumerate() {
            for (i, w) in lane.iter().enumerate() {
                let line = TimelineLine::Window {
                    series: series.to_owned(),
                    shard: shard as u64,
                    window: i as u64,
                    start_ns: i as u64 * self.interval.as_nanos(),
                    values: columns().map(|(_, get, _)| get(w)).collect(),
                };
                out.push_str(&json::to_string(&line.to_value()));
                out.push('\n');
            }
        }
        let meta = TimelineLine::Meta {
            series: series.to_owned(),
            interval_ns: self.interval.as_nanos(),
            shards: self.lanes.len() as u64,
            windows: self.window_count() as u64,
            clamped: self.clamped,
            dispatcher_busy_ns: self.dispatcher_busy_ns,
            dispatcher_wall_ns: self.dispatcher_wall_ns,
        };
        out.push_str(&json::to_string(&meta.to_value()));
        out.push('\n');
        out
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// The `# HELP` / `# TYPE` preamble for every metric the samples use.
/// Emit once per exposition, before any [`MetricsTimeline::to_prometheus_samples`].
pub fn prometheus_header() -> String {
    let mut out = String::new();
    for (name, kind, help) in LANES.iter().filter_map(Row::family) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
    }
    out
}

/// `l25gc_shard_outage` samples for a live exposition: one gauge per
/// shard, 1 while a scripted fault holds the shard down. The timeline
/// does not store outage state — the publisher (which knows the current
/// virtual time and the fault plan's intervals) passes the flags.
pub fn shard_outage_samples(series: &str, outage: &[bool]) -> String {
    let series = prom_escape(series);
    let mut out = String::new();
    for (shard, down) in outage.iter().enumerate() {
        let _ = writeln!(
            out,
            "l25gc_shard_outage{{series=\"{series}\",shard=\"{shard}\"}} {}",
            u8::from(*down)
        );
    }
    out
}

fn prom_escape(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Writes `h` as a conformant cumulative histogram `family{labels}`:
/// non-empty buckets in increasing-bound order, an explicit `+Inf`
/// terminal, then `_sum` and `_count`.
fn write_prom_histogram(out: &mut String, family: &str, labels: &str, h: &Log2Histogram) {
    for (bound, cum) in h.cumulative_buckets() {
        let _ = writeln!(out, "{family}_bucket{{{labels},le=\"{bound}\"}} {cum}");
    }
    let count = h.count();
    let _ = writeln!(out, "{family}_bucket{{{labels},le=\"+Inf\"}} {count}");
    let _ = writeln!(out, "{family}_sum{{{labels}}} {}", h.sum());
    let _ = writeln!(out, "{family}_count{{{labels}}} {count}");
}

impl MetricsTimeline {
    /// Per-shard whole-run totals, peaks, and latency quantiles as
    /// Prometheus text-exposition samples labelled with `series`.
    /// Prepend [`prometheus_header`] once per file.
    pub fn to_prometheus_samples(&self, series: &str) -> String {
        let series = prom_escape(series);
        let mut out = String::new();
        for shard in 0..self.shards() {
            let lane = self.lane(shard);
            let labels = format!("series=\"{series}\",shard=\"{shard}\"");
            // Every stored lane, folded over the shard's windows by its
            // merge rule.
            for stored in stored_lanes() {
                let values = lane.iter().map(stored.get);
                let folded = values.fold(0, |a, b| stored.merge.fold(a, b));
                let _ = writeln!(out, "{}{{{labels}}} {folded}", stored.family);
            }
            let _ = writeln!(
                out,
                "l25gc_worker_utilization_ratio{{{labels}}} {}",
                self.shard_utilization(shard)
            );
            let h = self.shard_latency(shard);
            for (q, qs) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "l25gc_latency_ns{{{labels},quantile=\"{qs}\"}} {}",
                    h.quantile(q)
                );
            }
            for stage in Stage::ALL {
                let h = self.shard_stage_latency(shard, stage);
                let slabels = format!("{labels},stage=\"{}\"", stage.name());
                write_prom_histogram(&mut out, "l25gc_stage_latency_ns", &slabels, &h);
            }
        }
        // Burst fill is run-wide: the dispatcher stages across shards.
        let labels = format!("series=\"{series}\"");
        write_prom_histogram(
            &mut out,
            "l25gc_dispatch_batch_fill",
            &labels,
            self.batch_fill(),
        );
        let _ = writeln!(
            out,
            "l25gc_timeline_windows{{{labels}}} {}",
            self.window_count()
        );
        let _ = writeln!(
            out,
            "l25gc_timeline_clamped_total{{{labels}}} {}",
            self.clamped
        );
        let _ = writeln!(
            out,
            "l25gc_dispatcher_utilization_ratio{{{labels}}} {}",
            self.dispatcher_utilization()
        );
        out
    }

    /// Header plus this timeline's samples — the single-series
    /// convenience.
    pub fn to_prometheus(&self, series: &str) -> String {
        format!(
            "{}{}",
            prometheus_header(),
            self.to_prometheus_samples(series)
        )
    }
}

/// Checks a Prometheus text exposition: every line is a well-formed
/// `# HELP`/`# TYPE` comment or a `name{labels} value` sample whose
/// metric name was declared by a preceding `# TYPE` line. Histogram
/// families additionally enforce the cumulative-bucket contract: only
/// `_bucket`/`_sum`/`_count`-suffixed samples, every `_bucket` carries
/// an `le` label, cumulative counts never decrease within one labelled
/// bucket run, and every run terminates with an `le="+Inf"` bucket.
/// Returns the sample count.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    fn metric_name(s: &str) -> Option<&str> {
        let end = s
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
            .unwrap_or(s.len());
        let name = &s[..end];
        let first = name.chars().next()?;
        if first.is_ascii_alphabetic() || first == '_' || first == ':' {
            Some(name)
        } else {
            None
        }
    }

    /// Splits the `le="..."` pair out of a label set, returning
    /// `(le_value, remaining_labels)` — the remainder keys the bucket
    /// run the sample belongs to. `le` matches as a whole label name:
    /// `role="..."` or `handle="..."` is not a bound.
    fn split_le(pairs: &[&str]) -> Option<(String, String)> {
        let mut rest = pairs.to_vec();
        let le = rest.remove(rest.iter().position(|p| p.starts_with("le=\""))?);
        let le = le["le=\"".len()..].strip_suffix('"')?;
        rest.retain(|p| !p.is_empty());
        Some((le.to_owned(), rest.join(",")))
    }

    /// An open cumulative-bucket run: key (family + labels minus `le`),
    /// last cumulative count, and whether `+Inf` has been seen.
    struct BucketRun {
        key: String,
        last: f64,
        terminated: bool,
    }

    fn close_run(run: &mut Option<BucketRun>, lineno: usize) -> Result<(), String> {
        if let Some(r) = run.take() {
            if !r.terminated {
                return Err(format!(
                    "line {lineno}: bucket run `{}` ended without an le=\"+Inf\" terminal",
                    r.key
                ));
            }
        }
        Ok(())
    }

    let mut declared: Vec<&str> = Vec::new();
    let mut histograms: Vec<&str> = Vec::new();
    let mut samples = 0usize;
    let mut run: Option<BucketRun> = None;
    let mut labels: Vec<&str> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let lineno = n + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            close_run(&mut run, lineno)?;
            let ok = ["HELP ", "TYPE "].iter().any(|kw| rest.starts_with(kw));
            if !ok {
                return Err(format!("line {lineno}: comment is neither HELP nor TYPE"));
            }
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts
                    .next()
                    .ok_or(format!("line {lineno}: TYPE without name"))?;
                match parts.next() {
                    Some("histogram") => histograms.push(name),
                    Some("counter") | Some("gauge") | Some("summary") | Some("untyped") => {
                        declared.push(name)
                    }
                    other => {
                        return Err(format!("line {lineno}: bad TYPE kind {other:?}"));
                    }
                }
            }
            continue;
        }
        let name = metric_name(line).ok_or(format!("line {lineno}: sample has no metric name"))?;
        // A histogram family exposes only suffixed series.
        let hist_suffix = ["_bucket", "_sum", "_count"].iter().find_map(|suf| {
            name.strip_suffix(suf)
                .filter(|fam| histograms.contains(fam))
                .map(|_| *suf)
        });
        if !declared.contains(&name) && hist_suffix.is_none() {
            return Err(format!(
                "line {lineno}: sample `{name}` has no TYPE declaration"
            ));
        }
        let rest = &line[name.len()..];
        labels.clear();
        let rest = if let Some(r) = rest.strip_prefix('{') {
            // Walk the label set: key="value" pairs, comma-separated,
            // with backslash escapes inside values.
            let mut in_str = false;
            let mut esc = false;
            let mut pair_start = 0;
            let mut close = None;
            for (i, c) in r.char_indices() {
                if esc {
                    esc = false;
                    continue;
                }
                match c {
                    '\\' if in_str => esc = true,
                    '"' => in_str = !in_str,
                    ',' | '}' if !in_str => {
                        labels.push(&r[pair_start..i]);
                        pair_start = i + 1;
                        if c == '}' {
                            close = Some(i);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let close = close.ok_or(format!("line {lineno}: unterminated label set"))?;
            &r[close + 1..]
        } else {
            rest
        };
        let value = rest.trim();
        if value.is_empty() || value.parse::<f64>().is_err() {
            return Err(format!("line {lineno}: bad sample value `{value}`"));
        }
        if hist_suffix == Some("_bucket") {
            let (le, key_labels) = split_le(&labels)
                .ok_or(format!("line {lineno}: histogram bucket without le label"))?;
            let cum: f64 = value.parse().unwrap_or(f64::NAN);
            let key = format!("{name}{{{key_labels}}}");
            match &mut run {
                Some(r) if r.key == key => {
                    if r.terminated {
                        return Err(format!(
                            "line {lineno}: bucket after the le=\"+Inf\" terminal in `{key}`"
                        ));
                    }
                    if cum < r.last {
                        return Err(format!(
                            "line {lineno}: non-monotone cumulative bucket in `{key}` ({} -> {cum})",
                            r.last
                        ));
                    }
                    r.last = cum;
                    r.terminated = le == "+Inf";
                }
                _ => {
                    close_run(&mut run, lineno)?;
                    run = Some(BucketRun {
                        key,
                        last: cum,
                        terminated: le == "+Inf",
                    });
                }
            }
        } else {
            close_run(&mut run, lineno)?;
        }
        samples += 1;
    }
    close_run(&mut run, text.lines().count())?;
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000_000)
    }

    fn sample_timeline() -> MetricsTimeline {
        let mut tl = MetricsTimeline::new(SimDuration::from_millis(100), 2);
        tl.record_dispatched(0, ms(10));
        tl.record_completion(0, ms(12), 2_000_000);
        tl.record_stages(0, ms(12), 500_000, 1_200_000, 300_000);
        tl.record_dispatched(0, ms(150));
        tl.record_completion(0, ms(160), 10_000_000);
        tl.record_stages(0, ms(160), 4_000_000, 5_000_000, 1_000_000);
        tl.record_dispatched(1, ms(40));
        tl.record_shed(1, ms(45));
        tl.record_backpressure(1, ms(250));
        tl.record_depth(1, ms(40), 7);
        tl.record_depth(1, ms(41), 3);
        tl
    }

    #[test]
    fn lane_table_covers_every_window_field_exactly_once() {
        // Mark every stored lane through its slot, then read the window
        // back through `Debug`, which names each field whether or not a
        // row does. (`size_of` cannot tell: the histograms' `u128` sums
        // pad eleven lanes and twelve to the same 416 bytes.)
        let mut w = TimelineWindow::new();
        let stored: Vec<&Lane> = stored_lanes().collect();
        for (mark, lane) in stored.iter().enumerate() {
            *(lane.slot)(&mut w) = mark as u64 + 1;
        }
        let shown = format!("{w:#?}");
        let fields = shown
            .lines()
            .filter_map(|line| line.strip_prefix("    "))
            .filter(|line| !line.starts_with([' ', '}']));
        let mut lanes = 0;
        for field in fields {
            let (name, value) = field.split_once(": ").expect("`name: value`");
            if let Ok(value) = value.trim_end_matches(',').parse::<u64>() {
                let at = stored.iter().position(|lane| lane.name == name);
                let at = at.unwrap_or_else(|| panic!("field `{name}` has no LANES row"));
                assert_eq!(value, at as u64 + 1, "two rows share field `{name}`");
                assert_eq!((stored[at].get)(&w), value);
                lanes += 1;
            } else {
                let stage = Stage::ALL.iter().any(|s| s.name() == name);
                assert!(stage || name == "latency", "unexpected field `{name}`");
            }
        }
        assert_eq!(lanes, stored.len(), "a LANES row names no field");
    }

    #[test]
    fn window_shed_merges_lanes_and_peak_finds_the_worst_window() {
        let mut tl = sample_timeline();
        assert_eq!(tl.window_shed(0), 1, "one shed in window 0 (shard 1)");
        assert_eq!(tl.window_shed(1), 0);
        assert_eq!(tl.peak_window_shed(), 1);
        // Pile sheds into window 2 across both lanes; the peak moves.
        for _ in 0..3 {
            tl.record_shed(0, ms(250));
        }
        tl.record_shed(1, ms(260));
        assert_eq!(tl.window_shed(2), 4, "lanes merge window-wise");
        assert_eq!(tl.peak_window_shed(), 4);
        assert_eq!(
            MetricsTimeline::new(SimDuration::from_millis(100), 1).peak_window_shed(),
            0
        );
    }

    #[test]
    fn windows_bucket_by_interval_per_shard() {
        let tl = sample_timeline();
        assert_eq!(tl.shards(), 2);
        assert_eq!(tl.window_count(), 3, "events reach the 200-300 ms window");
        assert_eq!(tl.lane(0)[0].dispatched, 1);
        assert_eq!(tl.lane(0)[1].dispatched, 1);
        assert_eq!(tl.lane(0)[0].completed, 1);
        assert_eq!(tl.lane(1)[0].shed, 1);
        assert_eq!(tl.lane(1)[2].backpressure, 1);
        assert_eq!(tl.lane(1)[0].peak_depth, 7, "depth gauge keeps the max");
        assert_eq!(tl.dispatched_total(), 3);
        assert_eq!(tl.completed_total(), 2);
        assert_eq!(tl.shed_total(), 1);
    }

    #[test]
    fn per_window_quantiles_come_from_the_window_delta() {
        let tl = sample_timeline();
        // Window 0 on shard 0 saw one 2 ms completion; window 1 one 10 ms.
        assert!(tl.lane(0)[0].latency.quantile(0.99) >= 2_000_000);
        assert!(tl.lane(0)[0].latency.quantile(0.99) < 10_000_000);
        assert!(tl.lane(0)[1].latency.quantile(0.5) >= 10_000_000);
        // Merged lane view covers both.
        let h = tl.shard_latency(0);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn stage_histograms_decompose_the_window_latency() {
        let tl = sample_timeline();
        let w = &tl.lane(0)[0];
        assert_eq!(w.queue_wait.count(), 1);
        assert_eq!(w.service.count(), 1);
        assert_eq!(w.completion_transit.count(), 1);
        // queue_wait + service never exceeds the end-to-end sample.
        assert!(w.queue_wait.max() + w.service.max() <= w.latency.max());
        for stage in Stage::ALL {
            assert_eq!(w.stage(stage).count(), 1);
            let merged = tl.shard_stage_latency(0, stage);
            assert_eq!(merged.count(), 2, "both windows merge for {stage:?}");
            assert_eq!(tl.stage_latency(stage).count(), 2, "lane 1 is empty");
        }
        assert_eq!(Stage::QueueWait.name(), "queue_wait");
        assert_eq!(Stage::Service.name(), "service");
        assert_eq!(Stage::CompletionTransit.name(), "completion_transit");
    }

    #[test]
    fn absorb_merges_window_wise_and_conserves_counts() {
        let mut a = sample_timeline();
        let b = sample_timeline();
        let before = a.dispatched_total();
        a.absorb(&b);
        assert_eq!(a.dispatched_total(), before + b.dispatched_total());
        assert_eq!(a.lane(0)[0].dispatched, 2, "same window adds");
        assert_eq!(a.lane(1)[0].peak_depth, 7, "gauges take the max");
        assert_eq!(a.lane(0)[0].latency.count(), 2, "histogram deltas merge");
        assert_eq!(a.lane(0)[0].queue_wait.count(), 2, "stage deltas merge");
        assert_eq!(a.lane(0)[0].service.count(), 2);
        assert_eq!(a.lane(0)[0].completion_transit.count(), 2);
    }

    #[test]
    #[should_panic(expected = "interval mismatch")]
    fn absorb_rejects_mismatched_intervals() {
        let mut a = MetricsTimeline::new(SimDuration::from_millis(100), 1);
        let b = MetricsTimeline::new(SimDuration::from_millis(50), 1);
        a.absorb(&b);
    }

    #[test]
    fn past_the_cap_samples_clamp_and_count() {
        let mut tl = MetricsTimeline::new(SimDuration::from_nanos(1), 1);
        tl.record_dispatched(0, SimTime::from_nanos(MAX_WINDOWS as u64 + 50));
        assert_eq!(tl.clamped(), 1);
        assert_eq!(tl.window_count(), MAX_WINDOWS);
        assert_eq!(tl.lane(0)[MAX_WINDOWS - 1].dispatched, 1, "not lost");
    }

    #[test]
    fn idle_finalization_and_absorb_past_the_cap_count_no_clamp() {
        // Horizon 70 000 windows, cap 65 536: both lanes materialise to
        // the cap, and no sample was placed, let alone clamped.
        let mut tl = MetricsTimeline::new(SimDuration::from_nanos(1), 2);
        let horizon = SimDuration::from_nanos(70_000);
        tl.finalize_idle(0, horizon, 0.0);
        tl.finalize_idle(1, horizon, 0.0);
        assert_eq!(tl.window_count(), MAX_WINDOWS);
        assert_eq!(tl.clamped(), 0, "finalize_idle is not a sample");
        let mut merged = MetricsTimeline::new(SimDuration::from_nanos(1), 2);
        merged.absorb(&tl);
        assert_eq!(merged.clamped(), 0, "nor is absorb");
        assert_eq!(merged, tl);
        // A real sample past the cap still counts, once, through absorb.
        tl.record_shed(1, SimTime::from_nanos(69_999));
        merged.absorb(&tl);
        assert_eq!((tl.clamped(), merged.clamped()), (1, 1));
    }

    #[test]
    fn jsonl_roundtrips_through_own_parser() {
        let tl = sample_timeline();
        let text = tl.to_jsonl("L25GC@0.9x");
        let lines: Vec<&str> = text.lines().collect();
        // Both lanes padded to the longest-touched window on export? No:
        // lanes export their own length; shard 0 has 2 windows, shard 1
        // has 3, plus the meta line.
        assert_eq!(lines.len(), 2 + 3 + 1);
        let mut dispatched = 0;
        for line in &lines {
            let parsed = parse_timeline_jsonl_line(line).expect("line parses");
            assert_eq!(json::to_string(&parsed.to_value()), *line, "round trip");
            dispatched += parsed.column("dispatched").unwrap_or(0);
        }
        assert_eq!(dispatched, tl.dispatched_total());
        match parse_timeline_jsonl_line(lines.last().unwrap()).unwrap() {
            TimelineLine::Meta {
                series,
                interval_ns,
                shards,
                windows,
                clamped,
                dispatcher_busy_ns,
                dispatcher_wall_ns,
            } => {
                assert_eq!(series, "L25GC@0.9x");
                assert_eq!(interval_ns, 100_000_000);
                assert_eq!(shards, 2);
                assert_eq!(windows, 3);
                assert_eq!(clamped, 0);
                assert_eq!(dispatcher_busy_ns, 0);
                assert_eq!(dispatcher_wall_ns, 0);
            }
            other => panic!("expected meta, got {other:?}"),
        }
        assert_eq!(
            parse_timeline_jsonl_line("{\"t\":\"mystery\"}"),
            Err(JsonlError::BadShape)
        );
    }

    #[test]
    fn csv_has_one_row_per_window() {
        let mut tl = sample_timeline();
        tl.record_busy(0, ms(10), ms(20));
        let text = tl.to_csv("s");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], timeline_csv_header().trim_end());
        assert_eq!(lines.len(), 1 + 2 + 3);
        assert!(lines[1].starts_with("s,0,0,0,1,1,0,0,"));
        assert!(
            lines[1].ends_with(",10000000,0,0,0,0,0"),
            "duty-cycle and batch columns trail the row: {}",
            lines[1]
        );
    }

    #[test]
    fn busy_spans_overlap_split_across_windows() {
        let mut tl = MetricsTimeline::new(SimDuration::from_millis(100), 1);
        // 70 ms..230 ms crosses two window boundaries.
        tl.record_busy(0, ms(70), ms(230));
        assert_eq!(tl.lane(0)[0].busy_ns, 30_000_000);
        assert_eq!(tl.lane(0)[1].busy_ns, 100_000_000);
        assert_eq!(tl.lane(0)[2].busy_ns, 30_000_000);
        // Occupancy integrates independently and counts overlap twice.
        tl.record_occupancy(0, ms(0), ms(100));
        tl.record_occupancy(0, ms(50), ms(100));
        assert_eq!(tl.lane(0)[0].occupancy_ns, 150_000_000);
        assert_eq!(tl.lane(0)[0].busy_ns, 30_000_000, "buckets are disjoint");
        // Empty and inverted spans record nothing.
        tl.record_busy(0, ms(5), ms(5));
        assert_eq!(tl.lane(0)[0].busy_ns, 30_000_000);
    }

    #[test]
    fn finalize_idle_tiles_every_window_exactly() {
        let mut tl = MetricsTimeline::new(SimDuration::from_millis(100), 2);
        tl.record_busy(0, ms(70), ms(230));
        // Horizon 250 ms: three windows, the last partial (50 ms).
        let horizon = SimDuration::from_millis(250);
        tl.finalize_idle(0, horizon, 0.25);
        tl.finalize_idle(1, horizon, 0.0);
        for shard in 0..2 {
            let lane = tl.lane(shard);
            assert_eq!(lane.len(), 3, "windows materialise up to the horizon");
            for (i, w) in lane.iter().enumerate() {
                let len = if i == 2 { 50_000_000 } else { 100_000_000 };
                assert_eq!(
                    w.busy_ns + w.blocked_ns + w.parked_ns,
                    len,
                    "shard {shard} window {i} tiles"
                );
            }
        }
        // The parked ratio splits only the idle remainder.
        let w = &tl.lane(0)[0];
        assert_eq!(w.busy_ns, 30_000_000);
        assert_eq!(w.parked_ns, 17_500_000, "25% of the 70 ms idle");
        assert_eq!(w.blocked_ns, 52_500_000);
        // The all-blocked shard parks nothing.
        assert!(tl.lane(1).iter().all(|w| w.parked_ns == 0));
        // Utilization: shard 0 was busy 160 ms of its 300 ms span.
        let u = tl.shard_utilization(0);
        assert!((u - 160.0 / 300.0).abs() < 1e-9, "{u}");
        assert_eq!(tl.shard_utilization(1), 0.0);
    }

    #[test]
    fn absorb_adds_duty_cycles_and_dispatcher_time() {
        let mut a = MetricsTimeline::new(SimDuration::from_millis(100), 1);
        a.record_busy(0, ms(0), ms(40));
        a.record_dispatcher_utilization(3, 10);
        let mut b = MetricsTimeline::new(SimDuration::from_millis(100), 1);
        b.record_busy(0, ms(20), ms(60));
        b.record_occupancy(0, ms(0), ms(10));
        b.record_dispatcher_utilization(5, 10);
        a.absorb(&b);
        assert_eq!(a.lane(0)[0].busy_ns, 80_000_000);
        assert_eq!(a.lane(0)[0].occupancy_ns, 10_000_000);
        assert_eq!(a.dispatcher_busy_ns(), 8);
        assert_eq!(a.dispatcher_wall_ns(), 20);
        assert!((a.dispatcher_utilization() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn outage_samples_validate_and_flag_down_shards() {
        let text = format!(
            "{}{}",
            prometheus_header(),
            shard_outage_samples("amf-restart/queue", &[true, false])
        );
        validate_prometheus(&text).expect("outage exposition validates");
        assert!(text.contains("l25gc_shard_outage{series=\"amf-restart/queue\",shard=\"0\"} 1"));
        assert!(text.contains("l25gc_shard_outage{series=\"amf-restart/queue\",shard=\"1\"} 0"));
    }

    #[test]
    fn prometheus_output_validates_and_sums_match() {
        let tl = sample_timeline();
        let text = tl.to_prometheus("free5GC@1x");
        let samples = validate_prometheus(&text).expect("exposition is well-formed");
        // 8+ samples per shard (4 counters + peak + 3 quantiles) plus the
        // per-stage histogram series — count structurally, not exactly.
        assert!(samples >= 2 * 8 + 2, "got {samples}");
        assert!(text.contains("l25gc_dispatched_total{series=\"free5GC@1x\",shard=\"0\"} 2"));
        assert!(text.contains("l25gc_shed_total{series=\"free5GC@1x\",shard=\"1\"} 1"));
        // Per-stage histograms expose conformant series: a +Inf terminal
        // bucket and matching _sum/_count per (shard, stage).
        for stage in ["queue_wait", "service", "completion_transit"] {
            let labels = format!("series=\"free5GC@1x\",shard=\"0\",stage=\"{stage}\"");
            assert!(
                text.contains(&format!(
                    "l25gc_stage_latency_ns_bucket{{{labels},le=\"+Inf\"}} 2"
                )),
                "{stage} terminal bucket"
            );
            assert!(text.contains(&format!("l25gc_stage_latency_ns_count{{{labels}}} 2")));
        }
        let qw_sum = format!(
            "l25gc_stage_latency_ns_sum{{series=\"free5GC@1x\",shard=\"0\",stage=\"queue_wait\"}} {}",
            500_000 + 4_000_000
        );
        assert!(text.contains(&qw_sum), "exact stage sum");
        // Empty lanes still emit a terminated (all-zero) histogram.
        assert!(text.contains(
            "l25gc_stage_latency_ns_bucket{series=\"free5GC@1x\",shard=\"1\",stage=\"service\",le=\"+Inf\"} 0"
        ));
    }

    #[test]
    fn batch_lanes_flow_through_every_exporter() {
        let mut tl = MetricsTimeline::new(SimDuration::from_millis(100), 2);
        tl.record_batch_flush(0, ms(10), 32);
        tl.record_batch_flush(0, ms(150), 1);
        tl.record_batch_flush(1, ms(20), 8);
        assert_eq!(tl.batch_flush_total(), 3);
        assert_eq!(tl.batch_events_total(), 41);
        assert_eq!(tl.batch_fill().count(), 3);
        assert_eq!(tl.batch_fill().sum(), 41);

        // Absorb merges both the window counters and the fill histogram.
        let mut merged = MetricsTimeline::new(SimDuration::from_millis(100), 2);
        merged.absorb(&tl);
        merged.absorb(&tl);
        assert_eq!(merged.batch_events_total(), 82);
        assert_eq!(merged.batch_fill().count(), 6);

        // CSV: the two batch columns land in the right windows.
        let csv = tl.to_csv("b");
        assert!(
            csv.lines()
                .any(|l| l.starts_with("b,0,0,") && l.ends_with(",1,32")),
            "shard 0 window 0 carries the 32-burst: {csv}"
        );
        assert!(csv
            .lines()
            .any(|l| l.starts_with("b,0,1,") && l.ends_with(",1,1")));

        // JSONL round-trips the new fields; a legacy line without them
        // still parses, defaulting both to zero.
        let text = tl.to_jsonl("b");
        let first = text.lines().next().unwrap();
        let line = parse_timeline_jsonl_line(first).unwrap();
        assert_eq!(line.column("batch_flushes"), Some(1));
        assert_eq!(line.column("batch_events"), Some(32));
        assert_eq!(line.column("no_such_column"), None);
        let legacy = first.replace(",\"batch_flushes\":1,\"batch_events\":32", "");
        assert_ne!(legacy, *first, "fields were present to strip");
        let line = parse_timeline_jsonl_line(&legacy).unwrap();
        assert_eq!(
            line.column("batch_flushes"),
            Some(0),
            "absent reads as zero"
        );
        assert_eq!(line.column("batch_events"), Some(0));
        // Present but not an integer is a malformed line, never a zero;
        // and only the columns younger than the format may be absent.
        for bad in [
            first.replace("\"batch_flushes\":1", "\"batch_flushes\":\"x\""),
            first.replace("\"batch_events\":32", "\"batch_events\":1.5"),
            first.replace("\"batch_events\":32", "\"batch_events\":null"),
            first.replace("\"busy_ns\":0,", ""),
        ] {
            assert_ne!(bad, *first);
            assert_eq!(
                parse_timeline_jsonl_line(&bad),
                Err(JsonlError::BadShape),
                "{bad}"
            );
        }

        // Prometheus: per-shard counters plus a conformant run-wide
        // fill histogram.
        let prom = tl.to_prometheus("b");
        validate_prometheus(&prom).expect("well-formed with batch lanes");
        assert!(prom.contains("l25gc_dispatch_batch_flushes_total{series=\"b\",shard=\"0\"} 2"));
        assert!(prom.contains("l25gc_dispatch_batch_events_total{series=\"b\",shard=\"1\"} 8"));
        assert!(prom.contains("l25gc_dispatch_batch_fill_bucket{series=\"b\",le=\"+Inf\"} 3"));
        assert!(prom.contains("l25gc_dispatch_batch_fill_sum{series=\"b\"} 41"));
        assert!(prom.contains("l25gc_dispatch_batch_fill_count{series=\"b\"} 3"));
    }

    #[test]
    fn prometheus_validator_rejects_malformed_lines() {
        assert!(validate_prometheus("no_type_decl{a=\"b\"} 1").is_err());
        assert!(validate_prometheus("# TYPE x counter\nx{unterminated 1").is_err());
        assert!(validate_prometheus("# TYPE x counter\nx{a=\"b\"} not_a_number").is_err());
        assert!(validate_prometheus("# bogus comment").is_err());
        let ok = "# HELP x help text\n# TYPE x gauge\nx{a=\"quoted \\\"v\\\"\"} 1.5\nx 2\n";
        assert_eq!(validate_prometheus(ok), Ok(2));
    }

    #[test]
    fn prometheus_validator_enforces_histogram_conformance() {
        let head = "# TYPE h histogram\n";
        // A well-formed run: monotone cumulative buckets, +Inf terminal,
        // then _sum and _count.
        let ok = format!(
            "{head}h_bucket{{le=\"1\"}} 1\nh_bucket{{le=\"4\"}} 3\n\
             h_bucket{{le=\"+Inf\"}} 3\nh_sum 6\nh_count 3\n"
        );
        assert_eq!(validate_prometheus(&ok), Ok(5));
        // Two runs with distinct label sets both validate.
        let ok2 = format!(
            "{head}h_bucket{{s=\"a\",le=\"1\"}} 1\nh_bucket{{s=\"a\",le=\"+Inf\"}} 1\n\
             h_bucket{{s=\"b\",le=\"+Inf\"}} 0\n"
        );
        assert_eq!(validate_prometheus(&ok2), Ok(3));
        // `le` is a whole label name, wherever it sits in the set: a
        // label merely ending in "le" is not the bound.
        for (before, after) in [("role=\"a\",", ""), ("", ",role=\"a\""), ("", ",")] {
            let ok3 = format!(
                "{head}h_bucket{{{before}le=\"1\"{after}}} 1\n\
                 h_bucket{{{before}le=\"+Inf\"{after}}} 1\n"
            );
            assert_eq!(validate_prometheus(&ok3), Ok(2), "{ok3}");
        }
        let bad = format!("{head}h_bucket{{role=\"le=\"}} 1\n");
        assert!(validate_prometheus(&bad).unwrap_err().contains("le label"));
        // Non-monotone cumulative counts are rejected.
        let bad = format!(
            "{head}h_bucket{{le=\"1\"}} 5\nh_bucket{{le=\"4\"}} 3\nh_bucket{{le=\"+Inf\"}} 5\n"
        );
        let err = validate_prometheus(&bad).unwrap_err();
        assert!(err.contains("non-monotone"), "{err}");
        // A run must terminate with +Inf — whether closed by another
        // series, by a label-set change, or by end of input.
        let bad = format!("{head}h_bucket{{le=\"1\"}} 1\nh_count 1\n");
        assert!(validate_prometheus(&bad).unwrap_err().contains("+Inf"));
        let bad =
            format!("{head}h_bucket{{s=\"a\",le=\"1\"}} 1\nh_bucket{{s=\"b\",le=\"+Inf\"}} 0\n");
        assert!(validate_prometheus(&bad).unwrap_err().contains("+Inf"));
        let bad = format!("{head}h_bucket{{le=\"1\"}} 1\n");
        assert!(validate_prometheus(&bad).unwrap_err().contains("+Inf"));
        // Buckets need an le label; bare family names are undeclared.
        let bad = format!("{head}h_bucket{{a=\"b\"}} 1\n");
        assert!(validate_prometheus(&bad).unwrap_err().contains("le label"));
        let bad = format!("{head}h 1\n");
        assert!(validate_prometheus(&bad)
            .unwrap_err()
            .contains("no TYPE declaration"));
        // Nothing may follow the terminal inside the same run.
        let bad = format!("{head}h_bucket{{le=\"+Inf\"}} 2\nh_bucket{{le=\"9\"}} 2\n");
        assert!(validate_prometheus(&bad).unwrap_err().contains("terminal"));
    }
}
