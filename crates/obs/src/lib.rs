//! Flight-recorder observability for the L25GC reproduction.
//!
//! The paper's evaluation hinges on *where time goes*: per-NF shares of
//! control-plane procedures (Fig 8), ring/mempool behaviour under load,
//! and the failover timeline (§5.5). This crate is the shared
//! instrumentation substrate the other crates record into:
//!
//! - [`hist::Log2Histogram`] — compact latency distributions (a bucket
//!   log while small, bucket pages past it) with a bounded relative
//!   error, mergeable across NFs;
//! - [`events::FlightRecorder`] — a bounded ring of typed, timestamped
//!   events (stalls, drops, PFCP ops, handover phases, gauges) that
//!   overwrites its oldest entry and counts what it lost;
//! - [`span::SpanLog`] — completed procedure spans plus per-NF
//!   message-handling segments;
//! - [`export`] — JSON Lines (with its own parser), Chrome `trace_event`
//!   JSON for Perfetto, and a human-readable summary table;
//! - [`slo`] — windowed SLO evaluation over the metrics timelines:
//!   violation spans, burn rate, and recovery time;
//! - [`serve`] — a std-only live scrape endpoint (`GET /metrics`,
//!   `GET /healthz`) the dispatcher publishes into each timeline window.
//!
//! Everything is simulation-clock driven (`SimTime`), `std`-only, and
//! allocation-free on the record path; the recorders are plain values a
//! component embeds and the harness drains at export time.

#![warn(missing_docs)]

mod events;
mod export;
pub mod hist;
pub mod serve;
pub mod slo;
mod span;
pub mod timeline;

pub use events::{DropCode, EventKind, FlightRecorder};
pub use export::{parse_jsonl_line, to_chrome_trace, to_jsonl, to_summary, TraceBundle};
pub use hist::{Log2Histogram, DEFAULT_BITS};
pub use serve::Snapshot;
pub use slo::{SloReport, SloSpec};
pub use span::{ProcKind, SpanLog};
pub use timeline::{
    parse_timeline_jsonl_line, prometheus_header, shard_outage_samples, timeline_csv_header,
    validate_prometheus, MetricsTimeline, Stage,
};

use l25gc_sim::SimTime;

/// Named histograms with creation-order iteration. A set holds a dozen
/// names at most, so a name resolves by a scan of the entries — first by
/// the address of the `&'static str` (the same constant recorded under
/// every time, the hot path), then by content.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSet {
    entries: Vec<(&'static str, Log2Histogram)>,
}

impl HistogramSet {
    /// An empty set.
    pub fn new() -> HistogramSet {
        HistogramSet::default()
    }

    /// Index of the entry called `name`.
    fn position(&self, name: &str) -> Option<usize> {
        self.entries
            .iter()
            .position(|(n, _)| std::ptr::eq(*n, name))
            .or_else(|| self.entries.iter().position(|(n, _)| *n == name))
    }

    /// The histogram called `name`, created empty on first use.
    fn entry(&mut self, name: &'static str) -> &mut Log2Histogram {
        let i = self.position(name).unwrap_or_else(|| {
            self.entries.push((name, Log2Histogram::new()));
            self.entries.len() - 1
        });
        &mut self.entries[i].1
    }

    /// Records `v` into the named histogram, creating it on first use.
    pub fn record(&mut self, name: &'static str, v: u64) {
        self.entry(name).record(v);
    }

    /// The named histogram, if any value was recorded into it.
    pub fn get(&self, name: &str) -> Option<&Log2Histogram> {
        self.position(name).map(|i| &self.entries[i].1)
    }

    /// All histograms, in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Log2Histogram)> {
        self.entries.iter().map(|(n, h)| (*n, h))
    }

    /// Merges another set into this one (matching names merge, new names
    /// append).
    pub fn absorb(&mut self, other: &HistogramSet) {
        for (name, h) in other.iter() {
            self.entry(name).merge(h);
        }
    }
}

/// The per-component observability bundle: a flight recorder, a span
/// log, and named histograms, embedded as one value.
///
/// `Obs` is `Clone` because components that own one (e.g. the core
/// network) are themselves cloned for replica checkpointing; a clone is
/// an independent recorder from that point on.
#[derive(Debug, Clone, PartialEq)]
pub struct Obs {
    /// Event ring.
    pub flight: FlightRecorder,
    /// Procedure spans and per-NF segments.
    pub spans: SpanLog,
    /// Named latency/size distributions.
    pub hists: HistogramSet,
}

impl Obs {
    /// A bundle with default capacities.
    pub fn new() -> Obs {
        Obs {
            flight: FlightRecorder::with_default_capacity(),
            spans: SpanLog::new(),
            hists: HistogramSet::new(),
        }
    }

    /// Shorthand for recording an event now.
    pub fn event(&mut self, at: SimTime, kind: EventKind) {
        self.flight.record(at, kind);
    }

    /// Merges another bundle into this one: histograms merge bucket-wise
    /// (same names combine, new names append), flight-recorder events
    /// replay into this ring in their recorded order (overwrite counts
    /// carry over), and spans/segments append with their dropped counts.
    /// Nothing is lost in accounting terms: summed event, span, and
    /// segment totals — held plus dropped — are conserved. This is the
    /// cross-thread drain path: worker threads record into private `Obs`
    /// bundles (no locks on the hot path) and the dispatcher absorbs
    /// them after join.
    pub fn absorb(&mut self, other: &Obs) {
        self.hists.absorb(&other.hists);
        self.flight.absorb(&other.flight);
        self.spans.absorb(&other.spans);
    }

    /// Drains this bundle's events and copies spans/segments into a
    /// [`TraceBundle`] for export.
    pub fn drain_into(&mut self, out: &mut TraceBundle) {
        out.dropped_events += self.flight.dropped();
        out.dropped_spans += self.spans.dropped_spans();
        out.dropped_segments += self.spans.dropped_segments();
        self.flight.drain_into(&mut out.events);
        out.spans.extend(self.spans.spans().iter().copied());
        out.segments.extend(self.spans.segments().iter().copied());
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_set_indexes_and_orders() {
        let mut set = HistogramSet::new();
        set.record("b_second", 10);
        set.record("a_first", 20);
        set.record("b_second", 30);
        let names: Vec<&str> = set.iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            vec!["b_second", "a_first"],
            "creation order, not sorted"
        );
        assert_eq!(set.get("b_second").unwrap().count(), 2);
        assert!(set.get("missing").is_none());
    }

    #[test]
    fn histogram_set_names_are_equal_by_content_not_address() {
        let a: &'static str = Box::leak(String::from("lat").into_boxed_str());
        let b: &'static str = Box::leak(String::from("lat").into_boxed_str());
        assert!(!std::ptr::eq(a, b), "two allocations");
        let mut set = HistogramSet::new();
        set.record(a, 1);
        set.record("other", 2);
        set.record(b, 3);
        assert_eq!(set.iter().count(), 2, "one entry per name");
        assert_eq!(set.get("lat").unwrap().count(), 2);
        let mut absorbed = HistogramSet::new();
        absorbed.record(b, 4);
        absorbed.absorb(&set);
        assert_eq!(absorbed.get(a).unwrap().count(), 3);
        let names: Vec<&str> = absorbed.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["lat", "other"]);
    }

    #[test]
    fn histogram_set_absorb_merges_and_appends() {
        let mut a = HistogramSet::new();
        a.record("shared", 1);
        let mut b = HistogramSet::new();
        b.record("shared", 2);
        b.record("only_b", 3);
        a.absorb(&b);
        assert_eq!(a.get("shared").unwrap().count(), 2);
        assert_eq!(a.get("only_b").unwrap().count(), 1);
    }

    #[test]
    fn obs_absorb_merges_worker_bundles() {
        let mut main = Obs::new();
        main.hists.record("lat", 100);
        let mut worker = Obs::new();
        worker.hists.record("lat", 200);
        worker.hists.record("worker_only", 5);
        worker.event(
            SimTime::from_nanos(3),
            EventKind::Gauge {
                name: "depth",
                value: 7,
            },
        );
        worker
            .spans
            .record_completed(ProcKind::Handover, 4, SimTime::ZERO, SimTime::from_nanos(9));
        main.absorb(&worker);
        assert_eq!(main.hists.get("lat").unwrap().count(), 2);
        assert_eq!(main.hists.get("worker_only").unwrap().count(), 1);
        assert_eq!(main.flight.iter().count(), 1);
        assert_eq!(main.spans.spans().len(), 1);
    }

    #[test]
    fn obs_drains_into_bundle() {
        let mut obs = Obs::new();
        obs.event(
            SimTime::from_nanos(5),
            EventKind::Gauge {
                name: "x",
                value: 1,
            },
        );
        obs.spans
            .record_completed(ProcKind::Paging, 9, SimTime::ZERO, SimTime::from_nanos(10));
        let mut bundle = TraceBundle::new();
        obs.drain_into(&mut bundle);
        assert_eq!(bundle.events.len(), 1);
        assert_eq!(bundle.spans.len(), 1);
        assert!(obs.flight.is_empty(), "events drained");
    }

    #[test]
    fn a_truncated_span_log_says_so_in_the_trace() {
        use l25gc_codec::{json, value::Value};
        use l25gc_sim::SimDuration;

        /// The meta line's drop counts and the Chrome trace's metadata.
        fn drops(bundle: &TraceBundle) -> ((u64, u64, u64), Option<Value>) {
            let jsonl = to_jsonl(bundle);
            let meta = match parse_jsonl_line(jsonl.lines().last().unwrap()).unwrap() {
                export::ParsedLine::Meta {
                    dropped_events,
                    dropped_spans,
                    dropped_segments,
                } => (dropped_events, dropped_spans, dropped_segments),
                other => panic!("expected meta, got {other:?}"),
            };
            let chrome = json::parse(&to_chrome_trace(bundle)).unwrap();
            (meta, chrome.get("metadata").cloned())
        }

        let mut obs = Obs::new();
        obs.spans = SpanLog::with_capacity(1, 2);
        let mut whole = TraceBundle::new();
        obs.clone().drain_into(&mut whole);
        assert_eq!(drops(&whole), ((0, 0, 0), None), "untruncated: no keys");
        assert!(!to_jsonl(&whole).contains("dropped_spans"));

        for i in 0..4u64 {
            let at = SimTime::from_nanos(i);
            obs.spans.record_completed(ProcKind::Paging, i, at, at);
            obs.spans
                .record_segment("amf", "x", at, SimDuration::from_nanos(1));
        }
        let mut cut = TraceBundle::new();
        obs.drain_into(&mut cut);
        let (meta, chrome) = drops(&cut);
        assert_eq!(meta, (0, 3, 2));
        let chrome = chrome.expect("truncated: metadata written");
        assert_eq!(chrome.get("dropped_spans").and_then(Value::as_u64), Some(3));
        assert_eq!(
            chrome.get("dropped_segments").and_then(Value::as_u64),
            Some(2)
        );
    }
}
