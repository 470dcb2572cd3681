//! The benchmark's own in-memory span recorder.
//!
//! A span is one call (or one 4 096-op chunk of calls) into a layer's
//! public function: name, start, end, the span that was open when it
//! started, the op-chunk it belongs to, and how many allocations and
//! bytes the calling thread made inside it. Spans stay in memory and are
//! written as a Chrome trace when the run ends. A layer's *self* time is
//! its span minus the part its direct children cover, so the rows of a
//! ledger add up to the root span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// Ops per layer-major replay chunk — one span each: large enough that
/// the two ~25 ns clock reads per span vanish, small enough to stay in L2.
pub const CHUNK: usize = 4096;

/// "No parent": the span was opened at top level.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (a ledger row).
    pub name: &'static str,
    /// Start, ns since recorder start.
    pub start_ns: u64,
    /// End, ns since recorder start.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Op-chunk (or procedure) this span belongs to.
    pub chunk: u32,
    /// Allocations the calling thread made inside the span.
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub bytes: u64,
}

/// A handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Self-time totals of one layer name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTotals {
    /// Spans of this name.
    pub spans: u64,
    /// Σ (duration − direct children's durations), ns.
    pub self_ns: u64,
    /// Σ (allocations − direct children's allocations).
    pub self_allocs: u64,
    /// Σ (bytes − direct children's bytes).
    pub self_bytes: u64,
}

/// The recorder. A disabled recorder ignores every call, so the same
/// replay code runs with tracing on and off and the difference between
/// the two is the tracing overhead.
pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, chunk: u32) -> Open {
        if !self.on {
            return Open(ROOT);
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let id = self.spans.len() as u32;
        // Grow the recorder's own vectors first, then snapshot the
        // counters, then read the clock: the span holds the opening
        // snapshot until `exit` replaces it with the delta, and the
        // bookkeeping stays outside the measured interval.
        self.stack.push(id);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            chunk,
            allocs: 0,
            bytes: 0,
        });
        let s = &mut self.spans[id as usize];
        (s.allocs, s.bytes) = alloc::snapshot();
        s.start_ns = self.t0.elapsed().as_nanos() as u64;
        Open(id)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let (allocs, bytes) = alloc::snapshot();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans close innermost first");
        let s = &mut self.spans[open.0 as usize];
        s.end_ns = end_ns;
        s.allocs = allocs - s.allocs;
        s.bytes = bytes - s.bytes;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, chunk: u32, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, chunk);
        let r = f();
        self.exit(open);
        r
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans, without copying them (a traced lifecycle holds ~10^6).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time, allocations and bytes per layer name: each span's totals
/// minus what its direct children account for.
pub fn self_totals(spans: &[Span]) -> BTreeMap<&'static str, SelfTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    let mut child_bytes = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = s.parent as usize;
            child_ns[p] += s.end_ns - s.start_ns;
            child_allocs[p] += s.allocs;
            child_bytes[p] += s.bytes;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        t.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
        t.self_bytes += s.bytes.saturating_sub(child_bytes[i]);
    }
    out
}

/// Most spans one Chrome trace file carries; the rest are counted in the
/// file's metadata. (A `cp_lifecycle` run records ~10^6 spans.)
pub const TRACE_FILE_SPANS: usize = 20_000;

/// The first [`TRACE_FILE_SPANS`] spans as a Chrome trace (`ph:"X"`
/// complete events, µs timestamps), loadable in Perfetto.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let kept = spans.len().min(TRACE_FILE_SPANS);
    let mut s = String::with_capacity(kept * 160 + 256);
    s.push_str("{\"displayTimeUnit\":\"ns\",");
    let _ = write!(
        s,
        "\"metadata\":{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"spans_written\":{kept}}},",
        spans.len()
    );
    s.push_str("\"traceEvents\":[");
    for (i, sp) in spans[..kept].iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = if sp.parent == ROOT {
            -1
        } else {
            i64::from(sp.parent)
        };
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"chunk\":{},\"allocs\":{},\"bytes\":{}}}}}",
            sp.name,
            sp.start_ns as f64 / 1e3,
            (sp.end_ns - sp.start_ns) as f64 / 1e3,
            sp.chunk,
            sp.allocs,
            sp.bytes
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: u32, allocs: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            chunk: 0,
            allocs,
            bytes: allocs * 8,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); root ⊃ a [50,90)
        let spans = vec![
            sp("root", 0, 100, ROOT, 10),
            sp("a", 10, 40, 0, 4),
            sp("b", 20, 30, 1, 3),
            sp("a", 50, 90, 0, 5),
        ];
        let t = self_totals(&spans);
        assert_eq!(t["root"].self_ns, 100 - 30 - 40);
        assert_eq!(t["a"].self_ns, (30 - 10) + 40);
        assert_eq!(t["b"].self_ns, 10);
        assert_eq!(t["a"].spans, 2);
        // Rows tile the root span exactly.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
        assert_eq!(t["root"].self_allocs, 10 - 4 - 5);
        assert_eq!(t["a"].self_allocs, (4 - 3) + 5);
        assert_eq!(t["b"].self_bytes, 24);
    }

    #[test]
    fn recorder_nests_and_counts_allocations_per_span() {
        let mut r = Recorder::new(true);
        let outer = r.enter("outer", 7);
        let v = r.span("inner", 7, || vec![0u64; 32]);
        let w: Vec<u8> = Vec::with_capacity(10);
        r.exit(outer);
        drop((v, w));
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", ROOT));
        assert_eq!((s[1].name, s[1].parent, s[1].chunk), ("inner", 0, 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!((s[1].allocs, s[1].bytes), (1, 256));
        assert_eq!((s[0].allocs, s[0].bytes), (2, 266));
        let t = self_totals(s);
        assert_eq!(t["outer"].self_allocs, 1);
        assert_eq!(t["outer"].self_bytes, 10);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let o = r.enter("x", 0);
        assert_eq!(r.span("y", 0, || 5), 5);
        r.exit(o);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_capped_and_well_formed() {
        let spans: Vec<Span> = (0..(TRACE_FILE_SPANS as u64 + 5))
            .map(|i| sp("x", i, i + 1, ROOT, 0))
            .collect();
        let json = chrome_trace("w", &spans);
        assert!(json.starts_with('{') && json.trim_end().ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), TRACE_FILE_SPANS);
        assert!(json.contains(&format!("\"spans_recorded\":{}", TRACE_FILE_SPANS + 5)));
    }
}
