//! Exporters: JSON Lines, Chrome `trace_event` JSON (Perfetto-loadable),
//! and a human-readable summary table.
//!
//! The JSONL format is the archival one: one self-describing object per
//! line, parseable by this module's own [`parse_jsonl_line`] (built on
//! `l25gc_codec::json`, so the whole loop is dependency-free). The Chrome
//! trace is the interactive one: open `chrome://tracing` or
//! <https://ui.perfetto.dev> and load the file — procedure spans and
//! per-NF segments appear as nested tracks, gauges as counter plots.

use std::fmt::Write as _;

use l25gc_codec::json;
use l25gc_codec::value::{ObjectBuilder, Value};
use l25gc_sim::SimTime;

use crate::events::{DropCode, Event, EventKind};
use crate::span::{Segment, Span};

/// Everything one export covers, merged from however many recorders the
/// caller has (the core's, the UPF's, the NF manager's, ...).
#[derive(Debug, Clone, Default)]
pub struct TraceBundle {
    /// Flight-recorder events, oldest first.
    pub events: Vec<Event>,
    /// Completed procedure spans.
    pub spans: Vec<Span>,
    /// Per-NF message-handling segments.
    pub segments: Vec<Segment>,
    /// Events lost to ring overwrites, summed over sources.
    pub dropped_events: u64,
    /// Spans past the span logs' bound, counted but not kept.
    pub(crate) dropped_spans: u64,
    /// Segments past the span logs' bound, counted but not kept.
    pub(crate) dropped_segments: u64,
}

impl TraceBundle {
    /// An empty bundle.
    pub fn new() -> TraceBundle {
        TraceBundle::default()
    }

    /// Events sorted by timestamp (sources interleave).
    pub fn sort(&mut self) {
        self.events.sort_by_key(|e| e.at.as_nanos());
        self.spans.sort_by_key(|s| s.start.as_nanos());
        self.segments.sort_by_key(|s| s.start.as_nanos());
    }
}

// ---------------------------------------------------------------------------
// JSON Lines
// ---------------------------------------------------------------------------

fn obj() -> ObjectBuilder {
    ObjectBuilder::new()
}

/// One event as a self-describing JSON value.
pub(crate) fn event_to_value(e: &Event) -> Value {
    let b = obj()
        .field("t", Value::Str("event".into()))
        .field("at_ns", Value::U64(e.at.as_nanos()))
        .field("kind", Value::Str(e.kind.name().into()));
    let b = match e.kind {
        EventKind::RingEnqueueStall { ring, depth } => b
            .field("ring", Value::Str(ring.into()))
            .field("depth", Value::U64(depth as u64)),
        EventKind::RingDequeueStall { ring } => b.field("ring", Value::Str(ring.into())),
        EventKind::MempoolExhausted { in_use, capacity } => b
            .field("in_use", Value::U64(in_use as u64))
            .field("capacity", Value::U64(capacity as u64)),
        EventKind::NfFailure { service, instance }
        | EventKind::NfUnfreeze { service, instance } => b
            .field("service", Value::U64(u64::from(service)))
            .field("instance", Value::U64(u64::from(instance))),
        EventKind::PfcpEstablish { seid }
        | EventKind::PfcpModify { seid }
        | EventKind::PfcpDelete { seid } => b.field("seid", Value::U64(seid)),
        EventKind::HandoverPhase { ue, phase } => b
            .field("ue", Value::U64(ue))
            .field("phase", Value::Str(phase.into())),
        EventKind::UpfBufferStart { seid, depth } => b
            .field("seid", Value::U64(seid))
            .field("depth", Value::U64(depth as u64)),
        EventKind::UpfBufferDrain { seid, released } => b
            .field("seid", Value::U64(seid))
            .field("released", Value::U64(released as u64)),
        EventKind::PacketDrop { reason, seid } => b
            .field("reason", Value::Str(reason.name().into()))
            .field("seid", Value::U64(seid)),
        EventKind::Gauge { name, value } => b
            .field("name", Value::Str(name.into()))
            .field("value", Value::U64(value)),
    };
    b.build()
}

/// One span as a self-describing JSON value.
pub(crate) fn span_to_value(s: &Span) -> Value {
    obj()
        .field("t", Value::Str("span".into()))
        .field("kind", Value::Str(s.kind.name().into()))
        .field("ue", Value::U64(s.ue))
        .field("start_ns", Value::U64(s.start.as_nanos()))
        .field("end_ns", Value::U64(s.end.as_nanos()))
        .build()
}

/// The span and segment drop counts that are non-zero, as fields of `b`.
fn span_drops(b: ObjectBuilder, spans: u64, segments: u64) -> ObjectBuilder {
    let nonzero = |n: u64| (n > 0).then_some(Value::U64(n));
    b.opt("dropped_spans", nonzero(spans))
        .opt("dropped_segments", nonzero(segments))
}

/// The `meta` line: the event drop count, then the span and segment drop
/// counts when non-zero.
fn meta_value(events: u64, spans: u64, segments: u64) -> Value {
    let b = obj()
        .field("t", Value::Str("meta".into()))
        .field("dropped_events", Value::U64(events));
    span_drops(b, spans, segments).build()
}

/// One segment as a self-describing JSON value.
pub(crate) fn segment_to_value(s: &Segment) -> Value {
    obj()
        .field("t", Value::Str("segment".into()))
        .field("nf", Value::Str(s.nf.into()))
        .field("label", Value::Str(s.label.into()))
        .field("start_ns", Value::U64(s.start.as_nanos()))
        .field("dur_ns", Value::U64(s.dur.as_nanos()))
        .build()
}

/// The whole bundle as JSON Lines: one object per event, span, and
/// segment, plus a trailing `meta` line carrying the drop counts (the
/// span and segment counts only when non-zero, so an untruncated trace
/// reads as it always has).
pub fn to_jsonl(bundle: &TraceBundle) -> String {
    let mut out = String::new();
    for e in &bundle.events {
        out.push_str(&json::to_string(&event_to_value(e)));
        out.push('\n');
    }
    for s in &bundle.spans {
        out.push_str(&json::to_string(&span_to_value(s)));
        out.push('\n');
    }
    for s in &bundle.segments {
        out.push_str(&json::to_string(&segment_to_value(s)));
        out.push('\n');
    }
    let meta = meta_value(
        bundle.dropped_events,
        bundle.dropped_spans,
        bundle.dropped_segments,
    );
    out.push_str(&json::to_string(&meta));
    out.push('\n');
    out
}

/// A line parsed back out of the JSONL export.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedLine {
    /// A flight-recorder event: timestamp, kind name, and its payload
    /// fields (key, value) with strings kept as strings.
    Event {
        /// Timestamp in nanoseconds.
        at_ns: u64,
        /// The [`EventKind::name`] string.
        kind: String,
        /// Payload fields in serialization order.
        fields: Vec<(String, ParsedField)>,
    },
    /// A procedure span.
    Span {
        /// The [`crate::span::ProcKind::name`] string.
        kind: String,
        /// UE id.
        ue: u64,
        /// Start, nanoseconds.
        start_ns: u64,
        /// End, nanoseconds.
        end_ns: u64,
    },
    /// A per-NF segment.
    Segment {
        /// NF name.
        nf: String,
        /// Message label.
        label: String,
        /// Start, nanoseconds.
        start_ns: u64,
        /// Duration, nanoseconds.
        dur_ns: u64,
    },
    /// The trailing metadata line.
    Meta {
        /// Events lost to ring overwrites.
        dropped_events: u64,
        /// Spans past the span logs' bound; 0 when the key is absent.
        dropped_spans: u64,
        /// Segments past the span logs' bound; 0 when the key is absent.
        dropped_segments: u64,
    },
}

/// A payload field value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedField {
    /// An unsigned integer.
    U64(u64),
    /// A string (ring/gauge names, drop reasons, handover phases).
    Str(String),
}

/// Why a JSONL line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonlError {
    /// Not valid JSON at all.
    BadJson,
    /// Valid JSON but not a recognized line shape.
    BadShape,
}

impl From<l25gc_codec::FieldError> for JsonlError {
    fn from(_: l25gc_codec::FieldError) -> JsonlError {
        JsonlError::BadShape
    }
}

/// Parses one line of [`to_jsonl`] output.
pub fn parse_jsonl_line(line: &str) -> Result<ParsedLine, JsonlError> {
    let v = json::parse(line.trim()).map_err(|_| JsonlError::BadJson)?;
    match v.str_of("t")?.as_str() {
        "event" => {
            let at_ns = v.u64_of("at_ns")?;
            let kind = v.str_of("kind")?;
            let mut fields = Vec::new();
            if let Value::Object(pairs) = &v {
                for (k, fv) in pairs {
                    if k == "t" || k == "at_ns" || k == "kind" {
                        continue;
                    }
                    let pf = match fv {
                        Value::U64(n) => ParsedField::U64(*n),
                        Value::Str(st) => ParsedField::Str(st.clone()),
                        _ => return Err(JsonlError::BadShape),
                    };
                    fields.push((k.clone(), pf));
                }
            }
            // Drop reasons must name a known code.
            if kind == "packet_drop" {
                let known = fields.iter().any(|(k, f)| {
                    k == "reason"
                        && matches!(f, ParsedField::Str(name) if DropCode::from_name(name).is_some())
                });
                if !known {
                    return Err(JsonlError::BadShape);
                }
            }
            Ok(ParsedLine::Event {
                at_ns,
                kind,
                fields,
            })
        }
        "span" => Ok(ParsedLine::Span {
            kind: v.str_of("kind")?,
            ue: v.u64_of("ue")?,
            start_ns: v.u64_of("start_ns")?,
            end_ns: v.u64_of("end_ns")?,
        }),
        "segment" => Ok(ParsedLine::Segment {
            nf: v.str_of("nf")?,
            label: v.str_of("label")?,
            start_ns: v.u64_of("start_ns")?,
            dur_ns: v.u64_of("dur_ns")?,
        }),
        "meta" => {
            let absent_is_zero = |key| {
                v.get(key)
                    .map_or(Ok(0), |n| n.as_u64().ok_or(JsonlError::BadShape))
            };
            Ok(ParsedLine::Meta {
                dropped_events: v.u64_of("dropped_events")?,
                dropped_spans: absent_is_zero("dropped_spans")?,
                dropped_segments: absent_is_zero("dropped_segments")?,
            })
        }
        _ => Err(JsonlError::BadShape),
    }
}

impl ParsedLine {
    /// Re-serializes to the same [`Value`] shape [`to_jsonl`] emits, so a
    /// round-trip can be checked value-for-value.
    #[cfg(test)]
    pub(crate) fn to_value(&self) -> Value {
        match self {
            ParsedLine::Event {
                at_ns,
                kind,
                fields,
            } => {
                let mut b = obj()
                    .field("t", Value::Str("event".into()))
                    .field("at_ns", Value::U64(*at_ns))
                    .field("kind", Value::Str(kind.clone()));
                for (k, f) in fields {
                    let fv = match f {
                        ParsedField::U64(n) => Value::U64(*n),
                        ParsedField::Str(st) => Value::Str(st.clone()),
                    };
                    b = b.field(k, fv);
                }
                b.build()
            }
            ParsedLine::Span {
                kind,
                ue,
                start_ns,
                end_ns,
            } => obj()
                .field("t", Value::Str("span".into()))
                .field("kind", Value::Str(kind.clone()))
                .field("ue", Value::U64(*ue))
                .field("start_ns", Value::U64(*start_ns))
                .field("end_ns", Value::U64(*end_ns))
                .build(),
            ParsedLine::Segment {
                nf,
                label,
                start_ns,
                dur_ns,
            } => obj()
                .field("t", Value::Str("segment".into()))
                .field("nf", Value::Str(nf.clone()))
                .field("label", Value::Str(label.clone()))
                .field("start_ns", Value::U64(*start_ns))
                .field("dur_ns", Value::U64(*dur_ns))
                .build(),
            ParsedLine::Meta {
                dropped_events,
                dropped_spans,
                dropped_segments,
            } => meta_value(*dropped_events, *dropped_spans, *dropped_segments),
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome trace_event JSON
// ---------------------------------------------------------------------------

/// Stable small integer id per track name (Chrome wants numeric tids).
fn tid_of(name: &str, tracks: &mut Vec<String>) -> usize {
    if let Some(i) = tracks.iter().position(|t| t == name) {
        return i + 1;
    }
    tracks.push(name.to_owned());
    tracks.len()
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn ts_us(t: SimTime) -> String {
    // Microsecond floats with nanosecond resolution preserved.
    format!("{}.{:03}", t.as_nanos() / 1000, t.as_nanos() % 1000)
}

/// The bundle as Chrome `trace_event` JSON (the `{"traceEvents": [...]}`
/// object form), loadable in `chrome://tracing` and Perfetto.
///
/// Track layout (all under pid 1):
/// - one thread per procedure-span kind ("proc:registration", ...), with
///   "X" complete events per span;
/// - one thread per NF ("nf:amf", ...), with "X" events per segment;
/// - "C" counter events per gauge name;
/// - "i" instant events for every other flight-recorder event, on an
///   "events" thread.
pub fn to_chrome_trace(bundle: &TraceBundle) -> String {
    let mut tracks: Vec<String> = Vec::new();
    let mut body = String::new();
    let mut first = true;
    let emit = |line: String, body: &mut String, first: &mut bool| {
        if !*first {
            body.push_str(",\n");
        }
        *first = false;
        body.push_str("  ");
        body.push_str(&line);
    };

    for s in &bundle.spans {
        let track = format!("proc:{}", s.kind.name());
        let tid = tid_of(&track, &mut tracks);
        let mut name = String::new();
        push_json_str(&mut name, &format!("{} ue={}", s.kind.name(), s.ue));
        emit(
            format!(
                "{{\"name\":{name},\"cat\":\"proc\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{}}}",
                ts_us(s.start),
                ts_us(SimTime::from_nanos(s.duration().as_nanos())),
            ),
            &mut body,
            &mut first,
        );
    }

    for s in &bundle.segments {
        let track = format!("nf:{}", s.nf);
        let tid = tid_of(&track, &mut tracks);
        let mut name = String::new();
        push_json_str(&mut name, s.label);
        emit(
            format!(
                "{{\"name\":{name},\"cat\":\"nf\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{}}}",
                ts_us(s.start),
                ts_us(SimTime::from_nanos(s.dur.as_nanos())),
            ),
            &mut body,
            &mut first,
        );
    }

    for e in &bundle.events {
        match e.kind {
            EventKind::Gauge { name, value } => {
                let mut n = String::new();
                push_json_str(&mut n, name);
                emit(
                    format!(
                        "{{\"name\":{n},\"cat\":\"gauge\",\"ph\":\"C\",\"pid\":1,\"ts\":{},\"args\":{{\"value\":{value}}}}}",
                        ts_us(e.at),
                    ),
                    &mut body,
                    &mut first,
                );
            }
            _ => {
                let tid = tid_of("events", &mut tracks);
                let mut n = String::new();
                push_json_str(&mut n, e.kind.name());
                emit(
                    format!(
                        "{{\"name\":{n},\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{}}}",
                        ts_us(e.at),
                    ),
                    &mut body,
                    &mut first,
                );
            }
        }
    }

    // Thread-name metadata so Perfetto shows readable track names.
    for (i, t) in tracks.iter().enumerate() {
        let mut n = String::new();
        push_json_str(&mut n, t);
        emit(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{n}}}}}",
                i + 1,
            ),
            &mut body,
            &mut first,
        );
    }

    // Span-log truncation, when there was any, as trace metadata.
    match span_drops(obj(), bundle.dropped_spans, bundle.dropped_segments).build() {
        Value::Object(f) if f.is_empty() => format!("{{\"traceEvents\":[\n{body}\n]}}\n"),
        meta => format!(
            "{{\"traceEvents\":[\n{body}\n],\"metadata\":{}}}\n",
            json::to_string(&meta)
        ),
    }
}

// ---------------------------------------------------------------------------
// Summary table
// ---------------------------------------------------------------------------

/// A human-readable summary: per-procedure latency quantiles, per-NF busy
/// time, event counts, and drop accounting.
pub fn to_summary(bundle: &TraceBundle) -> String {
    use crate::hist::Log2Histogram;

    let mut out = String::new();
    let _ = writeln!(out, "== procedure latency (ns) ==");
    let _ = writeln!(
        out,
        "{:<24} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "procedure", "count", "mean", "p50", "p99", "max"
    );
    let mut kinds: Vec<&'static str> = Vec::new();
    for s in &bundle.spans {
        if !kinds.contains(&s.kind.name()) {
            kinds.push(s.kind.name());
        }
    }
    for kind in kinds {
        let mut h = Log2Histogram::new();
        for s in bundle.spans.iter().filter(|s| s.kind.name() == kind) {
            h.record(s.duration().as_nanos());
        }
        let _ = writeln!(
            out,
            "{:<24} {:>7} {:>12.0} {:>12} {:>12} {:>12}",
            kind,
            h.count(),
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.99),
            h.max()
        );
    }

    let _ = writeln!(out, "\n== per-NF busy time ==");
    let mut nfs: Vec<&'static str> = Vec::new();
    for s in &bundle.segments {
        if !nfs.contains(&s.nf) {
            nfs.push(s.nf);
        }
    }
    for nf in nfs {
        let total: u64 = bundle
            .segments
            .iter()
            .filter(|s| s.nf == nf)
            .map(|s| s.dur.as_nanos())
            .sum();
        let hops = bundle.segments.iter().filter(|s| s.nf == nf).count();
        let _ = writeln!(out, "{:<12} {:>7} hops {:>14} ns busy", nf, hops, total);
    }

    let _ = writeln!(out, "\n== events ==");
    let mut names: Vec<&'static str> = Vec::new();
    for e in &bundle.events {
        if !names.contains(&e.kind.name()) {
            names.push(e.kind.name());
        }
    }
    for name in names {
        let n = bundle
            .events
            .iter()
            .filter(|e| e.kind.name() == name)
            .count();
        let _ = writeln!(out, "{:<24} {:>7}", name, n);
    }
    let _ = writeln!(
        out,
        "(ring overwrites lost {} events)",
        bundle.dropped_events
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::ProcKind;
    use l25gc_sim::SimDuration;

    fn sample_bundle() -> TraceBundle {
        let mut b = TraceBundle::new();
        let t = SimTime::from_nanos;
        b.events.push(Event {
            at: t(100),
            kind: EventKind::RingEnqueueStall {
                ring: "rx",
                depth: 1024,
            },
        });
        b.events.push(Event {
            at: t(250),
            kind: EventKind::PacketDrop {
                reason: DropCode::BufferOverflow,
                seid: 42,
            },
        });
        b.events.push(Event {
            at: t(300),
            kind: EventKind::Gauge {
                name: "ring:rx",
                value: 7,
            },
        });
        b.events.push(Event {
            at: t(400),
            kind: EventKind::HandoverPhase {
                ue: 3,
                phase: "executing",
            },
        });
        b.spans.push(Span {
            kind: ProcKind::Registration,
            ue: 1,
            start: t(0),
            end: t(2_000),
        });
        b.segments.push(Segment {
            nf: "amf",
            label: "registration_req",
            start: t(0),
            dur: SimDuration::from_nanos(500),
        });
        b.dropped_events = 5;
        b
    }

    #[test]
    fn jsonl_roundtrips_through_own_parser() {
        let b = sample_bundle();
        let text = to_jsonl(&b);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            b.events.len() + b.spans.len() + b.segments.len() + 1
        );
        for line in &lines {
            let parsed = parse_jsonl_line(line).expect("line parses");
            let reserialized = json::to_string(&parsed.to_value());
            assert_eq!(&reserialized, line, "value-for-value round trip");
        }
        // And the typed views carry the right payloads.
        match parse_jsonl_line(lines[1]).unwrap() {
            ParsedLine::Event {
                at_ns,
                kind,
                fields,
            } => {
                assert_eq!(at_ns, 250);
                assert_eq!(kind, "packet_drop");
                assert!(
                    fields.contains(&("reason".into(), ParsedField::Str("buffer_overflow".into())))
                );
                assert!(fields.contains(&("seid".into(), ParsedField::U64(42))));
            }
            other => panic!("expected event, got {other:?}"),
        }
        match parse_jsonl_line(lines.last().unwrap()).unwrap() {
            ParsedLine::Meta {
                dropped_events,
                dropped_spans,
                dropped_segments,
            } => assert_eq!((dropped_events, dropped_spans, dropped_segments), (5, 0, 0)),
            other => panic!("expected meta, got {other:?}"),
        }
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert_eq!(parse_jsonl_line("not json"), Err(JsonlError::BadJson));
        assert_eq!(
            parse_jsonl_line("{\"t\":\"mystery\"}"),
            Err(JsonlError::BadShape)
        );
        assert_eq!(
            parse_jsonl_line(
                "{\"t\":\"event\",\"at_ns\":1,\"kind\":\"packet_drop\",\"reason\":\"bogus\",\"seid\":0}"
            ),
            Err(JsonlError::BadShape),
            "unknown drop codes are rejected"
        );
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_phases() {
        let b = sample_bundle();
        let text = to_chrome_trace(&b);
        let v = json::parse(&text).expect("chrome trace is valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        let phase = |e: &Value| e.get("ph").and_then(Value::as_str).unwrap().to_owned();
        assert!(
            events.iter().any(|e| phase(e) == "X"),
            "complete events present"
        );
        assert!(
            events.iter().any(|e| phase(e) == "C"),
            "counter events present"
        );
        assert!(
            events.iter().any(|e| phase(e) == "i"),
            "instant events present"
        );
        assert!(
            events.iter().any(|e| phase(e) == "M"),
            "metadata events present"
        );
    }

    #[test]
    fn summary_mentions_each_section() {
        let text = to_summary(&sample_bundle());
        assert!(text.contains("registration"));
        assert!(text.contains("amf"));
        assert!(text.contains("packet_drop"));
        assert!(text.contains("lost 5 events"));
    }
}
