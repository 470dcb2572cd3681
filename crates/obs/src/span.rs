//! Procedure spans and per-hop segments.
//!
//! A **span** is one completed control-plane procedure (registration, N2
//! handover, PFCP session establishment, ...) for one UE: a `[start, end]`
//! window. A **segment** is one NF's share of work — one message handled
//! by the AMF, SMF, UDM, or UPF-C — recorded with the NF's name, a short
//! message label, and the handler cost. Segments are recorded globally
//! (not nested under a span) because the core interleaves procedures;
//! the decomposition of a span into per-NF work falls out of laying the
//! segment tracks under the span track on a common timeline, which is
//! exactly what the Chrome-trace exporter does.

use l25gc_sim::{SimDuration, SimTime};

/// What kind of procedure a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcKind {
    /// Initial UE registration.
    Registration,
    /// PDU session establishment (incl. the PFCP N4 leg).
    SessionEstablishment,
    /// N2 handover.
    Handover,
    /// Idle → active paging.
    Paging,
    /// Active → idle transition.
    IdleTransition,
    /// UE deregistration.
    Deregistration,
    /// PFCP session establishment viewed from the SMF/UPF-C pair.
    PfcpSession,
    /// Failure detection → unfreeze → replay at the resilience layer.
    Failover,
}

impl ProcKind {
    /// Stable snake_case name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            ProcKind::Registration => "registration",
            ProcKind::SessionEstablishment => "session_establishment",
            ProcKind::Handover => "handover",
            ProcKind::Paging => "paging",
            ProcKind::IdleTransition => "idle_transition",
            ProcKind::Deregistration => "deregistration",
            ProcKind::PfcpSession => "pfcp_session",
            ProcKind::Failover => "failover",
        }
    }
}

/// One completed procedure for one UE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Procedure kind.
    pub kind: ProcKind,
    /// The UE it belongs to (0 for UE-less spans such as failover).
    pub ue: u64,
    /// When the triggering message arrived.
    pub start: SimTime,
    /// When the procedure completed.
    pub end: SimTime,
}

impl Span {
    /// Wall time the procedure took.
    pub(crate) fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

/// One NF's handling of one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Which NF did the work ("amf", "smf", "udm", "upf-c", ...).
    pub nf: &'static str,
    /// Short message label ("registration_req", "pfcp_establish", ...).
    pub(crate) label: &'static str,
    /// When the NF picked the message up.
    pub(crate) start: SimTime,
    /// Handler cost.
    pub dur: SimDuration,
}

/// Completed spans plus the global segment track, both bounded.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanLog {
    spans: Vec<Span>,
    segments: Vec<Segment>,
    max_spans: usize,
    max_segments: usize,
    dropped_spans: u64,
    dropped_segments: u64,
}

impl SpanLog {
    /// A log bounded at `max_spans` / `max_segments` entries; past the
    /// bound new entries are counted but not stored (newest-dropped — the
    /// span log keeps the *head* of the run, the flight recorder keeps
    /// the tail of the event stream; together they cover both ends).
    pub fn with_capacity(max_spans: usize, max_segments: usize) -> SpanLog {
        SpanLog {
            spans: Vec::new(),
            segments: Vec::new(),
            max_spans,
            max_segments,
            dropped_spans: 0,
            dropped_segments: 0,
        }
    }

    /// Default bounds: 4096 spans, 65536 segments.
    pub(crate) fn new() -> SpanLog {
        SpanLog::with_capacity(4096, 65536)
    }

    /// Records a completed procedure.
    pub fn record_completed(&mut self, kind: ProcKind, ue: u64, start: SimTime, end: SimTime) {
        if self.spans.len() < self.max_spans {
            self.spans.push(Span {
                kind,
                ue,
                start,
                end,
            });
        } else {
            self.dropped_spans += 1;
        }
    }

    /// Records one NF's handling of one message.
    pub fn record_segment(
        &mut self,
        nf: &'static str,
        label: &'static str,
        start: SimTime,
        dur: SimDuration,
    ) {
        if self.segments.len() < self.max_segments {
            self.segments.push(Segment {
                nf,
                label,
                start,
                dur,
            });
        } else {
            self.dropped_segments += 1;
        }
    }

    /// Completed spans, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Segments, in recording order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Spans not stored because the bound was hit.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// Segments not stored because the bound was hit.
    pub fn dropped_segments(&self) -> u64 {
        self.dropped_segments
    }

    /// Distinct NF names seen on the segment track, in first-seen order.
    #[cfg(test)]
    pub(crate) fn nfs(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for s in &self.segments {
            if !out.contains(&s.nf) {
                out.push(s.nf);
            }
        }
        out
    }

    /// Total handler time attributed to `nf` inside `[start, end]` — the
    /// per-NF decomposition of a span's wall time.
    #[cfg(test)]
    pub(crate) fn nf_busy_within(&self, nf: &str, start: SimTime, end: SimTime) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for s in &self.segments {
            if s.nf == nf && s.start >= start && s.start <= end {
                total += s.dur;
            }
        }
        total
    }

    /// Appends everything from `other` (subject to this log's bounds).
    pub(crate) fn absorb(&mut self, other: &SpanLog) {
        for s in &other.spans {
            self.record_completed(s.kind, s.ue, s.start, s.end);
        }
        for s in &other.segments {
            self.record_segment(s.nf, s.label, s.start, s.dur);
        }
        self.dropped_spans += other.dropped_spans;
        self.dropped_segments += other.dropped_segments;
    }
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn spans_and_segments_accumulate() {
        let mut log = SpanLog::new();
        log.record_segment("amf", "reg_req", at(0), SimDuration::from_micros(5));
        log.record_segment("udm", "auth", at(6), SimDuration::from_micros(3));
        log.record_segment("amf", "reg_accept", at(10), SimDuration::from_micros(2));
        log.record_completed(ProcKind::Registration, 7, at(0), at(12));

        assert_eq!(log.spans().len(), 1);
        assert_eq!(log.spans()[0].duration(), SimDuration::from_micros(12));
        assert_eq!(log.nfs(), vec!["amf", "udm"]);
        assert_eq!(
            log.nf_busy_within("amf", at(0), at(12)),
            SimDuration::from_micros(7),
            "two AMF hops inside the span window"
        );
    }

    #[test]
    fn bounds_drop_newest_and_count() {
        let mut log = SpanLog::with_capacity(2, 2);
        for i in 0..5u64 {
            log.record_completed(ProcKind::Paging, i, at(i), at(i + 1));
            log.record_segment("amf", "x", at(i), SimDuration::from_micros(1));
        }
        assert_eq!(log.spans().len(), 2);
        assert_eq!(log.segments().len(), 2);
        assert_eq!(log.dropped_spans(), 3);
        assert_eq!(log.dropped_segments(), 3);
        assert_eq!(log.spans()[0].ue, 0, "head of the run is kept");
    }
}
