//! The flight recorder: a bounded ring of typed, timestamped events.
//!
//! Every event is `Copy` with fixed-size payloads, so recording one is a
//! couple of array writes — no allocation after construction. When the
//! ring is full the oldest event is overwritten and the recorder counts
//! the overwrite, so exported traces always say how much history they
//! are missing.

use l25gc_sim::SimTime;

/// Why a packet was dropped: the UPF's verdicts and the non-UPF drop sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCode {
    /// No session matched the packet (UPF lookup miss).
    NoSession,
    /// A session matched but no PDR did.
    NoPdr,
    /// The matched FAR says drop.
    FarDrop,
    /// The DL buffer for an idle UE overflowed.
    BufferOverflow,
    /// A QER rate limit policed the packet.
    QerPoliced,
    /// DL forwarding had no tunnel to send on.
    NoTunnel,
    /// The resilience packet logger shed a data entry on overflow.
    LoggerOverflow,
    /// Lost in the emulated network (netem).
    NetemLoss,
    /// Dropped during a primary outage before failover completed.
    Outage,
    /// Shed by load-engine admission control before entering a shard
    /// queue (shed policy at the high-water mark).
    AdmissionShed,
    /// Rejected because an NF ring was full / above its high-water mark
    /// (typed `RingFull` backpressure path).
    RingBackpressure,
}

impl DropCode {
    /// Stable lowercase name used by the exporters.
    pub(crate) fn name(self) -> &'static str {
        match self {
            DropCode::NoSession => "no_session",
            DropCode::NoPdr => "no_pdr",
            DropCode::FarDrop => "far_drop",
            DropCode::BufferOverflow => "buffer_overflow",
            DropCode::QerPoliced => "qer_policed",
            DropCode::NoTunnel => "no_tunnel",
            DropCode::LoggerOverflow => "logger_overflow",
            DropCode::NetemLoss => "netem_loss",
            DropCode::Outage => "outage",
            DropCode::AdmissionShed => "admission_shed",
            DropCode::RingBackpressure => "ring_backpressure",
        }
    }

    /// Inverse of [`DropCode::name`], for the JSONL parser.
    pub(crate) fn from_name(name: &str) -> Option<DropCode> {
        Some(match name {
            "no_session" => DropCode::NoSession,
            "no_pdr" => DropCode::NoPdr,
            "far_drop" => DropCode::FarDrop,
            "buffer_overflow" => DropCode::BufferOverflow,
            "qer_policed" => DropCode::QerPoliced,
            "no_tunnel" => DropCode::NoTunnel,
            "logger_overflow" => DropCode::LoggerOverflow,
            "netem_loss" => DropCode::NetemLoss,
            "outage" => DropCode::Outage,
            "admission_shed" => DropCode::AdmissionShed,
            "ring_backpressure" => DropCode::RingBackpressure,
            _ => return None,
        })
    }
}

/// What happened. Every payload is fixed-size and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// An SPSC ring producer found the ring full.
    RingEnqueueStall {
        /// Which ring (static label chosen at wiring time).
        ring: &'static str,
        /// Occupancy at the stall (== capacity).
        depth: usize,
    },
    /// An SPSC ring consumer found the ring empty.
    RingDequeueStall {
        /// Which ring.
        ring: &'static str,
    },
    /// A packet-buffer mempool had no free buffer.
    MempoolExhausted {
        /// Buffers currently handed out.
        in_use: usize,
        /// Pool capacity.
        capacity: usize,
    },
    /// An instance (service 0: the whole 5GC unit) failed.
    NfFailure {
        /// Service id.
        service: u32,
        /// Instance id.
        instance: u32,
    },
    /// A frozen replica was unfrozen to serve.
    NfUnfreeze {
        /// Service id.
        service: u32,
        /// Instance id.
        instance: u32,
    },
    /// PFCP session establishment dispatched to the UPF-C.
    PfcpEstablish {
        /// Session endpoint id.
        seid: u64,
    },
    /// PFCP session modification dispatched.
    PfcpModify {
        /// Session endpoint id.
        seid: u64,
    },
    /// PFCP session deletion dispatched.
    PfcpDelete {
        /// Session endpoint id.
        seid: u64,
    },
    /// An N2 handover moved to a new phase.
    HandoverPhase {
        /// The UE being handed over.
        ue: u64,
        /// Phase name (static, from the core's handover state machine).
        phase: &'static str,
    },
    /// The UPF began buffering DL data for an idle UE.
    UpfBufferStart {
        /// Session endpoint id.
        seid: u64,
        /// Buffer depth after the first buffered packet.
        depth: usize,
    },
    /// The UPF drained a DL buffer after paging completed.
    UpfBufferDrain {
        /// Session endpoint id.
        seid: u64,
        /// Packets released downstream.
        released: usize,
    },
    /// A packet was dropped.
    PacketDrop {
        /// Why.
        reason: DropCode,
        /// Session endpoint id if known, else 0.
        seid: u64,
    },
    /// A sampled numeric gauge (ring depth, mempool occupancy, ...).
    Gauge {
        /// Gauge name (static label chosen at wiring time).
        name: &'static str,
        /// Sampled value.
        value: u64,
    },
}

impl EventKind {
    /// Stable snake_case name used by the exporters.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            EventKind::RingEnqueueStall { .. } => "ring_enqueue_stall",
            EventKind::RingDequeueStall { .. } => "ring_dequeue_stall",
            EventKind::MempoolExhausted { .. } => "mempool_exhausted",
            EventKind::NfFailure { .. } => "nf_failure",
            EventKind::NfUnfreeze { .. } => "nf_unfreeze",
            EventKind::PfcpEstablish { .. } => "pfcp_establish",
            EventKind::PfcpModify { .. } => "pfcp_modify",
            EventKind::PfcpDelete { .. } => "pfcp_delete",
            EventKind::HandoverPhase { .. } => "handover_phase",
            EventKind::UpfBufferStart { .. } => "upf_buffer_start",
            EventKind::UpfBufferDrain { .. } => "upf_buffer_drain",
            EventKind::PacketDrop { .. } => "packet_drop",
            EventKind::Gauge { .. } => "gauge",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// When it happened.
    pub(crate) at: SimTime,
    /// What happened.
    pub kind: EventKind,
}

/// A bounded ring of [`Event`]s that overwrites its oldest entry when
/// full and counts how many it overwrote.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    buf: Vec<Event>,
    cap: usize,
    /// Overwrite cursor once the buffer is full.
    next: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (min 1). The buffer
    /// is reserved here; recording never allocates.
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(1);
        FlightRecorder {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            dropped: 0,
        }
    }

    /// The default capacity used by embedded recorders (8192 events,
    /// ~300 KiB — enough for the longest reproduce scenario's hot window).
    pub fn with_default_capacity() -> FlightRecorder {
        FlightRecorder::new(8192)
    }

    /// Records an event, overwriting the oldest if full. Allocation-free.
    pub fn record(&mut self, at: SimTime, kind: EventKind) {
        let ev = Event { at, kind };
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events currently held (`<= capacity`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Held events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let (wrapped, head) = self.buf.split_at(self.next.min(self.buf.len()));
        head.iter().chain(wrapped.iter())
    }

    /// Merges another recorder into this one: the other ring's held
    /// events replay here oldest-first (overwriting this ring's oldest
    /// when full, counted as usual), and the other ring's overwrite
    /// count carries over — absorbing loses no accounting, so summed
    /// `len() + dropped()` is conserved across a merge.
    pub(crate) fn absorb(&mut self, other: &FlightRecorder) {
        for ev in other.iter() {
            self.record(ev.at, ev.kind);
        }
        self.dropped += other.dropped;
    }

    /// Drains every held event into `out`, oldest first, resetting the
    /// ring (the drop count is preserved).
    pub fn drain_into(&mut self, out: &mut Vec<Event>) {
        out.extend(self.iter().copied());
        self.buf.clear();
        self.next = 0;
    }
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::with_default_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn gauge(v: u64) -> EventKind {
        EventKind::Gauge {
            name: "t",
            value: v,
        }
    }

    #[test]
    fn holds_until_full_then_overwrites_oldest() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..4 {
            fr.record(at(i), gauge(i));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.dropped(), 0);

        // Two more: the two oldest (0, 1) are overwritten.
        fr.record(at(4), gauge(4));
        fr.record(at(5), gauge(5));
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.dropped(), 2, "overwrites are counted exactly");
        let order: Vec<u64> = fr.iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(order, vec![2, 3, 4, 5], "oldest-first, oldest two gone");
    }

    #[test]
    fn iter_is_chronological_after_many_wraps() {
        let mut fr = FlightRecorder::new(8);
        for i in 0..103u64 {
            fr.record(at(i), gauge(i));
        }
        let order: Vec<u64> = fr.iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(order, (95..103).collect::<Vec<u64>>());
        assert_eq!(fr.dropped(), 95);
    }

    #[test]
    fn record_is_allocation_free_after_construction() {
        let mut fr = FlightRecorder::new(16);
        let cap_before = fr.buf.capacity();
        for i in 0..10_000u64 {
            fr.record(
                at(i),
                EventKind::PacketDrop {
                    reason: DropCode::NoSession,
                    seid: i,
                },
            );
        }
        assert_eq!(fr.buf.capacity(), cap_before, "ring never reallocates");
    }

    #[test]
    fn drain_preserves_order_and_drop_count() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record(at(i), gauge(i));
        }
        let mut out = Vec::new();
        fr.drain_into(&mut out);
        assert_eq!(
            out.iter().map(|e| e.at.as_nanos()).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(fr.is_empty());
        assert_eq!(fr.dropped(), 2);
        fr.record(at(9), gauge(9));
        assert_eq!(fr.iter().count(), 1);
    }

    #[test]
    fn absorb_replays_events_and_carries_the_drop_count() {
        let mut a = FlightRecorder::new(4);
        a.record(at(0), gauge(0));
        let mut b = FlightRecorder::new(2);
        for i in 10..15u64 {
            b.record(at(i), gauge(i));
        }
        assert_eq!(b.dropped(), 3);
        let total_before = a.len() as u64 + a.dropped() + b.len() as u64 + b.dropped();
        a.absorb(&b);
        assert_eq!(
            a.len() as u64 + a.dropped(),
            total_before,
            "held + overwritten is conserved"
        );
        let order: Vec<u64> = a.iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(order, vec![0, 13, 14], "other ring replays oldest-first");
        assert_eq!(a.dropped(), 3, "other's overwrites carry over");
    }

    #[test]
    fn drop_code_names_roundtrip() {
        for code in [
            DropCode::NoSession,
            DropCode::NoPdr,
            DropCode::FarDrop,
            DropCode::BufferOverflow,
            DropCode::QerPoliced,
            DropCode::NoTunnel,
            DropCode::LoggerOverflow,
            DropCode::NetemLoss,
            DropCode::Outage,
            DropCode::AdmissionShed,
            DropCode::RingBackpressure,
        ] {
            assert_eq!(DropCode::from_name(code.name()), Some(code));
        }
        assert_eq!(DropCode::from_name("bogus"), None);
    }
}
