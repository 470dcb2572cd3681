//! The canonical traced scenario behind `reproduce --trace-out`.
//!
//! One run exercises every instrumented layer: N4 association and UE
//! bring-up (registration + session spans, per-NF segments, PFCP
//! events), CBR traffic, an inter-gNB handover (phase events + smart
//! buffering), a primary failure with the resiliency harness on (the
//! failover span with its detect/reroute/replay segments), and an
//! idle → paging cycle. An NFV-substrate exercise then contributes
//! ring-stall and mempool/ring gauge events. Everything is drained into
//! one [`TraceBundle`] ready for the JSONL / Chrome-trace exporters.

use l25gc_core::Deployment;
use l25gc_nfv::ring::ring_labeled;
use l25gc_nfv::Mempool;
use l25gc_obs::{FlightRecorder, TraceBundle};
use l25gc_sim::{Engine, SimDuration};

use crate::World;

/// Runs the traced scenario and returns the merged trace, sorted by
/// timestamp.
pub fn trace_scenario() -> TraceBundle {
    let mut eng = Engine::new(0, World::new(Deployment::L25gc, 2, 1));
    World::bring_up_ue(&mut eng, 1);
    World::enable_resilience(&mut eng);

    // DL CBR with UE echo, a handover mid-flow, and a primary failure
    // while traffic runs.
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 0, 5_000, 200, SimDuration::from_millis(400), ctx);
    });
    eng.schedule_in(SimDuration::from_millis(100), |w: &mut World, ctx| {
        let out = w.ran.trigger_handover(1, 2);
        w.send_after(ctx, out.delay, out.env);
    });
    // Sample the smart-buffer occupancy while the handover buffers.
    eng.schedule_in(SimDuration::from_millis(150), |w: &mut World, ctx| {
        w.core.upf.record_buffer_occupancy(ctx.now());
    });
    eng.schedule_in(SimDuration::from_millis(300), |w: &mut World, ctx| {
        w.fail_primary(ctx);
    });
    eng.run();

    // Idle, then DL data pages the UE back.
    let out = eng.world().ran.trigger_idle(1);
    eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
        w.send_after(ctx, out.delay, out.env);
    });
    eng.run();
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 1, 1_000, 200, SimDuration::from_millis(100), ctx);
    });
    eng.schedule_in(SimDuration::from_millis(5), |w: &mut World, ctx| {
        w.core.upf.record_buffer_occupancy(ctx.now());
    });
    eng.run();

    let mut bundle = TraceBundle::new();
    eng.world_mut().core.drain_trace(&mut bundle);

    // NFV-substrate exercise: a deliberately tiny ring and mempool so
    // stalls and exhaustion show up alongside the core's own events.
    let base = eng.now();
    let mut fr = FlightRecorder::new(64);
    let (mut tx, mut rx) = ring_labeled::<u32>(2, "ring:rx");
    assert!(
        rx.pop_traced(&mut fr, base).is_none(),
        "empty ring stalls the consumer"
    );
    let mut i = 0u32;
    while tx
        .push_traced(i, &mut fr, base + SimDuration::from_nanos(u64::from(i) + 1))
        .is_ok()
    {
        i += 1;
    }
    tx.record_depth(&mut fr, base + SimDuration::from_nanos(10));

    let pool = Mempool::new(2, 64);
    let _a = pool.alloc_traced(&mut fr, base + SimDuration::from_nanos(20));
    let _b = pool.alloc_traced(&mut fr, base + SimDuration::from_nanos(21));
    let _c = pool.alloc_traced(&mut fr, base + SimDuration::from_nanos(22));
    pool.record_occupancy("mempool:pkt", &mut fr, base + SimDuration::from_nanos(23));

    bundle.dropped_events += fr.dropped();
    fr.drain_into(&mut bundle.events);

    bundle.sort();
    bundle
}

#[cfg(test)]
mod tests {
    use super::*;
    use l25gc_codec::json;
    use l25gc_codec::value::Value;
    use l25gc_obs::{parse_jsonl_line, to_chrome_trace, to_jsonl, EventKind, ProcKind};

    #[test]
    fn scenario_covers_nfs_gauges_and_exports() {
        let b = trace_scenario();

        // Segments from at least three distinct NFs (acceptance bar).
        let mut nfs: Vec<&str> = Vec::new();
        for s in &b.segments {
            if !nfs.contains(&s.nf) {
                nfs.push(s.nf);
            }
        }
        assert!(nfs.len() >= 3, "segments from >=3 NFs, got {nfs:?}");

        // Gauges from the ring, the mempool, and the UPF smart buffer.
        let gauge = |want: &str| {
            b.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::Gauge { name, .. } if name == want))
        };
        assert!(gauge("ring:rx"), "ring depth gauge present");
        assert!(gauge("mempool:pkt"), "mempool occupancy gauge present");
        assert!(gauge("upf:buffer"), "smart-buffer occupancy gauge present");
        assert!(
            b.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::RingEnqueueStall { .. })),
            "ring stall recorded"
        );
        assert!(
            b.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::MempoolExhausted { .. })),
            "mempool exhaustion recorded"
        );

        // The control-plane story is all there.
        let span = |k: ProcKind| b.spans.iter().any(|s| s.kind == k);
        assert!(span(ProcKind::Registration), "registration span");
        assert!(span(ProcKind::SessionEstablishment), "session span");
        assert!(span(ProcKind::Handover), "handover span");
        assert!(span(ProcKind::Failover), "failover span");
        assert!(span(ProcKind::Paging), "paging span");
        assert!(
            b.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::PfcpEstablish { .. })),
            "PFCP establish event"
        );
        assert!(
            b.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::HandoverPhase { .. })),
            "handover phase events"
        );
        assert!(
            b.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::NfUnfreeze { .. })),
            "failover unfreeze event"
        );

        // Both exporters accept the bundle: the Chrome trace parses as
        // JSON, and every JSONL line round-trips through the parser.
        let chrome = to_chrome_trace(&b);
        let v = json::parse(&chrome).expect("chrome trace is valid JSON");
        let n = v
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents")
            .len();
        assert!(
            n > 50,
            "a real scenario produces a rich trace, got {n} entries"
        );
        for line in to_jsonl(&b).lines() {
            parse_jsonl_line(line).expect("every JSONL line parses");
        }
    }
}
