//! Fig 13 & Table 1: data-plane latency during a paging event.
//!
//! Setup (paper §5.4.2): a UE with an established session goes idle;
//! downlink packets then arrive at 10 Kpps with a 3 K-packet UPF buffer.
//! The first packet triggers a downlink-data report → paging → service
//! request → tunnel re-establishment; buffered packets flush in order.
//! The generator records per-packet RTTs.

use l25gc_core::context::UeEvent;
use l25gc_core::Deployment;
use l25gc_sim::{Engine, SimDuration, SimTime, TimeSeries};

use crate::world::World;

/// Table 1, one row.
#[derive(Debug, Clone)]
pub struct PagingRow {
    /// System name.
    pub system: &'static str,
    /// Base RTT before the event (µs).
    pub base_rtt_us: f64,
    /// Paging completion time (ms) — the AMF-recorded event duration.
    pub paging_time_ms: f64,
    /// RTT right after paging (ms) — the first flushed packet's RTT.
    pub rtt_after_ms: f64,
    /// Packets that experienced an elevated RTT (> 4× base RTT).
    pub pkts_higher_rtt: usize,
    /// The full RTT-over-time series (µs) for Fig 13.
    pub series: TimeSeries,
}

/// Runs the paging experiment on one deployment.
pub(crate) fn run_paging(deployment: Deployment) -> PagingRow {
    let mut eng = Engine::new(0, World::new(deployment, 2, 2));
    World::bring_up_ue(&mut eng, 1);

    // Warm-up traffic to measure the base RTT while connected.
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 0, 10_000, 200, SimDuration::from_millis(50), ctx);
    });
    eng.run();
    let warm_end = eng.now();
    let base_rtt_us = eng.world().apps.cbr[0]
        .mean_rtt_in(SimTime::ZERO, warm_end)
        .expect("warm-up RTT samples");

    // UE goes idle.
    let out = eng.world().ran.trigger_idle(1);
    eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
        w.send_after(ctx, out.delay, out.env);
    });
    eng.run();

    // Downlink burst at 10 Kpps for 2 s: triggers paging, then drains.
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 1, 10_000, 200, SimDuration::from_secs(2), ctx);
    });
    eng.run();

    let w = eng.world();
    let paging = w
        .core
        .events
        .iter()
        .find(|e| e.event == UeEvent::Paging)
        .expect("paging completed");
    let flow = &w.apps.cbr[1];
    let threshold = base_rtt_us * 4.0;
    PagingRow {
        system: match deployment {
            Deployment::Free5gc => "free5GC",
            Deployment::OnvmUpf => "ONVM-UPF",
            Deployment::L25gc => "L25GC",
        },
        base_rtt_us,
        paging_time_ms: paging.duration().as_millis_f64(),
        rtt_after_ms: flow.max_rtt().expect("samples") / 1000.0,
        pkts_higher_rtt: flow.pkts_above(SimDuration::from_micros_f64(threshold)),
        series: flow.rtt.clone(),
    }
}

/// Table 1: free5GC vs L²5GC.
pub fn table1() -> Vec<PagingRow> {
    vec![
        run_paging(Deployment::Free5gc),
        run_paging(Deployment::L25gc),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let rows = table1();
        let free = &rows[0];
        let l25 = &rows[1];

        // Base RTT: 116 µs vs 25 µs (≈ 4×).
        assert!(
            (90.0..140.0).contains(&free.base_rtt_us),
            "free base {}",
            free.base_rtt_us
        );
        assert!(
            (15.0..40.0).contains(&l25.base_rtt_us),
            "l25 base {}",
            l25.base_rtt_us
        );
        let base_ratio = free.base_rtt_us / l25.base_rtt_us;
        assert!(
            (3.0..6.0).contains(&base_ratio),
            "~4x base RTT gap, got {base_ratio:.1}"
        );

        // Paging time: 59 ms vs 28 ms (≈ 2×).
        assert!(
            (45.0..75.0).contains(&free.paging_time_ms),
            "free paging {}",
            free.paging_time_ms
        );
        assert!(
            (20.0..40.0).contains(&l25.paging_time_ms),
            "l25 paging {}",
            l25.paging_time_ms
        );
        assert!(
            free.paging_time_ms / l25.paging_time_ms >= 1.7,
            "paper: at least ~2x paging reduction"
        );

        // RTT after paging tracks the paging time (63 ms vs 30 ms).
        assert!(free.rtt_after_ms > free.paging_time_ms * 0.8);
        assert!(l25.rtt_after_ms > l25.paging_time_ms * 0.8);
        assert!(free.rtt_after_ms > l25.rtt_after_ms * 1.5);

        // Packets with elevated RTT: 608 vs 294 — proportional to the
        // paging duration at 10 Kpps.
        assert!(
            (450..800).contains(&free.pkts_higher_rtt),
            "free elevated {} (paper 608)",
            free.pkts_higher_rtt
        );
        assert!(
            (200..420).contains(&l25.pkts_higher_rtt),
            "l25 elevated {} (paper 294)",
            l25.pkts_higher_rtt
        );
        assert!(free.pkts_higher_rtt > l25.pkts_higher_rtt * 3 / 2);
    }

    #[test]
    fn fig13_series_has_spike_then_decay() {
        let row = run_paging(Deployment::L25gc);
        let sorted = row.series.sorted();
        let peak = row.series.max().unwrap();
        // The spike is the paging stall; afterwards RTT returns to base.
        assert!(peak > row.base_rtt_us * 100.0, "clear spike");
        let last = sorted.last().unwrap().1;
        assert!(
            last < row.base_rtt_us * 4.0,
            "drains back to base, got {last}"
        );
    }
}
