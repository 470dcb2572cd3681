//! Fig 14 & Table 2: data-plane latency during a handover.
//!
//! Experiment (i): one UE session with one 10 Kpps downlink flow; the UE
//! initiates a handover at t = 1 s; the UPF buffers (3 K packets) and the
//! SMF provisions the buffering FAR (smart scheme on both systems, as in
//! the paper's Fig 8 note). Experiment (ii): multiple UE sessions send
//! concurrently while one UE hands over.

use l25gc_core::context::UeEvent;
use l25gc_core::Deployment;
use l25gc_sim::{Engine, SimDuration, TimeSeries};

use crate::world::World;

/// Table 2, one row.
#[derive(Debug, Clone)]
pub struct HandoverRow {
    /// System + experiment label.
    pub(crate) system: &'static str,
    /// Base RTT before the handover (µs).
    pub base_rtt_us: f64,
    /// RTT right after the handover (ms).
    pub rtt_after_ms: f64,
    /// Packets that saw an elevated RTT.
    pub pkts_higher_rtt: usize,
    /// Packets dropped end-to-end.
    pub pkts_dropped: u64,
    /// RTT series for Fig 14.
    pub series: TimeSeries,
}

/// Runs the handover experiment. `concurrent_ues > 1` is experiment (ii).
pub(crate) fn run_handover(deployment: Deployment, concurrent_ues: u64) -> HandoverRow {
    let mut eng = Engine::new(0, World::new(deployment, 2, concurrent_ues.max(1)));
    for ue in 1..=concurrent_ues {
        World::bring_up_ue(&mut eng, ue);
    }
    let traffic_start = eng.now();

    // All UEs stream 10 Kpps downlink for 3 s; UE 1 hands over at 1 s.
    eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
        for ue in 1..=concurrent_ues {
            w.start_cbr(
                ue,
                ue as u32 - 1,
                10_000,
                200,
                SimDuration::from_secs(3),
                ctx,
            );
        }
    });
    eng.schedule_in(SimDuration::from_secs(1), |w: &mut World, ctx| {
        let out = w.ran.trigger_handover(1, 2);
        w.send_after(ctx, out.delay, out.env);
    });
    eng.run();

    let w = eng.world();
    assert!(
        w.core.events.iter().any(|e| e.event == UeEvent::Handover),
        "handover completed"
    );
    let flow = &w.apps.cbr[0]; // UE 1's flow
    let warmup_end = traffic_start + SimDuration::from_millis(900);
    let base_rtt_us = flow
        .rtt
        .mean_in_window(traffic_start, warmup_end)
        .expect("warm-up samples");
    let threshold = SimDuration::from_micros_f64(base_rtt_us * 4.0);
    // "HO time" in Table 2 is the data-interruption window: from the
    // trigger until the flushed packets reach the UE ≈ the max RTT.
    let rtt_after_ms = flow.max_rtt().expect("samples") / 1000.0;
    // The paper counts delayed packets across *all* concurrent flows in
    // experiment (ii) ("an increased RTT ... for all the data packets").
    let pkts_higher_rtt: usize = w.apps.cbr.iter().map(|f| f.pkts_above(threshold)).sum();
    let pkts_dropped: u64 = w.apps.cbr.iter().map(|f| f.lost()).sum();
    HandoverRow {
        system: match deployment {
            Deployment::Free5gc => "free5GC",
            Deployment::OnvmUpf => "ONVM-UPF",
            Deployment::L25gc => "L25GC",
        },
        base_rtt_us,
        rtt_after_ms,
        pkts_higher_rtt,
        pkts_dropped,
        series: flow.rtt.clone(),
    }
}

/// Table 2: both systems × experiments (i) and (ii).
pub fn table2() -> Vec<(String, HandoverRow)> {
    let mut out = Vec::new();
    for (label, ues) in [("expt i", 1u64), ("expt ii", 3)] {
        for dep in [Deployment::Free5gc, Deployment::L25gc] {
            let row = run_handover(dep, ues);
            out.push((format!("{} ({label})", row.system), row));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expt_i_shape_matches_table2() {
        let free = run_handover(Deployment::Free5gc, 1);
        let l25 = run_handover(Deployment::L25gc, 1);

        // Base RTT 118 µs vs 24 µs.
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

        // Data interruption ≈ 227 ms vs 130 ms; our model lands close.
        assert!(
            (170.0..260.0).contains(&free.rtt_after_ms),
            "free RTT-after {} ms (paper 242)",
            free.rtt_after_ms
        );
        assert!(
            (110.0..175.0).contains(&l25.rtt_after_ms),
            "l25 RTT-after {} ms (paper 132)",
            l25.rtt_after_ms
        );
        assert!(
            free.rtt_after_ms > l25.rtt_after_ms * 1.3,
            "free5GC stalls longer"
        );

        // More packets see elevated RTT under free5GC (2301 vs 1437).
        assert!(
            free.pkts_higher_rtt > l25.pkts_higher_rtt,
            "{} vs {}",
            free.pkts_higher_rtt,
            l25.pkts_higher_rtt
        );
        assert!(
            (1_000..3_200).contains(&free.pkts_higher_rtt),
            "{}",
            free.pkts_higher_rtt
        );

        // No drops with a 3 K buffer in either system (expt i).
        assert_eq!(free.pkts_dropped, 0);
        assert_eq!(l25.pkts_dropped, 0);
    }

    #[test]
    fn expt_ii_keeps_l25gc_lossless() {
        let l25 = run_handover(Deployment::L25gc, 3);
        assert_eq!(l25.pkts_dropped, 0, "paper: 0 drops for L25GC in expt ii");
        // Concurrent sessions leave the handover time roughly unchanged
        // (132 vs 130 ms in the paper).
        assert!(
            (110.0..180.0).contains(&l25.rtt_after_ms),
            "l25 expt ii RTT-after {}",
            l25.rtt_after_ms
        );
    }

    #[test]
    fn fig14_series_spikes_at_handover() {
        let row = run_handover(Deployment::L25gc, 1);
        // Before the handover: flat base RTT; around it: the spike.
        let before = row.base_rtt_us;
        let spike = row.series.max().unwrap();
        assert!(
            spike > before * 1000.0,
            "spike {spike} µs over base {before} µs"
        );
    }
}
