//! Fig 17 (Appendix C): repeated handovers against 10 concurrent TCP
//! connections.
//!
//! "UE launches 10 TCP connections ... and undergoes handovers every few
//! seconds" over a 100 Mbps / 50 ms-RTT bottleneck. free5GC's stall
//! (> 200 ms) triggers spurious RTO expirations on every handover,
//! collapsing cwnd and losing goodput; the paper reports 442 MB (L²5GC)
//! vs 416 MB (free5GC) transferred over the run.

use l25gc_core::Deployment;
use l25gc_ran::MSS;
use l25gc_sim::{Engine, SimDuration};

use crate::netem::NetEm;
use crate::world::World;

/// Fig 17 summary for one system.
#[derive(Debug, Clone)]
pub struct TcpImpactRow {
    /// System name.
    pub system: &'static str,
    /// Total bytes transferred during the run (MB).
    pub transferred_mb: f64,
    /// Maximum RTT observed across flows (ms).
    pub max_rtt_ms: f64,
    /// RTO timeouts across flows.
    pub timeouts: u64,
    /// Spurious retransmissions across flows.
    pub spurious_retransmissions: u64,
    /// Handovers performed.
    pub handovers: usize,
}

/// Runs Fig 17: `flows` bulk TCP connections for `duration`, handing
/// over every `ho_interval`.
pub(crate) fn run_tcp_impact(
    deployment: Deployment,
    flows: u32,
    duration: SimDuration,
    ho_interval: SimDuration,
) -> TcpImpactRow {
    let mut eng = Engine::new(0, World::new(deployment, 2, 1));
    World::bring_up_ue(&mut eng, 1);
    eng.world_mut().netem = NetEm::appendix_100mbps_50ms();

    eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
        for f in 0..flows {
            w.start_tcp(1, f, None, ctx); // unbounded flent-style streams
        }
    });

    // Periodic handovers for the whole run.
    let mut at = ho_interval;
    while at < duration {
        eng.schedule_in(at, |w: &mut World, ctx| {
            let current = w.ran.ues[&1].serving_gnb;
            let target = if current == 1 { 2 } else { 1 };
            let out = w.ran.trigger_handover(1, target);
            w.send_after(ctx, out.delay, out.env);
        });
        at += ho_interval;
    }

    eng.run_for(duration);

    let w = eng.world();
    let senders = &w.apps.tcp;
    let transferred: u64 = senders
        .values()
        .map(|s| s.acked_segments() * MSS as u64)
        .sum();
    let max_rtt_us = senders
        .values()
        .filter_map(|s| s.max_rtt_us)
        .fold(0.0f64, f64::max);
    let handovers = w
        .core
        .events
        .iter()
        .filter(|e| e.event == l25gc_core::UeEvent::Handover)
        .count();
    TcpImpactRow {
        system: match deployment {
            Deployment::Free5gc => "free5GC",
            Deployment::OnvmUpf => "ONVM-UPF",
            Deployment::L25gc => "L25GC",
        },
        transferred_mb: transferred as f64 / 1e6,
        max_rtt_ms: max_rtt_us / 1000.0,
        timeouts: senders.values().map(|s| s.timeouts).sum(),
        spurious_retransmissions: senders.values().map(|s| s.spurious_retransmissions).sum(),
        handovers,
    }
}

/// Fig 17 with the paper's parameters (scaled to a 40 s run: the paper
/// plots ~35 s of the experiment).
pub fn fig17() -> Vec<TcpImpactRow> {
    let duration = SimDuration::from_secs(40);
    let interval = SimDuration::from_secs(5);
    vec![
        run_tcp_impact(Deployment::Free5gc, 10, duration, interval),
        run_tcp_impact(Deployment::L25gc, 10, duration, interval),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig17_l25gc_sustains_goodput() {
        let rows = fig17();
        let free = &rows[0];
        let l25 = &rows[1];
        assert!(
            free.handovers >= 6,
            "handovers executed: {}",
            free.handovers
        );
        assert!(l25.handovers >= 6);

        // free5GC times out on handovers; L25GC doesn't (RTT cap ≈ 130 ms
        // + 50 ms path < senders' RTO of ~max(200, srtt+4var) once srtt
        // ≈ 50 ms... the paper reports zero timeouts for L25GC).
        assert!(free.timeouts > 0, "free5GC sees RTO expirations");
        assert!(
            l25.timeouts < free.timeouts,
            "L25GC times out less: {} vs {}",
            l25.timeouts,
            free.timeouts
        );
        assert!(free.spurious_retransmissions > l25.spurious_retransmissions);

        // Goodput: L25GC transfers more (paper: 442 vs 416 MB on their
        // link/duration; the *ordering* and a single-digit-% gap is the
        // reproducible shape).
        assert!(
            l25.transferred_mb > free.transferred_mb,
            "L25GC {} MB vs free5GC {} MB",
            l25.transferred_mb,
            free.transferred_mb
        );
        // L25GC's worst RTT is bounded by the handover stall + path RTT
        // (~130 + 50 ms). free5GC's worst *samples* are censored by
        // Karn's rule (its stalled segments get retransmitted and are
        // excluded from RTT sampling), so the free5GC penalty shows up
        // as timeouts/goodput above, not in max-RTT.
        assert!(
            (100.0..320.0).contains(&l25.max_rtt_ms),
            "L25GC max RTT {}",
            l25.max_rtt_ms
        );
    }
}
