//! Fig 12: impact of handovers on web page load time (§5.4.1).
//!
//! Six parallel TCP connections fetch a ~77 MB page over a 30 Mbps /
//! 20 ms-RTT bottleneck while the UE hands over between two gNBs every
//! few seconds. free5GC's longer handover stall (> 200 ms Linux min-RTO)
//! causes spurious timeouts and cwnd collapses; L²5GC's shorter stall
//! does not.

use l25gc_core::Deployment;
use l25gc_ran::{paper_page, PageLoad};
use l25gc_sim::{Ctx, Engine, SimDuration};

use crate::netem::NetEm;
use crate::world::World;

/// Fig 12 summary for one system.
#[derive(Debug, Clone)]
pub struct PltRow {
    /// System name.
    pub system: &'static str,
    /// Page load time (s).
    pub plt_s: f64,
    /// Maximum extra delay a packet saw during a handover (ms).
    pub max_stall_ms: f64,
    /// RTO timeouts across connections.
    pub timeouts: u64,
    /// Spurious retransmissions across connections.
    pub spurious_retransmissions: u64,
    /// Total retransmissions.
    pub retransmissions: u64,
}

/// Runs the page-load experiment with handovers every `ho_interval`.
pub(crate) fn run_plt(deployment: Deployment, ho_interval: SimDuration) -> PltRow {
    let mut eng = Engine::new(0, World::new(deployment, 2, 1));
    World::bring_up_ue(&mut eng, 1);
    eng.world_mut().netem = NetEm::web_30mbps_20ms();

    // Build the page, start its six connections, and arm the ping-pong
    // handover chain (gNB 1 ↔ 2 every `ho_interval` until completion).
    eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
        let (pl, senders) = PageLoad::new(1, &paper_page(), 6, 0, ctx.now());
        w.apps.page = Some(pl);
        for s in senders {
            w.start_tcp_sender(s, ctx);
        }
        arm_next_handover(ctx, ho_interval);
    });

    eng.run_for(SimDuration::from_secs(120));

    let w = eng.world();
    let page = w.apps.page.as_ref().expect("page experiment");
    assert!(
        page.is_complete(),
        "page must finish within the experiment window"
    );
    let senders = &w.apps.tcp;
    let max_stall_us = senders
        .values()
        .filter_map(|s| s.max_rtt_us)
        .fold(0.0f64, f64::max);
    PltRow {
        system: match deployment {
            Deployment::Free5gc => "free5GC",
            Deployment::OnvmUpf => "ONVM-UPF",
            Deployment::L25gc => "L25GC",
        },
        plt_s: page.plt().expect("complete").as_secs_f64(),
        max_stall_ms: max_stall_us / 1000.0,
        timeouts: page.timeouts(senders),
        spurious_retransmissions: page.spurious_retransmissions(senders),
        retransmissions: senders.values().map(|s| s.retransmissions).sum(),
    }
}

/// Arms the next ping-pong handover of UE 1 between gNB 1 and 2, `interval`
/// from now, until the page load completes.
fn arm_next_handover(ctx: &mut Ctx<'_, World>, interval: SimDuration) {
    ctx.schedule_in(interval, move |w, ctx| {
        if w.apps
            .page
            .as_ref()
            .map(|p| p.is_complete())
            .unwrap_or(true)
        {
            return;
        }
        let current = w.ran.ues[&1].serving_gnb;
        let target = if current == 1 { 2 } else { 1 };
        let out = w.ran.trigger_handover(1, target);
        w.send_after(ctx, out.delay, out.env);
        arm_next_handover(ctx, interval);
    });
}

/// Fig 12: free5GC vs L²5GC with intermittent handovers (every 5 s).
pub fn fig12() -> Vec<PltRow> {
    let interval = SimDuration::from_secs(5);
    vec![
        run_plt(Deployment::Free5gc, interval),
        run_plt(Deployment::L25gc, interval),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_l25gc_improves_plt() {
        let rows = fig12();
        let free = &rows[0];
        let l25 = &rows[1];
        // Paper: 32 s vs 28 s, a 12.5% QoE improvement. Our TCP model
        // recovers from the spurious timeouts faster than the real
        // Firefox/Linux stack, so the measured gain is smaller; the
        // *ordering* and the timeout mechanism are the reproducible
        // shape (see EXPERIMENTS.md).
        assert!(
            l25.plt_s < free.plt_s,
            "L25GC must load faster: {} vs {}",
            l25.plt_s,
            free.plt_s
        );
        let gain = (free.plt_s - l25.plt_s) / free.plt_s * 100.0;
        assert!(
            (0.5..30.0).contains(&gain),
            "PLT gain {gain:.1}% (paper 12.5%)"
        );
        // The floor: ~77 MB at 30 Mbps is ≥ 20 s.
        assert!(l25.plt_s > 18.0, "PLT {} s", l25.plt_s);
        assert!(free.plt_s < 60.0);

        // The mechanism: free5GC's stall exceeds the 200 ms min RTO and
        // causes timeouts + spurious retransmissions; L25GC avoids them.
        assert!(
            free.max_stall_ms > 200.0,
            "free5GC stall {} ms exceeds min RTO",
            free.max_stall_ms
        );
        assert!(free.timeouts > 0, "free5GC sees spurious timeouts");
        assert!(free.spurious_retransmissions > 0);
        assert!(
            l25.timeouts < free.timeouts,
            "L25GC times out less: {} vs {}",
            l25.timeouts,
            free.timeouts
        );
        assert!(
            l25.spurious_retransmissions < free.spurious_retransmissions,
            "L25GC retransmits less spuriously"
        );
    }
}
