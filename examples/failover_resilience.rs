//! Failure resiliency (§3.5): kill the 5GC mid-transfer and watch the
//! frozen replica take over via the LB packet logger, against the 3GPP
//! reattach baseline.
//!
//! ```text
//! cargo run -p l25gc-testbed --example failover_resilience
//! ```

use l25gc_sim::{Engine, SimDuration};
use l25gc_testbed::{NetEm, World};

fn run(resilient: bool) {
    let mut eng = Engine::new(0, World::new(l25gc_core::Deployment::L25gc, 2, 1));
    World::bring_up_ue(&mut eng, 1);
    eng.world_mut().netem = NetEm::failover_30mbps();
    if resilient {
        World::enable_resilience(&mut eng);
    }

    // A bulk TCP download; the primary 5GC dies at t = 2 s.
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_tcp(1, 0, None, ctx);
    });
    eng.schedule_in(SimDuration::from_secs(2), |w: &mut World, ctx| {
        w.fail_primary(ctx);
    });
    if !resilient {
        // 3GPP baseline: service returns only after the reattach outage
        // (~330 ms composed of detection + registration + session
        // re-establishment; see exp::failover for the measured model).
        eng.schedule_in(SimDuration::from_millis(2_330), |w: &mut World, _| {
            w.reattach_recover();
        });
    }
    eng.run_for(SimDuration::from_secs(6));

    let w = eng.world();
    let tx = &w.apps.tcp[&0];
    let label = if resilient {
        "L25GC failover"
    } else {
        "3GPP reattach "
    };
    println!(
        "{label}: transferred {:.1} MB, dropped {} packets, {} RTO timeouts",
        (tx.acked_segments() * l25gc_ran::MSS as u64) as f64 / 1e6,
        w.outage_drops,
        tx.timeouts,
    );
    if resilient {
        let res = w.res.as_ref().expect("harness attached");
        println!(
            "  replica checkpoints: {}, logger overflow drops: {}",
            res.replica.checkpoints, res.logger.overflow_drops
        );
        assert_eq!(w.outage_drops, 0, "the packet logger loses nothing");
        assert_eq!(tx.timeouts, 0, "failover stays under the senders' RTO");
    }
}

fn main() {
    println!("5GC failure at t=2s during a 30 Mbps TCP download:\n");
    run(true);
    run(false);
}
