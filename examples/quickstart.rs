//! Quickstart: bring up a UE on the L²5GC core and push traffic.
//!
//! ```text
//! cargo run -p l25gc-testbed --example quickstart
//! ```
//!
//! Builds the consolidated core (shared-memory SBI/N4, DPDK datapath),
//! registers a UE, establishes its PDU session, and measures the base
//! round-trip time of downlink probes — the Table 1 "Base RTT" cell.

use l25gc_core::context::UeEvent;
use l25gc_core::Deployment;
use l25gc_sim::{Engine, SimDuration};
use l25gc_testbed::World;

fn main() {
    // One L25GC unit, two gNBs, one UE camped on gNB 1.
    let mut eng = Engine::new(0, World::new(Deployment::L25gc, 2, 1));

    // Registration + PDU session establishment (TS 23.502 call flows).
    World::bring_up_ue(&mut eng, 1);

    for rec in &eng.world().core.events {
        println!(
            "{:?} completed in {:.1} ms",
            rec.event,
            rec.duration().as_millis_f64()
        );
    }
    let reg = eng
        .world()
        .core
        .events
        .iter()
        .find(|e| e.event == UeEvent::Registration)
        .expect("registration completed");
    assert!(
        reg.duration().as_millis_f64() < 150.0,
        "L25GC registers fast"
    );

    // 10 kpps of downlink probes for 100 ms; the UE echoes them back.
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 0, 10_000, 200, SimDuration::from_millis(100), ctx);
    });
    eng.run();

    let flow = &eng.world().apps.cbr[0];
    let stats = flow.rtt_stats();
    println!(
        "downlink probes: {} sent, {} acked, base RTT mean {:.1} us (paper Table 1: ~25 us)",
        flow.sent, flow.acked, stats.mean
    );
    assert!(flow.lost() == 0, "no loss on an idle datapath");
    assert!(stats.mean < 40.0, "kernel-bypass base RTT");

    // Forwarding counters straight from the UPF.
    for (name, v) in eng.world().core.upf.counters.iter() {
        println!("upf counter {name} = {v}");
    }
}
