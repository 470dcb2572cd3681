//! Smart buffering during handover (§3.3): compares free5GC and L²5GC
//! on the same mobility scenario, then shows the Eq 1/Eq 2 analytic
//! estimate of the hairpin-vs-direct tradeoff.
//!
//! ```text
//! cargo run -p l25gc-testbed --example handover_smart_buffering
//! ```

use l25gc_core::context::UeEvent;
use l25gc_core::Deployment;
use l25gc_nfv::CostModel;
use l25gc_sim::{Engine, SimDuration};
use l25gc_testbed::exp::analytic::smart_buffering_table;
use l25gc_testbed::World;

fn run(dep: Deployment) -> (f64, f64, u64) {
    let mut eng = Engine::new(0, World::new(dep, 2, 1));
    World::bring_up_ue(&mut eng, 1);

    // Stream 10 kpps downlink; hand over from gNB 1 to gNB 2 at 1 s.
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 0, 10_000, 200, SimDuration::from_secs(3), ctx);
    });
    eng.schedule_in(SimDuration::from_secs(1), |w: &mut World, ctx| {
        let out = w.ran.trigger_handover(1, 2);
        w.send_after(ctx, out.delay, out.env);
    });
    eng.run();

    let w = eng.world();
    let ho = w
        .core
        .events
        .iter()
        .find(|e| e.event == UeEvent::Handover)
        .expect("handover completed");
    let flow = &w.apps.cbr[0];
    (
        ho.duration().as_millis_f64(),
        flow.max_rtt().unwrap() / 1000.0,
        flow.lost(),
    )
}

fn main() {
    println!("handover with smart buffering at the UPF (10 kpps downlink):\n");
    let (free_ho, free_stall, free_lost) = run(Deployment::Free5gc);
    let (l25_ho, l25_stall, l25_lost) = run(Deployment::L25gc);
    println!("free5GC: control completion {free_ho:.0} ms, worst stall {free_stall:.0} ms, lost {free_lost}");
    println!("L25GC:   control completion {l25_ho:.0} ms, worst stall {l25_stall:.0} ms, lost {l25_lost}");
    assert!(
        l25_ho < free_ho,
        "shared-memory signalling completes the handover sooner"
    );
    assert_eq!(l25_lost, 0, "the 3K UPF buffer absorbs the interruption");

    println!("\nEq 1 / Eq 2 estimate — UPF buffering vs 3GPP hairpin through the source gNB:");
    for row in smart_buffering_table(&CostModel::paper()) {
        println!(
            "  {}: 3GPP drops {} / L25GC drops {}; hairpin adds {:.0} ms one-way delay",
            row.case, row.drops_3gpp, row.drops_l25gc, row.extra_owd_ms
        );
    }
}
