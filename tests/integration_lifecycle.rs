//! Cross-crate integration: the full UE lifecycle — registration, PDU
//! session, data, idle, paging, handover — on every deployment mode,
//! checking both control-plane records and user-plane behaviour.

use l25gc_core::context::UeEvent;
use l25gc_core::Deployment;
use l25gc_sim::{Engine, SimDuration};
use l25gc_testbed::World;

fn lifecycle(dep: Deployment) -> Engine<World> {
    let mut eng = Engine::new(0, World::new(dep, 2, 2));
    World::bring_up_ue(&mut eng, 1);

    // Data flows both ways.
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 0, 5_000, 200, SimDuration::from_millis(200), ctx);
    });
    eng.run();

    // Idle, then paging via new downlink data.
    let out = eng.world().ran.trigger_idle(1);
    eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
        w.send_after(ctx, out.delay, out.env);
    });
    eng.run();
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 1, 5_000, 200, SimDuration::from_millis(200), ctx);
    });
    eng.run();

    // Handover to gNB 2 while traffic continues.
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 2, 5_000, 200, SimDuration::from_millis(600), ctx);
        ctx.schedule_in(SimDuration::from_millis(100), |w, ctx| {
            let out = w.ran.trigger_handover(1, 2);
            w.send_after(ctx, out.delay, out.env);
        });
    });
    eng.run();

    // Finally, deregister.
    let out = eng.world().ran.trigger_deregistration(1);
    eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
        w.send_after(ctx, out.delay, out.env);
    });
    eng.run();
    eng
}

#[test]
fn full_lifecycle_on_every_deployment() {
    for dep in [Deployment::Free5gc, Deployment::OnvmUpf, Deployment::L25gc] {
        let eng = lifecycle(dep);
        let w = eng.world();
        for ev in [
            UeEvent::Registration,
            UeEvent::SessionRequest,
            UeEvent::IdleTransition,
            UeEvent::Paging,
            UeEvent::Handover,
            UeEvent::Deregistration,
        ] {
            assert!(
                w.core.events.iter().any(|e| e.event == ev),
                "{dep:?}: {ev:?} must complete"
            );
        }
        // Every data flow delivered losslessly (3K smart buffer covers
        // both paging and handover interruptions at 5 kpps).
        for flow in &w.apps.cbr {
            assert_eq!(flow.lost(), 0, "{dep:?}: flow {} lossless", flow.flow);
        }
        // After deregistration every trace of the UE's session is gone:
        // SMF context, UPF session, gNB tunnels, RAN registration.
        assert!(!w.ran.ues[&1].registered, "{dep:?}");
        assert!(
            w.core.smf.sessions.is_empty(),
            "{dep:?}: SMF context released"
        );
        assert!(
            w.core.upf.sessions.is_empty(),
            "{dep:?}: UPF session deleted"
        );
        assert!(!w.ran.gnbs[&2].ul_teid.contains_key(&1));
        assert!(
            !w.ran.gnbs[&1].ul_teid.contains_key(&1),
            "source context released"
        );
    }
}

#[test]
fn deployments_order_consistently() {
    // For every completed event: L25GC < ONVM-UPF <= free5GC.
    let free = lifecycle(Deployment::Free5gc);
    let onvm = lifecycle(Deployment::OnvmUpf);
    let l25 = lifecycle(Deployment::L25gc);
    let dur = |eng: &Engine<World>, ev: UeEvent| {
        eng.world()
            .core
            .events
            .iter()
            .find(|e| e.event == ev)
            .expect("completed")
            .duration()
    };
    for ev in [
        UeEvent::Registration,
        UeEvent::SessionRequest,
        UeEvent::Paging,
        UeEvent::Handover,
    ] {
        let f = dur(&free, ev);
        let o = dur(&onvm, ev);
        let l = dur(&l25, ev);
        assert!(l < o, "{ev:?}: L25GC {l} < ONVM-UPF {o}");
        assert!(o <= f, "{ev:?}: ONVM-UPF {o} <= free5GC {f}");
    }
}

#[test]
fn two_ues_are_isolated() {
    let mut eng = Engine::new(0, World::new(Deployment::L25gc, 2, 2));
    World::bring_up_ue(&mut eng, 1);
    World::bring_up_ue(&mut eng, 2);
    assert_eq!(eng.world().core.upf.sessions.len(), 2);

    // UE 1 goes idle; UE 2 keeps streaming. UE 1's buffering must not
    // affect UE 2 (session-scoped smart buffering, §3.3).
    let out = eng.world().ran.trigger_idle(1);
    eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
        w.send_after(ctx, out.delay, out.env);
    });
    eng.run();
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(2, 0, 10_000, 200, SimDuration::from_millis(100), ctx);
    });
    eng.run();
    let w = eng.world();
    let flow = &w.apps.cbr[0];
    assert_eq!(flow.lost(), 0);
    let stats = flow.rtt_stats();
    assert!(
        stats.max < 1_000.0,
        "UE 2 sees base RTT only (µs): {}",
        stats.max
    );
    // UE 1 was never paged (no data for it).
    assert!(!w.core.events.iter().any(|e| e.event == UeEvent::Paging));
}

#[test]
fn determinism_same_seed_same_world() {
    let a = lifecycle(Deployment::L25gc);
    let b = lifecycle(Deployment::L25gc);
    let evs = |eng: &Engine<World>| {
        eng.world()
            .core
            .events
            .iter()
            .map(|e| (e.event, e.start, e.end))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        evs(&a),
        evs(&b),
        "the same event program reproduces the same history"
    );
    assert_eq!(a.now(), b.now());
}
