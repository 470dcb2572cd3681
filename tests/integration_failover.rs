//! Cross-crate integration: the resiliency framework end to end —
//! checkpoints, failover, replay, output suppression — under live
//! control and data traffic.

use l25gc_core::context::{SmfProc, UeEvent};
use l25gc_core::Deployment;
use l25gc_resilience::ReplicaState;
use l25gc_sim::{Engine, SimDuration};
use l25gc_testbed::{NetEm, World};

fn resilient_world() -> Engine<World> {
    let mut eng = Engine::new(0, World::new(Deployment::L25gc, 2, 1));
    World::bring_up_ue(&mut eng, 1);
    World::enable_resilience(&mut eng);
    eng
}

#[test]
fn failover_under_cbr_loses_nothing() {
    let mut eng = resilient_world();
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 0, 10_000, 200, SimDuration::from_secs(1), ctx);
    });
    eng.schedule_in(SimDuration::from_millis(500), |w: &mut World, ctx| {
        w.fail_primary(ctx);
    });
    eng.run();
    let w = eng.world();
    let flow = &w.apps.cbr[0];
    assert_eq!(flow.lost(), 0, "logger + replay recover every packet");
    assert_eq!(w.outage_drops, 0);
    let res = w.res.as_ref().expect("harness");
    assert!(res.replica.checkpoints > 10, "periodic checkpoints ran");
    assert_eq!(res.logger.overflow_drops, 0);
    // The outage is only detect+reroute+replay: a handful of ms of
    // added delay on the packets in flight at the failure instant.
    let max_ms = flow.max_rtt().unwrap() / 1000.0;
    assert!(max_ms < 50.0, "failover blip stays small: {max_ms} ms");
}

#[test]
fn failover_mid_handover_completes_the_handover() {
    let mut eng = resilient_world();
    eng.run_for(SimDuration::from_millis(50));
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        let out = w.ran.trigger_handover(1, 2);
        w.send_after(ctx, out.delay, out.env);
    });
    // Fail during the execution phase.
    eng.schedule_in(SimDuration::from_millis(120), |w: &mut World, ctx| {
        w.fail_primary(ctx);
    });
    eng.run();
    let w = eng.world();
    assert!(
        w.core.events.iter().any(|e| e.event == UeEvent::Handover),
        "the replica finished the interrupted handover"
    );
    assert_eq!(w.ran.ues[&1].serving_gnb, 2);
    // The user plane points at the target gNB afterwards.
    let sess = w.core.upf.sessions.iter().next().expect("session survived");
    assert!(sess.dl_far.action.forward, "forwarding restored");
}

#[test]
fn checkpoints_defer_while_procedures_run() {
    let mut eng = resilient_world();
    // A registration of UE 2 keeps internal messages in flight for a
    // while; checkpoints during it must defer (quiescence gating keeps
    // snapshots consistent).
    eng.world_mut().ran.add_ue(2, 102, 1);
    eng.world_mut().core.provision_subscriber(102);
    let out = eng.world_mut().ran.trigger_registration(2);
    eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
        w.send_after(ctx, out.delay, out.env);
    });
    // Bounded run: the checkpoint chain keeps the event queue non-empty
    // for as long as the harness is armed.
    eng.run_for(SimDuration::from_millis(400));
    let res = eng.world().res.as_ref().expect("harness");
    assert!(
        res.checkpoints_deferred > 0,
        "some checkpoints must have hit an active procedure"
    );
    assert!(
        res.replica.checkpoints > 0,
        "quiescent instants were found too"
    );
}

#[test]
fn failover_after_checkpoint_without_traffic_is_clean() {
    let mut eng = resilient_world();
    eng.run_for(SimDuration::from_millis(100));
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| w.fail_primary(ctx));
    eng.run_for(SimDuration::from_millis(100));
    // The replica core serves traffic afterwards.
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 0, 5_000, 200, SimDuration::from_millis(100), ctx);
    });
    eng.run();
    let flow = &eng.world().apps.cbr[0];
    assert_eq!(flow.lost(), 0);
    assert!(flow.acked > 0);
}

#[test]
fn healthy_run_never_fails_over() {
    let mut eng = resilient_world();
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 0, 10_000, 200, SimDuration::from_millis(200), ctx);
    });
    eng.run_for(SimDuration::from_millis(300));
    let w = eng.world();
    let res = w.res.as_ref().expect("harness");
    assert_eq!(res.replica.state, ReplicaState::Frozen);
    assert!(w.primary_alive);
    assert_eq!(w.apps.cbr[0].lost(), 0);
    // The log holds exactly the ingress since the last checkpoint.
    assert_eq!(
        res.logger.len() as u64,
        res.logger.next_counter() - res.replica.synced_upto()
    );
}

#[test]
fn checkpoint_releases_log_and_failover_replays_the_tail() {
    let mut eng = resilient_world();
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 0, 10_000, 200, SimDuration::from_millis(300), ctx);
    });
    // Fail 5 ms after a checkpoint instant, so the tail is non-empty.
    eng.run_for(SimDuration::from_millis(105));
    let tail = {
        let res = eng.world().res.as_ref().expect("harness");
        assert!(res.replica.checkpoints > 0);
        assert!(res.replica.synced_upto() > 0, "checkpoints cover ingress");
        // Checkpoints released the covered prefix: only the tail remains.
        let tail = res.logger.next_counter() - res.replica.synced_upto();
        assert_eq!(res.logger.len() as u64, tail);
        tail
    };
    assert!(tail > 0, "ingress since the last checkpoint is logged");
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| w.fail_primary(ctx));
    eng.run();
    let w = eng.world();
    let res = w.res.as_ref().expect("harness");
    assert_eq!(res.replica.state, ReplicaState::Active);
    assert!(res.logger.is_empty(), "failover drained the log as replay");
    assert_eq!(w.apps.cbr[0].lost(), 0, "replay reconstructed the tail");
}

#[test]
fn ingress_during_outage_is_buffered_until_replay() {
    let mut eng = resilient_world();
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 0, 10_000, 200, SimDuration::from_millis(300), ctx);
    });
    eng.run_for(SimDuration::from_millis(105));
    let logged = eng.world().res.as_ref().expect("harness").logger.len();
    let forwarded = eng.world().core.upf.counters.get("dl_forwarded");
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| w.fail_primary(ctx));
    // Still inside the outage: detection + reroute + replay take ~4 ms.
    eng.run_for(SimDuration::from_millis(2));
    {
        let w = eng.world();
        let res = w.res.as_ref().expect("harness");
        assert!(!w.primary_alive);
        assert_eq!(res.replica.state, ReplicaState::Frozen);
        assert!(res.logger.len() > logged, "outage ingress is logged");
        assert_eq!(
            w.core.upf.counters.get("dl_forwarded"),
            forwarded,
            "nothing reaches the dead core"
        );
    }
    eng.run();
    let w = eng.world();
    assert!(w.res.as_ref().expect("harness").logger.is_empty());
    assert_eq!(w.outage_drops, 0);
    assert_eq!(w.apps.cbr[0].lost(), 0, "buffered ingress was replayed");
}

#[test]
fn reattach_baseline_drops_and_recovers() {
    let mut eng = Engine::new(0, World::new(Deployment::L25gc, 2, 1));
    World::bring_up_ue(&mut eng, 1);
    eng.world_mut().netem = NetEm::failover_30mbps();
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 0, 2_000, 200, SimDuration::from_secs(2), ctx);
    });
    eng.schedule_in(SimDuration::from_millis(500), |w: &mut World, ctx| {
        w.fail_primary(ctx);
    });
    eng.schedule_in(SimDuration::from_millis(900), |w: &mut World, _| {
        w.reattach_recover();
        // The reattach leaves no procedure half-done at the SMF.
        assert!(!w.core.smf.sessions.is_empty());
        for (ue, s) in w.core.smf.sessions.iter() {
            assert_eq!(s.proc, SmfProc::None, "UE {ue}");
        }
    });
    eng.run();
    let w = eng.world();
    let flow = &w.apps.cbr[0];
    assert!(
        w.outage_drops > 100,
        "the outage discards packets: {}",
        w.outage_drops
    );
    assert!(flow.lost() > 100);
    // Traffic resumed after the reattach.
    let after = flow
        .rtt
        .sorted()
        .iter()
        .filter(|(t, _)| t.as_secs_f64() > 1.5)
        .count();
    assert!(after > 500, "post-recovery traffic flows: {after}");
}

/// Fails the primary `fail_after` into a handover that starts 50 ms into
/// a 10 kpps CBR stream (the UE echoes every packet).
fn fail_during_handover(fail_after: SimDuration) -> Engine<World> {
    let mut eng = Engine::new(0, World::new(Deployment::L25gc, 2, 1));
    World::bring_up_ue(&mut eng, 1);
    World::enable_resilience(&mut eng);
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 0, 10_000, 200, SimDuration::from_millis(400), ctx);
    });
    eng.run_for(SimDuration::from_millis(50));
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        let out = w.ran.trigger_handover(1, 2);
        w.send_after(ctx, out.delay, out.env);
    });
    eng.schedule_in(fail_after, |w: &mut World, ctx| w.fail_primary(ctx));
    eng.run();
    eng
}

/// A failure anywhere in a handover: replay re-runs each logged ingress
/// only once the replica has finished the previous one's internal chain
/// (so a target gNB's acknowledge cannot beat the preparation it
/// answers), a buffer flush the primary released is suppressed rather
/// than re-sent, and the dead primary's in-flight internal messages never
/// reach the replica.
#[test]
fn failover_anywhere_in_a_handover_delivers_each_packet_once() {
    for step in 0..=100 {
        let fail_after = SimDuration::from_millis(2 * step);
        let eng = fail_during_handover(fail_after);
        let w = eng.world();
        assert!(
            w.core.events.iter().any(|e| e.event == UeEvent::Handover),
            "fail at +{fail_after}: the handover completes"
        );
        assert_eq!(w.ran.ues[&1].serving_gnb, 2, "fail at +{fail_after}");
        let flow = &w.apps.cbr[0];
        assert_eq!(
            w.apps.ue_received, flow.sent,
            "fail at +{fail_after}: every DL packet reaches the UE exactly once"
        );
        assert_eq!(flow.lost(), 0, "fail at +{fail_after}");
    }
}

/// An overflowing log: a shed entry costs its own output, and only when
/// the primary had not released it. Suppression is per ingress, so the
/// outputs the primary released for shed entries never count against
/// the entries that survive.
#[test]
fn a_shed_log_entry_costs_only_its_own_unreleased_output() {
    let mut eng = Engine::new(0, World::new(Deployment::L25gc, 2, 1));
    World::bring_up_ue(&mut eng, 1);
    World::enable_resilience(&mut eng);
    eng.world_mut()
        .res
        .as_mut()
        .expect("harness")
        .logger
        .data_capacity = 4;
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 0, 10_000, 200, SimDuration::from_millis(300), ctx);
        // Downlink only: the log's data entries are all DL packets.
        w.apps.echo_at_ue = false;
    });
    // 5 ms after a checkpoint: the log holds 4 of the ~50 DL packets the
    // primary forwarded since, and the ~40 arriving during the outage
    // evict those 4 first.
    eng.run_for(SimDuration::from_millis(105));
    let (held, shed_before) = {
        let logger = &eng.world().res.as_ref().expect("harness").logger;
        (logger.len() as u64, logger.overflow_drops)
    };
    assert_eq!(held, 4, "the log is full of released DL entries");
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| w.fail_primary(ctx));
    eng.run();
    let w = eng.world();
    let shed_after = w.res.as_ref().expect("harness").logger.overflow_drops - shed_before;
    assert!(shed_after > held, "the outage overflowed the log");
    let sent = w.apps.cbr[0].sent;
    assert_eq!(
        sent - w.apps.ue_received,
        shed_after - held,
        "only the unreleased shed entries are lost"
    );
}
