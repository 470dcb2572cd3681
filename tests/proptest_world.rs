//! Property tests over the whole system: random sequences of UE events
//! (idle, paging-by-data, handover ping-pong, re-activation) at random
//! times, under continuous downlink probing — no packets may be lost
//! (smart buffering absorbs every interruption at these rates), all
//! triggered procedures must complete, and the run must be deterministic.
//! The last property fails the primary core at a random instant of a
//! two-UE run and checks external synchrony on the failover path every
//! figure runs: `World`'s resiliency harness.

use l25gc_core::context::{Proc, SmfProc, UeEvent};
use l25gc_core::Deployment;
use l25gc_sim::{Engine, SimDuration};
use l25gc_testbed::World;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum UeAction {
    /// Go idle (only valid while connected); the next data wave pages.
    Idle,
    /// Hand over to the other gNB (only valid while connected).
    Handover,
    /// Just keep streaming.
    Stream,
}

fn arb_action() -> impl Strategy<Value = UeAction> {
    prop_oneof![
        Just(UeAction::Idle),
        Just(UeAction::Handover),
        Just(UeAction::Stream),
    ]
}

fn arb_actions() -> impl Strategy<Value = Vec<(UeAction, u64)>> {
    proptest::collection::vec(
        (
            arb_action(),
            // Gap before the next action, ms. Long enough for any
            // procedure (paging ~30 ms, handover ~160 ms) to finish.
            400u64..900,
        ),
        1..6,
    )
}

/// Schedules `action` for `ue` at `at` and a 100 ms wave of downlink
/// probes at `wave_at`: the wave wakes an idle UE (paging) or rides
/// through/over a handover.
fn schedule_step(
    eng: &mut Engine<World>,
    at: SimDuration,
    ue: u64,
    action: UeAction,
    wave_at: SimDuration,
    flow_id: u32,
) {
    match action {
        UeAction::Idle => {
            eng.schedule_in(at, move |w: &mut World, ctx| {
                // Only meaningful while connected; the RAN knows.
                if w.ran.ues[&ue].connected {
                    let out = w.ran.trigger_idle(ue);
                    w.send_after(ctx, out.delay, out.env);
                }
            });
        }
        UeAction::Handover => {
            eng.schedule_in(at, move |w: &mut World, ctx| {
                if w.ran.ues[&ue].connected {
                    let current = w.ran.ues[&ue].serving_gnb;
                    let target = if current == 1 { 2 } else { 1 };
                    let out = w.ran.trigger_handover(ue, target);
                    w.send_after(ctx, out.delay, out.env);
                }
            });
        }
        UeAction::Stream => {}
    }
    eng.schedule_in(wave_at, move |w: &mut World, ctx| {
        w.start_cbr(ue, flow_id, 2_000, 200, SimDuration::from_millis(100), ctx);
    });
}

fn run_scenario(dep: Deployment, actions: &[(UeAction, u64)]) -> Engine<World> {
    let mut eng = Engine::new(0, World::new(dep, 2, 1));
    World::bring_up_ue(&mut eng, 1);

    let mut at = SimDuration::from_millis(10);
    for (flow_id, &(action, gap_ms)) in actions.iter().enumerate() {
        let wave_at = at + SimDuration::from_millis(gap_ms / 2);
        schedule_step(&mut eng, at, 1, action, wave_at, flow_id as u32);
        at += SimDuration::from_millis(gap_ms);
    }
    eng.run();
    eng
}

/// One step of the failover property: an action, the UE it hits, the gap
/// before the next step, and how long after the step's downlink wave
/// starts the action fires, ms. The wave runs 100 ms, so an idle step's
/// data reaches the AMF while the AN release runs (TS 23.502 §4.2.3.3).
type Step = (UeAction, u64, u64, u64);

/// Two UEs under random steps with the resiliency harness on: the
/// primary fails `fail_after` past the action of step `fail_step`, and
/// the logger's data queues hold `data_capacity` entries each.
fn run_failover(
    steps: &[Step],
    fail_step: usize,
    fail_after: SimDuration,
    data_capacity: usize,
) -> Engine<World> {
    let mut eng = Engine::new(0, World::new(Deployment::L25gc, 2, 2));
    World::bring_up_ue(&mut eng, 1);
    World::bring_up_ue(&mut eng, 2);
    World::enable_resilience(&mut eng);
    eng.world_mut()
        .res
        .as_mut()
        .expect("harness")
        .logger
        .data_capacity = data_capacity;
    let mut at = SimDuration::from_millis(10);
    for (i, &(action, ue, gap_ms, lead_ms)) in steps.iter().enumerate() {
        let action_at = at + SimDuration::from_millis(lead_ms);
        schedule_step(&mut eng, action_at, ue, action, at, i as u32);
        if i == fail_step {
            let fail_at = action_at + fail_after;
            eng.schedule_in(fail_at, |w: &mut World, ctx| w.fail_primary(ctx));
        }
        at += SimDuration::from_millis(gap_ms);
    }
    eng.run();
    eng
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No event sequence loses packets or wedges a procedure.
    #[test]
    fn random_event_sequences_conserve_packets(
        actions in arb_actions(),
        dep_sel in 0u8..3,
    ) {
        let dep = match dep_sel {
            0 => Deployment::Free5gc,
            1 => Deployment::OnvmUpf,
            _ => Deployment::L25gc,
        };
        let eng = run_scenario(dep, &actions);
        let w = eng.world();
        for flow in &w.apps.cbr {
            prop_assert_eq!(
                flow.lost(),
                0,
                "{:?}: flow {} lost packets (sent {}, acked {})",
                dep,
                flow.flow,
                flow.sent,
                flow.acked
            );
        }
        // Whatever went idle was paged back by its data wave.
        let idles = w.core.events.iter().filter(|e| e.event == UeEvent::IdleTransition).count();
        let pagings = w.core.events.iter().filter(|e| e.event == UeEvent::Paging).count();
        prop_assert!(pagings >= idles.saturating_sub(1), "idles {idles} pagings {pagings}");
        // No procedure left half-done at the AMF or the SMF.
        prop_assert_eq!(w.core.amf.ues[&1].proc, Proc::None);
        for s in w.core.smf.sessions.values() {
            prop_assert_eq!(s.proc, SmfProc::None);
        }
    }

    /// Identical inputs replay identical histories (whole-system
    /// determinism, the property checkpoint/replay relies on).
    #[test]
    fn world_is_deterministic(actions in arb_actions()) {
        let a = run_scenario(Deployment::L25gc, &actions);
        let b = run_scenario(Deployment::L25gc, &actions);
        let evs = |e: &Engine<World>| {
            e.world().core.events.iter().map(|r| (r.event, r.start, r.end)).collect::<Vec<_>>()
        };
        prop_assert_eq!(evs(&a), evs(&b));
        prop_assert_eq!(a.now(), b.now());
        prop_assert_eq!(a.world().apps.ue_received, b.world().apps.ue_received);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A primary failure at a random instant keeps external synchrony:
    /// every procedure still completes, no DL packet reaches a UE twice,
    /// the replay runs in counter order, and every ingress stamped since
    /// the checkpoint (what arrived while the replay ran included) goes
    /// through it rather than around it. Every action fires while its
    /// step's downlink wave runs, and the failure lands within 200 ms of a
    /// random step's action, where procedure and traffic overlap. With
    /// the data queues sized to overflow, a shed entry the primary never
    /// answered is lost by design, so loss-freedom is checked only when
    /// nothing was shed.
    #[test]
    fn failover_at_a_random_instant_keeps_external_synchrony(
        steps in proptest::collection::vec(
            (arb_action(), 1u64..3, 400u64..900, 0u64..80),
            1..5,
        ),
        fail_pick in any::<usize>(),
        fail_ms in 0u64..200,
        small_log in any::<bool>(),
    ) {
        let fail_step = fail_pick % steps.len();
        let fail_after = SimDuration::from_millis(fail_ms);
        let data_capacity = if small_log { 4 } else { 10_000 };
        let eng = run_failover(&steps, fail_step, fail_after, data_capacity);
        let w = eng.world();
        let case = format!(
            "{steps:?}, fail {fail_after} into step {fail_step}, data capacity {data_capacity}"
        );
        for ue in 1..=2 {
            let step = w.core.amf.ues[&ue].proc;
            prop_assert!(
                step == Proc::None,
                "UE {ue} has a procedure left half-done at {step:?}: {case}"
            );
        }
        for (ue, s) in w.core.smf.sessions.iter() {
            prop_assert!(
                s.proc == SmfProc::None,
                "UE {ue}'s session has a procedure left half-done at {:?}: {case}",
                s.proc
            );
        }
        let sent: u64 = w.apps.cbr.iter().map(|f| f.sent).sum();
        prop_assert!(
            w.apps.ue_received <= sent,
            "{} DL packets delivered for {sent} sent: {case}",
            w.apps.ue_received
        );
        let res = w.res.as_ref().expect("harness");
        prop_assert!(
            res.replayed.windows(2).all(|p| p[0] < p[1]),
            "replay left counter order: {case}"
        );
        if res.logger.overflow_drops == 0 {
            let stamped: Vec<u64> = (res.replica.synced_upto()..res.logger.next_counter()).collect();
            prop_assert_eq!(&res.replayed, &stamped, "ingress bypassed the replay: {}", case);
            prop_assert_eq!(w.apps.ue_received, sent, "DL packets lost: {}", case);
            for flow in &w.apps.cbr {
                prop_assert_eq!(flow.lost(), 0, "flow {} of UE {}: {}", flow.flow, flow.ue, case);
            }
        }
    }
}
