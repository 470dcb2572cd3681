//! §5.5: failure recovery — control-plane impact (§5.5.1), data-plane
//! impact (Fig 15), and the combined failure-during-handover experiment
//! (Fig 16).
//!
//! L²5GC runs with the resiliency harness: a frozen replica checkpointed
//! at quiescent instants plus the LB packet logger; on failure the
//! replica wakes (detect < 0.5 ms, reroute 2 ms, replay 3 ms, partly
//! overlapped) and the log replays. The 3GPP baseline drops everything
//! during the outage and the UE reattaches from scratch (registration +
//! session re-establishment composed from the *measured* Fig 8 free5GC
//! durations — not hand-entered constants).

use l25gc_core::context::UeEvent;
use l25gc_core::Deployment;
use l25gc_ran::MSS;
use l25gc_resilience::ReattachModel;
use l25gc_sim::{Engine, SimDuration};

use crate::exp::control_plane::run_events;
use crate::netem::NetEm;
use crate::world::World;

/// Builds the 3GPP reattach baseline from measured free5GC event times.
pub(crate) fn measured_reattach_model() -> ReattachModel {
    let events = run_events(Deployment::Free5gc);
    let get = |ev: UeEvent| {
        events
            .iter()
            .find(|(e, _)| *e == ev)
            .map(|&(_, ms)| SimDuration::from_secs_f64(ms / 1e3))
            .expect("event measured")
    };
    ReattachModel {
        detect: SimDuration::from_micros(500),
        notify: SimDuration::from_millis(2),
        registration: get(UeEvent::Registration),
        session_establishment: get(UeEvent::SessionRequest),
    }
}

/// §5.5.1: handover completion with a failure at its midpoint.
#[derive(Debug, Clone)]
pub struct FailoverCpRow {
    /// Recovery approach.
    pub approach: &'static str,
    /// Handover completion including the failure (ms).
    pub ho_with_failure_ms: f64,
    /// Handover completion without any failure (ms), for reference.
    pub ho_baseline_ms: f64,
}

/// Runs the L²5GC side of §5.5.1: fail the primary mid-handover (while
/// the path-switch signalling is in flight); the replica + replay finish
/// it. Durations are measured from the trigger instant at the testbed
/// level, so replayed-message re-stamping cannot skew them.
pub fn failover_handover_l25gc() -> FailoverCpRow {
    // Baseline HO (no failure).
    let baseline = {
        let mut eng = Engine::new(0, World::new(Deployment::L25gc, 2, 1));
        World::bring_up_ue(&mut eng, 1);
        let t0 = eng.now();
        let out = eng.world().ran.trigger_handover(1, 2);
        eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
            w.send_after(ctx, out.delay, out.env);
        });
        eng.run();
        let end = eng
            .world()
            .core
            .events
            .iter()
            .find(|e| e.event == UeEvent::Handover)
            .expect("HO completed")
            .end;
        end.duration_since(t0)
    };

    // With a failure hitting the execution phase (85% in: right around
    // the HandoverNotify / path-switch signalling).
    let mut eng = Engine::new(0, World::new(Deployment::L25gc, 2, 1));
    World::bring_up_ue(&mut eng, 1);
    World::enable_resilience(&mut eng);
    // Let a checkpoint pass so the session state is replicated.
    eng.run_for(SimDuration::from_millis(50));
    let t0 = eng.now();
    let out = eng.world().ran.trigger_handover(1, 2);
    eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
        w.send_after(ctx, out.delay, out.env);
    });
    eng.schedule_in(baseline * 0.85, |w: &mut World, ctx| w.fail_primary(ctx));
    eng.run();
    let end = eng
        .world()
        .core
        .events
        .iter()
        .filter(|e| e.event == UeEvent::Handover)
        .map(|e| e.end)
        .max()
        .expect("HO completed despite the failure");
    FailoverCpRow {
        approach: "L25GC failover",
        ho_with_failure_ms: end.duration_since(t0).as_millis_f64(),
        ho_baseline_ms: baseline.as_millis_f64(),
    }
}

/// The 3GPP reattach number for the same scenario.
pub fn failover_handover_3gpp() -> FailoverCpRow {
    let model = measured_reattach_model();
    let baseline = SimDuration::from_millis(130); // L25GC's no-failure HO
    let spent = baseline * 0.5;
    // The interrupted handover is abandoned; after the outage the UE is
    // attached afresh on the target cell.
    let total = spent + model.outage();
    FailoverCpRow {
        approach: "3GPP reattach",
        ho_with_failure_ms: total.as_millis_f64(),
        ho_baseline_ms: baseline.as_millis_f64(),
    }
}

/// Fig 15/16: data-plane impact of a failure during a TCP transfer.
#[derive(Debug, Clone)]
pub struct FailoverDataRow {
    /// Recovery approach.
    pub approach: &'static str,
    /// Bytes transferred over the run (MB).
    pub transferred_mb: f64,
    /// Packets dropped because the core was down.
    pub packets_dropped: u64,
    /// RTO timeouts at the sender.
    pub timeouts: u64,
    /// Maximum RTT observed (ms).
    pub max_rtt_ms: f64,
}

/// Runs the Fig 15 experiment: a 30 Mbps TCP stream; the core fails at
/// `fail_at`. `resilient` selects L²5GC failover vs the 3GPP baseline
/// (which restores service only after the measured reattach outage).
/// `ho_at` optionally triggers a handover before the failure (Fig 16).
pub(crate) fn run_failover_data(
    resilient: bool,
    fail_at: SimDuration,
    ho_at: Option<SimDuration>,
    duration: SimDuration,
) -> FailoverDataRow {
    let mut eng = Engine::new(0, World::new(Deployment::L25gc, 2, 1));
    World::bring_up_ue(&mut eng, 1);
    eng.world_mut().netem = NetEm::failover_30mbps();
    if resilient {
        World::enable_resilience(&mut eng);
    }
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_tcp(1, 0, None, ctx);
    });
    if let Some(at) = ho_at {
        eng.schedule_in(at, |w: &mut World, ctx| {
            let out = w.ran.trigger_handover(1, 2);
            w.send_after(ctx, out.delay, out.env);
        });
    }
    eng.schedule_in(fail_at, |w: &mut World, ctx| w.fail_primary(ctx));
    if !resilient {
        // 3GPP: service resumes after the measured reattach outage; the
        // restored core is the backup with the re-established session
        // (state-wise identical here; the *time* and the dropped packets
        // are the penalty).
        let outage = measured_reattach_model().outage();
        eng.schedule_in(fail_at + outage, |w: &mut World, _ctx| {
            w.reattach_recover();
        });
    }
    eng.run_for(duration);

    let w = eng.world();
    let tx = &w.apps.tcp[&0];
    FailoverDataRow {
        approach: if resilient {
            "L25GC failover"
        } else {
            "3GPP reattach"
        },
        transferred_mb: (tx.acked_segments() * MSS as u64) as f64 / 1e6,
        packets_dropped: w.outage_drops,
        timeouts: tx.timeouts,
        max_rtt_ms: tx.max_rtt_us.unwrap_or(0.0) / 1000.0,
    }
}

/// Fig 15: failure during a plain transfer at 4.5 s, 10 s run.
pub fn fig15() -> Vec<FailoverDataRow> {
    let fail = SimDuration::from_millis(4_500);
    let dur = SimDuration::from_secs(10);
    vec![
        run_failover_data(true, fail, None, dur),
        run_failover_data(false, fail, None, dur),
    ]
}

/// Fig 16: handover at 4.4 s, failure at 4.5 s (mid-handover), 10 s run.
pub fn fig16() -> Vec<FailoverDataRow> {
    let ho = SimDuration::from_millis(4_400);
    let fail = SimDuration::from_millis(4_500);
    let dur = SimDuration::from_secs(10);
    vec![
        run_failover_data(true, fail, Some(ho), dur),
        run_failover_data(false, fail, Some(ho), dur),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_cp_matches_551() {
        let l25 = failover_handover_l25gc();
        // Paper: 130 ms without failure → 134 ms with; a few ms overhead.
        assert!(
            (110.0..175.0).contains(&l25.ho_baseline_ms),
            "baseline {}",
            l25.ho_baseline_ms
        );
        let overhead = l25.ho_with_failure_ms - l25.ho_baseline_ms;
        assert!(
            (0.5..30.0).contains(&overhead),
            "failover adds a few ms, got {overhead:.1} (paper: ~4 ms)"
        );

        let gpp = failover_handover_3gpp();
        // Paper: 401 ms. Composition from measured free5GC events lands
        // in the hundreds of ms and far above L25GC.
        assert!(
            gpp.ho_with_failure_ms > 2.0 * l25.ho_with_failure_ms,
            "reattach {} ms vs failover {} ms",
            gpp.ho_with_failure_ms,
            l25.ho_with_failure_ms
        );
        assert!(
            (250.0..650.0).contains(&gpp.ho_with_failure_ms),
            "reattach {} ms (paper 401)",
            gpp.ho_with_failure_ms
        );
    }

    /// Fleet-scale recovery: a 1-second load run with a kill at 500 ms
    /// under the Queue policy (wide rings, so admission control never
    /// confuses the loss accounting), against the same kill priced under
    /// the measured re-attach model, whose outage is detection +
    /// notification + a fresh registration and session establishment.
    #[test]
    fn fleet_replay_beats_reattach_on_recovery() {
        use l25gc_load::{calibrate, Driver, FaultPlan, LoadConfig, OverloadPolicy, ShardConfig};

        let profiles = calibrate(Deployment::L25gc);
        let cfg = LoadConfig::builder()
            .ues(20_000)
            .shard_cfg(ShardConfig {
                shards: 2,
                high_water: 1 << 14,
                policy: OverloadPolicy::Queue,
                ring_capacity: 1 << 15,
            })
            .offered_eps(2_000.0)
            .duration(SimDuration::from_secs(1))
            .seed(59)
            .fault(FaultPlan::parse("kill@500ms:shard=0").expect("static plan parses"))
            .build()
            .expect("disruption comparison config is valid");
        let r = Driver::new(cfg).expect("valid config").run(&profiles);
        let l25 = r.disruption.expect("kill plan yields a disruption block");
        // 3GPP alternative for the identical incident: the shard is dark
        // for the full re-attach outage, and arrivals hashing to it in
        // that window (half the offered stream) are dropped, not replayed.
        let model = measured_reattach_model();
        let gpp_outage_ms = model.outage().as_millis_f64();
        let gpp_lost = model.packets_lost(2_000.0 / 2.0);
        // The replay path recovers in single-digit-to-low-tens of ms;
        // re-attach costs the measured hundreds of ms — and loses every
        // arrival that hit the dead shard meanwhile.
        assert!(l25.disruption_ms > 0.0, "the kill must be visible");
        assert!(
            (250.0..650.0).contains(&gpp_outage_ms),
            "reattach outage {gpp_outage_ms} ms (paper ~401)"
        );
        assert!(
            l25.disruption_ms * 5.0 < gpp_outage_ms,
            "replay {} ms must beat reattach {gpp_outage_ms} ms decisively",
            l25.disruption_ms
        );
        assert!(l25.replayed > 0, "the backlog replays, not re-attaches");
        assert_eq!(l25.completions_lost, 0, "Queue failover is loss-free");
        assert!(gpp_lost > 0, "reattach drops the outage window");
    }

    #[test]
    fn fig15_l25gc_keeps_goodput() {
        let rows = fig15();
        let l25 = &rows[0];
        let gpp = &rows[1];
        assert_eq!(l25.packets_dropped, 0, "the logger loses nothing");
        assert!(
            gpp.packets_dropped > 50,
            "reattach drops in-flight data: {}",
            gpp.packets_dropped
        );
        assert!(gpp.timeouts > 0, "the 3GPP outage exceeds the RTO");
        assert!(
            l25.transferred_mb > gpp.transferred_mb,
            "L25GC {} MB vs 3GPP {} MB",
            l25.transferred_mb,
            gpp.transferred_mb
        );
    }

    #[test]
    fn fig16_failure_during_handover() {
        let rows = fig16();
        let l25 = &rows[0];
        let gpp = &rows[1];
        assert_eq!(l25.packets_dropped, 0);
        assert!(l25.transferred_mb > gpp.transferred_mb);
        // 3GPP reattach drops the in-flight window (no RTT samples for
        // dropped packets) and eats RTO timeouts; L25GC's worst delay is
        // bounded by the handover stall plus a few failover ms.
        assert!(gpp.timeouts >= 1, "reattach outage exceeds the RTO");
        assert!(
            l25.max_rtt_ms < 400.0,
            "L25GC worst RTT bounded: {}",
            l25.max_rtt_ms
        );
    }
}
