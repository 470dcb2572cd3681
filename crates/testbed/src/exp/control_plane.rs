//! Fig 7 & Fig 8: control-plane message latency and UE-event completion
//! times across the three deployments.

use l25gc_core::context::UeEvent;
use l25gc_core::msg::{Endpoint, Envelope, Msg};
use l25gc_core::net::handler_cost;
use l25gc_core::Deployment;
use l25gc_pkt::pfcp::{self, IeSet, MsgType};
use l25gc_sim::{Engine, SimDuration};

use crate::world::World;

/// One Fig 7 bar: a single PFCP exchange between SMF and UPF-C.
#[derive(Debug, Clone)]
pub struct PfcpLatencyRow {
    /// Message name.
    pub message: &'static str,
    /// free5GC latency (ms): UDP socket transport.
    pub free5gc_ms: f64,
    /// L²5GC latency (ms): shared-memory transport, PFCP retained.
    pub l25gc_ms: f64,
    /// Relative reduction (%).
    pub reduction_pct: f64,
}

fn pfcp_exchange(dep: Deployment, req: pfcp::Message, resp_len: usize) -> SimDuration {
    // One request hop + receiver handler + one response hop, using the
    // same machinery the event simulation uses.
    let core = l25gc_core::net::CoreNetwork::new(dep);
    let req_env = Envelope::new(Endpoint::Smf, Endpoint::UpfC, Msg::N4(req));
    let req_hop = dep.control_hop(&core.cost, &req_env);
    let handler = handler_cost(&core.cost, &req_env);
    let resp = pfcp::Message::session(
        MsgType::SessionModificationResponse,
        1,
        1,
        IeSet {
            cause: Some(pfcp::Cause::Accepted),
            ..IeSet::default()
        },
    );
    let mut resp_env = Envelope::new(Endpoint::UpfC, Endpoint::Smf, Msg::N4(resp));
    // Use the caller-provided response size via padding semantics: the
    // encoded response is small; the hop cost only depends on length, so
    // recompute with the intended length.
    let resp_hop = {
        let encoded = resp_env.wire_len().max(resp_len);
        let _ = &mut resp_env;
        let (t, f) = dep.n4();
        core.cost.message_hop(t, f, encoded)
    };
    req_hop + handler + resp_hop
}

/// Computes Fig 7 for the three PFCP messages the paper highlights.
pub fn fig7() -> Vec<PfcpLatencyRow> {
    let session_establishment =
        pfcp::Message::session(MsgType::SessionEstablishmentRequest, 1, 1, IeSet::default());
    let modification = pfcp::Message::session(
        MsgType::SessionModificationRequest,
        1,
        1,
        IeSet {
            update_fars: vec![pfcp::UpdateFar {
                far_id: 2,
                apply_action: Some(pfcp::ApplyAction::FORW),
                forwarding: None,
            }],
            ..IeSet::default()
        },
    );
    let report = pfcp::Message::session(
        MsgType::SessionReportRequest,
        1,
        1,
        IeSet {
            report_downlink_data: true,
            downlink_data_pdr: Some(2),
            ..IeSet::default()
        },
    );

    [
        ("SessionEstablishment", session_establishment, 60),
        ("SessionModification (UpdateFAR)", modification, 60),
        ("SessionReportRequest", report, 40),
    ]
    .into_iter()
    .map(|(name, msg, resp_len)| {
        let free = pfcp_exchange(Deployment::Free5gc, msg.clone(), resp_len);
        let l25 = pfcp_exchange(Deployment::L25gc, msg, resp_len);
        PfcpLatencyRow {
            message: name,
            free5gc_ms: free.as_millis_f64(),
            l25gc_ms: l25.as_millis_f64(),
            reduction_pct: (1.0 - l25.as_secs_f64() / free.as_secs_f64()) * 100.0,
        }
    })
    .collect()
}

/// One Fig 8 bar group: completion time of a UE event per deployment.
#[derive(Debug, Clone)]
pub struct EventRow {
    /// Which UE event.
    pub event: UeEvent,
    /// Completion time per deployment (ms): free5GC, ONVM-UPF, L²5GC.
    pub free5gc_ms: f64,
    /// ONVM-UPF completion (ms).
    pub onvm_upf_ms: f64,
    /// L²5GC completion (ms).
    pub l25gc_ms: f64,
}

impl EventRow {
    /// L²5GC's reduction over free5GC (%).
    pub fn reduction_pct(&self) -> f64 {
        (1.0 - self.l25gc_ms / self.free5gc_ms) * 100.0
    }
}

/// Runs one full UE lifecycle on `deployment` and returns the completion
/// time of each event (ms).
pub(crate) fn run_events(deployment: Deployment) -> Vec<(UeEvent, f64)> {
    let mut eng = Engine::new(0, World::new(deployment, 2, 2));
    World::bring_up_ue(&mut eng, 1);

    // Handover to gNB 2.
    let out = eng.world().ran.trigger_handover(1, 2);
    eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
        w.send_after(ctx, out.delay, out.env);
    });
    eng.run();

    // Idle transition, then paging via one downlink packet.
    let out = eng.world().ran.trigger_idle(1);
    eng.schedule_in(SimDuration::ZERO, move |w: &mut World, ctx| {
        w.send_after(ctx, out.delay, out.env);
    });
    eng.run();
    eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
        w.start_cbr(1, 0, 1_000, 200, SimDuration::from_millis(5), ctx);
    });
    eng.run();

    eng.world()
        .core
        .events
        .iter()
        .map(|e| (e.event, e.duration().as_millis_f64()))
        .collect()
}

/// Computes the Fig 8 table for the four UE events.
pub fn fig8() -> Vec<EventRow> {
    let free = run_events(Deployment::Free5gc);
    let onvm = run_events(Deployment::OnvmUpf);
    let l25 = run_events(Deployment::L25gc);
    let get = |set: &[(UeEvent, f64)], ev: UeEvent| {
        set.iter()
            .find(|(e, _)| *e == ev)
            .map(|&(_, ms)| ms)
            .expect("event completed")
    };
    [
        UeEvent::Registration,
        UeEvent::SessionRequest,
        UeEvent::Handover,
        UeEvent::Paging,
    ]
    .into_iter()
    .map(|ev| EventRow {
        event: ev,
        free5gc_ms: get(&free, ev),
        onvm_upf_ms: get(&onvm, ev),
        l25gc_ms: get(&l25, ev),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_reductions_in_paper_band() {
        for row in fig7() {
            assert!(
                (15.0..45.0).contains(&row.reduction_pct),
                "{}: {:.0}% (paper: 21–39%)",
                row.message,
                row.reduction_pct
            );
            assert!(row.l25gc_ms < row.free5gc_ms);
        }
    }

    #[test]
    fn fig8_l25gc_halves_event_times() {
        let rows = fig8();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(
                row.l25gc_ms < row.free5gc_ms,
                "{:?}: L25GC must win",
                row.event
            );
            assert!(
                (35.0..70.0).contains(&row.reduction_pct()),
                "{:?}: ~50% reduction, got {:.0}%",
                row.event,
                row.reduction_pct()
            );
            // ONVM-UPF only improves the N4 leg: between the two.
            assert!(
                row.onvm_upf_ms <= row.free5gc_ms && row.onvm_upf_ms >= row.l25gc_ms,
                "{:?}: ONVM-UPF between the extremes",
                row.event
            );
        }
    }

    #[test]
    fn fig8_handover_near_paper_values() {
        let rows = fig8();
        let ho = rows
            .iter()
            .find(|r| r.event == UeEvent::Handover)
            .expect("HO row");
        // Paper Table 2: 227 ms vs 130 ms (HO data interruption); the
        // Fig 8 completion additionally includes the mobility
        // registration update, so the free5GC bar sits above 227.
        assert!(
            (220.0..330.0).contains(&ho.free5gc_ms),
            "free5GC HO {:.0} ms (paper ≈ 227 + mobility update)",
            ho.free5gc_ms
        );
        assert!(
            (110.0..175.0).contains(&ho.l25gc_ms),
            "L25GC HO {:.0} ms (paper ≈ 130)",
            ho.l25gc_ms
        );
    }

    #[test]
    fn fig8_paging_near_paper_values() {
        let rows = fig8();
        let pg = rows
            .iter()
            .find(|r| r.event == UeEvent::Paging)
            .expect("paging row");
        assert!(
            (45.0..75.0).contains(&pg.free5gc_ms),
            "free5GC paging {:.0} ms (paper ≈ 59)",
            pg.free5gc_ms
        );
        assert!(
            (20.0..40.0).contains(&pg.l25gc_ms),
            "L25GC paging {:.0} ms (paper ≈ 28)",
            pg.l25gc_ms
        );
    }
}
