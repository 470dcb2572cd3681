//! The 3GPP restoration baseline: on 5GC failure the UE must re-initiate
//! attachment from scratch (§2.3 Challenge 4, §5.5).
//!
//! Recovery time composes: failure detection + UE notification + a full
//! registration + PDU session re-establishment + (if a procedure was in
//! flight) redoing that procedure. During the whole window every
//! in-flight and newly arriving packet is dropped — there is no logger.

use l25gc_sim::SimDuration;

/// Durations of the re-attach phases, measured from the respective
/// event-completion harnesses so the baseline is self-consistent with
/// Fig 8 rather than hand-entered.
#[derive(Debug, Clone, Copy)]
pub struct ReattachModel {
    /// Failure detection (the paper grants 3GPP the same 0.5 ms).
    pub detect: SimDuration,
    /// Notifying the UE / RAN that the core is gone (NAS timeout or
    /// explicit release), before re-attach starts.
    pub notify: SimDuration,
    /// Full registration on the backup core.
    pub registration: SimDuration,
    /// PDU session re-establishment.
    pub session_establishment: SimDuration,
}

impl ReattachModel {
    /// Total outage for a UE with an active session and no in-flight
    /// procedure.
    pub fn outage(&self) -> SimDuration {
        self.detect + self.notify + self.registration + self.session_establishment
    }

    /// Completion time of a procedure that was `progress` (0..=1) done
    /// when the core failed: everything restarts after the outage, and
    /// the procedure reruns from scratch (`proc_duration`).
    #[cfg(test)]
    pub(crate) fn interrupted_procedure(
        &self,
        started_at: l25gc_sim::SimTime,
        progress: f64,
        proc_duration: SimDuration,
    ) -> l25gc_sim::SimTime {
        let before_failure = proc_duration * progress.clamp(0.0, 1.0);
        started_at + before_failure + self.outage() + proc_duration
    }

    /// Packets lost during the outage at a constant arrival rate.
    pub fn packets_lost(&self, pps: f64) -> u64 {
        (self.outage().as_secs_f64() * pps).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l25gc_sim::SimTime;

    fn model() -> ReattachModel {
        ReattachModel {
            detect: SimDuration::from_micros(500),
            notify: SimDuration::from_millis(2),
            registration: SimDuration::from_millis(90),
            session_establishment: SimDuration::from_millis(40),
        }
    }

    #[test]
    fn outage_composes_phases() {
        let m = model();
        let o = m.outage();
        assert_eq!(o, SimDuration::from_micros(500 + 2_000 + 90_000 + 40_000));
    }

    #[test]
    fn interrupted_procedure_restarts_from_scratch() {
        let m = model();
        let ho = SimDuration::from_millis(130);
        let t0 = SimTime::ZERO;
        let done = m.interrupted_procedure(t0, 0.5, ho);
        // 65 ms spent + outage + full 130 ms rerun.
        let expect = t0 + ho * 0.5 + m.outage() + ho;
        assert_eq!(done, expect);
        // Progress outside [0,1] clamps.
        let done = m.interrupted_procedure(t0, 2.0, ho);
        assert_eq!(done, t0 + ho + m.outage() + ho);
    }

    #[test]
    fn packet_loss_scales_with_rate() {
        let m = model();
        let lost = m.packets_lost(1000.0);
        // outage = 132.5 ms at 1 kpps ≈ 132 packets (the Fig 15
        // experiment observes ~121 at its TCP-paced rate).
        assert!((130..=135).contains(&lost), "lost {lost}");
        assert_eq!(m.packets_lost(0.0), 0);
    }
}
