//! The UE-aware load balancer (§4, Fig 5): session affinity to 5GC
//! units, failover routing, and the recovery timeline.

use std::collections::HashMap;

use l25gc_core::msg::UeId;
use l25gc_nfv::cost::CostModel;
use l25gc_sim::{SimDuration, SimTime};

/// Identifies one 5GC unit (a consolidated core instance).
pub(crate) type UnitId = u32;

/// The LB's routing state.
#[derive(Debug, Default)]
pub struct UeAwareLb {
    /// UE → serving unit affinity.
    affinity: HashMap<UeId, UnitId>,
    /// Load (assigned sessions) per unit.
    load: HashMap<UnitId, u64>,
    /// Units currently marked failed.
    failed: Vec<UnitId>,
}

impl UeAwareLb {
    /// An LB over the given units.
    pub fn new(units: &[UnitId]) -> UeAwareLb {
        let mut lb = UeAwareLb::default();
        for &u in units {
            lb.load.insert(u, 0);
        }
        lb
    }

    /// Routes a UE: existing affinity wins; new UEs go to the least
    /// loaded live unit.
    pub fn route(&mut self, ue: UeId) -> Option<UnitId> {
        if let Some(&u) = self.affinity.get(&ue) {
            if !self.failed.contains(&u) {
                return Some(u);
            }
        }
        let unit = self
            .load
            .iter()
            .filter(|(u, _)| !self.failed.contains(u))
            .min_by_key(|&(u, &l)| (l, *u))
            .map(|(&u, _)| u)?;
        *self.load.get_mut(&unit).expect("unit exists") += 1;
        self.affinity.insert(ue, unit);
        Some(unit)
    }

    /// Marks a unit failed; its UEs re-route on next use.
    pub fn mark_failed(&mut self, unit: UnitId) {
        if !self.failed.contains(&unit) {
            self.failed.push(unit);
        }
    }

    /// Re-points every UE on `from` to `to` (failover to the replica's
    /// unit, preserving affinity thereafter).
    pub fn migrate(&mut self, from: UnitId, to: UnitId) -> usize {
        let mut moved = 0;
        for u in self.affinity.values_mut() {
            if *u == from {
                *u = to;
                moved += 1;
            }
        }
        let l = self.load.remove(&from).unwrap_or(0);
        *self.load.entry(to).or_insert(0) += l;
        moved
    }

    /// The unit currently serving a UE.
    #[cfg(test)]
    pub(crate) fn unit_of(&self, ue: UeId) -> Option<UnitId> {
        self.affinity.get(&ue).copied()
    }

    /// Sessions assigned to a unit.
    pub fn load_of(&self, unit: UnitId) -> u64 {
        self.load.get(&unit).copied().unwrap_or(0)
    }
}

/// The failover timeline: how long from node failure until the replica
/// serves traffic (§5.5.1: detection < 0.5 ms, re-routing 2 ms, replay
/// 3 ms, with some overlap between the latter two).
#[derive(Debug, Clone, Copy)]
pub struct FailoverTimeline {
    /// Failure detection by the probe agent.
    pub detect: SimDuration,
    /// Re-route traffic to the replica unit.
    pub reroute: SimDuration,
    /// Replay logged packets to reconstruct post-checkpoint state.
    pub replay: SimDuration,
    /// Fraction of replay overlapped with rerouting (0..=1).
    pub overlap: f64,
}

impl FailoverTimeline {
    /// The paper's measured components.
    pub fn paper(cost: &CostModel) -> FailoverTimeline {
        FailoverTimeline {
            detect: cost.failure_detect,
            reroute: cost.reroute,
            replay: cost.replay,
            overlap: 0.5,
        }
    }

    /// Total added latency from failure instant to a serving replica.
    pub fn total(&self) -> SimDuration {
        let serial = self.replay * (1.0 - self.overlap);
        self.detect + self.reroute + serial
    }

    /// When the replica starts serving, given the failure instant.
    pub fn recovered_at(&self, failed_at: SimTime) -> SimTime {
        failed_at + self.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_is_sticky() {
        let mut lb = UeAwareLb::new(&[1, 2]);
        let u = lb.route(42).unwrap();
        for _ in 0..10 {
            assert_eq!(lb.route(42), Some(u));
        }
        assert_eq!(lb.load_of(u), 1, "affinity hits don't inflate load");
    }

    #[test]
    fn new_sessions_balance_by_load() {
        let mut lb = UeAwareLb::new(&[1, 2]);
        let units: Vec<UnitId> = (0..10).map(|ue| lb.route(ue).unwrap()).collect();
        let to_1 = units.iter().filter(|&&u| u == 1).count();
        assert_eq!(to_1, 5, "even split");
    }

    #[test]
    fn failover_migrates_affinity() {
        let mut lb = UeAwareLb::new(&[1, 2]);
        for ue in 0..4 {
            lb.route(ue);
        }
        let on_1: Vec<UeId> = (0..4).filter(|ue| lb.unit_of(*ue) == Some(1)).collect();
        lb.mark_failed(1);
        let moved = lb.migrate(1, 2);
        assert_eq!(moved, on_1.len());
        for ue in 0..4 {
            assert_eq!(lb.unit_of(ue), Some(2));
        }
        // New sessions avoid the failed unit.
        assert_eq!(lb.route(99), Some(2));
    }

    #[test]
    fn all_units_failed_routes_none() {
        let mut lb = UeAwareLb::new(&[1]);
        lb.mark_failed(1);
        assert_eq!(lb.route(5), None);
    }

    #[test]
    fn paper_detection_is_within_half_a_millisecond() {
        // §3.5.2: the LB probe agent declares a silent unit dead within
        // 0.5 ms.
        let t = FailoverTimeline::paper(&CostModel::paper());
        assert!(t.detect <= SimDuration::from_micros(500), "{}", t.detect);
    }

    #[test]
    fn paper_failover_adds_single_digit_milliseconds() {
        let t = FailoverTimeline::paper(&CostModel::paper());
        let total = t.total();
        // §5.5.1: the handover goes from 130 ms to 134 ms — roughly 4 ms
        // of failover overhead.
        assert!(
            total >= SimDuration::from_millis(3) && total <= SimDuration::from_millis(6),
            "failover overhead {total}"
        );
    }
}
