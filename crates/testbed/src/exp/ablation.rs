//! Ablations of the design choices DESIGN.md §6 calls out.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use l25gc_classifier::{
    Classifier, Field, FieldRange, Generator, PacketKey, PartitionSort, PdrRule, Profile,
    TupleSpace,
};
use l25gc_core::Deployment;
use l25gc_resilience::UeAwareLb;
use l25gc_sim::{Engine, SimDuration};

use crate::world::World;

// ---------------------------------------------------------------------
// 1. Tuple-space explosion DoS (§3.4: "PartitionSort helps to avoid
//    TSS's vulnerability to DoS attack", citing Csikor et al.)
// ---------------------------------------------------------------------

/// Result of the DoS ablation for one structure.
#[derive(Debug, Clone)]
pub struct DosRow {
    /// Structure name.
    pub structure: &'static str,
    /// Victim lookup latency before the attack (ns).
    pub before_ns: f64,
    /// Victim lookup latency after installing the attack rules (ns).
    pub after_ns: f64,
    /// Slowdown factor.
    pub slowdown: f64,
}

fn measure<C: Classifier>(c: &C, keys: &[PacketKey]) -> f64 {
    let reps = 20_000 / keys.len().max(1) + 1;
    let start = Instant::now();
    for _ in 0..reps {
        for k in keys {
            std::hint::black_box(c.lookup(k));
        }
    }
    start.elapsed().as_nanos() as f64 / (reps * keys.len()) as f64
}

/// An attacker crafts `n_attack` rules that each occupy a fresh TSS
/// tuple (distinct prefix-length combinations), never matching victim
/// traffic — yet every victim lookup must probe every sub-table.
pub fn tss_dos(n_attack: usize) -> Vec<DosRow> {
    // Victim: a normal pinhole rule set + its matching keys.
    let mut gen = Generator::new(31, Profile::Pinholes);
    let victim_rules = gen.rules(100);
    let keys: Vec<PacketKey> = victim_rules.iter().map(|r| gen.matching_key(r)).collect();

    // Attack rules: unique tuples over a disjoint address space.
    let mut atk_gen = Generator::new(32, Profile::TssWorst);
    let attack: Vec<PdrRule> = atk_gen
        .rules(n_attack)
        .into_iter()
        .map(|mut r| {
            r.id += 1_000_000; // keep ids disjoint from the victim's
                               // Highest priority: every lookup must consider the attack
                               // tables before accepting a victim match (the attacker
                               // controls its own rules' priorities). They never match
                               // victim traffic thanks to the disjoint address block.
            r.precedence = 0;
            r.fields[Field::DstIp as usize] = FieldRange::exact(0xdead_0000);
            r
        })
        .collect();

    let mut rows = Vec::new();
    {
        let mut tss = TupleSpace::new();
        for r in &victim_rules {
            tss.insert(r.clone());
        }
        let before = measure(&tss, &keys);
        for r in &attack {
            tss.insert(r.clone());
        }
        let after = measure(&tss, &keys);
        rows.push(DosRow {
            structure: "PDR-TSS",
            before_ns: before,
            after_ns: after,
            slowdown: after / before,
        });
    }
    {
        let mut ps = PartitionSort::new();
        for r in &victim_rules {
            ps.insert(r.clone());
        }
        let before = measure(&ps, &keys);
        for r in &attack {
            ps.insert(r.clone());
        }
        let after = measure(&ps, &keys);
        rows.push(DosRow {
            structure: "PDR-PS",
            before_ns: before,
            after_ns: after,
            slowdown: after / before,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// 2. Checkpoint interval sweep (§3.5.1: periodic vs per-event sync)
// ---------------------------------------------------------------------

/// One sweep point.
#[derive(Debug, Clone)]
pub struct CheckpointRow {
    /// Checkpoint interval (ms).
    pub interval_ms: u64,
    /// Checkpoints taken during the run.
    pub checkpoints: u64,
    /// Entries waiting in the logger at the failure instant (replay
    /// work; bounded by one interval of traffic).
    pub replay_backlog: usize,
    /// Worst packet RTT across the failover (ms).
    pub max_rtt_ms: f64,
    /// Packets lost.
    pub lost: u64,
}

/// Runs a CBR + failover scenario at each checkpoint interval.
pub fn checkpoint_sweep(intervals_ms: &[u64]) -> Vec<CheckpointRow> {
    intervals_ms
        .iter()
        .map(|&ms| {
            let mut eng = Engine::new(0, World::new(Deployment::L25gc, 2, 1));
            World::bring_up_ue(&mut eng, 1);
            World::enable_resilience(&mut eng);
            eng.world_mut()
                .res
                .as_mut()
                .expect("harness")
                .policy
                .interval = SimDuration::from_millis(ms);
            eng.schedule_in(SimDuration::ZERO, |w: &mut World, ctx| {
                w.start_cbr(1, 0, 10_000, 200, SimDuration::from_secs(1), ctx);
            });
            // Capture the logger backlog right at the failure instant.
            let backlog = Rc::new(Cell::new(0));
            let at_failure = Rc::clone(&backlog);
            eng.schedule_in(SimDuration::from_millis(500), move |w: &mut World, ctx| {
                at_failure.set(w.res.as_ref().expect("harness").logger.len());
                w.fail_primary(ctx);
            });
            eng.run();
            let w = eng.world();
            let flow = &w.apps.cbr[0];
            CheckpointRow {
                interval_ms: ms,
                checkpoints: w.res.as_ref().expect("harness").replica.checkpoints,
                replay_backlog: backlog.get(),
                max_rtt_ms: flow.max_rtt().unwrap_or(0.0) / 1000.0,
                lost: flow.lost(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// 3. Canary rollout (§4)
// ---------------------------------------------------------------------

/// Routing split observed for a canary configuration.
#[derive(Debug, Clone)]
pub struct CanaryRow {
    /// Configured canary weight (%).
    pub weight_pct: u32,
    /// Sessions that landed on the canary out of `total`.
    pub canary_sessions: usize,
    /// Total sessions routed.
    pub total: usize,
}

/// L²5GC's canary split (§4) between a stable and a canary instance of
/// one service: whether a new session with `roll` ∈ [0,1) lands on the
/// canary, splitting by the two weights, or `None` when both are
/// drained. The roll becomes an integer point in `[0, total)`, so a
/// drained instance never receives a session.
fn routes_to_canary(stable_weight: u32, canary_weight: u32, roll: f64) -> Option<bool> {
    let total = u64::from(stable_weight) + u64::from(canary_weight);
    if total == 0 {
        return None;
    }
    let point = (roll.clamp(0.0, 0.999_999) * total as f64) as u64;
    Some(point >= u64::from(stable_weight))
}

/// Routes `total` new sessions through the canary split with a canary
/// SMF at `weight_pct` percent.
pub fn canary_rollout(weight_pct: u32, total: usize) -> CanaryRow {
    let mut rng = l25gc_sim::SimRng::new(4);
    let canary_sessions = (0..total)
        .filter(|_| routes_to_canary(100 - weight_pct, weight_pct, rng.f64()) == Some(true))
        .count();
    CanaryRow {
        weight_pct,
        canary_sessions,
        total,
    }
}

// ---------------------------------------------------------------------
// 4. Multi-unit scaling with the UE-aware LB (§4)
// ---------------------------------------------------------------------

/// Result of the scaling ablation.
#[derive(Debug, Clone)]
pub struct ScalingLbRow {
    /// Number of 5GC units.
    pub units: u32,
    /// Sessions per unit (min, max) after assignment.
    pub min_load: u64,
    /// Highest per-unit load.
    pub max_load: u64,
    /// Re-routes needed when one unit fails.
    pub migrated_on_failure: usize,
}

/// Assigns `ues` sessions across `units` 5GC units, then fails unit 1.
pub fn lb_scaling(units: u32, ues: u64) -> ScalingLbRow {
    let ids: Vec<u32> = (1..=units).collect();
    let mut lb = UeAwareLb::new(&ids);
    for ue in 0..ues {
        lb.route(ue).expect("live unit available");
        // Affinity: repeated routing must not rebalance.
        assert_eq!(lb.route(ue), lb.route(ue));
    }
    let loads: Vec<u64> = ids.iter().map(|&u| lb.load_of(u)).collect();
    lb.mark_failed(1);
    let migrated = lb.migrate(1, 2);
    ScalingLbRow {
        units,
        min_load: *loads.iter().min().expect("non-empty"),
        max_load: *loads.iter().max().expect("non-empty"),
        migrated_on_failure: migrated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tss_dos_slows_tss_far_more_than_ps() {
        let rows = tss_dos(2_000);
        let tss = &rows[0];
        let ps = &rows[1];
        assert!(
            tss.slowdown > 10.0,
            "tuple explosion cripples TSS: {:.1}x",
            tss.slowdown
        );
        assert!(
            ps.slowdown < tss.slowdown / 4.0,
            "PS degrades far less: {:.1}x vs {:.1}x",
            ps.slowdown,
            tss.slowdown
        );
    }

    #[test]
    fn shorter_checkpoints_mean_less_replay() {
        let rows = checkpoint_sweep(&[1, 10, 100]);
        assert!(rows[0].checkpoints > rows[2].checkpoints * 5);
        assert!(
            rows[0].replay_backlog < rows[2].replay_backlog,
            "1 ms interval backlog {} < 100 ms backlog {}",
            rows[0].replay_backlog,
            rows[2].replay_backlog
        );
        for r in &rows {
            assert_eq!(r.lost, 0, "replay recovers everything at any interval");
        }
    }

    #[test]
    fn canary_split_tracks_weight() {
        for pct in [5u32, 10, 50] {
            let row = canary_rollout(pct, 10_000);
            let got = row.canary_sessions as f64 / row.total as f64 * 100.0;
            assert!(
                (got - pct as f64).abs() < 2.0,
                "configured {pct}%, observed {got:.1}%"
            );
        }
    }

    #[test]
    fn canary_split_follows_weights() {
        let hits_canary = (0..1000)
            .filter(|i| routes_to_canary(90, 10, *i as f64 / 1000.0) == Some(true))
            .count();
        assert!(
            (80..120).contains(&hits_canary),
            "canary got {hits_canary}/1000"
        );
    }

    #[test]
    fn routing_prefers_active_instances() {
        for roll in [0.0, 0.5, 0.99] {
            assert_eq!(
                routes_to_canary(100, 0, roll),
                Some(false),
                "a drained instance must not receive traffic"
            );
        }
        assert_eq!(routes_to_canary(0, 0, 0.5), None, "no active instance");
    }

    #[test]
    fn lb_balances_and_migrates() {
        let row = lb_scaling(4, 1000);
        assert_eq!(row.min_load, 250);
        assert_eq!(row.max_load, 250);
        assert_eq!(row.migrated_on_failure, 250);
    }
}
