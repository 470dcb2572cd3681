//! Property tests for staged batched dispatch (ISSUE satellite): for any
//! arrival sequence and any batch size, an unshed threaded run is
//! byte-identical to `--dispatch-batch 1` — counts, quantiles, and stage
//! anatomy — including across a scripted `FaultPlan` kill. Staging only
//! reorders *wall-clock* work; the virtual-time FIFO recurrence sees the
//! same per-shard arrival order either way.

use l25gc_core::Deployment;
use l25gc_load::{calibrate, Driver, ExecBackend, FaultPlan, LoadConfig, OverloadPolicy};
use l25gc_sim::SimDuration;
use proptest::prelude::*;

/// Unshed Queue-policy config with wide rings: equivalence is exact only
/// when admission control never engages (shed decisions read *wall-clock*
/// ring occupancy, which batching legitimately changes).
fn base(ues: usize, shards: u16, rate: f64, seed: u64) -> LoadConfig {
    LoadConfig::builder()
        .ues(ues)
        .shards(shards)
        .policy(OverloadPolicy::Queue)
        .high_water(1 << 14)
        .ring_capacity(1 << 15)
        .offered_eps(rate)
        .duration(SimDuration::from_millis(600))
        .seed(seed)
        .backend(ExecBackend::Threaded)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (ues, shards, rate, seed, batch) point reproduces batch=1
    /// exactly when unshed.
    #[test]
    fn any_batch_size_matches_batch_one(
        ues in 500usize..1_000,
        shards in 1u16..4,
        rate in 200.0f64..2_000.0,
        seed in any::<u64>(),
        batch in 2usize..256,
    ) {
        let profiles = calibrate(Deployment::L25gc);
        let one = {
            let mut cfg = base(ues, shards, rate, seed);
            cfg.dispatch_batch = 1;
            Driver::new(cfg).unwrap().run(&profiles)
        };
        let b = {
            let mut cfg = base(ues, shards, rate, seed);
            cfg.dispatch_batch = batch;
            Driver::new(cfg).unwrap().run(&profiles)
        };
        prop_assert_eq!(one.shed + one.backpressure, 0, "config must stay unshed");
        prop_assert_eq!(b.shed + b.backpressure, 0);
        prop_assert_eq!(one.offered, b.offered);
        prop_assert_eq!(one.dispatched, b.dispatched);
        prop_assert_eq!(one.infeasible, b.infeasible);
        prop_assert_eq!(one.achieved_eps, b.achieved_eps);
        prop_assert_eq!(b.completed_total, b.dispatched, "loss-free at any batch");
        prop_assert_eq!(one.p50, b.p50);
        prop_assert_eq!(one.p95, b.p95);
        prop_assert_eq!(one.p99, b.p99);
        prop_assert_eq!(one.queue_wait_p99, b.queue_wait_p99);
        prop_assert_eq!(one.service_p99, b.service_p99);
        prop_assert_eq!(one.transit_p99, b.transit_p99);
        prop_assert_eq!(one.active_ues, b.active_ues);
    }

    /// The equivalence holds across a mid-run kill: flush-before-stop
    /// hands the dying primary its whole logged backlog, so the replay
    /// accounting and the disruption span match batch=1 too.
    #[test]
    fn any_batch_size_matches_batch_one_across_a_kill(
        seed in any::<u64>(),
        batch in 2usize..128,
        kill_ms in 100u64..500,
    ) {
        let profiles = calibrate(Deployment::L25gc);
        let run = |batch: usize| {
            let mut cfg = base(800, 2, 1_500.0, seed);
            cfg.dispatch_batch = batch;
            cfg.fault = Some(
                FaultPlan::parse(&format!("kill@{kill_ms}ms:shard=0")).unwrap(),
            );
            Driver::new(cfg).unwrap().run(&profiles)
        };
        let one = run(1);
        let b = run(batch);
        prop_assert_eq!(one.shed + one.backpressure + b.shed + b.backpressure, 0);
        prop_assert_eq!(one.dispatched, b.dispatched);
        prop_assert_eq!(one.achieved_eps, b.achieved_eps);
        prop_assert_eq!(b.completed_total, b.dispatched, "loss-free across the kill");
        prop_assert_eq!(one.p50, b.p50);
        prop_assert_eq!(one.p99, b.p99);
        let (od, bd) = (one.disruption.unwrap(), b.disruption.unwrap());
        prop_assert_eq!(od.replayed, bd.replayed, "replay counts agree");
        prop_assert_eq!(od.completions_lost, bd.completions_lost);
        prop_assert_eq!(od.disruption_ms, bd.disruption_ms, "measured spans agree");
    }
}
