//! Property tests for the unified Driver API (ISSUE satellites): the
//! builder rejects every invalid parameter combination with the right
//! typed error and accepts every valid one, and the accounting identity
//! `offered == dispatched + shed + backpressure + infeasible` holds for
//! arbitrary valid configs on the analytic backend.

use l25gc_core::Deployment;
use l25gc_load::{calibrate, Driver, ExecBackend, LoadConfig, LoadError};
use l25gc_sim::SimDuration;
use proptest::prelude::*;

proptest! {
    /// Every invalid field is caught by exactly the matching typed error
    /// (validation checks fields in declaration order, so the first bad
    /// field named here is the one reported).
    #[test]
    fn builder_rejects_each_invalid_field(
        ues in 1usize..1_000_000,
        shards in 1u16..64,
        rate in 1.0f64..1e6,
        burst in 1.0f64..64.0,
        secs in 1u64..60,
    ) {
        let good = || LoadConfig::builder()
            .ues(ues)
            .shards(shards)
            .offered_eps(rate)
            .burst(burst)
            .duration(SimDuration::from_secs(secs));
        prop_assert!(good().build().is_ok());
        prop_assert_eq!(good().ues(0).build().unwrap_err(), LoadError::ZeroUes);
        prop_assert_eq!(good().shards(0).build().unwrap_err(), LoadError::ZeroShards);
        prop_assert_eq!(
            good().high_water(0).build().unwrap_err(),
            LoadError::ZeroHighWater
        );
        prop_assert_eq!(
            good().ring_capacity(0).build().unwrap_err(),
            LoadError::ZeroRingCapacity
        );
        prop_assert_eq!(
            good().offered_eps(-rate).build().unwrap_err(),
            LoadError::NonPositiveRate(-rate)
        );
        // NaN payloads don't compare equal, so match on the variant.
        prop_assert!(matches!(
            good().offered_eps(f64::NAN).build().unwrap_err(),
            LoadError::NonPositiveRate(_)
        ));
        prop_assert_eq!(
            good().burst(0.25).build().unwrap_err(),
            LoadError::BadBurst(0.25)
        );
        prop_assert_eq!(
            good().duration(SimDuration::ZERO).build().unwrap_err(),
            LoadError::ZeroDuration
        );
        prop_assert_eq!(
            good()
                .closed_loop(0, SimDuration::from_millis(1))
                .build()
                .unwrap_err(),
            LoadError::ZeroWorkers
        );
        // Closed loop doesn't use the open-loop rate, so a bad rate is
        // accepted there — the validation is mode-aware.
        prop_assert!(good()
            .offered_eps(-1.0)
            .closed_loop(4, SimDuration::from_millis(1))
            .build()
            .is_ok());
    }

    /// Arrival accounting closes for arbitrary valid open-loop configs:
    /// nothing is double-counted, nothing vanishes.
    #[test]
    fn analytic_accounting_identity_holds(
        ues in 100usize..20_000,
        shards in 1u16..8,
        rate in 10.0f64..5_000.0,
        burst in 1.0f64..8.0,
        seed in any::<u64>(),
    ) {
        let profiles = calibrate(Deployment::L25gc);
        let cfg = LoadConfig::builder()
            .ues(ues)
            .shards(shards)
            .offered_eps(rate)
            .burst(burst)
            .duration(SimDuration::from_secs(1))
            .seed(seed)
            .backend(ExecBackend::Analytic)
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        prop_assert_eq!(
            r.offered,
            r.dispatched + r.shed + r.backpressure + r.infeasible
        );
        prop_assert_eq!(r.completed_total, r.dispatched);
        // Over the 1 s horizon the rate is the in-horizon count.
        prop_assert!(r.achieved_eps <= r.dispatched as f64);
    }
}

/// Threaded loss-freedom across seeds: every submission crossing the real
/// rings is completed and drained — `completed_total == dispatched` — and
/// the typed drop counters absorb everything else. A plain test (not
/// proptest) because each case spins real OS threads.
#[test]
fn threaded_loss_freedom_across_seeds() {
    let profiles = calibrate(Deployment::L25gc);
    for seed in [0u64, 1, 7, 42, 1337] {
        let cfg = LoadConfig::builder()
            .ues(4_000)
            .shards(4)
            .high_water(8)
            .ring_capacity(16)
            .offered_eps(20_000.0)
            .duration(SimDuration::from_millis(250))
            .seed(seed)
            .backend(ExecBackend::Threaded)
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        assert_eq!(r.completed_total, r.dispatched, "seed {seed}: lost events");
        assert_eq!(
            r.offered,
            r.dispatched + r.shed + r.backpressure + r.infeasible,
            "seed {seed}: accounting leak"
        );
        assert!(r.shed > 0, "seed {seed}: overload config must shed");
    }
}
