//! The NF manager: service registry and canary routing.
//!
//! In ONVM the manager owns the shared memory pool and pumps the Rx/Tx
//! rings. Deployment-wise it also implements L²5GC's canary rollout
//! (§4): two instances of one service id, split by a configured traffic
//! percentage. Failure detection and the replica lifecycle (§3.5) are
//! the failover harness's, `l25gc_testbed::World`'s `Resilience`.

use std::collections::HashMap;

/// A service identity (e.g. "SMF" = 3). Stable across versions/replicas.
pub type ServiceId = u32;
/// One running process of a service.
pub type InstanceId = u32;

/// The NF manager's control-plane state.
#[derive(Debug, Default)]
pub struct Manager {
    /// Instance → canary weight: its share of new traffic, relative to
    /// the other instances of the same service.
    weights: HashMap<InstanceId, u32>,
    /// Each service's instances, in registration order.
    by_service: HashMap<ServiceId, Vec<InstanceId>>,
}

impl Manager {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an instance with weight 100. Panics on duplicate
    /// instance id.
    pub fn register(&mut self, service: ServiceId, instance: InstanceId) {
        assert!(
            self.weights.insert(instance, 100).is_none(),
            "duplicate instance id {instance}"
        );
        self.by_service.entry(service).or_default().push(instance);
    }

    /// Sets an instance's canary weight (share of new traffic).
    pub fn set_weight(&mut self, instance: InstanceId, weight: u32) {
        *self.weights.get_mut(&instance).expect("known instance") = weight;
    }

    /// Routes a new flow/transaction to an instance of `service`,
    /// splitting by canary weights. `roll` ∈ [0,1) supplies the
    /// randomness (drawn from the caller's deterministic RNG).
    pub fn route(&self, service: ServiceId, roll: f64) -> Option<InstanceId> {
        let ids = self.by_service.get(&service)?;
        let weight = |id: &InstanceId| u64::from(self.weights[id]);
        let total: u64 = ids.iter().map(weight).sum();
        if total == 0 {
            return None;
        }
        let mut point = (roll.clamp(0.0, 0.999_999) * total as f64) as u64;
        for id in ids {
            let w = weight(id);
            if point < w {
                return Some(*id);
            }
            point -= w;
        }
        ids.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_split_follows_weights() {
        let mut m = Manager::new();
        m.register(1, 10); // old version
        m.register(1, 11); // canary
        m.set_weight(10, 90);
        m.set_weight(11, 10);
        let hits_canary = (0..1000)
            .filter(|i| m.route(1, *i as f64 / 1000.0) == Some(11))
            .count();
        assert!(
            (80..120).contains(&hits_canary),
            "canary got {hits_canary}/1000"
        );
    }

    #[test]
    fn routing_prefers_active_instances() {
        let mut m = Manager::new();
        m.register(1, 10);
        m.register(1, 11);
        m.set_weight(11, 0); // drained
        for roll in [0.0, 0.5, 0.99] {
            assert_eq!(
                m.route(1, roll),
                Some(10),
                "a drained instance must not receive traffic"
            );
        }
        m.set_weight(10, 0);
        assert_eq!(m.route(1, 0.5), None, "no active instance");
        assert_eq!(m.route(2, 0.5), None, "unknown service");
    }

    #[test]
    #[should_panic(expected = "duplicate instance")]
    fn duplicate_registration_panics() {
        let mut m = Manager::new();
        m.register(1, 10);
        m.register(2, 10);
    }
}
