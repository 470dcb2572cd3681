//! Replication: a frozen replica synchronized by periodic checkpoints
//! (§3.5.1).
//!
//! The replica is generic over the replicated state `S: Clone` — in the
//! testbed `S` is the whole `CoreNetwork`. A checkpoint is a full
//! `clone()` of that state taken at a counter watermark, not a delta; on
//! failover the replica state is the last checkpoint, and the packet
//! logger replays everything logged at or after that watermark to
//! reconstruct the lost tail.

use l25gc_sim::{SimDuration, SimTime};

/// Replica lifecycle, mirroring the cgroup-freezer states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Checkpointed and frozen: consumes no CPU.
    Frozen,
    /// Woken by the manager after a failover; now the active copy.
    Active,
}

/// A replica of state `S` synchronized by checkpoints.
#[derive(Debug)]
pub struct Replica<S: Clone> {
    /// Last checkpointed state.
    snapshot: S,
    /// Counter watermark: all inputs with counter `< synced_upto` are
    /// reflected in `snapshot`.
    synced_upto: u64,
    /// Lifecycle.
    pub state: ReplicaState,
    /// Checkpoints taken.
    pub checkpoints: u64,
}

impl<S: Clone> Replica<S> {
    /// A frozen replica initialized from the primary's state. No replica
    /// reads the clock; the instant is ignored.
    pub fn new(initial: S, _now: SimTime) -> Replica<S> {
        Replica {
            snapshot: initial,
            synced_upto: 0,
            state: ReplicaState::Frozen,
            checkpoints: 0,
        }
    }

    /// Takes a checkpoint: clone the primary state and advance the
    /// watermark to `counter` (typically `logger.next_counter()`).
    ///
    /// # Panics
    /// Panics if the replica is already active (checkpointing a woken
    /// replica would overwrite live state).
    pub fn checkpoint(&mut self, primary: &S, counter: u64) {
        assert_eq!(
            self.state,
            ReplicaState::Frozen,
            "cannot checkpoint an active replica"
        );
        assert!(counter >= self.synced_upto, "watermark must not regress");
        self.snapshot = primary.clone();
        self.synced_upto = counter;
        self.checkpoints += 1;
    }

    /// The watermark: inputs below this counter are already reflected.
    pub fn synced_upto(&self) -> u64 {
        self.synced_upto
    }

    /// Wakes the replica, taking its state for live use. Inputs with
    /// counters `>= synced_upto()` must be replayed into the returned
    /// state by the caller.
    pub fn unfreeze(&mut self) -> S
    where
        S: Clone,
    {
        assert_eq!(self.state, ReplicaState::Frozen, "replica already active");
        self.state = ReplicaState::Active;
        self.snapshot.clone()
    }
}

/// The periodic checkpoint schedule for the replica.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPolicy {
    /// Interval between checkpoints.
    pub interval: SimDuration,
}

impl CheckpointPolicy {
    /// The paper's configuration: periodic sync (not per-event, unlike
    /// Neutrino — §3.5.1 point 2) every 10 ms.
    pub fn paper() -> CheckpointPolicy {
        CheckpointPolicy {
            interval: SimDuration::from_millis(10),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Toy {
        counter_applied: u64,
        items: Vec<u64>,
    }

    #[test]
    fn checkpoint_then_unfreeze_restores_watermarked_state() {
        let mut primary = Toy {
            counter_applied: 0,
            items: vec![],
        };
        let mut rep = Replica::new(primary.clone(), SimTime::ZERO);

        // Apply inputs 0..5 to the primary, checkpoint at watermark 5.
        for c in 0..5 {
            primary.counter_applied = c + 1;
            primary.items.push(c);
        }
        rep.checkpoint(&primary, 5);
        assert_eq!(rep.synced_upto(), 5);
        assert_eq!(rep.checkpoints, 1);

        // More inputs (5..8) arrive after the checkpoint; then the
        // primary dies. The replica wakes with the watermarked state.
        for c in 5..8 {
            primary.counter_applied = c + 1;
            primary.items.push(c);
        }
        let woken = rep.unfreeze();
        assert_eq!(woken.counter_applied, 5, "tail not yet applied");
        assert_eq!(rep.state, ReplicaState::Active);
        // Replaying 5..8 reconstructs the primary's final state.
        let mut woken = woken;
        for c in rep.synced_upto()..8 {
            woken.counter_applied = c + 1;
            woken.items.push(c);
        }
        assert_eq!(woken, primary);
    }

    #[test]
    #[should_panic(expected = "cannot checkpoint an active replica")]
    fn checkpoint_after_unfreeze_panics() {
        let mut rep = Replica::new(
            Toy {
                counter_applied: 0,
                items: vec![],
            },
            SimTime::ZERO,
        );
        rep.unfreeze();
        rep.checkpoint(
            &Toy {
                counter_applied: 9,
                items: vec![],
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "replica already active")]
    fn double_unfreeze_panics() {
        let mut rep = Replica::new(
            Toy {
                counter_applied: 0,
                items: vec![],
            },
            SimTime::ZERO,
        );
        rep.unfreeze();
        rep.unfreeze();
    }

    #[test]
    fn policy_schedules_periodically() {
        // §3.5.1: the replica syncs every 10 ms, not per event.
        assert_eq!(
            CheckpointPolicy::paper().interval,
            SimDuration::from_millis(10)
        );
    }
}
