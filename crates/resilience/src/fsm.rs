//! The failover protocol as a **pure state machine** — no clocks, no
//! I/O, no threads.
//!
//! Everything the §3.5 failover path does — log, forward, detect,
//! reroute, wake the replica, replay — is expressed here as typed
//! transitions over an in-flight message multiset: [`FaultEvent`] in,
//! [`FsmAction`]s out, with the whole protocol state carried in
//! [`FsmState`] plus the log/committed bookkeeping. Every interleaving of
//! detect / reroute / replica-wake / ingress is property-tested (see
//! `tests/fsm_prop.rs`): no in-flight message is lost, none is delivered
//! twice, and external synchrony holds — nothing is released between
//! failure detection and replay completion.
//!
//! Replay is modelled as atomic (one transition emits the whole
//! counter-ordered burst): the paper overlaps replay with rerouting, and
//! in virtual time the burst lands at the instant both the reroute and
//! the replica wake-up have completed.
//!
//! This machine is a specification, not the running path. The adapter
//! that runs is `l25gc_testbed::World`'s `Resilience` harness, which
//! drives [`crate::PacketLogger`], [`crate::Replica`] and
//! [`crate::FailoverTimeline`] directly and never steps this machine.
//! The two differ in two places:
//!
//! - **Suppression.** On replay `World` drops the first *N* external
//!   outputs, where *N* counts the outputs released since the last
//!   checkpoint. This machine suppresses by ingress id: an entry whose id
//!   was committed replays as [`FsmAction::ReplaySuppressed`].
//! - **The outage window.** `World` stops delivering to the core at the
//!   failure instant and only logs. This machine keeps forwarding until
//!   the failure is confirmed ([`FsmState::Failed`]).

use std::collections::{BTreeMap, BTreeSet};

/// Protocol-level input events, clock-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A message with caller-chosen id enters the LB toward the unit.
    Ingress(u64),
    /// The unit released the externally visible output for an ingress id
    /// (the output-commit gate passed: the local replica is synced).
    Commit(u64),
    /// The replica acknowledged a checkpoint covering every counter
    /// below the watermark; the log prefix can be released.
    CheckpointAck(u64),
    /// A liveness probe answered in time.
    HeartbeatOk,
    /// A liveness probe deadline passed unanswered.
    HeartbeatMiss,
    /// The LB finished repointing the UE session routes.
    RerouteDone,
    /// The frozen replica has been unfrozen and holds the checkpointed
    /// state.
    ReplicaAwake,
}

/// Typed outputs: what the adapters must now do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsmAction {
    /// Stamp and store the message in the packet log.
    LogPacket {
        /// The counter assigned (monotone across the machine's life).
        counter: u64,
        /// The ingress id.
        id: u64,
    },
    /// Pass the message on to the (live) unit.
    Forward {
        /// The ingress id.
        id: u64,
    },
    /// Drop all log entries with counters below the watermark.
    ReleaseLog {
        /// Exclusive upper bound of released counters.
        upto: u64,
    },
    /// Failure confirmed: start repointing routes at the standby.
    StartReroute,
    /// Failure confirmed: unfreeze the replica.
    WakeReplica,
    /// Re-deliver a logged, not-yet-released message to the replica;
    /// its output becomes externally visible now.
    ReplayPacket {
        /// The original log counter (bursts are strictly increasing).
        counter: u64,
        /// The ingress id.
        id: u64,
    },
    /// Re-execute a logged message whose output was already released
    /// pre-failure; external synchrony suppresses the duplicate output.
    ReplaySuppressed {
        /// The original log counter.
        counter: u64,
        /// The ingress id.
        id: u64,
    },
    /// Replay done: new ingress flows to the standby again.
    ResumeForwarding,
}

/// Where the protocol currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsmState {
    /// Unit healthy; ingress is logged and forwarded.
    Active,
    /// One or more probes missed, failure not yet confirmed.
    Detecting {
        /// Consecutive misses so far (< the multiplier).
        misses: u32,
    },
    /// Failure confirmed; ingress is logged and buffered. Replay fires
    /// when both flags are set.
    Failed {
        /// The LB finished rerouting.
        rerouted: bool,
        /// The replica is awake.
        replica_awake: bool,
    },
    /// Replay complete; the standby serves, logging continues.
    Recovered,
}

/// The pure failover state machine. See the module docs.
#[derive(Debug, Clone)]
pub struct FailoverFsm {
    state: FsmState,
    /// Consecutive misses that confirm a failure (S-BFD multiplier).
    multiplier: u32,
    next_counter: u64,
    /// Counters below this are reflected in the replica checkpoint.
    synced_upto: u64,
    /// In-flight log: counter → ingress id.
    log: BTreeMap<u64, u64>,
    /// Ids whose outputs are externally visible (committed pre-failure
    /// or covered by an acknowledged checkpoint).
    committed: BTreeSet<u64>,
    /// Ids delivered by replay after the failover.
    replayed: BTreeSet<u64>,
}

impl FailoverFsm {
    /// A machine in [`FsmState::Active`] confirming failure after
    /// `multiplier` consecutive probe misses (≥ 1).
    pub fn new(multiplier: u32) -> FailoverFsm {
        FailoverFsm {
            state: FsmState::Active,
            multiplier: multiplier.max(1),
            next_counter: 0,
            synced_upto: 0,
            log: BTreeMap::new(),
            committed: BTreeSet::new(),
            replayed: BTreeSet::new(),
        }
    }

    /// The current protocol state.
    pub fn state(&self) -> FsmState {
        self.state
    }

    /// The next counter a logged message would be stamped with.
    pub fn next_counter(&self) -> u64 {
        self.next_counter
    }

    /// Counters currently held in the in-flight log.
    pub fn in_flight(&self) -> usize {
        self.log.len()
    }

    /// Ids whose outputs are externally visible.
    pub fn committed(&self) -> &BTreeSet<u64> {
        &self.committed
    }

    /// Ids delivered by post-failover replay.
    pub fn replayed(&self) -> &BTreeSet<u64> {
        &self.replayed
    }

    /// Applies one event and returns the actions the adapters must run,
    /// in order. The machine is total: an event that is meaningless in
    /// the current state (a heartbeat after recovery, a commit for an
    /// unknown id) is ignored and returns no actions.
    pub fn step(&mut self, ev: FaultEvent) -> Vec<FsmAction> {
        match ev {
            FaultEvent::Ingress(id) => self.on_ingress(id),
            FaultEvent::Commit(id) => self.on_commit(id),
            FaultEvent::CheckpointAck(upto) => self.on_checkpoint(upto),
            FaultEvent::HeartbeatOk => {
                if matches!(self.state, FsmState::Detecting { .. }) {
                    self.state = FsmState::Active;
                }
                Vec::new()
            }
            FaultEvent::HeartbeatMiss => self.on_miss(),
            FaultEvent::RerouteDone => self.on_failover_part(true, false),
            FaultEvent::ReplicaAwake => self.on_failover_part(false, true),
        }
    }

    fn on_ingress(&mut self, id: u64) -> Vec<FsmAction> {
        let counter = self.next_counter;
        self.next_counter += 1;
        self.log.insert(counter, id);
        let mut acts = vec![FsmAction::LogPacket { counter, id }];
        // External synchrony: nothing is forwarded between failure
        // confirmation and replay completion — buffered in the log.
        if !matches!(self.state, FsmState::Failed { .. }) {
            acts.push(FsmAction::Forward { id });
        }
        acts
    }

    fn on_commit(&mut self, id: u64) -> Vec<FsmAction> {
        // A dead unit releases nothing; ignore stale commits.
        if matches!(self.state, FsmState::Failed { .. }) {
            return Vec::new();
        }
        if self.log.values().any(|&v| v == id) {
            self.committed.insert(id);
        }
        Vec::new()
    }

    fn on_checkpoint(&mut self, upto: u64) -> Vec<FsmAction> {
        // Watermarks never regress, and a dead primary cannot sync.
        if upto <= self.synced_upto
            || upto > self.next_counter
            || matches!(self.state, FsmState::Failed { .. })
        {
            return Vec::new();
        }
        self.synced_upto = upto;
        // Entries below the watermark are reflected in the replica;
        // their outputs passed the commit gate before the state synced.
        let keep = self.log.split_off(&upto);
        for id in std::mem::replace(&mut self.log, keep).into_values() {
            self.committed.insert(id);
        }
        vec![FsmAction::ReleaseLog { upto }]
    }

    fn on_miss(&mut self) -> Vec<FsmAction> {
        let misses = match self.state {
            FsmState::Active => 1,
            FsmState::Detecting { misses } => misses + 1,
            // Already failed (or recovered onto the standby): no-op.
            FsmState::Failed { .. } | FsmState::Recovered => return Vec::new(),
        };
        if misses >= self.multiplier {
            self.state = FsmState::Failed {
                rerouted: false,
                replica_awake: false,
            };
            vec![FsmAction::StartReroute, FsmAction::WakeReplica]
        } else {
            self.state = FsmState::Detecting { misses };
            Vec::new()
        }
    }

    fn on_failover_part(&mut self, reroute: bool, awake: bool) -> Vec<FsmAction> {
        let FsmState::Failed {
            rerouted,
            replica_awake,
        } = self.state
        else {
            return Vec::new();
        };
        let rerouted = rerouted || reroute;
        let replica_awake = replica_awake || awake;
        if !(rerouted && replica_awake) {
            self.state = FsmState::Failed {
                rerouted,
                replica_awake,
            };
            return Vec::new();
        }
        // Both halves done: replay the whole remaining log in counter
        // order, then resume forwarding.
        let mut acts = Vec::with_capacity(self.log.len() + 1);
        for (counter, id) in std::mem::take(&mut self.log) {
            if self.committed.contains(&id) {
                acts.push(FsmAction::ReplaySuppressed { counter, id });
            } else {
                self.replayed.insert(id);
                acts.push(FsmAction::ReplayPacket { counter, id });
            }
        }
        acts.push(FsmAction::ResumeForwarding);
        self.state = FsmState::Recovered;
        acts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn confirm_failure(fsm: &mut FailoverFsm) {
        for _ in 0..3 {
            fsm.step(FaultEvent::HeartbeatMiss);
        }
        assert!(matches!(fsm.state(), FsmState::Failed { .. }));
    }

    #[test]
    fn healthy_path_logs_and_forwards() {
        let mut fsm = FailoverFsm::new(3);
        let acts = fsm.step(FaultEvent::Ingress(42));
        assert_eq!(
            acts,
            vec![
                FsmAction::LogPacket { counter: 0, id: 42 },
                FsmAction::Forward { id: 42 },
            ]
        );
        assert_eq!(fsm.in_flight(), 1);
    }

    #[test]
    fn checkpoint_releases_prefix_and_marks_committed() {
        let mut fsm = FailoverFsm::new(3);
        for id in 0..5 {
            fsm.step(FaultEvent::Ingress(id));
        }
        let acts = fsm.step(FaultEvent::CheckpointAck(3));
        assert_eq!(acts, vec![FsmAction::ReleaseLog { upto: 3 }]);
        assert_eq!(fsm.in_flight(), 2);
        assert!(fsm.committed().contains(&0) && fsm.committed().contains(&2));
    }

    #[test]
    fn detection_needs_the_full_multiplier_and_resets_on_ok() {
        let mut fsm = FailoverFsm::new(3);
        fsm.step(FaultEvent::HeartbeatMiss);
        fsm.step(FaultEvent::HeartbeatMiss);
        assert_eq!(fsm.state(), FsmState::Detecting { misses: 2 });
        fsm.step(FaultEvent::HeartbeatOk);
        assert_eq!(fsm.state(), FsmState::Active);
        fsm.step(FaultEvent::HeartbeatMiss);
        fsm.step(FaultEvent::HeartbeatMiss);
        let acts = fsm.step(FaultEvent::HeartbeatMiss);
        assert_eq!(acts, vec![FsmAction::StartReroute, FsmAction::WakeReplica]);
    }

    #[test]
    fn ingress_while_failed_is_buffered_not_forwarded() {
        let mut fsm = FailoverFsm::new(1);
        confirm_failure(&mut fsm);
        let acts = fsm.step(FaultEvent::Ingress(7));
        assert_eq!(acts, vec![FsmAction::LogPacket { counter: 0, id: 7 }]);
    }

    #[test]
    fn replay_waits_for_both_reroute_and_replica() {
        let mut fsm = FailoverFsm::new(1);
        fsm.step(FaultEvent::Ingress(1));
        fsm.step(FaultEvent::Ingress(2));
        confirm_failure(&mut fsm);
        assert!(fsm.step(FaultEvent::RerouteDone).is_empty());
        let acts = fsm.step(FaultEvent::ReplicaAwake);
        assert_eq!(
            acts,
            vec![
                FsmAction::ReplayPacket { counter: 0, id: 1 },
                FsmAction::ReplayPacket { counter: 1, id: 2 },
                FsmAction::ResumeForwarding,
            ]
        );
        assert_eq!(fsm.state(), FsmState::Recovered);
        assert_eq!(fsm.in_flight(), 0);
    }

    #[test]
    fn committed_entries_replay_suppressed() {
        let mut fsm = FailoverFsm::new(1);
        fsm.step(FaultEvent::Ingress(1));
        fsm.step(FaultEvent::Ingress(2));
        fsm.step(FaultEvent::Commit(1));
        confirm_failure(&mut fsm);
        fsm.step(FaultEvent::ReplicaAwake);
        let acts = fsm.step(FaultEvent::RerouteDone);
        assert_eq!(
            acts,
            vec![
                FsmAction::ReplaySuppressed { counter: 0, id: 1 },
                FsmAction::ReplayPacket { counter: 1, id: 2 },
                FsmAction::ResumeForwarding,
            ]
        );
        assert!(fsm.committed().contains(&1));
        assert!(fsm.replayed().contains(&2) && !fsm.replayed().contains(&1));
    }

    #[test]
    fn recovered_machine_forwards_again() {
        let mut fsm = FailoverFsm::new(1);
        confirm_failure(&mut fsm);
        fsm.step(FaultEvent::RerouteDone);
        fsm.step(FaultEvent::ReplicaAwake);
        let acts = fsm.step(FaultEvent::Ingress(9));
        assert!(acts.contains(&FsmAction::Forward { id: 9 }));
    }

    #[test]
    fn stale_events_are_ignored() {
        let mut fsm = FailoverFsm::new(1);
        fsm.step(FaultEvent::Ingress(1));
        confirm_failure(&mut fsm);
        assert!(fsm.step(FaultEvent::Commit(1)).is_empty(), "dead unit");
        assert!(fsm.step(FaultEvent::CheckpointAck(1)).is_empty());
        assert!(fsm.step(FaultEvent::HeartbeatMiss).is_empty());
        fsm.step(FaultEvent::RerouteDone);
        fsm.step(FaultEvent::ReplicaAwake);
        assert!(fsm.step(FaultEvent::RerouteDone).is_empty(), "idempotent");
    }
}
