//! The fleet model: millions of UEs in compact per-UE records.
//!
//! A UE that exists only to generate load does not need the full
//! `AmfUeCtx`/`SmfSession` state — it needs its lifecycle state, its
//! tunnel identity once a session exists, and which worker shard owns it.
//! [`UeRecord`] packs that, plus the UE's slot in its state set, into 16
//! bytes — everything a transition reads or writes about one UE sits on
//! one cache line. With the 4-byte state-set entry that is 20 bytes per
//! UE: a 10M-UE fleet is ~200 MB in two allocations.
//!
//! Event feasibility (a registration needs a deregistered UE, a paging
//! needs an idle one) is answered by per-state index sets with O(1)
//! sampling and O(1) transition (swap-remove), the standard trick for
//! uniform sampling from a mutating population.

use l25gc_core::UeId;
use l25gc_sim::SimRng;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Lifecycle state of one fleet UE (the load-relevant projection of the
/// TS 23.502 state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum UeState {
    /// Not attached; eligible for registration.
    Deregistered = 0,
    /// Registered, no PDU session; eligible for session establishment
    /// and deregistration.
    Registered = 1,
    /// Registered with an active session; eligible for handover, idle
    /// transition, and deregistration.
    SessionActive = 2,
    /// CM-IDLE with a session anchored at the UPF; eligible for paging.
    Idle = 3,
}

/// All lifecycle states, in discriminant order.
pub const UE_STATES: [UeState; 4] = [
    UeState::Deregistered,
    UeState::Registered,
    UeState::SessionActive,
    UeState::Idle,
];

/// One UE's compact record: 16 bytes.
#[derive(Debug, Clone, Copy)]
pub struct UeRecord {
    /// Current lifecycle state (discriminant of [`UeState`]).
    pub state: u8,
    /// Owning worker shard.
    pub shard: u16,
    /// Uplink TEID while a session exists, else 0.
    pub teid: u32,
    /// UE IPv4 address (as u32) while a session exists, else 0.
    pub ip: u32,
    /// This UE's position inside its state's index set.
    pos: u32,
}

/// SUPIs start here; UE index `i` has SUPI `SUPI_BASE + i` (the testbed
/// convention `100 + ue`).
pub const SUPI_BASE: u64 = 100;

/// Deterministic shard assignment by SUPI — the same SipHash-with-default
/// -keys scheme `l25gc_core::ShardedMap` uses, so a load shard's UEs land
/// in a stable core table shard across runs.
pub fn shard_for_supi(supi: u64, shards: u16) -> u16 {
    let mut h = DefaultHasher::new();
    supi.hash(&mut h);
    (h.finish() % u64::from(shards.max(1))) as u16
}

/// The whole fleet.
pub struct Fleet {
    recs: Vec<UeRecord>,
    /// UE indices currently in each state; UE `i` sits at
    /// `by_state[recs[i].state][recs[i].pos]`.
    by_state: [Vec<u32>; 4],
    shards: u16,
    next_teid: u32,
}

impl Fleet {
    /// A fleet of `n` UEs, all deregistered, hashed across `shards`.
    pub fn new(n: usize, shards: u16) -> Fleet {
        assert!(n <= u32::MAX as usize, "fleet indexes UEs with u32");
        let shards = shards.max(1);
        let mut recs = Vec::with_capacity(n);
        let mut dereg = Vec::with_capacity(n);
        for i in 0..n {
            recs.push(UeRecord {
                state: UeState::Deregistered as u8,
                shard: shard_for_supi(SUPI_BASE + i as u64, shards),
                teid: 0,
                ip: 0,
                pos: i as u32,
            });
            dereg.push(i as u32);
        }
        Fleet {
            recs,
            by_state: [dereg, Vec::new(), Vec::new(), Vec::new()],
            shards,
            next_teid: 0,
        }
    }

    /// Fleet size.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when the fleet has no UEs.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Worker shard count this fleet is partitioned over.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The SUPI of UE index `ue`.
    pub fn supi(&self, ue: u32) -> u64 {
        SUPI_BASE + u64::from(ue)
    }

    /// The worker shard owning UE `ue`.
    pub fn shard_of(&self, ue: u32) -> u16 {
        self.recs[ue as usize].shard
    }

    /// The UE's current lifecycle state.
    pub fn state(&self, ue: u32) -> UeState {
        UE_STATES[self.recs[ue as usize].state as usize]
    }

    /// The UE's record.
    pub fn record(&self, ue: u32) -> &UeRecord {
        &self.recs[ue as usize]
    }

    /// UEs currently in `state`.
    pub fn count(&self, state: UeState) -> usize {
        self.by_state[state as usize].len()
    }

    /// UEs that are attached in any form (the "active UEs" gauge).
    pub fn active(&self) -> usize {
        self.len() - self.count(UeState::Deregistered)
    }

    /// Moves `ue` to `state`, maintaining the per-state index sets in
    /// O(1) (swap-remove from the old set, push to the new).
    pub fn set_state(&mut self, ue: u32, state: UeState) {
        let r = self.recs[ue as usize];
        let (old, new) = (r.state as usize, state as usize);
        if old == new {
            return;
        }
        let p = r.pos as usize;
        let set = &mut self.by_state[old];
        set.swap_remove(p);
        if let Some(&moved) = set.get(p) {
            self.recs[moved as usize].pos = p as u32;
        }
        let r = &mut self.recs[ue as usize];
        r.pos = self.by_state[new].len() as u32;
        r.state = state as u8;
        if state == UeState::Deregistered {
            r.teid = 0;
            r.ip = 0;
        }
        self.by_state[new].push(ue);
    }

    /// The session identity (TEID, UE IP) the `n`-th established session
    /// gives `ue`.
    fn session_identity(n: u32, ue: u32) -> (u32, u32) {
        // 10.60.0.0/14-style pool, as `l25gc_core::ue_ip_for` does.
        (0x100 + n, (10 << 24) | (60 << 16) | ue)
    }

    /// Allocates the session identity (TEID + UE IP) when a PDU session
    /// is established.
    pub fn establish_session(&mut self, ue: u32) {
        self.next_teid += 1;
        let r = &mut self.recs[ue as usize];
        (r.teid, r.ip) = Fleet::session_identity(self.next_teid, ue);
        self.set_state(ue, UeState::SessionActive);
    }

    /// Samples a uniformly random UE in `state`, or `None` if the state
    /// set is empty (the caller counts an infeasible arrival).
    pub fn sample_in_state(&self, rng: &mut SimRng, state: UeState) -> Option<u32> {
        let set = &self.by_state[state as usize];
        if set.is_empty() {
            return None;
        }
        Some(set[rng.index(set.len())])
    }

    /// Warm-starts the fleet so every arrival kind finds eligible UEs at
    /// t = 0: `fractions` of the fleet land in Registered, SessionActive,
    /// and Idle respectively (the rest stay Deregistered). Deterministic
    /// given `rng`.
    ///
    /// The result is what sampling a deregistered UE and applying its
    /// transition one UE at a time gives — same RNG draws, same sets,
    /// same records — built in bulk: every draw comes out of the
    /// deregistered set at the drawn index, so the draws touch that set
    /// and the target sets only, and the records are rewritten afterwards
    /// in one pass per set.
    pub fn warm_start(&mut self, rng: &mut SimRng, registered: f64, session: f64, idle: f64) {
        debug_assert!(registered + session + idle <= 1.0 + 1e-9);
        let n = self.len() as f64;
        let targets = [
            (UeState::Registered, (n * registered) as usize),
            (UeState::SessionActive, (n * session) as usize),
            (UeState::Idle, (n * idle) as usize),
        ];
        let [dereg, sets @ ..] = &mut self.by_state;
        for (state, want) in targets {
            let set = &mut sets[state as usize - 1];
            let first = set.len();
            // A draw that finds the deregistered set empty is skipped
            // without consuming the RNG, so the rest would be too.
            for _ in 0..want.min(dereg.len()) {
                set.push(dereg.swap_remove(rng.index(dereg.len())));
            }
            for (p, &ue) in set.iter().enumerate().skip(first) {
                let r = &mut self.recs[ue as usize];
                r.state = state as u8;
                r.pos = p as u32;
                if state != UeState::Registered {
                    self.next_teid += 1;
                    (r.teid, r.ip) = Fleet::session_identity(self.next_teid, ue);
                }
            }
        }
        for (p, &ue) in dereg.iter().enumerate() {
            self.recs[ue as usize].pos = p as u32;
        }
    }

    /// The UE id (as used by `l25gc-core`) of fleet index `ue`.
    pub fn ue_id(&self, ue: u32) -> UeId {
        1 + UeId::from(ue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_is_compact() {
        assert_eq!(std::mem::size_of::<UeRecord>(), 16);
    }

    /// The warm start as one sampled transition at a time — the
    /// definition the bulk [`Fleet::warm_start`] must reproduce.
    fn warm_start_stepwise(f: &mut Fleet, rng: &mut SimRng, reg: f64, sess: f64, idle: f64) {
        let n = f.len() as f64;
        for _ in 0..(n * reg) as usize {
            if let Some(ue) = f.sample_in_state(rng, UeState::Deregistered) {
                f.set_state(ue, UeState::Registered);
            }
        }
        for _ in 0..(n * sess) as usize {
            if let Some(ue) = f.sample_in_state(rng, UeState::Deregistered) {
                f.establish_session(ue);
            }
        }
        for _ in 0..(n * idle) as usize {
            if let Some(ue) = f.sample_in_state(rng, UeState::Deregistered) {
                f.establish_session(ue);
                f.set_state(ue, UeState::Idle);
            }
        }
    }

    /// A fleet of `n` after `steps` random lifecycle transitions.
    fn mutated(n: usize, seed: u64, steps: usize) -> Fleet {
        let mut f = Fleet::new(n, 4);
        let mut rng = SimRng::new(seed);
        for _ in 0..steps {
            let from = UE_STATES[rng.index(4)];
            if let Some(ue) = f.sample_in_state(&mut rng, from) {
                match UE_STATES[rng.index(4)] {
                    UeState::SessionActive => f.establish_session(ue),
                    to => f.set_state(ue, to),
                }
            }
        }
        f
    }

    /// Every record, field by field.
    fn fields(f: &Fleet) -> Vec<(u8, u16, u32, u32, u32)> {
        let all = f.recs.iter();
        all.map(|r| (r.state, r.shard, r.teid, r.ip, r.pos))
            .collect()
    }

    proptest! {
        #[test]
        fn bulk_warm_start_is_the_stepwise_one(
            n in prop_oneof![Just(0usize), Just(1), Just(7), 0usize..400],
            fractions in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            seed in any::<u64>(),
            // 0 = a fresh fleet; otherwise one that has lived a little,
            // which can leave fewer deregistered UEs than the fractions ask.
            steps in prop_oneof![Just(0usize), 1usize..600],
        ) {
            // Scale so the fractions sum to at most 1, sometimes exactly.
            let (a, b, c) = fractions;
            let scale = (a + b + c).max(1.0);
            let (a, b, c) = (a / scale, b / scale, c / scale);
            let mut bulk = mutated(n, seed, steps);
            let mut step = mutated(n, seed, steps);
            let mut bulk_rng = SimRng::new(seed ^ 1);
            let mut step_rng = SimRng::new(seed ^ 1);
            // Twice: the second start meets the first one's leftovers.
            for _ in 0..2 {
                bulk.warm_start(&mut bulk_rng, a, b, c);
                warm_start_stepwise(&mut step, &mut step_rng, a, b, c);
                prop_assert_eq!(&bulk.by_state, &step.by_state);
                prop_assert_eq!(fields(&bulk), fields(&step));
                prop_assert_eq!(bulk.next_teid, step.next_teid);
                prop_assert_eq!(bulk_rng.next_u64(), step_rng.next_u64());
            }
        }
    }

    #[test]
    fn state_sets_stay_consistent_under_transitions() {
        let mut f = Fleet::new(1000, 4);
        let mut rng = SimRng::new(1);
        assert_eq!(f.count(UeState::Deregistered), 1000);
        f.warm_start(&mut rng, 0.2, 0.3, 0.2);
        assert_eq!(f.count(UeState::Registered), 200);
        assert_eq!(f.count(UeState::SessionActive), 300);
        assert_eq!(f.count(UeState::Idle), 200);
        assert_eq!(f.count(UeState::Deregistered), 300);
        assert_eq!(f.active(), 700);
        // Every UE's pos backpointer must be exact.
        for st in UE_STATES {
            for (p, &ue) in f.by_state[st as usize].iter().enumerate() {
                assert_eq!(f.record(ue).pos as usize, p);
                assert_eq!(f.state(ue), st);
            }
        }
        // Sessions carry identity; deregistering clears it.
        let ue = f.sample_in_state(&mut rng, UeState::SessionActive).unwrap();
        assert_ne!(f.record(ue).teid, 0);
        assert_ne!(f.record(ue).ip, 0);
        f.set_state(ue, UeState::Deregistered);
        assert_eq!(f.record(ue).teid, 0);
    }

    #[test]
    fn shard_assignment_is_stable_and_covers_all_shards() {
        let f = Fleet::new(100_000, 8);
        let g = Fleet::new(100_000, 8);
        let mut seen = [0usize; 8];
        for ue in 0..100_000u32 {
            assert_eq!(f.shard_of(ue), g.shard_of(ue));
            seen[f.shard_of(ue) as usize] += 1;
        }
        for (i, n) in seen.iter().enumerate() {
            assert!(*n > 5_000, "shard {i} starved: {n}");
        }
    }

    #[test]
    fn sampling_only_returns_matching_state() {
        let mut f = Fleet::new(100, 2);
        let mut rng = SimRng::new(7);
        f.warm_start(&mut rng, 0.5, 0.0, 0.0);
        for _ in 0..200 {
            let ue = f.sample_in_state(&mut rng, UeState::Registered).unwrap();
            assert_eq!(f.state(ue), UeState::Registered);
        }
        assert!(f.sample_in_state(&mut rng, UeState::Idle).is_none());
    }
}
