//! The UPF's shared-memory session tables.
//!
//! §3.2 "Zero cost state update": the UPF-C writes session state into two
//! hash tables living in shared hugepages — keyed by TEID (uplink lookup)
//! and by UE IP (downlink lookup) — and the UPF-U reads them with no state
//! propagation messages. This generic dual-key table is that structure;
//! the 5GC session context is the `V` the core crate supplies.

use std::collections::HashMap;

/// A table addressing each value by either a TEID or a UE IP key.
#[derive(Debug, Clone)]
pub struct DualKeyTable<V> {
    slots: Vec<Option<V>>,
    /// The UE IP bound to each slot, so removal by TEID releases the
    /// downlink key without walking `by_ue_ip`. Kept beside `slots`, not
    /// inside them: the slot stride the lookups walk stays `Option<V>`.
    slot_ue_ip: Vec<u32>,
    free: Vec<usize>,
    by_teid: HashMap<u32, usize>,
    by_ue_ip: HashMap<u32, usize>,
}

impl<V> Default for DualKeyTable<V> {
    fn default() -> Self {
        DualKeyTable {
            slots: Vec::new(),
            slot_ue_ip: Vec::new(),
            free: Vec::new(),
            by_teid: HashMap::new(),
            by_ue_ip: HashMap::new(),
        }
    }
}

impl<V> DualKeyTable<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a session reachable by both keys. Panics if either key is
    /// already bound (TEIDs and UE IPs are allocator-unique by
    /// construction; a collision is a 5GC bug, not an input condition).
    pub fn insert(&mut self, teid: u32, ue_ip: u32, value: V) {
        assert!(
            !self.by_teid.contains_key(&teid),
            "TEID {teid:#x} already bound"
        );
        assert!(
            !self.by_ue_ip.contains_key(&ue_ip),
            "UE IP {ue_ip:#x} already bound"
        );
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(value);
                self.slot_ue_ip[i] = ue_ip;
                i
            }
            None => {
                self.slots.push(Some(value));
                self.slot_ue_ip.push(ue_ip);
                self.slots.len() - 1
            }
        };
        self.by_teid.insert(teid, idx);
        self.by_ue_ip.insert(ue_ip, idx);
    }

    /// Uplink lookup by tunnel id.
    pub fn by_teid(&self, teid: u32) -> Option<&V> {
        self.by_teid
            .get(&teid)
            .and_then(|&i| self.slots[i].as_ref())
    }

    /// Mutable uplink lookup.
    pub fn by_teid_mut(&mut self, teid: u32) -> Option<&mut V> {
        let i = *self.by_teid.get(&teid)?;
        self.slots[i].as_mut()
    }

    /// Downlink lookup by UE IP.
    pub fn by_ue_ip(&self, ue_ip: u32) -> Option<&V> {
        self.by_ue_ip
            .get(&ue_ip)
            .and_then(|&i| self.slots[i].as_ref())
    }

    /// Mutable downlink lookup.
    pub fn by_ue_ip_mut(&mut self, ue_ip: u32) -> Option<&mut V> {
        let i = *self.by_ue_ip.get(&ue_ip)?;
        self.slots[i].as_mut()
    }

    /// Re-points the uplink key of an existing session to a new TEID —
    /// the handover operation (new tunnel toward the target gNB).
    pub fn rebind_teid(&mut self, old: u32, new: u32) -> bool {
        if self.by_teid.contains_key(&new) {
            return false;
        }
        match self.by_teid.remove(&old) {
            Some(idx) => {
                self.by_teid.insert(new, idx);
                true
            }
            None => false,
        }
    }

    /// Removes a session by TEID, releasing both keys.
    pub fn remove_by_teid(&mut self, teid: u32) -> Option<V> {
        let idx = self.by_teid.remove(&teid)?;
        self.by_ue_ip.remove(&self.slot_ue_ip[idx]);
        self.free.push(idx);
        self.slots[idx].take()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.by_teid.len()
    }

    /// True if no sessions exist.
    pub fn is_empty(&self) -> bool {
        self.by_teid.is_empty()
    }

    /// Iterates live sessions.
    pub fn iter(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Iterates live sessions mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random insert / rebind / remove sequences over a small key
        /// space (so slots and keys are reused constantly) agree with a
        /// two-`HashMap` model: both indexes hold exactly `len()` keys and
        /// every key — live, removed or never bound — resolves as the
        /// model says, so a reused slot never answers for its old keys.
        #[test]
        fn random_ops_match_a_two_hashmap_model(
            ops in proptest::collection::vec((0u8..4, 0u32..12, 0u32..12), 1..200),
        ) {
            let mut table = DualKeyTable::new();
            let mut teid_model: HashMap<u32, (u32, usize)> = HashMap::new();
            let mut ip_model: HashMap<u32, usize> = HashMap::new();
            for (serial, (op, a, b)) in ops.into_iter().enumerate() {
                match op {
                    // Inserts are twice as likely as the other two so
                    // the table fills; duplicates are a caller bug and
                    // panic, so the model filters them.
                    0 | 1 => {
                        if !teid_model.contains_key(&a) && !ip_model.contains_key(&b) {
                            table.insert(a, b, serial);
                            teid_model.insert(a, (b, serial));
                            ip_model.insert(b, serial);
                        }
                    }
                    2 => {
                        let expect = teid_model.contains_key(&a) && !teid_model.contains_key(&b);
                        prop_assert_eq!(table.rebind_teid(a, b), expect);
                        if expect {
                            let v = teid_model.remove(&a).expect("checked");
                            teid_model.insert(b, v);
                        }
                    }
                    _ => {
                        let gone = teid_model.remove(&a);
                        if let Some((ip, _)) = gone {
                            ip_model.remove(&ip);
                        }
                        prop_assert_eq!(table.remove_by_teid(a), gone.map(|(_, v)| v));
                    }
                }
                prop_assert_eq!(table.len(), teid_model.len());
                prop_assert_eq!(table.by_teid.len(), table.len());
                prop_assert_eq!(table.by_ue_ip.len(), table.len());
                prop_assert_eq!(table.iter().count(), table.len());
                for key in 0..12 {
                    prop_assert_eq!(table.by_teid(key), teid_model.get(&key).map(|(_, v)| v));
                    prop_assert_eq!(table.by_ue_ip(key), ip_model.get(&key));
                }
            }
        }
    }

    #[test]
    fn both_keys_reach_the_same_session() {
        let mut t = DualKeyTable::new();
        t.insert(0x100, 0x0a3c_0001, "session-1");
        t.insert(0x200, 0x0a3c_0002, "session-2");
        assert_eq!(t.by_teid(0x100), Some(&"session-1"));
        assert_eq!(t.by_ue_ip(0x0a3c_0001), Some(&"session-1"));
        assert_eq!(t.by_teid(0x200), Some(&"session-2"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn mutation_via_one_key_visible_via_other() {
        let mut t = DualKeyTable::new();
        t.insert(1, 10, vec![0u8]);
        t.by_teid_mut(1).unwrap().push(7);
        assert_eq!(t.by_ue_ip(10), Some(&vec![0u8, 7]));
    }

    #[test]
    fn rebind_teid_for_handover() {
        let mut t = DualKeyTable::new();
        t.insert(0x100, 10, "s");
        assert!(t.rebind_teid(0x100, 0x300));
        assert!(t.by_teid(0x100).is_none());
        assert_eq!(t.by_teid(0x300), Some(&"s"));
        assert_eq!(t.by_ue_ip(10), Some(&"s"), "downlink key unaffected");
        assert!(!t.rebind_teid(0x999, 0x400), "unknown old TEID");
    }

    #[test]
    fn rebind_to_existing_teid_refused() {
        let mut t = DualKeyTable::new();
        t.insert(1, 10, "a");
        t.insert(2, 20, "b");
        assert!(!t.rebind_teid(1, 2));
        assert_eq!(t.by_teid(1), Some(&"a"), "failed rebind must not corrupt");
    }

    #[test]
    fn remove_releases_slot_for_reuse() {
        let mut t = DualKeyTable::new();
        t.insert(1, 10, "a");
        assert_eq!(t.remove_by_teid(1), Some("a"));
        assert!(t.is_empty());
        assert!(t.by_ue_ip(10).is_none());
        t.insert(1, 10, "b"); // keys and slot reusable
        assert_eq!(t.by_teid(1), Some(&"b"));
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn duplicate_teid_panics() {
        let mut t = DualKeyTable::new();
        t.insert(1, 10, "a");
        t.insert(1, 20, "b");
    }
}
