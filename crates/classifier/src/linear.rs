//! PDR-LL: the 3GPP-recommended linear list (TS 29.244 §5.2.1).
//!
//! Rules are kept sorted by (precedence, id); lookup walks the list and
//! returns the first match, so the first hit is already the best. This is
//! the baseline the paper measures against in Fig 11: O(1)-ish updates,
//! O(n) lookups.

use crate::rule::{Classifier, PacketKey, PdrRule, RuleId};

/// Linear-list classifier.
#[derive(Debug, Default, Clone)]
pub struct LinearList {
    rules: Vec<PdrRule>,
}

impl LinearList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Classifier for LinearList {
    fn insert(&mut self, rule: PdrRule) {
        debug_assert!(
            !self.rules.iter().any(|r| r.id == rule.id),
            "duplicate rule id {}",
            rule.id
        );
        let pos = self
            .rules
            .partition_point(|r| (r.precedence, r.id) < (rule.precedence, rule.id));
        self.rules.insert(pos, rule);
    }

    fn remove(&mut self, id: RuleId) -> Option<PdrRule> {
        let pos = self.rules.iter().position(|r| r.id == id)?;
        Some(self.rules.remove(pos))
    }

    fn lookup(&self, key: &PacketKey) -> Option<&PdrRule> {
        // Sorted by priority: first match wins.
        self.rules.iter().find(|r| r.matches(key))
    }

    fn len(&self) -> usize {
        self.rules.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Field, FieldRange};

    #[test]
    fn first_match_is_best_priority() {
        let mut ll = LinearList::new();
        ll.insert(PdrRule::any(1, 200)); // catch-all, low priority
        ll.insert(PdrRule::any(2, 100).with(Field::DstPort, FieldRange::exact(80)));
        let http = PacketKey::default().with(Field::DstPort, 80);
        let other = PacketKey::default().with(Field::DstPort, 22);
        assert_eq!(ll.lookup(&http).unwrap().id, 2);
        assert_eq!(ll.lookup(&other).unwrap().id, 1);
    }

    #[test]
    fn tie_breaks_by_id() {
        let mut ll = LinearList::new();
        ll.insert(PdrRule::any(5, 100));
        ll.insert(PdrRule::any(3, 100));
        assert_eq!(ll.lookup(&PacketKey::default()).unwrap().id, 3);
    }

    #[test]
    fn remove_restores_next_best() {
        let mut ll = LinearList::new();
        ll.insert(PdrRule::any(1, 10));
        ll.insert(PdrRule::any(2, 20));
        assert_eq!(ll.lookup(&PacketKey::default()).unwrap().id, 1);
        let removed = ll.remove(1).unwrap();
        assert_eq!(removed.id, 1);
        assert_eq!(ll.lookup(&PacketKey::default()).unwrap().id, 2);
        assert!(ll.remove(1).is_none());
        assert_eq!(ll.len(), 1);
    }

    #[test]
    fn empty_lookup_is_none() {
        let ll = LinearList::new();
        assert!(ll.lookup(&PacketKey::default()).is_none());
        assert!(ll.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate rule id")]
    #[cfg(debug_assertions)]
    fn duplicate_id_panics() {
        let mut ll = LinearList::new();
        ll.insert(PdrRule::any(1, 10));
        ll.insert(PdrRule::any(1, 20));
    }
}
