//! PDR-TSS: Tuple Space Search (Srinivasan et al., SIGCOMM '99).
//!
//! Rules are partitioned into sub-tables by their *tuple* — the vector of
//! effective prefix lengths across all 20 dimensions. Each sub-table is a
//! hash table keyed by the masked packet fields, so lookup is one hash
//! probe per sub-table. Range fields are assigned the longest prefix
//! covering the range (a superset), so the hash probe never misses a
//! matching rule; candidates found in a bucket are verified against the
//! full rule before being accepted.
//!
//! The performance shape the paper measures (Fig 11): O(1) when all rules
//! share one tuple ("TSS_Best"), degenerating to one hash probe per rule
//! when every rule has its own tuple ("TSS_Worst") — plus the constant
//! software-hashing penalty on every probe either way.

use std::collections::HashMap;

use crate::rule::{Classifier, PacketKey, PdrRule, RuleId, NDIMS};

/// A tuple: effective prefix length per dimension.
type Tuple = [u8; NDIMS];

fn tuple_of(rule: &PdrRule) -> Tuple {
    let mut t = [0u8; NDIMS];
    for (i, r) in rule.fields.iter().enumerate() {
        t[i] = r.effective_prefix_len();
    }
    t
}

fn masks_of(tuple: &Tuple) -> [u32; NDIMS] {
    let mut m = [0u32; NDIMS];
    for (i, &plen) in tuple.iter().enumerate() {
        m[i] = if plen == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(plen))
        };
    }
    m
}

#[derive(Debug, Clone)]
struct SubTable {
    masks: [u32; NDIMS],
    buckets: HashMap<[u32; NDIMS], Vec<RuleId>>,
    len: usize,
    /// Minimum precedence value (best priority) over rules in this table;
    /// `u32::MAX` when empty. Enables sub-table pruning during lookup.
    best_precedence: u32,
}

impl SubTable {
    fn new(tuple: Tuple) -> SubTable {
        SubTable {
            masks: masks_of(&tuple),
            buckets: HashMap::new(),
            len: 0,
            best_precedence: u32::MAX,
        }
    }

    fn masked_key(&self, values: &[u32; NDIMS]) -> [u32; NDIMS] {
        let mut k = [0u32; NDIMS];
        for i in 0..NDIMS {
            k[i] = values[i] & self.masks[i];
        }
        k
    }

    fn masked_rule_key(&self, rule: &PdrRule) -> [u32; NDIMS] {
        let mut k = [0u32; NDIMS];
        for (slot, (field, mask)) in k.iter_mut().zip(rule.fields.iter().zip(&self.masks)) {
            *slot = field.lo & mask;
        }
        k
    }
}

/// Tuple Space Search classifier.
#[derive(Debug, Default, Clone)]
pub struct TupleSpace {
    tables: Vec<SubTable>,
    tuple_index: HashMap<Tuple, usize>,
    rules: HashMap<RuleId, (PdrRule, usize)>,
}

impl TupleSpace {
    /// Creates an empty classifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of non-empty sub-tables — the quantity that decides whether
    /// this instance behaves like TSS_Best (1) or TSS_Worst (= #rules).
    #[cfg(test)]
    pub(crate) fn subtable_count(&self) -> usize {
        self.tables.iter().filter(|t| t.len > 0).count()
    }
}

impl Classifier for TupleSpace {
    fn insert(&mut self, rule: PdrRule) {
        assert!(
            !self.rules.contains_key(&rule.id),
            "duplicate rule id {}",
            rule.id
        );
        let tuple = tuple_of(&rule);
        let idx = *self.tuple_index.entry(tuple).or_insert_with(|| {
            self.tables.push(SubTable::new(tuple));
            self.tables.len() - 1
        });
        let table = &mut self.tables[idx];
        let key = table.masked_rule_key(&rule);
        table.buckets.entry(key).or_default().push(rule.id);
        table.len += 1;
        table.best_precedence = table.best_precedence.min(rule.precedence);
        self.rules.insert(rule.id, (rule, idx));
    }

    fn remove(&mut self, id: RuleId) -> Option<PdrRule> {
        let (rule, idx) = self.rules.remove(&id)?;
        let table = &mut self.tables[idx];
        let key = table.masked_rule_key(&rule);
        if let Some(bucket) = table.buckets.get_mut(&key) {
            bucket.retain(|&r| r != id);
            if bucket.is_empty() {
                table.buckets.remove(&key);
            }
        }
        table.len -= 1;
        if rule.precedence == table.best_precedence {
            // Recompute the pruning bound from the surviving rules.
            let rules = &self.rules;
            table.best_precedence = table
                .buckets
                .values()
                .flatten()
                .map(|rid| rules[rid].0.precedence)
                .min()
                .unwrap_or(u32::MAX);
        }
        Some(rule)
    }

    fn lookup(&self, key: &PacketKey) -> Option<&PdrRule> {
        let mut best: Option<&PdrRule> = None;
        for table in &self.tables {
            if table.len == 0 {
                continue;
            }
            if let Some(b) = best {
                // A strictly better precedence can't be beaten; equal
                // precedence could still lose on id, so keep probing then.
                if b.precedence < table.best_precedence {
                    continue;
                }
            }
            let masked = table.masked_key(&key.values);
            if let Some(bucket) = table.buckets.get(&masked) {
                for rid in bucket {
                    let (rule, _) = &self.rules[rid];
                    if rule.matches(key) && best.is_none_or(|b| rule.beats(b)) {
                        best = Some(rule);
                    }
                }
            }
        }
        best
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
    fn shared_tuple_single_subtable() {
        let mut tss = TupleSpace::new();
        for i in 0..100u32 {
            tss.insert(PdrRule::any(i as u64, 100).with(Field::DstIp, FieldRange::exact(i)));
        }
        assert_eq!(tss.subtable_count(), 1, "exact-match rules share one tuple");
        let key = PacketKey::default().with(Field::DstIp, 42);
        assert_eq!(tss.lookup(&key).unwrap().id, 42);
    }

    #[test]
    fn distinct_tuples_many_subtables() {
        let mut tss = TupleSpace::new();
        for plen in 1..=20u8 {
            tss.insert(
                PdrRule::any(plen as u64, 100)
                    .with(Field::DstIp, FieldRange::prefix(0xff00_0000, plen)),
            );
        }
        assert_eq!(
            tss.subtable_count(),
            20,
            "each prefix length is its own tuple"
        );
    }

    #[test]
    fn best_priority_wins_across_subtables() {
        let mut tss = TupleSpace::new();
        // /8 prefix at low priority, /32 exact at high priority.
        tss.insert(PdrRule::any(1, 200).with(Field::DstIp, FieldRange::prefix(0x0a00_0000, 8)));
        tss.insert(PdrRule::any(2, 100).with(Field::DstIp, FieldRange::exact(0x0a01_0203)));
        let key = PacketKey::default().with(Field::DstIp, 0x0a01_0203);
        assert_eq!(tss.lookup(&key).unwrap().id, 2);
        let broad = PacketKey::default().with(Field::DstIp, 0x0a09_0909);
        assert_eq!(tss.lookup(&broad).unwrap().id, 1);
    }

    #[test]
    fn non_prefix_range_verified_fully() {
        // Range [4,7] is a prefix block; range [3,5] is not — the tuple
        // covers a superset, so full verification must reject key=6 if it
        // is outside the actual range... but 6 is outside [3,5] while
        // sharing the /30 prefix of 4.
        let mut tss = TupleSpace::new();
        tss.insert(PdrRule::any(1, 10).with(Field::SrcPort, FieldRange { lo: 3, hi: 5 }));
        assert!(tss
            .lookup(&PacketKey::default().with(Field::SrcPort, 4))
            .is_some());
        assert!(tss
            .lookup(&PacketKey::default().with(Field::SrcPort, 6))
            .is_none());
    }

    #[test]
    fn remove_updates_pruning_bound() {
        let mut tss = TupleSpace::new();
        tss.insert(PdrRule::any(1, 10));
        tss.insert(PdrRule::any(2, 20));
        assert_eq!(tss.lookup(&PacketKey::default()).unwrap().id, 1);
        tss.remove(1);
        assert_eq!(tss.lookup(&PacketKey::default()).unwrap().id, 2);
        tss.remove(2);
        assert!(tss.lookup(&PacketKey::default()).is_none());
        assert_eq!(tss.len(), 0);
    }

    #[test]
    fn equal_precedence_tie_breaks_by_id_across_tables() {
        let mut tss = TupleSpace::new();
        // Different tuples, same precedence: id 1 must win.
        tss.insert(PdrRule::any(9, 50).with(Field::DstIp, FieldRange::prefix(0x0a00_0000, 8)));
        tss.insert(PdrRule::any(1, 50).with(Field::DstIp, FieldRange::prefix(0x0a00_0000, 16)));
        let key = PacketKey::default().with(Field::DstIp, 0x0a00_1234);
        assert_eq!(tss.lookup(&key).unwrap().id, 1);
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut tss = TupleSpace::new();
        assert!(tss.remove(77).is_none());
    }
}
