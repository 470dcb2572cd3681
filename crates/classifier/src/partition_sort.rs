//! PDR-PS: PartitionSort (Yingchareonthawornchai et al., ICNP 2016).
//!
//! Rules are partitioned online into *sortable* rulesets: within a
//! partition, any two rules are comparable under a lexicographic
//! dimension-by-dimension comparator in which the first differing
//! dimension must hold **disjoint** ranges. A sortable ruleset admits
//! multi-dimensional binary search — O(d + log n) per partition — with no
//! hashing, which is why the paper picks PDR-PS over PDR-TSS (consistent
//! latency, no tuple-space-explosion DoS surface).
//!
//! Simplification vs. the original: the ICNP paper maintains a balanced
//! tree per partition and searches per-partition field orders; we keep
//! each partition as a sorted `Vec` (binary search for reads, memmove for
//! writes — matching the paper's observation that PS updates are the
//! slowest of the three structures) and use the natural field order.
//! Partition assignment is greedy-online exactly as in the original.
//!
//! The comparator is transitive (first-differing-dimension disjointness
//! composes), so checking comparability against the binary-search path and
//! final neighbours is sufficient for a correct insert-or-reject.

use std::cmp::Ordering;
use std::collections::HashMap;

use crate::rule::{Classifier, PacketKey, PdrRule, RuleId, NDIMS};

/// Result of comparing two rules dimension-by-dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuleCmp {
    Less,
    Greater,
    /// Equal ranges in every dimension (duplicate match-space).
    Equal,
    /// Overlapping-but-unequal ranges in the first differing dimension:
    /// the rules cannot coexist in a sortable partition.
    Incomparable,
}

fn cmp_rules(a: &PdrRule, b: &PdrRule, order: &[u8; NDIMS]) -> RuleCmp {
    for &d in order {
        let d = usize::from(d);
        let (ra, rb) = (&a.fields[d], &b.fields[d]);
        if ra == rb {
            continue;
        }
        if ra.hi < rb.lo {
            return RuleCmp::Less;
        }
        if rb.hi < ra.lo {
            return RuleCmp::Greater;
        }
        return RuleCmp::Incomparable;
    }
    RuleCmp::Equal
}

/// Compares a packet key against a rule for binary search descent.
fn cmp_key(key: &PacketKey, rule: &PdrRule, order: &[u8; NDIMS]) -> Ordering {
    for &d in order {
        let d = usize::from(d);
        let v = key.values[d];
        let r = &rule.fields[d];
        if v < r.lo {
            return Ordering::Less;
        }
        if v > r.hi {
            return Ordering::Greater;
        }
    }
    Ordering::Equal // contained in every dimension: a match
}

/// The field order a new partition adopts, derived from its founding
/// rule: most-specific dimensions first (exact values, then prefixes,
/// then ranges, wildcards last). This is the simplified form of
/// PartitionSort's per-partition field-order selection — specific
/// dimensions discriminate early, keeping rules comparable and binary
/// search descents short.
fn order_for(rule: &PdrRule) -> [u8; NDIMS] {
    let mut dims: Vec<u8> = (0..NDIMS as u8).collect();
    dims.sort_by_key(|&d| {
        let r = &rule.fields[usize::from(d)];
        (u64::from(r.hi) - u64::from(r.lo), d)
    });
    dims.try_into().expect("NDIMS entries")
}

#[derive(Debug, Clone)]
struct Partition {
    /// The field order this partition sorts by (fixed at creation).
    order: [u8; NDIMS],
    /// Rules in comparator order (duplicates adjacent, best priority first).
    rules: Vec<PdrRule>,
    /// Minimum precedence value in this partition (pruning bound).
    best_precedence: u32,
    /// Per-dimension bounding box over all member rules: a key outside
    /// the box in any dimension cannot match anything here, so lookup
    /// skips the binary search entirely. Grows on insert; not shrunk on
    /// remove (a superset stays correct).
    bbox_lo: [u32; NDIMS],
    bbox_hi: [u32; NDIMS],
}

impl Default for Partition {
    fn default() -> Self {
        Partition {
            order: {
                let mut o = [0u8; NDIMS];
                for (i, v) in o.iter_mut().enumerate() {
                    *v = i as u8;
                }
                o
            },
            rules: Vec::new(),
            best_precedence: u32::MAX,
            bbox_lo: [u32::MAX; NDIMS],
            bbox_hi: [0; NDIMS],
        }
    }
}

impl Partition {
    fn grow_bbox(&mut self, rule: &PdrRule) {
        for d in 0..NDIMS {
            self.bbox_lo[d] = self.bbox_lo[d].min(rule.fields[d].lo);
            self.bbox_hi[d] = self.bbox_hi[d].max(rule.fields[d].hi);
        }
    }

    #[inline]
    fn bbox_contains(&self, key: &PacketKey) -> bool {
        // Probe in the partition's own field order: the most specific
        // dimensions (narrowest box sides) come first, so a non-matching
        // key is rejected after one or two comparisons.
        for &d in &self.order {
            let d = usize::from(d);
            let v = key.values[d];
            if v < self.bbox_lo[d] || v > self.bbox_hi[d] {
                return false;
            }
        }
        true
    }

    /// Finds the insertion index for `rule`, or `None` if the rule is
    /// incomparable with an existing member (can't join this partition).
    fn insertion_point(&self, rule: &PdrRule) -> Option<usize> {
        let mut lo = 0usize;
        let mut hi = self.rules.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp_rules(rule, &self.rules[mid], &self.order) {
                RuleCmp::Less => hi = mid,
                RuleCmp::Greater => lo = mid + 1,
                RuleCmp::Equal => {
                    // Duplicates allowed: keep (precedence, id) order
                    // within the equal run so lookup's local scan finds
                    // the best first.
                    let mut pos = mid;
                    while pos > 0
                        && cmp_rules(rule, &self.rules[pos - 1], &self.order) == RuleCmp::Equal
                        && rule.beats(&self.rules[pos - 1])
                    {
                        pos -= 1;
                    }
                    while pos < self.rules.len()
                        && cmp_rules(rule, &self.rules[pos], &self.order) == RuleCmp::Equal
                        && self.rules[pos].beats(rule)
                    {
                        pos += 1;
                    }
                    return Some(pos);
                }
                RuleCmp::Incomparable => return None,
            }
        }
        // Transitivity makes the touched comparisons sufficient, but the
        // final neighbours may not have been touched; verify them.
        if lo > 0 {
            match cmp_rules(rule, &self.rules[lo - 1], &self.order) {
                RuleCmp::Greater | RuleCmp::Equal => {}
                _ => return None,
            }
        }
        if lo < self.rules.len() {
            match cmp_rules(rule, &self.rules[lo], &self.order) {
                RuleCmp::Less | RuleCmp::Equal => {}
                _ => return None,
            }
        }
        Some(lo)
    }

    /// Binary search for a rule containing `key`; scans the adjacent
    /// equal-range run for the best precedence.
    fn lookup(&self, key: &PacketKey) -> Option<&PdrRule> {
        let mut lo = 0usize;
        let mut hi = self.rules.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp_key(key, &self.rules[mid], &self.order) {
                Ordering::Less => hi = mid,
                Ordering::Greater => lo = mid + 1,
                Ordering::Equal => {
                    // Walk the duplicate run; it is (precedence, id)
                    // ordered, so the first member that matches wins —
                    // but range-equal runs share match-space, so the run
                    // head is the answer.
                    let mut best = mid;
                    while best > 0
                        && cmp_rules(&self.rules[best - 1], &self.rules[mid], &self.order)
                            == RuleCmp::Equal
                    {
                        best -= 1;
                    }
                    return Some(&self.rules[best]);
                }
            }
        }
        None
    }

    fn recompute_bound(&mut self) {
        self.best_precedence = self
            .rules
            .iter()
            .map(|r| r.precedence)
            .min()
            .unwrap_or(u32::MAX);
    }
}

/// PartitionSort classifier.
#[derive(Debug, Default, Clone)]
pub struct PartitionSort {
    partitions: Vec<Partition>,
    /// rule id → partition index.
    index: HashMap<RuleId, usize>,
    /// Partition indices sorted by ascending `best_precedence` — the
    /// "sort these groups" step of the paper: lookup probes the
    /// highest-priority partition first and stops as soon as the current
    /// best match outranks every remaining partition. Refreshed eagerly
    /// on every update (updates are rare; lookups are the fast path).
    order: Vec<usize>,
}

impl PartitionSort {
    /// Creates an empty classifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of non-empty partitions. PartitionSort's claim is that this
    /// stays small and stable for realistic rulesets.
    pub fn partition_count(&self) -> usize {
        self.partitions
            .iter()
            .filter(|p| !p.rules.is_empty())
            .count()
    }

    fn refresh_order(&mut self) {
        self.order = (0..self.partitions.len()).collect();
        let parts = &self.partitions;
        self.order.sort_by_key(|&i| parts[i].best_precedence);
    }
}

impl Classifier for PartitionSort {
    fn insert(&mut self, rule: PdrRule) {
        assert!(
            !self.index.contains_key(&rule.id),
            "duplicate rule id {}",
            rule.id
        );
        // Greedy online assignment, biggest partition first (the ICNP
        // paper's online heuristic: large sortable rulesets absorb the
        // most rules, keeping the partition count low).
        let mut by_size: Vec<usize> = (0..self.partitions.len()).collect();
        by_size.sort_by_key(|&i| core::cmp::Reverse(self.partitions[i].rules.len()));
        for pi in by_size {
            let part = &mut self.partitions[pi];
            if let Some(pos) = part.insertion_point(&rule) {
                part.best_precedence = part.best_precedence.min(rule.precedence);
                part.grow_bbox(&rule);
                self.index.insert(rule.id, pi);
                part.rules.insert(pos, rule);
                self.refresh_order();
                return;
            }
        }
        let mut part = Partition {
            best_precedence: rule.precedence,
            order: order_for(&rule),
            // Room for the founding rule only: `push` on an empty `Vec`
            // reserves four 176-byte rules, and the two partitions of a
            // default session never hold a second.
            rules: Vec::with_capacity(1),
            ..Partition::default()
        };
        part.grow_bbox(&rule);
        self.index.insert(rule.id, self.partitions.len());
        part.rules.push(rule);
        self.partitions.push(part);
        self.refresh_order();
    }

    fn remove(&mut self, id: RuleId) -> Option<PdrRule> {
        let pi = self.index.remove(&id)?;
        let part = &mut self.partitions[pi];
        let pos = part
            .rules
            .iter()
            .position(|r| r.id == id)
            .expect("index consistent");
        let rule = part.rules.remove(pos);
        if rule.precedence == part.best_precedence {
            part.recompute_bound();
            self.refresh_order();
        }
        Some(rule)
    }

    fn lookup(&self, key: &PacketKey) -> Option<&PdrRule> {
        let mut best: Option<&PdrRule> = None;
        for &pi in &self.order {
            let part = &self.partitions[pi];
            if part.rules.is_empty() {
                continue;
            }
            if let Some(b) = best {
                if b.precedence < part.best_precedence {
                    break; // sorted order: no later partition can win
                }
            }
            if !part.bbox_contains(key) {
                continue;
            }
            if let Some(rule) = part.lookup(key) {
                if best.is_none_or(|b| rule.beats(b)) {
                    best = Some(rule);
                }
            }
        }
        best
    }

    fn len(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Field, FieldRange};

    #[test]
    fn disjoint_rules_share_one_partition() {
        let mut ps = PartitionSort::new();
        for i in 0..100u32 {
            ps.insert(PdrRule::any(i as u64, 100).with(
                Field::DstIp,
                FieldRange {
                    lo: i * 10,
                    hi: i * 10 + 9,
                },
            ));
        }
        assert_eq!(ps.partition_count(), 1);
        let key = PacketKey::default().with(Field::DstIp, 555);
        assert_eq!(ps.lookup(&key).unwrap().id, 55);
        assert!(ps
            .lookup(&PacketKey::default().with(Field::DstIp, 10_000))
            .is_none());
    }

    #[test]
    fn overlapping_rules_split_partitions() {
        let mut ps = PartitionSort::new();
        // Nested prefixes overlap pairwise in dim 0 and are equal nowhere.
        for plen in [8u8, 16, 24] {
            ps.insert(
                PdrRule::any(plen as u64, 100)
                    .with(Field::DstIp, FieldRange::prefix(0x0a0a_0a0a, plen)),
            );
        }
        assert_eq!(ps.partition_count(), 3);
        // All three match; lowest id wins (same precedence).
        let key = PacketKey::default().with(Field::DstIp, 0x0a0a_0a0a);
        assert_eq!(ps.lookup(&key).unwrap().id, 8);
    }

    #[test]
    fn priority_wins_across_partitions() {
        let mut ps = PartitionSort::new();
        ps.insert(PdrRule::any(1, 200).with(Field::DstIp, FieldRange::prefix(0x0a00_0000, 8)));
        ps.insert(PdrRule::any(2, 100).with(Field::DstIp, FieldRange::exact(0x0a01_0203)));
        let key = PacketKey::default().with(Field::DstIp, 0x0a01_0203);
        assert_eq!(ps.lookup(&key).unwrap().id, 2);
    }

    #[test]
    fn multi_dim_search_descends_correctly() {
        let mut ps = PartitionSort::new();
        // Same dst range, disjoint port ranges: comparator recurses to dim 3.
        for (i, ports) in [(1u64, (0u32, 99u32)), (2, (100, 199)), (3, (200, 299))] {
            ps.insert(
                PdrRule::any(i, 100)
                    .with(Field::DstIp, FieldRange::prefix(0x0a00_0000, 8))
                    .with(
                        Field::DstPort,
                        FieldRange {
                            lo: ports.0,
                            hi: ports.1,
                        },
                    ),
            );
        }
        assert_eq!(ps.partition_count(), 1);
        let key = PacketKey::default()
            .with(Field::DstIp, 0x0a01_0101)
            .with(Field::DstPort, 150);
        assert_eq!(ps.lookup(&key).unwrap().id, 2);
    }

    #[test]
    fn duplicate_match_space_picks_best_precedence() {
        let mut ps = PartitionSort::new();
        ps.insert(PdrRule::any(1, 200));
        ps.insert(PdrRule::any(2, 100)); // identical fields, better priority
        assert_eq!(ps.partition_count(), 1, "equal rules may share a partition");
        assert_eq!(ps.lookup(&PacketKey::default()).unwrap().id, 2);
    }

    #[test]
    fn remove_and_reinsert() {
        let mut ps = PartitionSort::new();
        ps.insert(PdrRule::any(1, 10).with(Field::DstPort, FieldRange::exact(80)));
        ps.insert(PdrRule::any(2, 20).with(Field::DstPort, FieldRange::exact(443)));
        let key80 = PacketKey::default().with(Field::DstPort, 80);
        assert_eq!(ps.lookup(&key80).unwrap().id, 1);
        let r = ps.remove(1).unwrap();
        assert!(ps.lookup(&key80).is_none());
        ps.insert(r);
        assert_eq!(ps.lookup(&key80).unwrap().id, 1);
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn comparator_is_transitive_on_samples() {
        // A < B and B < C must imply A < C for the sortability argument.
        let a = PdrRule::any(1, 0).with(Field::SrcIp, FieldRange { lo: 0, hi: 9 });
        let b = PdrRule::any(2, 0).with(Field::SrcIp, FieldRange { lo: 10, hi: 19 });
        let c = PdrRule::any(3, 0)
            .with(Field::SrcIp, FieldRange { lo: 10, hi: 19 })
            .with(Field::DstIp, FieldRange { lo: 5, hi: 5 });
        // b vs c: equal dim0... c has dstip exact: b dstip ANY overlaps → incomparable.
        let natural = {
            let mut o = [0u8; NDIMS];
            for (i, v) in o.iter_mut().enumerate() {
                *v = i as u8;
            }
            o
        };
        assert_eq!(cmp_rules(&a, &b, &natural), RuleCmp::Less);
        assert_eq!(cmp_rules(&b, &c, &natural), RuleCmp::Incomparable);
        assert_eq!(cmp_rules(&a, &c, &natural), RuleCmp::Less);
    }

    #[test]
    fn empty_lookup_is_none() {
        let ps = PartitionSort::new();
        assert!(ps.lookup(&PacketKey::default()).is_none());
        assert!(ps.is_empty());
    }
}
