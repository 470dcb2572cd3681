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
//! Lookups read a packed copy of each partition's rules cut down to the
//! dimensions its members constrain (see `Partition`), so a probe
//! touches a few bytes per rule instead of a 176-byte `PdrRule`.
//!
//! The comparator is transitive (first-differing-dimension disjointness
//! composes), so checking comparability against the binary-search path and
//! final neighbours is sufficient for a correct insert-or-reject.

use std::cmp::Ordering;
use std::collections::HashMap;

use crate::rule::{Classifier, FieldRange, PacketKey, PdrRule, RuleId, NDIMS};

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

/// Compares a packet key against one packed row — the row's ranges over
/// `dims`, in order — for binary search descent.
#[inline]
fn cmp_key(key: &PacketKey, dims: &[u8], row: &[FieldRange]) -> Ordering {
    for (&d, r) in dims.iter().zip(row) {
        let v = key.values[usize::from(d)];
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

/// The dimensions `rule` constrains, one bit per dimension.
fn constrained(rule: &PdrRule) -> u32 {
    const _: () = assert!(NDIMS <= 32, "one bit per dimension");
    let mut mask = 0;
    for (d, f) in rule.fields.iter().enumerate() {
        mask |= u32::from(!f.is_any()) << d;
    }
    mask
}

/// One sortable ruleset. Its rules live here in full (lookup returns
/// `&PdrRule`); what lookup *reads* is the partition's block in
/// [`PartitionSort::rows`]: a bounding-box row, then one row per rule in
/// comparator order, each row holding only the ranges of the partition's
/// active dimensions.
#[derive(Debug, Clone)]
struct Partition {
    /// The field order this partition sorts by (fixed at creation).
    order: [u8; NDIMS],
    /// The active dimensions — those some member constrains — one bit
    /// each. Every other dimension is a wildcard in every member, so it
    /// can neither reject a key nor separate two rules, and the packed
    /// rows leave it out. Grows by each joining rule's dimensions; left
    /// alone on remove (a superset stays correct).
    active: u32,
    /// The active dimensions in `order`'s order; the first `width`
    /// entries are live.
    dims: [u8; NDIMS],
    width: u8,
    /// Rules in comparator order (duplicates adjacent, best priority first).
    rules: Vec<PdrRule>,
    /// Minimum precedence value in this partition (pruning bound).
    best_precedence: u32,
    /// Where this partition's block starts in [`PartitionSort::rows`].
    start: usize,
}

impl Partition {
    /// A partition holding only `rule`, its block starting at `start`.
    fn founded_by(rule: PdrRule, start: usize) -> Partition {
        let mut part = Partition {
            order: order_for(&rule),
            active: constrained(&rule),
            dims: [0; NDIMS],
            width: 0,
            best_precedence: rule.precedence,
            // Room for the founding rule only (`push` on an empty `Vec`
            // would reserve four 176-byte rules): the two partitions of a
            // default session never hold a second.
            rules: vec![rule],
            start,
        };
        part.set_dims();
        part
    }

    /// Lists the `active` dimensions in field order.
    fn set_dims(&mut self) {
        let mut width = 0;
        for d in self.order {
            if self.active & 1 << d != 0 {
                self.dims[width] = d;
                width += 1;
            }
        }
        self.width = width as u8;
    }

    fn dims(&self) -> &[u8] {
        &self.dims[..usize::from(self.width)]
    }

    /// Length of the block in [`PartitionSort::rows`]: the bounding box
    /// plus one row per rule.
    fn block_len(&self) -> usize {
        (1 + self.rules.len()) * usize::from(self.width)
    }

    /// Writes the whole block into `out` (`block_len` entries), rebuilt
    /// from the member rules: their exact bounding box, then their rows.
    fn pack_into(&self, out: &mut [FieldRange]) {
        let (bbox, body) = out.split_at_mut(usize::from(self.width));
        for (b, &d) in bbox.iter_mut().zip(self.dims()) {
            let d = usize::from(d);
            b.lo = self
                .rules
                .iter()
                .map(|r| r.fields[d].lo)
                .min()
                .unwrap_or(u32::MAX);
            b.hi = self.rules.iter().map(|r| r.fields[d].hi).max().unwrap_or(0);
        }
        let rows = body.chunks_exact_mut(usize::from(self.width).max(1));
        for (row, r) in rows.zip(&self.rules) {
            for (slot, &d) in row.iter_mut().zip(self.dims()) {
                *slot = r.fields[usize::from(d)];
            }
        }
    }

    /// Finds the insertion index for `rule`, or `None` if the rule is
    /// incomparable with an existing member (can't join this partition).
    /// Compares whole rules in the full field order: the new rule may
    /// constrain dimensions the packed rows leave out.
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

    /// Rejects `key` by the bounding box, else binary-searches the packed
    /// rows for one containing it and returns the head of that row's
    /// equal-range run — the run is (precedence, id) ordered and shares
    /// its match-space, so the head is the answer.
    #[inline]
    fn lookup(&self, rows: &[FieldRange], key: &PacketKey) -> Option<&PdrRule> {
        let w = usize::from(self.width);
        if w == 0 {
            // No member constrains anything: one run of catch-alls.
            return self.rules.first();
        }
        let dims = self.dims();
        let (bbox, body) = rows[self.start..self.start + self.block_len()].split_at(w);
        // Probe in the partition's own field order: the most specific
        // dimensions (narrowest box sides) come first, so a non-matching
        // key is rejected after one or two comparisons.
        if cmp_key(key, dims, bbox) != Ordering::Equal {
            return None;
        }
        let row = |i: usize| &body[i * w..(i + 1) * w];
        let mut lo = 0usize;
        let mut hi = self.rules.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp_key(key, dims, row(mid)) {
                Ordering::Less => hi = mid,
                Ordering::Greater => lo = mid + 1,
                Ordering::Equal => {
                    let mut best = mid;
                    while best > 0 && row(best - 1) == row(mid) {
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
    /// Every partition's packed block, back to back in partition order,
    /// in one allocation: inserts grow it amortized, and
    /// [`PartitionSort::shrink_to_fit`] trims it once a table is built.
    rows: Vec<FieldRange>,
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

    /// Trims the packed rows' allocation to their length. A table built
    /// once and then read (a session's PDRs) keeps no spare capacity; a
    /// later remove-then-reinsert of the same shape reuses what the
    /// remove freed.
    pub fn shrink_to_fit(&mut self) {
        self.rows.shrink_to_fit();
    }

    fn refresh_order(&mut self) {
        self.order.clear();
        self.order.extend(0..self.partitions.len());
        let parts = &self.partitions;
        self.order.sort_by_key(|&i| parts[i].best_precedence);
    }
}

/// Resizes the `old`-entry run of packed rows at `at` to `new` entries and
/// shifts the blocks of the `later` partitions to match. Returns the run
/// for the caller to fill.
fn resize_run<'a>(
    rows: &'a mut Vec<FieldRange>,
    later: &mut [Partition],
    at: usize,
    old: usize,
    new: usize,
) -> &'a mut [FieldRange] {
    let len = rows.len();
    if new > old {
        rows.resize(len + new - old, FieldRange::ANY);
    }
    rows.copy_within(at + old..len, at + new);
    rows.truncate(len + new - old);
    for p in later {
        p.start = p.start + new - old;
    }
    &mut rows[at..at + new]
}

impl Classifier for PartitionSort {
    fn insert(&mut self, rule: PdrRule) {
        // Greedy online assignment, biggest partition first (the ICNP
        // paper's online heuristic: large sortable rulesets absorb the
        // most rules, keeping the partition count low); ties go to the
        // lower index. A table of a few partitions sorts on the stack, so
        // an insert allocates nothing it does not keep.
        let n = self.partitions.len();
        let (mut small, mut large) = ([0usize; 16], Vec::new());
        let by_size = if n <= small.len() {
            &mut small[..n]
        } else {
            large.resize(n, 0);
            &mut large[..]
        };
        for (i, slot) in by_size.iter_mut().enumerate() {
            *slot = i;
        }
        let parts = &self.partitions;
        by_size.sort_unstable_by_key(|&i| (core::cmp::Reverse(parts[i].rules.len()), i));
        let joins = by_size
            .iter()
            .find_map(|&pi| Some((pi, parts[pi].insertion_point(&rule)?)));
        let pi = joins.map_or(n, |(pi, _)| pi);
        if self.index.insert(rule.id, pi).is_some() {
            panic!("duplicate rule id {}", rule.id);
        }
        let Some((pi, pos)) = joins else {
            let part = Partition::founded_by(rule, self.rows.len());
            let block = resize_run(&mut self.rows, &mut [], part.start, 0, part.block_len());
            part.pack_into(block);
            self.partitions.push(part);
            self.refresh_order();
            return;
        };
        let (part, later) = self.partitions[pi..].split_first_mut().expect("pi < n");
        part.best_precedence = part.best_precedence.min(rule.precedence);
        let (start, old_len) = (part.start, part.block_len());
        let active = part.active | constrained(&rule);
        part.rules.insert(pos, rule);
        if active != part.active {
            // A new active dimension: repack the whole block over the
            // widened set.
            part.active = active;
            part.set_dims();
            let block = resize_run(&mut self.rows, later, start, old_len, part.block_len());
            part.pack_into(block);
        } else {
            // Only the touched rows: grow the box, add one row.
            let (w, rule) = (usize::from(part.width), &part.rules[pos]);
            for (b, &d) in self.rows[start..start + w].iter_mut().zip(part.dims()) {
                let r = rule.fields[usize::from(d)];
                b.lo = b.lo.min(r.lo);
                b.hi = b.hi.max(r.hi);
            }
            let row = resize_run(&mut self.rows, later, start + (1 + pos) * w, 0, w);
            for (slot, &d) in row.iter_mut().zip(part.dims()) {
                *slot = rule.fields[usize::from(d)];
            }
        }
        self.refresh_order();
    }

    fn remove(&mut self, id: RuleId) -> Option<PdrRule> {
        let pi = self.index.remove(&id)?;
        let (part, later) = self.partitions[pi..]
            .split_first_mut()
            .expect("index consistent");
        let pos = part
            .rules
            .iter()
            .position(|r| r.id == id)
            .expect("index consistent");
        let rule = part.rules.remove(pos);
        // The box is not shrunk (a superset stays correct).
        let w = usize::from(part.width);
        resize_run(&mut self.rows, later, part.start + (1 + pos) * w, w, 0);
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
            if let Some(rule) = part.lookup(&self.rows, key) {
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
