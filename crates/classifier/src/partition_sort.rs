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
//! Lookups read one flat image of the whole classifier (see
//! `PartitionSort::image`): the probe order, a header per partition, and
//! each partition's rules packed down to the dimensions its members
//! constrain, then each rule's precedence, id and a caller-supplied word.
//! A probe touches a few bytes per rule in one allocation, and answers
//! `(id, word)` without loading a 176-byte `PdrRule`.
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

/// Words per partition header in the image: the partition's best (lowest)
/// precedence, its rule count, where its block starts (relative to the
/// first block) and its width — the number of its active dimensions.
const HEAD: usize = 4;
const BEST: usize = 0;
const COUNT: usize = 1;
const START: usize = 2;
const WIDTH: usize = 3;
/// Words of a rule's metadata: its precedence, the caller's word, and the
/// low and high halves of its id.
const META: usize = 4;

/// Words in a block of `count` rules over `width` active dimensions: the
/// dimensions, the bounding box (`lo, hi` per dimension), one row of
/// ranges per rule, then the rules' metadata in the same order — apart,
/// so a binary search strides over ranges alone.
fn block_len(width: usize, count: usize) -> usize {
    3 * width + count * (2 * width + META)
}

/// `v` as an image word: offsets, counts, widths and partition indices.
fn as_word(v: usize) -> u32 {
    u32::try_from(v).expect("image offsets and counts fit in 32 bits")
}

/// Offset in a block of rule `i`'s metadata.
fn meta_at(width: usize, count: usize, i: usize) -> usize {
    3 * width + count * 2 * width + i * META
}

/// Compares a packet key against one packed row — `[lo, hi]` over
/// `dims`, in order — for binary search descent.
#[inline]
fn cmp_key(key: &PacketKey, dims: &[u32], row: &[[u32; 2]]) -> Ordering {
    for (&d, &[lo, hi]) in dims.iter().zip(row) {
        let v = key.values[d as usize];
        if v < lo {
            return Ordering::Less;
        }
        if v > hi {
            return Ordering::Greater;
        }
    }
    Ordering::Equal // contained in every dimension: a match
}

/// Searches one partition's block (`width` dimensions, `count` rules) for
/// `key`: rejects it by the bounding box, else binary-searches the rows
/// for one containing it and returns the index of the head of that row's
/// equal-range run — the run is (precedence, id) ordered and shares its
/// match-space, so the head is the answer.
#[inline]
fn search_block(block: &[u32], width: usize, count: usize, key: &PacketKey) -> Option<usize> {
    if width == 0 {
        // No member constrains anything: one run of catch-alls.
        return Some(0);
    }
    let (dims, rest) = block.split_at(width);
    let (bbox, rows) = rest[..2 * width * (1 + count)]
        .as_chunks::<2>()
        .0
        .split_at(width);
    // Probe in the partition's own field order: the most specific
    // dimensions (narrowest box sides) come first, so a non-matching
    // key is rejected after one or two comparisons.
    if cmp_key(key, dims, bbox) != Ordering::Equal {
        return None;
    }
    let row = |i: usize| &rows[i * width..(i + 1) * width];
    let (mut lo, mut hi) = (0, count);
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
                return Some(best);
            }
        }
    }
    None
}

/// Writes `rule`'s row: its ranges over `dims`.
fn write_row(row: &mut [u32], dims: &[u32], rule: &PdrRule) {
    for (slot, &d) in row.chunks_exact_mut(2).zip(dims) {
        let r = rule.fields[d as usize];
        slot.copy_from_slice(&[r.lo, r.hi]);
    }
}

/// Writes a member's metadata.
fn write_meta(meta: &mut [u32], m: &Member) {
    let id = [m.rule.id as u32, (m.rule.id >> 32) as u32];
    meta.copy_from_slice(&[m.rule.precedence, m.word, id[0], id[1]]);
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

/// A rule and the caller's word for it.
#[derive(Debug, Clone)]
struct Member {
    rule: PdrRule,
    word: u32,
}

/// One sortable ruleset, as the update side keeps it. Its rules live here
/// in full (inserts compare whole rules; [`Classifier::lookup`] returns
/// one); what a lookup *reads* is the partition's header and block in
/// [`PartitionSort::image`].
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
    /// Members in comparator order (duplicates adjacent, best priority
    /// first).
    members: Vec<Member>,
}

impl Partition {
    /// A partition holding only `member`.
    fn founded_by(member: Member) -> Partition {
        Partition {
            order: order_for(&member.rule),
            active: constrained(&member.rule),
            // Room for the founding rule only (`push` on an empty `Vec`
            // would reserve four 184-byte members): the two partitions of
            // a default session never hold a second.
            members: vec![member],
        }
    }

    /// The active dimensions in field order, and how many there are.
    fn dims(&self) -> ([u32; NDIMS], usize) {
        let (mut dims, mut width) = ([0; NDIMS], 0);
        for d in self.order {
            if self.active & 1 << d != 0 {
                dims[width] = u32::from(d);
                width += 1;
            }
        }
        (dims, width)
    }

    /// Writes the whole block into `out` (`block_len` words), rebuilt from
    /// the members: the dimensions, the members' exact bounding box, then
    /// their rows.
    fn pack_into(&self, out: &mut [u32]) {
        let (dims, width) = self.dims();
        let dims = &dims[..width];
        let (head, rows) = out.split_at_mut(3 * width);
        let (dim_words, bbox) = head.split_at_mut(width);
        dim_words.copy_from_slice(dims);
        for (b, &d) in bbox.chunks_exact_mut(2).zip(dims) {
            let fields = self.members.iter().map(|m| m.rule.fields[d as usize]);
            let lo = fields.clone().map(|f| f.lo).min().unwrap_or(u32::MAX);
            let hi = fields.map(|f| f.hi).max().unwrap_or(0);
            b.copy_from_slice(&[lo, hi]);
        }
        let (rows, metas) = rows.split_at_mut(self.members.len() * 2 * width);
        for (i, (meta, m)) in metas.chunks_exact_mut(META).zip(&self.members).enumerate() {
            write_row(&mut rows[i * 2 * width..(i + 1) * 2 * width], dims, &m.rule);
            write_meta(meta, m);
        }
    }

    /// Finds the insertion index for `rule`, or `None` if the rule is
    /// incomparable with an existing member (can't join this partition).
    /// Compares whole rules in the full field order: the new rule may
    /// constrain dimensions the packed rows leave out.
    fn insertion_point(&self, rule: &PdrRule) -> Option<usize> {
        let member = |i: usize| &self.members[i].rule;
        let mut lo = 0usize;
        let mut hi = self.members.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp_rules(rule, member(mid), &self.order) {
                RuleCmp::Less => hi = mid,
                RuleCmp::Greater => lo = mid + 1,
                RuleCmp::Equal => {
                    // Duplicates allowed: keep (precedence, id) order
                    // within the equal run so lookup's local scan finds
                    // the best first.
                    let mut pos = mid;
                    while pos > 0
                        && cmp_rules(rule, member(pos - 1), &self.order) == RuleCmp::Equal
                        && rule.beats(member(pos - 1))
                    {
                        pos -= 1;
                    }
                    while pos < self.members.len()
                        && cmp_rules(rule, member(pos), &self.order) == RuleCmp::Equal
                        && member(pos).beats(rule)
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
            match cmp_rules(rule, member(lo - 1), &self.order) {
                RuleCmp::Greater | RuleCmp::Equal => {}
                _ => return None,
            }
        }
        if lo < self.members.len() {
            match cmp_rules(rule, member(lo), &self.order) {
                RuleCmp::Less | RuleCmp::Equal => {}
                _ => return None,
            }
        }
        Some(lo)
    }

    /// Minimum precedence value in this partition (the pruning bound).
    fn best_precedence(&self) -> u32 {
        self.members
            .iter()
            .map(|m| m.rule.precedence)
            .min()
            .unwrap_or(u32::MAX)
    }
}

/// PartitionSort classifier.
#[derive(Debug, Default, Clone)]
pub struct PartitionSort {
    /// The update side, one entry per partition.
    partitions: Vec<Partition>,
    /// The lookup side: everything a lookup reads, in one allocation. For
    /// `n` partitions it holds, in order,
    /// - the probe order: the `n` partition indices by ascending best
    ///   precedence (ties by index) — the "sort these groups" step of the
    ///   paper: lookup probes the highest-priority partition first and
    ///   stops as soon as the current best match outranks every
    ///   remaining partition;
    /// - `n` headers of [`HEAD`] words, in partition order;
    /// - the partitions' blocks (see [`block_len`]), back to back in
    ///   partition order. Each block ends with its rules' precedence, id
    ///   and caller word, so a lookup compares candidates across
    ///   partitions and answers without loading a `PdrRule`.
    ///
    /// A table built from an iterator packs it once, at its exact size;
    /// every later update edits it in place (updates are rare; lookups
    /// are the fast path).
    image: Vec<u32>,
    /// rule id → partition index.
    index: HashMap<RuleId, usize>,
}

/// A candidate a search found: its partition, its row, and its metadata
/// in the image (borrowed, not yet read).
#[derive(Debug, Clone, Copy)]
struct Found<'a> {
    part: usize,
    row: usize,
    meta: &'a [u32; META],
}

impl Found<'_> {
    fn id(&self) -> RuleId {
        u64::from(self.meta[2]) | u64::from(self.meta[3]) << 32
    }

    /// The `(precedence, id)` order candidates compete in.
    fn rank(&self) -> (u32, RuleId) {
        (self.meta[0], self.id())
    }
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
            .filter(|p| !p.members.is_empty())
            .count()
    }

    /// Trims the image's and every partition's member allocation to their
    /// lengths. A table built once and then read (a session's PDRs) keeps
    /// no spare capacity; a later remove-then-reinsert of the same shape
    /// reuses what the remove freed.
    pub fn shrink_to_fit(&mut self) {
        self.image.shrink_to_fit();
        for part in &mut self.partitions {
            part.members.shrink_to_fit();
        }
    }

    /// Adds a rule carrying `word`, an opaque value the image keeps with
    /// the rule and [`PartitionSort::lookup_word`] returns with its id.
    /// Panics if the id is already present.
    pub fn insert_with_word(&mut self, rule: PdrRule, word: u32) {
        let precedence = rule.precedence;
        let (pi, pos, joined) = self.place(Member { rule, word });
        let Some(before) = joined else {
            self.found();
            return;
        };
        let (n, head) = (self.partitions.len(), self.head_at(pi));
        let at = self.blocks_at() + self.image[head + START] as usize;
        let width = self.image[head + WIDTH] as usize;
        let part = &self.partitions[pi];
        let count = part.members.len() - 1;
        if part.active != before {
            // A new active dimension: repack the whole block over the
            // widened set.
            let wide = part.dims().1;
            let old_len = block_len(width, count);
            let new_len = block_len(wide, count + 1);
            part.pack_into(resize_run(&mut self.image, n, pi, at, old_len, new_len));
            self.image[head + WIDTH] = as_word(wide);
        } else {
            // Only the touched rows: grow the box, add one row.
            let mut dims = [0; NDIMS];
            let (dims, member) = (&mut dims[..width], &part.members[pos]);
            let (block_dims, bbox) = self.image[at..at + 3 * width].split_at_mut(width);
            dims.copy_from_slice(block_dims);
            for (b, &d) in bbox.chunks_exact_mut(2).zip(&*dims) {
                let r = member.rule.fields[d as usize];
                b.copy_from_slice(&[b[0].min(r.lo), b[1].max(r.hi)]);
            }
            let row = at + 3 * width + pos * 2 * width;
            write_row(
                resize_run(&mut self.image, n, pi, row, 0, 2 * width),
                dims,
                &member.rule,
            );
            let meta = at + meta_at(width, count + 1, pos);
            write_meta(resize_run(&mut self.image, n, pi, meta, 0, META), member);
        }
        self.image[head + COUNT] += 1;
        if precedence < self.image[head + BEST] {
            self.image[head + BEST] = precedence;
            self.refresh_order();
        }
    }

    /// Removes a rule by id, returning it and the word it was inserted
    /// with.
    pub fn remove_with_word(&mut self, id: RuleId) -> Option<(PdrRule, u32)> {
        let pi = self.index.remove(&id)?;
        let (n, head) = (self.partitions.len(), self.head_at(pi));
        let at = self.blocks_at() + self.image[head + START] as usize;
        let width = self.image[head + WIDTH] as usize;
        let part = &mut self.partitions[pi];
        let pos = part
            .members
            .iter()
            .position(|m| m.rule.id == id)
            .expect("index consistent");
        let Member { rule, word } = part.members.remove(pos);
        // The box is not shrunk (a superset stays correct).
        let count = part.members.len() + 1;
        resize_run(
            &mut self.image,
            n,
            pi,
            at + meta_at(width, count, pos),
            META,
            0,
        );
        let row = at + 3 * width + pos * 2 * width;
        resize_run(&mut self.image, n, pi, row, 2 * width, 0);
        self.image[head + COUNT] -= 1;
        if rule.precedence == self.image[head + BEST] {
            self.image[head + BEST] = part.best_precedence();
            self.refresh_order();
        }
        Some((rule, word))
    }

    /// The best match for `key` — its rule id and the word it was
    /// inserted with — read from the image alone.
    #[inline]
    pub fn lookup_word(&self, key: &PacketKey) -> Option<(RuleId, u32)> {
        let found = self.search(key)?;
        Some((found.id(), found.meta[1]))
    }

    /// The one search behind [`PartitionSort::lookup_word`] and
    /// [`Classifier::lookup`]: the best match's partition, row and
    /// metadata, from the image alone.
    #[inline]
    fn search(&self, key: &PacketKey) -> Option<Found<'_>> {
        let n = self.partitions.len();
        let (order, rest) = self.image.split_at(n);
        let (heads, blocks) = rest.split_at(n * HEAD);
        let heads = heads.as_chunks::<HEAD>().0;
        // The metadata is read only to compare with another partition, so
        // a key only one partition holds never loads it.
        let mut best: Option<Found> = None;
        for &pi in order {
            let pi = pi as usize;
            let head = &heads[pi];
            let count = head[COUNT] as usize;
            if count == 0 {
                continue;
            }
            if best.is_some_and(|b| b.meta[0] < head[BEST]) {
                break; // sorted order: no later partition can win
            }
            let (width, block) = (head[WIDTH] as usize, &blocks[head[START] as usize..]);
            let Some(row) = search_block(block, width, count, key) else {
                continue;
            };
            let meta = block[meta_at(width, count, row)..].first_chunk();
            let found = Found {
                part: pi,
                row,
                meta: meta.expect("a row's metadata lies in its block"),
            };
            if best.is_none_or(|b| found.rank() < b.rank()) {
                best = Some(found);
            }
        }
        best
    }

    /// Puts `member` on the update side. Greedy online assignment, biggest
    /// partition first (the ICNP paper's online heuristic: large sortable
    /// rulesets absorb the most rules, keeping the partition count low);
    /// ties go to the lower index. Returns the partition, the member's
    /// position in it, and the partition's active dimensions before the
    /// member joined — `None` when it founded a new partition.
    fn place(&mut self, member: Member) -> (usize, usize, Option<u32>) {
        // A table of a few partitions sorts on the stack, so a placement
        // allocates nothing it does not keep.
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
        by_size.sort_unstable_by_key(|&i| (core::cmp::Reverse(parts[i].members.len()), i));
        let joins = by_size
            .iter()
            .find_map(|&pi| Some((pi, parts[pi].insertion_point(&member.rule)?)));
        let pi = joins.map_or(n, |(pi, _)| pi);
        if self.index.insert(member.rule.id, pi).is_some() {
            panic!("duplicate rule id {}", member.rule.id);
        }
        let Some((pi, pos)) = joins else {
            self.partitions.push(Partition::founded_by(member));
            return (n, 0, None);
        };
        let part = &mut self.partitions[pi];
        let before = part.active;
        part.active |= constrained(&member.rule);
        part.members.insert(pos, member);
        (pi, pos, Some(before))
    }

    /// Index of partition `pi`'s header in the image.
    fn head_at(&self, pi: usize) -> usize {
        self.partitions.len() + pi * HEAD
    }

    /// Index of the first block in the image.
    fn blocks_at(&self) -> usize {
        self.partitions.len() * (1 + HEAD)
    }

    /// Adds the newest partition to the image: one more probe-order word
    /// and header (the other blocks keep their relative starts), and its
    /// block at the end.
    fn found(&mut self) {
        let n = self.partitions.len() - 1;
        let part = &self.partitions[n];
        let width = part.dims().1;
        let start = self.image.len() - n * (1 + HEAD);
        let best = part.members[0].rule.precedence;
        // One growth for the probe word, the header and the block.
        self.image.reserve(1 + HEAD + block_len(width, 1));
        self.image.insert(n, as_word(n));
        let head = n + 1 + n * HEAD;
        self.image
            .splice(head..head, [best, 1, as_word(start), as_word(width)]);
        let at = self.image.len();
        self.image.resize(at + block_len(width, 1), 0);
        part.pack_into(&mut self.image[at..]);
        self.refresh_order();
    }

    /// Re-sorts the probe order by the headers' best precedence.
    fn refresh_order(&mut self) {
        let n = self.partitions.len();
        let (order, heads) = self.image.split_at_mut(n);
        for (i, pi) in order.iter_mut().enumerate() {
            *pi = as_word(i);
        }
        order.sort_unstable_by_key(|&pi| (heads[pi as usize * HEAD + BEST], pi));
    }
}

/// Builds the table in one pass: every rule and its word goes to the
/// update side first, then the image is packed once, in one allocation of
/// its exact size. The result equals inserting the rules one by one.
impl FromIterator<(PdrRule, u32)> for PartitionSort {
    fn from_iter<I: IntoIterator<Item = (PdrRule, u32)>>(rules: I) -> PartitionSort {
        let rules = rules.into_iter();
        let mut ps = PartitionSort::new();
        ps.index.reserve(rules.size_hint().0);
        for (rule, word) in rules {
            ps.place(Member { rule, word });
        }
        let n = ps.partitions.len();
        let size = |p: &Partition| block_len(p.dims().1, p.members.len());
        let blocks: usize = ps.partitions.iter().map(size).sum();
        let mut image = Vec::with_capacity(n * (1 + HEAD) + blocks);
        image.resize(n, 0);
        let mut start = 0;
        for part in &ps.partitions {
            let (best, count) = (part.best_precedence(), as_word(part.members.len()));
            image.extend([best, count, as_word(start), as_word(part.dims().1)]);
            start += size(part);
        }
        for part in &ps.partitions {
            let at = image.len();
            image.resize(at + size(part), 0);
            part.pack_into(&mut image[at..]);
        }
        ps.image = image;
        ps.refresh_order();
        ps
    }
}

/// Resizes the `old`-word run at `at`, inside partition `pi`'s block, to
/// `new` words, and moves the starts of the later partitions' blocks to
/// match (`n` is the partition count). Returns the run for the caller to
/// fill.
fn resize_run(
    image: &mut Vec<u32>,
    n: usize,
    pi: usize,
    at: usize,
    old: usize,
    new: usize,
) -> &mut [u32] {
    let len = image.len();
    if new > old {
        image.resize(len + new - old, 0);
    }
    image.copy_within(at + old..len, at + new);
    image.truncate(len + new - old);
    for pj in pi + 1..n {
        let start = &mut image[n + pj * HEAD + START];
        *start = as_word(*start as usize + new - old);
    }
    &mut image[at..at + new]
}

impl Classifier for PartitionSort {
    fn insert(&mut self, rule: PdrRule) {
        self.insert_with_word(rule, 0);
    }

    fn remove(&mut self, id: RuleId) -> Option<PdrRule> {
        self.remove_with_word(id).map(|(rule, _)| rule)
    }

    fn lookup(&self, key: &PacketKey) -> Option<&PdrRule> {
        let found = self.search(key)?;
        Some(&self.partitions[found.part].members[found.row].rule)
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
    fn words_ride_with_their_rules() {
        let mut ps = PartitionSort::new();
        ps.insert_with_word(PdrRule::any(1, 20), 0xdead_beef);
        ps.insert_with_word(
            PdrRule::any(2, 10).with(Field::DstPort, FieldRange::exact(80)),
            7,
        );
        let key80 = PacketKey::default().with(Field::DstPort, 80);
        assert_eq!(ps.lookup_word(&key80), Some((2, 7)));
        assert_eq!(
            ps.lookup_word(&PacketKey::default()),
            Some((1, 0xdead_beef))
        );
        let (rule, word) = ps.remove_with_word(2).unwrap();
        assert_eq!((rule.id, word), (2, 7));
        assert_eq!(ps.lookup_word(&key80), Some((1, 0xdead_beef)));
        // Rule ids past 32 bits survive the image's two-word id.
        ps.insert_with_word(PdrRule::any(1 << 40, 5), 3);
        assert_eq!(ps.lookup_word(&key80), Some((1 << 40, 3)));
    }

    #[test]
    fn collected_table_equals_one_built_by_inserts() {
        use crate::generator::{Generator, Profile};
        for profile in [
            Profile::Mixed,
            Profile::TssBest,
            Profile::TssWorst,
            Profile::Pinholes,
        ] {
            let rules = Generator::new(5, profile).rules(300);
            let word = |r: &PdrRule| r.id as u32 ^ 0x5a5a;
            let collected: PartitionSort = rules.iter().map(|r| (r.clone(), word(r))).collect();
            let mut inserted = PartitionSort::new();
            for r in &rules {
                inserted.insert_with_word(r.clone(), word(r));
            }
            assert_eq!(collected.image, inserted.image, "{profile:?}");
            assert_eq!(collected.index, inserted.index, "{profile:?}");
        }
        let empty: PartitionSort = std::iter::empty().collect();
        assert!(empty.lookup(&PacketKey::default()).is_none());
    }

    #[test]
    fn empty_lookup_is_none() {
        let ps = PartitionSort::new();
        assert!(ps.lookup(&PacketKey::default()).is_none());
        assert!(ps.is_empty());
    }
}
