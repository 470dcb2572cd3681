//! Differential tests: PDR-TSS and PDR-PS must return exactly the same
//! best-match as the reference PDR-LL for any rule set and any key —
//! including after arbitrary interleaved removals and reinsertions.

use l25gc_classifier::{
    Classifier, Field, FieldRange, Generator, LinearList, PacketKey, PartitionSort, PdrRule,
    Profile, TupleSpace, NDIMS,
};
use proptest::prelude::*;

/// An arbitrary rule: a few constrained dimensions, the rest wildcards.
fn arb_rule(id: u64) -> impl Strategy<Value = PdrRule> {
    (
        0u32..1000, // precedence
        proptest::collection::vec((any::<u8>(), any::<u32>(), 0u32..64), 0..6),
    )
        .prop_map(move |(precedence, dims)| {
            let mut rule = PdrRule::any(id, precedence);
            for (dim_sel, base, span) in dims {
                let d = usize::from(dim_sel) % NDIMS;
                let lo = base % 256; // small domain to force overlaps
                let hi = lo + span;
                rule.fields[d] = FieldRange { lo, hi };
            }
            rule
        })
}

fn arb_ruleset(max: usize) -> impl Strategy<Value = Vec<PdrRule>> {
    (1..max).prop_flat_map(|n| (0..n).map(|i| arb_rule(i as u64 + 1)).collect::<Vec<_>>())
}

/// Keys drawn from the same small domain the rules constrain.
fn arb_key() -> impl Strategy<Value = PacketKey> {
    proptest::collection::vec(0u32..320, NDIMS).prop_map(|vals| {
        let mut key = PacketKey::default();
        key.values.copy_from_slice(&vals);
        key
    })
}

/// The dimensions the update sequences constrain: the first and the last
/// field, so partitions sort them in both field orders.
const OP_DIMS: [Field; 4] = [Field::SrcIp, Field::DstIp, Field::DstPort, Field::Ext7];

/// Ranges over the values `0..4`, few enough that equal-range duplicates
/// and overlapping-but-unequal pairs are both common.
const OP_RANGES: [FieldRange; 8] = [
    FieldRange { lo: 0, hi: 0 },
    FieldRange { lo: 1, hi: 1 },
    FieldRange { lo: 2, hi: 2 },
    FieldRange { lo: 3, hi: 3 },
    FieldRange { lo: 0, hi: 1 },
    FieldRange { lo: 2, hi: 3 },
    FieldRange { lo: 1, hi: 2 },
    FieldRange::ANY,
];

/// A rule over `OP_DIMS`, each dimension a wildcard or an `OP_RANGES`
/// entry, with a precedence from a range small enough to tie.
fn arb_op_rule() -> impl Strategy<Value = (u32, [usize; 4])> {
    (
        0u32..4,
        proptest::collection::vec(0usize..OP_RANGES.len() + 3, 4),
    )
        .prop_map(|(precedence, picks)| {
            // Indices past the table are extra wildcards: most rules
            // leave most dimensions open, as PDRs do.
            let mut dims = [OP_RANGES.len() - 1; 4];
            for (d, &p) in dims.iter_mut().zip(&picks) {
                *d = p.min(OP_RANGES.len() - 1);
            }
            (precedence, dims)
        })
}

fn op_rule(id: u64, (precedence, picks): (u32, [usize; 4])) -> PdrRule {
    let mut rule = PdrRule::any(id, precedence);
    for (field, p) in OP_DIMS.into_iter().zip(picks) {
        rule = rule.with(field, OP_RANGES[p]);
    }
    rule
}

/// Every key over `OP_DIMS` with values `0..5` (4 is outside every
/// bounded range).
fn op_keys() -> Vec<PacketKey> {
    let mut keys = Vec::new();
    for i in 0..5u32.pow(4) {
        let mut key = PacketKey::default();
        let mut rest = i;
        for field in OP_DIMS {
            key = key.with(field, rest % 5);
            rest /= 5;
        }
        keys.push(key);
    }
    keys
}

/// PartitionSort agrees with the linear list on every key in `keys`.
fn ps_agrees(ll: &LinearList, ps: &PartitionSort, keys: &[PacketKey]) -> Result<(), String> {
    if ll.len() != ps.len() {
        return Err(format!("len: ll {} ps {}", ll.len(), ps.len()));
    }
    for key in keys {
        let (want, got) = (ll.lookup(key).map(|r| r.id), ps.lookup(key).map(|r| r.id));
        if want != got {
            return Err(format!(
                "key {:?}: ll {want:?} ps {got:?}",
                &key.values[..4]
            ));
        }
    }
    Ok(())
}

fn build_all(rules: &[PdrRule]) -> (LinearList, TupleSpace, PartitionSort) {
    let mut ll = LinearList::new();
    let mut tss = TupleSpace::new();
    let mut ps = PartitionSort::new();
    for r in rules {
        ll.insert(r.clone());
        tss.insert(r.clone());
        ps.insert(r.clone());
    }
    (ll, tss, ps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// All three classifiers agree on arbitrary rules and keys.
    #[test]
    fn classifiers_agree(rules in arb_ruleset(40), keys in proptest::collection::vec(arb_key(), 1..30)) {
        let (ll, tss, ps) = build_all(&rules);
        for key in &keys {
            let expect = ll.lookup(key).map(|r| r.id);
            prop_assert_eq!(tss.lookup(key).map(|r| r.id), expect, "TSS disagrees with LL");
            prop_assert_eq!(ps.lookup(key).map(|r| r.id), expect, "PS disagrees with LL");
        }
    }

    /// Agreement survives removing an arbitrary subset of rules.
    #[test]
    fn classifiers_agree_after_removals(
        rules in arb_ruleset(30),
        remove_mask in proptest::collection::vec(any::<bool>(), 30),
        keys in proptest::collection::vec(arb_key(), 1..20),
    ) {
        let (mut ll, mut tss, mut ps) = build_all(&rules);
        for (i, r) in rules.iter().enumerate() {
            if remove_mask.get(i).copied().unwrap_or(false) {
                let a = ll.remove(r.id).map(|x| x.id);
                let b = tss.remove(r.id).map(|x| x.id);
                let c = ps.remove(r.id).map(|x| x.id);
                prop_assert_eq!(a, b);
                prop_assert_eq!(a, c);
            }
        }
        prop_assert_eq!(ll.len(), tss.len());
        prop_assert_eq!(ll.len(), ps.len());
        for key in &keys {
            let expect = ll.lookup(key).map(|r| r.id);
            prop_assert_eq!(tss.lookup(key).map(|r| r.id), expect);
            prop_assert_eq!(ps.lookup(key).map(|r| r.id), expect);
        }
    }

    /// Interleaved inserts, removes and reinserts over a handful of rule
    /// ids: a slot re-filled with a differently shaped rule widens the
    /// active dimensions of whichever partition takes it, after earlier
    /// removals left that partition's rows and bounding box behind.
    /// PartitionSort must agree with the linear list after every step.
    #[test]
    fn partition_sort_tracks_linear_list_through_updates(
        ops in proptest::collection::vec((0u64..10, any::<bool>(), arb_op_rule()), 1..40),
    ) {
        let keys = op_keys();
        let mut ll = LinearList::new();
        let mut ps = PartitionSort::new();
        let mut live: Vec<Option<PdrRule>> = vec![None; 10];
        for (step, (id, reinsert, shape)) in ops.into_iter().enumerate() {
            let slot = &mut live[id as usize];
            if let Some(old) = slot.take() {
                prop_assert_eq!(ps.remove(old.id), ll.remove(old.id));
                if reinsert {
                    // The same id, possibly another shape: a PDR update.
                    let rule = op_rule(old.id, shape);
                    ll.insert(rule.clone());
                    ps.insert(rule.clone());
                    *slot = Some(rule);
                }
            } else {
                let rule = op_rule(id, shape);
                ll.insert(rule.clone());
                ps.insert(rule.clone());
                *slot = Some(rule);
            }
            if let Err(e) = ps_agrees(&ll, &ps, &keys) {
                prop_assert!(false, "step {}: {}", step, e);
            }
        }
    }

    /// Keys sampled *inside* a rule must always find a match at least as
    /// good as that rule.
    #[test]
    fn matching_keys_always_hit(seed in any::<u64>()) {
        let mut gen = Generator::new(seed, Profile::Mixed);
        let rules = gen.rules(64);
        let (ll, tss, ps) = build_all(&rules);
        for r in &rules {
            let key = gen.matching_key(r);
            for (name, hit) in [
                ("ll", ll.lookup(&key)),
                ("tss", tss.lookup(&key)),
                ("ps", ps.lookup(&key)),
            ] {
                let hit = hit.expect("key inside a rule must match");
                prop_assert!(hit.precedence <= r.precedence, "{} returned worse match", name);
            }
        }
    }
}

#[test]
fn generator_profiles_agree_across_classifiers() {
    // Deterministic (non-proptest) cross-check on all three profiles with
    // larger rule counts, the sizes Fig 11 sweeps.
    for profile in [Profile::Mixed, Profile::TssBest, Profile::TssWorst] {
        let mut gen = Generator::new(42, profile);
        let rules = gen.rules(500);
        let (ll, tss, ps) = build_all(&rules);
        for _ in 0..500 {
            let key = gen.random_key();
            let expect = ll.lookup(&key).map(|r| r.id);
            assert_eq!(tss.lookup(&key).map(|r| r.id), expect, "{profile:?}");
            assert_eq!(ps.lookup(&key).map(|r| r.id), expect, "{profile:?}");
        }
        for r in &rules {
            let key = gen.matching_key(r);
            let expect = ll.lookup(&key).map(|r| r.id);
            assert_eq!(tss.lookup(&key).map(|r| r.id), expect, "{profile:?}");
            assert_eq!(ps.lookup(&key).map(|r| r.id), expect, "{profile:?}");
        }
    }
}

/// Applies `op` to both classifiers, then checks they agree on `keys`.
fn step(
    ll: &mut LinearList,
    ps: &mut PartitionSort,
    keys: &[PacketKey],
    op: impl Fn(&mut dyn Classifier),
) {
    op(ll);
    op(ps);
    ps_agrees(ll, ps, keys).unwrap();
}

#[test]
fn partition_widens_after_removals_and_keeps_duplicate_runs() {
    let keys = op_keys();
    let (mut ll, mut ps) = (LinearList::new(), PartitionSort::new());
    let (ll, ps) = (&mut ll, &mut ps);
    // One partition over SrcIp: disjoint ranges, plus an equal-range
    // duplicate run of three at precedences 2, 1, 1.
    let src = |id, prec, r: usize| op_rule(id, (prec, [r, 7, 7, 7]));
    for (id, prec, r) in [(1, 3, 0), (2, 3, 2), (3, 2, 1), (4, 1, 1), (5, 1, 1)] {
        step(ll, ps, &keys, |c| c.insert(src(id, prec, r)));
    }
    assert_eq!(ps.partition_count(), 1);
    // Drop the run's head, then the box's low edge.
    for id in [4, 1] {
        step(ll, ps, &keys, |c| assert!(c.remove(id).is_some()));
    }
    // Rules constraining Ext7 and DstPort join the same partition: each
    // widens its active dimensions and repacks the rows.
    step(ll, ps, &keys, |c| c.insert(op_rule(6, (0, [3, 7, 7, 2]))));
    step(ll, ps, &keys, |c| c.insert(op_rule(7, (1, [0, 7, 5, 0]))));
    assert_eq!(ps.partition_count(), 1);
    // Reinsert the old head beside its duplicates; empty the run.
    step(ll, ps, &keys, |c| c.insert(src(4, 1, 1)));
    for id in [3, 4, 5] {
        step(ll, ps, &keys, |c| assert!(c.remove(id).is_some()));
    }
    // An overlapping-but-unequal rule opens a second partition.
    step(ll, ps, &keys, |c| c.insert(op_rule(8, (0, [6, 7, 7, 7]))));
    assert_eq!(ps.partition_count(), 2);
}
