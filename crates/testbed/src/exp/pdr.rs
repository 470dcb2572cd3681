//! Fig 11 and the §5.3 update comparison: PDR lookup and update
//! performance — **wall-clock measured**, not simulated.
//!
//! The scenarios mirror the paper: ClassBench-style 20-dimension rule
//! sets; for TSS_Best all rules share one tuple; for TSS_Worst each rule
//! has its own tuple (the match in the last table probed); for PDR-LL
//! "the packet randomly matches a PDR in the second half of the list".
//!
//! The headline sweep uses the `Pinholes` profile — pairwise-disjoint
//! per-flow rules, the growth driver §2.3 describes — because the
//! paper's PDR-LL premise (a match landing mid-list) requires rules that
//! don't shadow each other. The wildcard-heavy `Mixed` profile drives
//! the §5.3 update comparison only.

use std::time::{Duration, Instant};

use l25gc_classifier::{
    Classifier, Generator, LinearList, PacketKey, PartitionSort, PdrRule, Profile, TupleSpace,
};

/// The rule counts Fig 11 sweeps.
pub const RULE_COUNTS: [usize; 6] = [2, 10, 100, 1_000, 5_000, 10_000];

/// One Fig 11 point for one structure.
#[derive(Debug, Clone)]
pub struct PdrRow {
    /// Structure name.
    pub structure: &'static str,
    /// Number of installed rules.
    pub rules: usize,
    /// Mean lookup latency (ns).
    pub lookup_ns: f64,
    /// Lookup-limited forwarding rate at 68 B packets (Mpps).
    pub mpps: f64,
}

/// Most lookups each [`fig11`] point times; the tests spend a tenth of it.
const LOOKUP_BUDGET: usize = 200_000;
/// A point stops early once it has done at least this many lookups...
const MIN_LOOKUPS: usize = 1_000;
/// ...and spent at least this long on them. A slow structure (PDR-TSS_Worst
/// at ~400 µs per lookup) would otherwise take 80 s per point.
const MIN_WALL: Duration = Duration::from_millis(100);

/// Mean latency of one lookup, over at most `budget` of them. The clock is
/// read after whole passes over `keys`, at doubling lookup counts from
/// [`MIN_LOOKUPS`], so reading it adds nothing measurable to fast lookups.
fn measure_lookups<C: Classifier>(c: &C, keys: &[PacketKey], budget: usize) -> f64 {
    let reps = (budget / keys.len()).max(1);
    // Warm up.
    for key in keys.iter().take(100) {
        std::hint::black_box(c.lookup(key));
    }
    let start = Instant::now();
    let (mut done, mut check) = (0, MIN_LOOKUPS);
    for _ in 0..reps {
        for key in keys {
            std::hint::black_box(c.lookup(key));
        }
        done += keys.len();
        if done >= check {
            if start.elapsed() >= MIN_WALL {
                break;
            }
            check = done * 2;
        }
    }
    start.elapsed().as_nanos() as f64 / done as f64
}

/// Installs `rules` into `c` and measures it on `keys`.
fn row<C: Classifier>(
    structure: &'static str,
    mut c: C,
    rules: &[PdrRule],
    keys: &[PacketKey],
    budget: usize,
) -> PdrRow {
    for r in rules {
        c.insert(r.clone());
    }
    let lookup_ns = measure_lookups(&c, keys, budget);
    PdrRow {
        structure,
        rules: rules.len(),
        lookup_ns,
        // Forwarding rate when the classifier is the bottleneck stage:
        // 1e9 ns/s ÷ ns ÷ 1e6.
        mpps: 1e3 / lookup_ns,
    }
}

/// The `profile` rule set PDR-LL and PDR-PS share, with keys matching
/// the second half of the list.
fn second_half_set(n: usize, profile: Profile) -> (Vec<PdrRule>, Vec<PacketKey>) {
    let mut gen = Generator::new(11, profile);
    let rules = gen.rules(n);
    let keys = rules[n / 2..].iter().map(|r| gen.matching_key(r)).collect();
    (rules, keys)
}

/// PDR-TSS best case: all rules share one tuple.
fn tss_best_row(n: usize, budget: usize) -> PdrRow {
    let mut gen = Generator::new(12, Profile::TssBest);
    let rules = gen.rules(n);
    let keys: Vec<PacketKey> = rules.iter().map(|r| gen.matching_key(r)).collect();
    row("PDR-TSS_Best", TupleSpace::new(), &rules, &keys, budget)
}

/// PDR-TSS worst case: a tuple per rule; match in the last sub-table
/// (we probe with keys of the lowest-priority rules, forcing full
/// traversal since pruning can't help).
fn tss_worst_row(n: usize, budget: usize) -> PdrRow {
    let mut gen = Generator::new(13, Profile::TssWorst);
    let rules = gen.rules(n);
    let keys: Vec<PacketKey> = rules[n.saturating_sub(3)..]
        .iter()
        .map(|r| gen.matching_key(r))
        .collect();
    row("PDR-TSS_Worst", TupleSpace::new(), &rules, &keys, budget)
}

/// Runs the Fig 11a/b sweep. Returns rows for PDR-LL, PDR-TSS (best and
/// worst structure), and PDR-PS.
pub fn fig11(rule_counts: &[usize]) -> Vec<PdrRow> {
    fig11_rows(rule_counts, Profile::Pinholes, LOOKUP_BUDGET)
}

fn fig11_rows(rule_counts: &[usize], profile: Profile, budget: usize) -> Vec<PdrRow> {
    let mut rows = Vec::new();
    for &n in rule_counts {
        let (rules, keys) = second_half_set(n, profile);
        rows.push(row("PDR-LL", LinearList::new(), &rules, &keys, budget));
        rows.push(row("PDR-PS", PartitionSort::new(), &rules, &keys, budget));
        rows.push(tss_best_row(n, budget));
        rows.push(tss_worst_row(n, budget));
    }
    rows
}

/// §5.3 update-latency comparison: mean latency of a single rule update
/// (insert of a fresh rule + removal of an old one), 50 repetitions.
#[derive(Debug, Clone)]
pub struct UpdateRow {
    /// Structure name.
    pub structure: &'static str,
    /// Mean update latency (µs).
    pub update_us: f64,
}

/// Measures update latency on a 100-rule installed base (the
/// session-scale rule counts the paper's update experiment concerns).
pub fn pdr_update() -> Vec<UpdateRow> {
    const BASE: usize = 100;
    const UPDATES: usize = 50;
    let mut gen = Generator::new(21, Profile::Mixed);
    let rules = gen.rules(BASE + UPDATES);
    let (base, fresh) = rules.split_at(BASE);

    fn measure<C: Classifier>(c: &mut C, base: &[PdrRule], fresh: &[PdrRule]) -> f64 {
        for r in base {
            c.insert(r.clone());
        }
        let start = Instant::now();
        for (i, r) in fresh.iter().enumerate() {
            c.insert(r.clone());
            c.remove(base[i].id).expect("present");
        }
        // Each iteration is one insert + one remove = two updates.
        start.elapsed().as_nanos() as f64 / (fresh.len() * 2) as f64 / 1e3
    }

    vec![
        UpdateRow {
            structure: "PDR-LL",
            update_us: measure(&mut LinearList::new(), base, fresh),
        },
        UpdateRow {
            structure: "PDR-TSS",
            update_us: measure(&mut TupleSpace::new(), base, fresh),
        },
        UpdateRow {
            structure: "PDR-PS",
            update_us: measure(&mut PartitionSort::new(), base, fresh),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_for<'a>(rows: &'a [PdrRow], s: &str, n: usize) -> &'a PdrRow {
        rows.iter()
            .find(|r| r.structure == s && r.rules == n)
            .expect("row")
    }

    /// Each row's best of five runs of `rows`: one preempted run must not
    /// decide a wall-clock comparison.
    fn best_of_five(rows: impl Fn() -> Vec<PdrRow>) -> Vec<PdrRow> {
        let mut best = rows();
        for _ in 1..5 {
            for (b, r) in best.iter_mut().zip(rows()) {
                if r.lookup_ns < b.lookup_ns {
                    *b = r;
                }
            }
        }
        best
    }

    #[test]
    fn fig11_shape_holds_at_1k_rules() {
        // Reduced sweep and lookup budget to keep the test fast; the
        // bench runs the full one.
        let rows = best_of_five(|| fig11_rows(&[1_000], Profile::Pinholes, LOOKUP_BUDGET / 10));
        let ll = rows_for(&rows, "PDR-LL", 1_000);
        let ps = rows_for(&rows, "PDR-PS", 1_000);
        let best = rows_for(&rows, "PDR-TSS_Best", 1_000);
        let worst = rows_for(&rows, "PDR-TSS_Worst", 1_000);
        // The paper's ordering at large rule counts:
        // PS ≤ TSS_Best < LL << TSS_Worst.
        assert!(
            ps.lookup_ns < ll.lookup_ns,
            "PS {} < LL {}",
            ps.lookup_ns,
            ll.lookup_ns
        );
        assert!(
            best.lookup_ns < ll.lookup_ns,
            "TSS_Best beats LL at 1k rules"
        );
        assert!(worst.lookup_ns > best.lookup_ns * 5.0, "TSS_Worst blows up");
        // Fig 11b is the reciprocal: PS has the best throughput.
        assert!(ps.mpps >= best.mpps * 0.5);
    }

    #[test]
    fn tss_best_is_flat_across_scale() {
        // Only the TSS_Best structure is under test: the other three
        // at 5 000 rules are minutes of unoptimised lookups.
        let rows = best_of_five(|| {
            vec![
                tss_best_row(100, LOOKUP_BUDGET / 10),
                tss_best_row(5_000, LOOKUP_BUDGET / 10),
            ]
        });
        let (small, large) = (rows[0].lookup_ns, rows[1].lookup_ns);
        assert!(large < small * 3.0, "near-constant: {small} → {large}");
    }

    #[test]
    fn update_ordering_matches_paper() {
        // Each structure's best of five timings: one preempted run of 100
        // updates must not decide the order.
        let runs: Vec<Vec<UpdateRow>> = (0..5).map(|_| pdr_update()).collect();
        let get = |s: &str| {
            runs.iter()
                .flatten()
                .filter(|r| r.structure == s)
                .map(|r| r.update_us)
                .fold(f64::INFINITY, f64::min)
        };
        let ll = get("PDR-LL");
        let tss = get("PDR-TSS");
        let ps = get("PDR-PS");
        // Paper: LL 0.38 µs < TSS 1.41 µs < PS 6.14 µs — and "the
        // difference is not substantial". The robust shape: the linear
        // list updates fastest, and the two advanced structures are the
        // same order of magnitude as each other (their relative order
        // flips with optimization level and allocator noise).
        assert!(ll < tss, "LL {ll} < TSS {tss}");
        assert!(ll < ps, "LL {ll} < PS {ps}");
        assert!(
            tss < ps * 5.0 && ps < tss * 5.0,
            "same magnitude: TSS {tss}, PS {ps}"
        );
        assert!(ps < 100.0, "PS update stays microseconds-scale: {ps}");
    }
}
