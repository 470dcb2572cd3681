//! The manifest reader against the committed baselines: a byte-exact
//! round trip (field order, optional-field omission and `f64`
//! formatting are the column table's contract), and no panic on any
//! damaged manifest.

use l25gc_bench::run::render_report;
use l25gc_bench::{compare, RunManifest};
use l25gc_codec::{json, Value};
use proptest::prelude::*;

const BASELINES: [(&str, &str); 3] = [
    (
        "capacity",
        include_str!("../../../results/BENCH_capacity_baseline.json"),
    ),
    (
        "scenarios",
        include_str!("../../../results/BENCH_scenarios_baseline.json"),
    ),
    (
        "dispatch",
        include_str!("../../../results/BENCH_dispatch_baseline.json"),
    ),
];

#[test]
fn committed_baselines_round_trip_byte_for_byte() {
    for (name, text) in BASELINES {
        let manifest = RunManifest::from_json(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            manifest.to_json(),
            text,
            "{name} baseline re-serializes exactly"
        );
        assert_eq!(
            compare(&manifest, &manifest, 10.0).unwrap(),
            vec![],
            "{name}"
        );
    }
}

/// A value of some other type than the one a reader expects.
fn swapped(op: u64) -> Value {
    match op % 6 {
        0 => Value::Null,
        1 => Value::Bool(true),
        2 => Value::U64(op),
        3 => Value::F64(-1.5),
        4 => Value::Str("x".into()),
        _ => Value::Array(vec![Value::U64(op)]),
    }
}

/// Walks into `v` along `script`, then deletes or type-swaps what it
/// reached.
fn damage(v: &mut Value, script: &mut std::slice::Iter<'_, u64>) {
    let Some(&op) = script.next() else { return };
    let pick = (op / 4) as usize;
    match v {
        Value::Object(fields) if !fields.is_empty() => {
            let i = pick % fields.len();
            match op % 4 {
                0 => drop(fields.remove(i)),
                1 => fields[i].1 = swapped(op),
                _ => damage(&mut fields[i].1, script),
            }
        }
        Value::Array(items) if !items.is_empty() => {
            let i = pick % items.len();
            match op % 4 {
                0 => drop(items.remove(i)),
                1 => items[i] = swapped(op),
                _ => damage(&mut items[i], script),
            }
        }
        leaf => *leaf = swapped(op),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn damaged_manifests_are_ok_or_err_never_a_panic(
        which in 0usize..3,
        scripts in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 1..6), 1..4),
        cut in any::<u64>(),
    ) {
        let text = BASELINES[which].1;
        let mut v = json::parse(text).expect("baseline is JSON");
        for script in &scripts {
            damage(&mut v, &mut script.iter());
        }
        // Whatever still reads must also digest, compare and re-serialize.
        if let Ok(m) = RunManifest::from_json(&json::to_string(&v)) {
            let _ = render_report(&m);
            prop_assert!(compare(&m, &m, 10.0).is_ok());
            prop_assert!(RunManifest::from_json(&m.to_json()).is_ok());
        }
        // Truncation anywhere (all baselines are ASCII) is an error.
        let cut = cut as usize % text.len();
        prop_assert!(RunManifest::from_json(&text[..cut]).is_err());
    }
}
