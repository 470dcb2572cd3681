//! Pins the calibrated procedure profiles every load figure is built on.
//!
//! `fixtures/calibrated_profiles.txt` holds, for each deployment and
//! procedure kind, the unloaded latency, shard occupancy (both in ns) and
//! message count that `calibrate` measured while the AMF/SMF tables were
//! still split into shards. A change to how calibration walks the core
//! (envelope order, table layout, handler costs) must leave it untouched. Regenerate only for a deliberate cost-model
//! change — `cargo test -p l25gc-load --test calibration_pinned --
//! --ignored` — and say so in the commit.

use l25gc_core::Deployment;
use l25gc_load::calibrate;

fn table() -> String {
    let mut out = String::from("deployment kind latency_ns occupancy_ns messages\n");
    for dep in [Deployment::Free5gc, Deployment::OnvmUpf, Deployment::L25gc] {
        for (kind, p) in calibrate(dep).iter() {
            out += &format!(
                "{dep:?} {kind:?} {} {} {}\n",
                p.latency.as_nanos(),
                p.occupancy.as_nanos(),
                p.messages
            );
        }
    }
    out
}

fn fixture() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/calibrated_profiles.txt")
}

#[test]
fn calibrated_profiles_are_pinned() {
    let want = std::fs::read_to_string(fixture()).expect("fixture is committed");
    assert_eq!(table(), want, "calibrated profiles drifted");
}

#[test]
#[ignore = "rewrites the pinned profiles; only for a deliberate cost-model change"]
fn regenerate_fixture() {
    std::fs::write(fixture(), table()).expect("fixture is writable");
}
