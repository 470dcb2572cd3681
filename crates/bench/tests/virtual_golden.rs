//! Virtual-time digests of the `reproduce` outputs.
//!
//! Every command below runs the built binary in a fresh directory. Its
//! stdout and every file it writes there are FNV-1a hashed and compared
//! against `fixtures/virtual_digests.txt`, one line per (command, seed,
//! output). None of these outputs reads a wall clock, so a refactor of
//! anything they run (the core's procedures, the World, the load engine,
//! the exporters) must leave every digest unchanged.
//!
//! Regenerate only for a deliberate change to virtual time, and say why
//! in the commit: `cargo test -p l25gc-bench --test virtual_golden --
//! --ignored regenerate`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The World-driven experiments: they draw no randomness, so one seed
/// covers them.
const WORLD_IDS: [&str; 12] = [
    "fig8",
    "fig9",
    "fig12",
    "fig13",
    "fig14",
    "fig17",
    "failover-cp",
    "fig15",
    "fig16",
    "ablate-checkpoint",
    "ablate-lb",
    "ablate-canary",
];

/// Closed-form and cost-model tables: no World, no draws, so one seed.
const CLOSED_FORM_IDS: [&str; 4] = ["eq12", "fig7", "fig10", "scaling40g"];

/// Seeds for the load-engine commands, which do draw.
const SEEDS: [u64; 2] = [7, 23];

/// `(arguments, seeds)` for every pinned command.
fn commands() -> Vec<(Vec<&'static str>, &'static [u64])> {
    let capacity = |ext| {
        vec![
            "capacity",
            "--ues",
            "10000",
            "--duration-s",
            "1",
            "--metrics-interval-ms",
            "100",
            "--manifest-out",
            "m.json",
            "--metrics-out",
            ext,
        ]
    };
    vec![
        (WORLD_IDS.to_vec(), &[7]),
        (vec!["--trace-out", "t.jsonl"], &[7]),
        (capacity("tl.csv"), &SEEDS),
        (capacity("tl.jsonl"), &SEEDS),
        (capacity("tl.prom"), &SEEDS),
        (
            vec![
                "scenarios",
                "--ues",
                "20000",
                "--shards",
                "2",
                "--manifest-out",
                "s.json",
            ],
            &SEEDS,
        ),
        (
            vec![
                "scenarios",
                "--ues",
                "5000",
                "--shards",
                "2",
                "--scenario",
                "amf-restart",
                "--fault",
                "kill@2s:shard=1",
            ],
            &SEEDS,
        ),
        (CLOSED_FORM_IDS.to_vec(), &[7]),
    ]
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `args --seed seed` in an empty directory; returns `(output,
/// digest)` for stdout and each file written, files in name order.
fn digests_of(args: &[&str], seed: u64, dir: &Path) -> Vec<(String, u64)> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("scratch directory");
    let seed_arg = seed.to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .args(["--seed", &seed_arg])
        .current_dir(dir)
        .output()
        .expect("reproduce binary runs");
    assert!(
        out.status.success(),
        "`reproduce {}` --seed {seed} failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("scratch directory lists")
        .map(|e| e.expect("directory entry").path())
        .collect();
    files.sort();
    let mut digests = vec![("stdout".to_string(), fnv1a(&out.stdout))];
    for f in files {
        let name = f.file_name().unwrap().to_string_lossy().into_owned();
        digests.push((name, fnv1a(&std::fs::read(&f).expect("output readable"))));
    }
    digests
}

/// One fixture line per output: `digest seed output command...`.
fn current_lines() -> Vec<String> {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("virtual_golden");
    let mut lines = Vec::new();
    for (i, (args, seeds)) in commands().iter().enumerate() {
        for &seed in seeds.iter() {
            let dir = root.join(format!("{i}-{seed}"));
            for (output, digest) in digests_of(args, seed, &dir) {
                lines.push(format!(
                    "{digest:016x} seed={seed} {output} {}",
                    args.join(" ")
                ));
            }
        }
    }
    lines
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/virtual_digests.txt")
}

#[test]
fn virtual_time_outputs_match_the_committed_digests() {
    let want = std::fs::read_to_string(fixture()).expect("fixture is committed");
    let want: Vec<&str> = want.lines().collect();
    let got = current_lines();
    // Key = everything after the digest: seed, output, command.
    let key = |l: &str| l.split_once(' ').map(|(_, k)| k.to_string()).unwrap();
    let mut bad = Vec::new();
    for g in &got {
        match want.iter().find(|w| key(w) == key(g)) {
            Some(w) if *w == g => {}
            Some(w) => bad.push(format!("changed: {} (was {})", g, &w[..16])),
            None => bad.push(format!("not in the fixture: {g}")),
        }
    }
    for w in &want {
        if !got.iter().any(|g| key(g) == key(w)) {
            bad.push(format!("no longer written: {w}"));
        }
    }
    assert!(
        bad.is_empty(),
        "virtual-time outputs drifted from the committed digests:\n{}",
        bad.join("\n")
    );
}

#[test]
#[ignore = "rewrites the fixture; run only for a deliberate virtual-time change"]
fn regenerate() {
    let mut text = current_lines().join("\n");
    text.push('\n');
    std::fs::write(fixture(), text).expect("fixture writable");
}
