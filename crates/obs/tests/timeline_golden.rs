//! Golden bytes for the three timeline export formats.
//!
//! `fixtures/timeline_golden.{csv,jsonl,prom}` were written by the code
//! that preceded the lane table (`timeline::LANES`) and are the oracle
//! any later change to the writers is judged by: a refactor must leave
//! them untouched. Regenerate only for a deliberate format change —
//! `cargo test -p l25gc-obs --test timeline_golden -- --ignored` — and
//! say so in the commit.

use l25gc_obs::timeline::{prometheus_header, timeline_csv_header, MetricsTimeline};
use l25gc_sim::{SimDuration, SimTime};

/// A label that needs every `prom_escape` arm (and JSON escaping).
const SERIES: &str = "L25GC@1x \"q\\n\"\nb";

fn ms(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1_000_000)
}

/// A small timeline touching every lane: three shards (the last one
/// never recorded into), spans crossing window edges, a non-zero park
/// ratio, two batch flushes and a dispatcher duty cycle.
fn golden_timeline() -> MetricsTimeline {
    let mut tl = MetricsTimeline::new(SimDuration::from_millis(100), 3);
    for (shard, at, lat) in [
        (0, 10, 2_000_000),
        (0, 20, 3_500_000),
        (0, 160, 10_000_000),
        (1, 40, 750_000),
        (1, 290, 42_000_000),
    ] {
        tl.record_dispatched(shard, ms(at));
        let done = SimTime::from_nanos(ms(at).as_nanos() + lat);
        tl.record_completion(shard, done, lat);
        tl.record_stages(shard, done, lat / 5, lat / 2, lat - lat / 5 - lat / 2);
    }
    tl.record_dispatched(1, ms(250));
    tl.record_shed(1, ms(45));
    tl.record_shed(1, ms(46));
    tl.record_shed(0, ms(210));
    tl.record_backpressure(1, ms(250));
    tl.record_depth(1, ms(40), 7);
    tl.record_depth(1, ms(41), 3);
    tl.record_depth(0, ms(150), 12);
    tl.record_busy(0, ms(70), ms(230));
    tl.record_busy(1, ms(40), ms(41));
    tl.record_occupancy(0, ms(60), ms(230));
    tl.record_occupancy(0, ms(90), ms(120));
    tl.record_occupancy(1, ms(290), ms(332));
    tl.record_batch_flush(0, ms(10), 32);
    tl.record_batch_flush(1, ms(250), 5);
    tl.record_dispatcher_utilization(3_000, 8_000);
    let horizon = SimDuration::from_millis(350);
    tl.finalize_idle(0, horizon, 0.25);
    tl.finalize_idle(1, horizon, 0.6);
    tl
}

/// The CSV export of one series, as `reproduce --metrics-out` writes it.
fn csv(tl: &MetricsTimeline) -> String {
    format!("{}{}", timeline_csv_header(), tl.to_csv_rows(SERIES))
}

fn exports() -> [(&'static str, String); 3] {
    let tl = golden_timeline();
    [
        ("timeline_golden.csv", csv(&tl)),
        ("timeline_golden.jsonl", tl.to_jsonl(SERIES)),
        (
            "timeline_golden.prom",
            format!(
                "{}{}",
                prometheus_header(),
                tl.to_prometheus_samples(SERIES)
            ),
        ),
    ]
}

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn exports_match_the_committed_bytes() {
    for (name, text) in exports() {
        let want = std::fs::read_to_string(fixture(name)).expect("fixture is committed");
        assert_eq!(text, want, "{name} drifted from the golden bytes");
    }
}

#[test]
fn golden_timeline_exercises_every_lane() {
    let csv = csv(&golden_timeline());
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    // The series label holds a newline, so rows are not lines: split on
    // the label instead and drop the (empty) piece before the first row.
    let body = &csv[csv.find('\n').unwrap() + 1..];
    let rows: Vec<Vec<&str>> = body
        .split(SERIES)
        .skip(1)
        .map(|r| r.trim_end().split(',').collect())
        .collect();
    assert_eq!(
        rows.len(),
        4 + 4,
        "shards 0 and 1 hold four windows, shard 2 none"
    );
    for (col, name) in header.iter().enumerate().skip(4) {
        assert!(
            rows.iter().any(|r| r[col] != "0"),
            "column {name} is zero in every golden row"
        );
    }
}

#[test]
#[ignore = "rewrites the golden fixtures; only for a deliberate format change"]
fn regenerate_fixtures() {
    for (name, text) in exports() {
        std::fs::write(fixture(name), text).expect("fixture is writable");
    }
}
