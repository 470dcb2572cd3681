//! Property tests for the timeline exporters the lane table drives:
//! over random recorder sequences the three formats agree with each
//! other, the JSONL reader inverts the writer, `absorb` is recording in
//! one place, and the two parsers are total on damaged input.

use l25gc_codec::json;
use l25gc_obs::timeline::{
    parse_timeline_jsonl_line, timeline_csv_header, validate_prometheus, MetricsTimeline,
};
use l25gc_sim::{SimDuration, SimTime};
use proptest::prelude::*;

const SHARDS: u16 = 3;

/// One recorder call: `(recorder, shard, at_ns, a, b)`.
type Op = (usize, u16, u64, u64, u64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (
        0usize..10,
        0..SHARDS,
        0u64..1_000_000_000,
        0u64..250_000_000,
        any::<u64>(),
    );
    proptest::collection::vec(op, 0..60)
}

/// Replays `ops` into a fresh 100 ms timeline. Spans run up to 250 ms,
/// so they cross window edges.
fn record(ops: &[Op]) -> MetricsTimeline {
    let mut tl = MetricsTimeline::new(SimDuration::from_millis(100), SHARDS);
    for &(recorder, shard, at_ns, a, b) in ops {
        let at = SimTime::from_nanos(at_ns);
        let end = SimTime::from_nanos(at_ns + a);
        match recorder {
            0 => tl.record_dispatched(shard, at),
            1 => tl.record_completion(shard, at, a),
            2 => tl.record_stages(shard, at, a / 5, a / 2, a - a / 5 - a / 2),
            3 => tl.record_shed(shard, at),
            4 => tl.record_backpressure(shard, at),
            5 => tl.record_depth(shard, at, b % 1_000),
            6 => tl.record_batch_flush(shard, at, b % 129),
            7 => tl.record_busy(shard, at, end),
            8 => tl.record_occupancy(shard, at, end),
            _ => tl.record_dispatcher_utilization(a, a + b % 1_000),
        }
    }
    tl
}

/// `record`, then the idle buckets tiled as a finished run has them.
fn finished(ops: &[Op], parked_ratio: f64) -> MetricsTimeline {
    let mut tl = record(ops);
    for shard in 0..SHARDS {
        tl.finalize_idle(shard, SimDuration::from_millis(1_150), parked_ratio);
    }
    tl
}

/// Series labels with the characters the escapers care about (quote,
/// backslash, multi-byte) but no comma or newline: CSV writes the label
/// raw, and the sweep labels it is given (`L25GC@0.9x`) hold neither.
const SERIES: &str = "[a-zA-Z0-9@./ \"\\\\é-]{0,12}";

/// Each stored lane's CSV column, Prometheus family, and whether a
/// shard's sample is the max (not the sum) of its windows — spelled out
/// here so the table is checked against something it did not generate.
const LANE_FAMILIES: [(&str, &str, bool); 11] = [
    ("dispatched", "l25gc_dispatched_total", false),
    ("completed", "l25gc_completed_total", false),
    ("shed", "l25gc_shed_total", false),
    ("backpressure", "l25gc_backpressure_total", false),
    ("peak_depth", "l25gc_peak_depth", true),
    ("busy_ns", "l25gc_worker_busy_ns_total", false),
    ("blocked_ns", "l25gc_worker_blocked_ns_total", false),
    ("parked_ns", "l25gc_worker_parked_ns_total", false),
    ("occupancy_ns", "l25gc_ring_occupancy_ns_total", false),
    ("batch_flushes", "l25gc_dispatch_batch_flushes_total", false),
    ("batch_events", "l25gc_dispatch_batch_events_total", false),
];

/// `text` damaged three ways at byte `at` (wrapped into range): cut
/// short, one byte replaced, and a multi-byte run spliced in.
fn damaged(text: &str, at: usize, byte: u8) -> [String; 3] {
    let bytes = text.as_bytes();
    let at = at % bytes.len();
    let lossy = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    let mut replaced = bytes.to_vec();
    replaced[at] = byte;
    let spliced = [&bytes[..at], "é∞\u{1f980}".as_bytes(), &bytes[at..]].concat();
    [lossy(&bytes[..at]), lossy(&replaced), lossy(&spliced)]
}

proptest! {
    /// Every JSONL line parses, and re-serializes to the identical
    /// string; the lines read by name sum to the timeline's totals.
    #[test]
    fn jsonl_lines_round_trip_to_the_same_bytes(
        ops in ops(), parked in 0.0f64..1.0, series in SERIES,
    ) {
        let tl = finished(&ops, parked);
        let (mut dispatched, mut flushes) = (0, 0);
        for line in tl.to_jsonl(&series).lines() {
            let parsed = parse_timeline_jsonl_line(line);
            prop_assert!(parsed.is_ok(), "{:?} on {}", parsed, line);
            let parsed = parsed.unwrap();
            prop_assert_eq!(json::to_string(&parsed.to_value()), line);
            dispatched += parsed.column("dispatched").unwrap_or(0);
            flushes += parsed.column("batch_flushes").unwrap_or(0);
        }
        prop_assert_eq!(dispatched, tl.dispatched_total());
        prop_assert_eq!(flushes, tl.batch_flush_total());
    }

    /// Every CSV row has exactly the header's column count, and one row
    /// per window of every shard lane.
    #[test]
    fn csv_rows_match_the_header_width(
        ops in ops(), parked in 0.0f64..1.0, series in SERIES,
    ) {
        let tl = finished(&ops, parked);
        let width = timeline_csv_header().trim_end().split(',').count();
        let rows = tl.to_csv_rows(&series);
        for row in rows.lines() {
            prop_assert_eq!(row.split(',').count(), width, "{}", row);
        }
        let windows: usize = (0..SHARDS).map(|s| tl.lane(s).len()).sum();
        prop_assert_eq!(rows.lines().count(), windows);
    }

    /// Each shard's Prometheus lane sample is its CSV column folded over
    /// the shard's rows: summed, or the max for the depth gauge.
    #[test]
    fn prometheus_lane_samples_fold_the_csv_columns(
        ops in ops(), parked in 0.0f64..1.0,
    ) {
        let tl = finished(&ops, parked);
        let prom = tl.to_prometheus("s");
        prop_assert!(validate_prometheus(&prom).is_ok(), "{:?}", validate_prometheus(&prom));
        let header: Vec<&str> = timeline_csv_header().trim_end().split(',').collect();
        let csv = tl.to_csv_rows("s");
        let rows: Vec<Vec<&str>> = csv.lines().map(|r| r.split(',').collect()).collect();
        for (column, family, is_max) in LANE_FAMILIES {
            let at = header.iter().position(|h| *h == column).expect("column exists");
            for shard in 0..SHARDS {
                let cells = rows
                    .iter()
                    .filter(|r| r[1] == shard.to_string())
                    .map(|r| r[at].parse::<u64>().expect("integer cell"));
                let want = if is_max { cells.max().unwrap_or(0) } else { cells.sum() };
                let sample = format!("{family}{{series=\"s\",shard=\"{shard}\"}} {want}\n");
                prop_assert!(prom.contains(&sample), "no `{}` in the exposition", sample.trim_end());
            }
        }
    }

    /// Absorbing one timeline into another equals recording both
    /// sequences into one, whichever side absorbs.
    #[test]
    fn absorb_equals_recording_in_one_place(xs in ops(), ys in ops()) {
        let one = record(&[xs.clone(), ys.clone()].concat());
        let (mut ab, mut ba) = (record(&xs), record(&ys));
        ab.absorb(&record(&ys));
        ba.absorb(&record(&xs));
        prop_assert_eq!(&ab, &one, "x absorbs y");
        prop_assert_eq!(&ba, &one, "y absorbs x");
    }

    /// Truncated, byte-mutated and non-ASCII variants of valid output
    /// come back `Ok` or `Err` from both parsers — never a panic — and
    /// whatever the JSONL reader accepts it also writes back and re-reads.
    #[test]
    fn parsers_are_total_on_damaged_output(
        ops in ops(), series in SERIES, at in any::<usize>(), byte in any::<u8>(),
    ) {
        let tl = finished(&ops, 0.5);
        for line in tl.to_jsonl(&series).lines() {
            for bad in damaged(line, at, byte) {
                if let Ok(parsed) = parse_timeline_jsonl_line(&bad) {
                    let rewritten = json::to_string(&parsed.to_value());
                    prop_assert_eq!(parse_timeline_jsonl_line(&rewritten), Ok(parsed));
                }
            }
        }
        let prom = tl.to_prometheus(&series);
        for bad in damaged(&prom, at, byte) {
            let _ = validate_prometheus(&bad);
        }
        for line in prom.lines().filter(|l| !l.starts_with('#')).take(40) {
            for bad in damaged(line, at, byte) {
                let _ = validate_prometheus(&format!("# TYPE l25gc_stage_latency_ns histogram\n{bad}\n"));
            }
        }
    }
}
