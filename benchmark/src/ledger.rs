//! The traced run: every per-layer metric of `BENCHMARK.json`, measured
//! from outside through the layers' public functions.
//!
//! For each workload the ledger prints rows (self time per op of each
//! layer the replay can reach), their sum, the untraced cost per op of
//! the same workload, and the difference — the *residual*: cost that
//! sits behind a single opaque call (`Driver::run`'s loop glue and
//! worker threads, `Upf::forward`'s FAR logic, `Engine` + mailbox). A
//! residual is a named metric, not an error: it is what a later
//! in-program tracing change has to split.
//!
//! The host's speed drifts by ±10–20 % over minutes, so a workload's
//! untraced reference and its replays are measured in interleaved
//! rounds (reference, replay with the recorder off, replay with it on)
//! and every figure is the median over the rounds: rows and reference
//! see the same weather.
//!
//! The ledger is computed whole whatever `--workload` says, because a
//! traced run has to report every per-layer metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use l25gc_load::{Driver, LoadConfig, ProfileSet};
use l25gc_resilience::Replica;

use crate::cp::{self, TracedWorld, KINDS};
use crate::gen;
use crate::load::{self, Load, LoadDigest};
use crate::probes;
use crate::report::{self, Metric};
use crate::span::{self, Recorder, SelfTotals, Span};
use crate::stats;
use crate::upf;
use crate::Outcome;

/// Interleaved rounds per workload. Two, not more: a traced run does a
/// fixed amount of work whatever `--seconds` says, and it has to end well
/// inside the driver's 180 s on a host several times slower than the one
/// it was sized on (two rounds ≈ 35 s there, three ≈ 55 s).
const ROUNDS: usize = 2;

/// What one replay did: how many ops, in how many wall ns.
struct Replayed {
    ops: u64,
    wall_ns: u64,
}

/// One workload as the ledger drives it.
trait Traced {
    /// One untraced run of the workload; returns its cost per op in ns.
    fn reference(&mut self) -> Result<f64, String>;
    /// One replay of the workload's layers under `rec`.
    fn replay(&mut self, rec: &mut Recorder) -> Result<Replayed, String>;
}

/// The interleaved rounds of one workload.
struct Rounds {
    /// Untraced cost per op, one per round.
    untraced: Vec<f64>,
    /// Self ns per op of every span name, one per round.
    rows: BTreeMap<&'static str, Vec<f64>>,
    /// Wall ns of the replays with the recorder off / on.
    off_ns: Vec<u64>,
    on_ns: Vec<u64>,
    /// Spans, their totals and the op count of the last traced replay
    /// (allocation counts repeat exactly, so any round will do).
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, SelfTotals>,
    ops: u64,
}

impl Rounds {
    /// Runs [`ROUNDS`] × (reference, replay untraced, replay traced).
    fn run(w: &mut impl Traced) -> Result<Rounds, String> {
        let mut r = Rounds {
            untraced: Vec::new(),
            rows: BTreeMap::new(),
            off_ns: Vec::new(),
            on_ns: Vec::new(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
            ops: 0,
        };
        for _ in 0..ROUNDS {
            r.untraced.push(w.reference()?);
            r.off_ns.push(w.replay(&mut Recorder::new(false))?.wall_ns);
            // Free the previous round's spans before recording new ones.
            r.spans = Vec::new();
            let mut rec = Recorder::new(true);
            let done = w.replay(&mut rec)?;
            r.on_ns.push(done.wall_ns);
            r.ops = done.ops;
            r.totals = span::self_totals(rec.spans());
            for (name, t) in &r.totals {
                r.rows
                    .entry(name)
                    .or_default()
                    .push(t.self_ns as f64 / done.ops as f64);
            }
            r.spans = rec.into_spans();
        }
        Ok(r)
    }

    /// Median untraced cost per op.
    fn untraced(&self) -> f64 {
        stats::median(&self.untraced)
    }

    /// Median self ns per op of span `name` (0 if it never ran).
    fn row(&self, name: &str) -> f64 {
        self.rows.get(name).map_or(0.0, |v| stats::median(v))
    }

    /// Allocations per op inside spans named `name`.
    fn allocs_per_op(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |t| t.self_allocs as f64 / self.ops as f64)
    }

    /// Fastest traced ÷ fastest untraced replay − 1. Interference only
    /// ever slows a replay down, so the fastest of each side is the
    /// cleanest pair.
    fn overhead_share(&self) -> f64 {
        let min = |xs: &[u64]| *xs.iter().min().expect("at least one round") as f64;
        min(&self.on_ns) / min(&self.off_ns) - 1.0
    }
}

/// Everything the ledger accumulates.
#[derive(Default)]
struct Ledger {
    metrics: Vec<Metric>,
    text: String,
    traces: Vec<(&'static str, String)>,
    overhead: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn add(&mut self, name: &str, unit: &'static str, v: f64) {
        self.metrics.push(Metric::single(name, unit, v));
    }

    /// Prints one ledger block — `rows` (span name or `(label, value)`
    /// probe rows), their sum, the untraced cost and the residual — files
    /// the workload's trace and overhead, and returns the residual.
    /// `scale` converts ns to the block's unit.
    fn block(
        &mut self,
        workload: &'static str,
        unit: &str,
        scale: f64,
        rounds: &Rounds,
        rows: &[&'static str],
        probe_rows: &[(&'static str, f64)],
    ) -> f64 {
        let untraced = rounds.untraced() * scale;
        let rows: Vec<(&str, f64)> = rows
            .iter()
            .map(|&n| (n, rounds.row(n) * scale))
            .chain(probe_rows.iter().copied())
            .collect();
        let sum: f64 = rows.iter().map(|r| r.1).sum();
        let residual = untraced - sum;
        let out = &mut self.text;
        let _ = writeln!(
            out,
            "## ledger {workload} ({unit} per op; medians of {ROUNDS} interleaved rounds)"
        );
        let mut line = |name: &str, v: f64| {
            let _ = writeln!(
                out,
                "  {name:<40} {v:>12.3}  {:>5.1} %",
                100.0 * v / untraced
            );
        };
        for (name, v) in &rows {
            line(name, *v);
        }
        line("sum of rows", sum);
        line("untraced (tracing off)", untraced);
        line("residual (untraced - rows)", residual);
        self.overhead.push((workload, rounds.overhead_share()));
        self.traces
            .push((workload, span::chrome_trace(workload, &rounds.spans)));
        residual
    }
}

/// A load workload: `Driver::run` as the reference, the layer-major
/// replay of `replay_cfg` as the traced side.
struct LoadTraced<'a> {
    driver: Driver,
    profiles: &'a ProfileSet,
    replay_cfg: &'a LoadConfig,
    offer: bool,
    attempted: u64,
    failed: u64,
    /// What the last reference run reported.
    reference: Option<LoadReference>,
    /// What the last replay found beyond its spans.
    replayed: Option<load::Replay>,
}

/// Digest, wait gauges and counts of one untraced `Driver::run`.
struct LoadReference {
    digest: LoadDigest,
    parks_per_kop: f64,
    blocked_ns_per_op: f64,
    pool_wall_share: f64,
    records_per_event: f64,
}

impl Traced for LoadTraced<'_> {
    fn reference(&mut self) -> Result<f64, String> {
        let (r, pass) = load::timed_run(&self.driver, self.profiles);
        let d = LoadDigest::of(&r);
        d.check()?;
        self.attempted += pass.ops + pass.failed;
        self.failed += pass.failed;
        let ops = pass.ops as f64;
        let (parks, blocked_ns) = load::wait_gauges(&r);
        let records: u64 = r.obs.hists.iter().map(|(_, h)| h.count()).sum();
        self.reference = Some(LoadReference {
            digest: d,
            parks_per_kop: parks as f64 * 1e3 / ops,
            blocked_ns_per_op: blocked_ns as f64 / ops,
            pool_wall_share: r
                .wall
                .map_or(0.0, |w| w.elapsed.as_nanos() as f64 / pass.wall_ns as f64),
            records_per_event: records as f64 / ops,
        });
        Ok(pass.wall_ns as f64 / ops)
    }

    fn replay(&mut self, rec: &mut Recorder) -> Result<Replayed, String> {
        let rep = load::replay(self.replay_cfg, self.profiles, self.offer, rec);
        let done = Replayed {
            ops: rep.ops,
            wall_ns: rep.wall_ns,
        };
        self.replayed = Some(rep);
        Ok(done)
    }
}

/// The rounds of load workload `w`, its last reference and last replay.
fn load_rounds(
    ledger: &mut Ledger,
    w: Load,
    seed: u64,
    profiles: &ProfileSet,
    replay_cfg: &LoadConfig,
    offer: bool,
) -> Result<(Rounds, LoadReference, load::Replay), String> {
    let mut traced = LoadTraced {
        driver: Driver::new(load::config(w, seed)).expect("validated config"),
        profiles,
        replay_cfg,
        offer,
        attempted: 0,
        failed: 0,
        reference: None,
        replayed: None,
    };
    let rounds = Rounds::run(&mut traced)?;
    ledger.attempted += traced.attempted;
    ledger.failed += traced.failed;
    Ok((
        rounds,
        traced.reference.expect("a reference ran"),
        traced.replayed.expect("a replay ran"),
    ))
}

fn load_family(l: &mut Ledger, seed: u64) -> Result<(), String> {
    use load::row;
    let analytic_cfg = load::config(Load::AnalyticPlain, seed);
    let timeline_cfg = load::config(Load::AnalyticTimeline, seed);
    let dispatch_cfg = load::config(Load::DispatchB1, seed);
    let mut calibrate_ms = Vec::new();
    let mut fleet_ms = Vec::new();
    let mut profiles = None;
    for _ in 0..ROUNDS {
        let s = load::setup(&analytic_cfg);
        calibrate_ms.push(s.calibrate_s * 1e3);
        fleet_ms.push(s.fleet_s * 1e3);
        profiles = Some(s.profiles);
    }
    let profiles = profiles.expect("at least one set-up");
    l.add(
        "load.dispatch.calibrate_ms",
        "ms",
        stats::median(&calibrate_ms),
    );
    l.add("load.fleet.build_ms", "ms", stats::median(&fleet_ms));

    let (plain_rounds, plain, plain_replay) =
        load_rounds(l, Load::AnalyticPlain, seed, &profiles, &analytic_cfg, true)?;
    let (timeline_rounds, timeline, timeline_replay) = load_rounds(
        l,
        Load::AnalyticTimeline,
        seed,
        &profiles,
        &timeline_cfg,
        true,
    )?;
    // The threaded backend does not go through the analytic `ShardSet`:
    // its rows are arrival, sample, profile, hist and the ring probe.
    let (b1_rounds, b1, _) =
        load_rounds(l, Load::DispatchB1, seed, &profiles, &dispatch_cfg, false)?;
    let (b32_rounds, b32, _) =
        load_rounds(l, Load::DispatchB32, seed, &profiles, &dispatch_cfg, false)?;
    plain.digest.same_as(
        &timeline.digest,
        "between analytic_plain and analytic_timeline",
    )?;
    b1.digest
        .same_as(&b32.digest, "between dispatch_b1 and dispatch_b32")?;
    plain.digest.same_as(
        &plain_replay.digest,
        "between analytic_plain and its replay",
    )?;
    plain.digest.same_as(
        &timeline_replay.digest,
        "between analytic_plain and the timeline replay",
    )?;
    let ring_b1 = probes::ring_cross_ns(1);
    let ring_b32 = probes::ring_cross_ns(32);

    const SHARED: [&str; 4] = [
        row::FLEET_BUILD,
        row::ARRIVAL,
        row::SAMPLE,
        row::PROFILE_GET,
    ];
    let analytic_rows = [&SHARED[..], &[row::OFFER, row::HIST]].concat();
    let timeline_rows = [&analytic_rows[..], &[row::TIMELINE]].concat();
    let threaded_rows = [&SHARED[..], &[row::HIST]].concat();
    let res_plain = l.block(
        "analytic_plain",
        "ns",
        1.0,
        &plain_rounds,
        &analytic_rows,
        &[],
    );
    let res_tl = l.block(
        "analytic_timeline",
        "ns",
        1.0,
        &timeline_rounds,
        &timeline_rows,
        &[],
    );
    let res_b1 = l.block(
        "dispatch_b1",
        "ns",
        1.0,
        &b1_rounds,
        &threaded_rows,
        &[("nfv.ring.cross (b1 probe)", ring_b1)],
    );
    let res_b32 = l.block(
        "dispatch_b32",
        "ns",
        1.0,
        &b32_rounds,
        &threaded_rows,
        &[("nfv.ring.cross (b32 probe)", ring_b32)],
    );

    let p = &plain_rounds;
    l.add("load.arrival.next_ns", "ns", p.row(row::ARRIVAL));
    l.add("load.fleet.sample_ns", "ns", p.row(row::SAMPLE));
    l.add(
        "load.dispatch.profile_get_ns",
        "ns",
        p.row(row::PROFILE_GET),
    );
    l.add(
        "load.fleet.infeasible_share",
        "ratio",
        b1.digest.infeasible as f64 / b1.digest.offered as f64,
    );
    l.add("load.shard.offer_ns", "ns", p.row(row::OFFER));
    l.add(
        "load.shard.offer_allocs_per_kop",
        "count",
        p.allocs_per_op(row::OFFER) * 1e3,
    );
    l.add(
        "obs.hist.record_ns",
        "ns",
        p.row(row::HIST) / plain.records_per_event,
    );
    l.add("obs.hist.named_record_ns", "ns", probes::named_record_ns());
    l.add("obs.hist.log2_record_ns", "ns", probes::log2_record_ns());
    l.add(
        "obs.hist.records_per_event",
        "count",
        plain.records_per_event,
    );
    let windows = timeline_replay.windows_touched;
    l.add(
        "obs.timeline.record_event_ns",
        "ns",
        timeline_rounds.row(row::TIMELINE),
    );
    l.add(
        "obs.timeline.bytes_per_window",
        "B",
        timeline_rounds
            .totals
            .get(row::TIMELINE)
            .map_or(0.0, |t| t.self_bytes as f64)
            / windows.max(1) as f64,
    );
    l.add("obs.timeline.windows_touched", "count", windows as f64);
    l.add("nfv.ring.cross_ns_b1", "ns", ring_b1);
    l.add("nfv.ring.cross_ns_b32", "ns", ring_b32);
    l.add(
        "nfv.ring.same_thread_ns",
        "ns",
        probes::ring_same_thread_ns(),
    );
    for (suffix, r) in [("b1", &b1), ("b32", &b32)] {
        l.add(
            &format!("load.wait.parks_per_kop_{suffix}"),
            "count",
            r.parks_per_kop,
        );
        l.add(
            &format!("load.wait.blocked_ns_per_op_{suffix}"),
            "ns",
            r.blocked_ns_per_op,
        );
        l.add(
            &format!("load.worker.pool_wall_share_{suffix}"),
            "ratio",
            r.pool_wall_share,
        );
    }
    l.add("load.driver.analytic_residual_ns", "ns", res_plain);
    l.add("load.driver.timeline_residual_ns", "ns", res_tl);
    l.add("load.worker.threaded_residual_ns_b1", "ns", res_b1);
    l.add("load.worker.threaded_residual_ns_b32", "ns", res_b32);
    Ok(())
}

/// `upf_forward`: `Upf::forward` over every packet as the reference
/// (each 256-packet burst timed), the layer-major replay as the traced
/// side.
struct UpfTraced {
    upf: l25gc_core::Upf,
    pkts: Vec<gen::PacketSpec>,
    /// ns per packet of every burst of the last reference pass.
    bursts: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Traced for UpfTraced {
    fn reference(&mut self) -> Result<f64, String> {
        self.bursts.clear();
        let (tally, wall_ns, _) =
            report::timed(|| upf::forward_all(&mut self.upf, &self.pkts, Some(&mut self.bursts)));
        tally.check(&self.pkts)?;
        self.attempted += tally.packets;
        self.failed += tally.not_forwarded;
        Ok(wall_ns as f64 / self.pkts.len() as f64)
    }

    fn replay(&mut self, rec: &mut Recorder) -> Result<Replayed, String> {
        let rep = upf::replay(&self.upf, &self.pkts, rec);
        upf::check_histogram(&rep, &self.pkts)?;
        Ok(Replayed {
            ops: self.pkts.len() as u64,
            wall_ns: rep.wall_ns,
        })
    }
}

fn upf_family(l: &mut Ledger, seed: u64) -> Result<(), String> {
    use upf::row;
    let mut build_s = Vec::new();
    let mut built = None;
    for _ in 0..ROUNDS {
        drop(built.take());
        let (u, s) = upf::build(upf::SESSIONS);
        build_s.push(s);
        built = Some(u);
    }
    let mut upf10k = built.expect("at least one build");
    let pkts = gen::packets(seed, upf::SESSIONS, upf::PACKETS);
    // Warm-up pass; it also counts what `Upf::forward` allocates.
    let (a0, _) = crate::alloc::snapshot();
    upf::forward_all(&mut upf10k, &pkts, None).check(&pkts)?;
    let allocs_per_pkt = (crate::alloc::snapshot().0 - a0) as f64 / pkts.len() as f64;

    let mut traced = UpfTraced {
        upf: upf10k,
        pkts,
        bursts: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let rounds = Rounds::run(&mut traced)?;
    l.attempted += traced.attempted;
    l.failed += traced.failed;
    let UpfTraced { bursts, .. } = traced;
    let burst_p99 = stats::percentile(&bursts, 99.0).expect("thousands of bursts per pass");
    let residual = l.block(
        "upf_forward",
        "ns",
        1.0,
        &rounds,
        &[
            row::LOOKUP,
            row::CLASSIFY,
            row::BINDING,
            row::POLICE,
            row::COUNTERS,
        ],
        &[],
    );

    // The cache-resident comparison point: 1 000 sessions.
    let (mut upf1k, _) = upf::build(upf::SESSIONS_1K);
    let pkts1k = gen::packets(seed, upf::SESSIONS_1K, upf::PACKETS / 2);
    upf::forward_all(&mut upf1k, &pkts1k, None);
    let mut fwd1k = Vec::new();
    for _ in 0..ROUNDS {
        let (tally, wall_ns, _) = report::timed(|| upf::forward_all(&mut upf1k, &pkts1k, None));
        tally.check(&pkts1k)?;
        fwd1k.push(wall_ns as f64 / pkts1k.len() as f64);
    }
    let mut rec1k = Recorder::new(true);
    upf::check_histogram(&upf::replay(&upf1k, &pkts1k, &mut rec1k), &pkts1k)?;
    let lookup_1k = span::self_totals(rec1k.spans())
        .get(row::LOOKUP)
        .map_or(0.0, |t| t.self_ns as f64)
        / pkts1k.len() as f64;
    drop((rec1k, upf1k, pkts1k));
    let (ps10k, ll10k, tss10k) = probes::classifier_lookup_ns_10k();

    l.add("nfv.session_table.lookup_ns", "ns", rounds.row(row::LOOKUP));
    l.add("nfv.session_table.lookup_ns_1k", "ns", lookup_1k);
    l.add(
        "classifier.ps.lookup_ns_16",
        "ns",
        rounds.row(row::CLASSIFY),
    );
    l.add("core.upf.qer_binding_ns", "ns", rounds.row(row::BINDING));
    l.add("core.qer.police_ns", "ns", rounds.row(row::POLICE));
    l.add("sim.counters.inc_ns", "ns", rounds.row(row::COUNTERS));
    l.add("core.upf.forward_residual_ns", "ns", residual);
    l.add("core.upf.forward_ns_1k", "ns", stats::median(&fwd1k));
    l.add("core.upf.allocs_per_pkt", "count", allocs_per_pkt);
    l.add("core.upf.burst_ns_per_pkt_p99", "ns", burst_p99);
    l.add("classifier.ps.lookup_ns_10k", "ns", ps10k);
    l.add("classifier.ll.lookup_ns_10k", "ns", ll10k);
    l.add("classifier.tss.lookup_ns_10k", "ns", tss10k);
    l.add(
        "core.upf.establish_us",
        "us",
        stats::median(&build_s) * 1e6 / f64::from(upf::SESSIONS),
    );
    l.add("classifier.ps.insert_us", "us", probes::ps_insert_us());
    Ok(())
}

/// `cp_lifecycle`: `World` + `Engine` with every procedure timed as the
/// reference, the benchmark-owned delivery loop as the traced side; the
/// loop must leave the event log the reference left.
struct CpTraced {
    seed: u64,
    order: Vec<u64>,
    /// Wall µs per procedure of each kind, one per reference run.
    phase_us: [Vec<f64>; 6],
    /// Wall µs of every procedure of the last reference run.
    per_proc_us: Vec<f64>,
    /// `core.events` of the last reference run.
    events: Vec<l25gc_core::EventRecord>,
    /// Envelopes the last traced loop delivered.
    delivered: u64,
    attempted: u64,
    failed: u64,
}

impl CpTraced {
    const PROCS: u64 = KINDS.len() as u64 * cp::UES;
}

impl Traced for CpTraced {
    fn reference(&mut self) -> Result<f64, String> {
        let (mut eng, _) = cp::build_world(self.seed, cp::UES);
        let (times, wall_ns, _) = report::timed(|| cp::lifecycle(&mut eng, &self.order, true));
        let world = eng.into_world();
        let digest = cp::CpDigest::of(&world.core, &world.ran);
        digest.check(cp::UES)?;
        self.attempted += Self::PROCS;
        self.failed += Self::PROCS.saturating_sub(digest.completed());
        for (k, ns) in times.phase_ns.iter().enumerate() {
            self.phase_us[k].push(*ns as f64 / 1e3 / cp::UES as f64);
        }
        self.per_proc_us = times.per_proc_us;
        self.events = world.core.events;
        Ok(wall_ns as f64 / Self::PROCS as f64)
    }

    fn replay(&mut self, rec: &mut Recorder) -> Result<Replayed, String> {
        let mut tw = TracedWorld::new(cp::UES);
        let (_, wall_ns, _) = report::timed(|| tw.lifecycle(&self.order, rec));
        cp::check_same_events(&tw.core.events, &self.events)?;
        self.delivered = tw.delivered;
        Ok(Replayed {
            ops: Self::PROCS,
            wall_ns,
        })
    }
}

fn cp_family(l: &mut Ledger, seed: u64) -> Result<(), String> {
    let procs = CpTraced::PROCS;
    let mut traced = CpTraced {
        seed,
        order: gen::ue_order(seed, cp::UES),
        phase_us: Default::default(),
        per_proc_us: Vec::new(),
        events: Vec::new(),
        delivered: 0,
        attempted: 0,
        failed: 0,
    };
    let rounds = Rounds::run(&mut traced)?;
    l.attempted += traced.attempted;
    l.failed += traced.failed;
    let CpTraced {
        order,
        phase_us,
        per_proc_us,
        delivered,
        ..
    } = traced;
    let nf_rows = [
        "core.net.handle.amf",
        "core.net.handle.smf",
        "core.net.handle.ausf",
        "core.net.handle.udm",
        "core.net.handle.pcf",
        "core.net.handle.upf_c",
        "core.net.handle.upf_u",
        "core.net.handle.other",
        cp::row::RAN,
    ];
    let residual = l.block("cp_lifecycle", "us", 1e-3, &rounds, &nf_rows, &[]);
    let _ = writeln!(
        l.text,
        "  (benchmark-owned loop glue, not a row: {:.3} us per op)",
        (rounds.row(cp::row::PROC) + rounds.row(cp::row::ROOT)) / 1e3
    );
    if let Some((p, v)) = stats::top_percentile(&per_proc_us) {
        let _ = writeln!(
            l.text,
            "  (procedure wall time: median {:.3} us, p{p:.3} {v:.3} us, n={})",
            stats::median(&per_proc_us),
            per_proc_us.len()
        );
    }

    // The same lifecycle at 1 000 UEs, for the scaling rows.
    let order_1k = gen::ue_order(seed, cp::UES_1K);
    let mut phase_us_1k: [Vec<f64>; 6] = Default::default();
    for _ in 0..ROUNDS {
        let (mut eng, _) = cp::build_world(seed, cp::UES_1K);
        let t = cp::lifecycle(&mut eng, &order_1k, false);
        let w = eng.world();
        cp::CpDigest::of(&w.core, &w.ran).check(cp::UES_1K)?;
        for (k, ns) in t.phase_ns.iter().enumerate() {
            phase_us_1k[k].push(*ns as f64 / 1e3 / cp::UES_1K as f64);
        }
    }

    // A checkpoint of the core while every UE holds a session.
    let (mut eng, _) = cp::build_world(seed, cp::UES);
    cp::attach_all(&mut eng, &order);
    let now = eng.now();
    let core = &eng.world().core;
    let mut ckpt_ms = Vec::new();
    for _ in 0..5 {
        let (replica, wall_ns, _) = report::timed(|| Replica::new(core.clone(), now));
        ckpt_ms.push(wall_ns as f64 / 1e6);
        drop(replica);
    }

    for nf in &nf_rows[..7] {
        l.add(
            &nf.replace("core.net.handle.", "core.net.handle_us."),
            "us",
            rounds.row(nf) / 1e3,
        );
    }
    l.add("ran.handle_us", "us", rounds.row(cp::row::RAN) / 1e3);
    l.add("sim.queue.push_pop_ns", "ns", probes::queue_push_pop_ns());
    l.add("pkt.pfcp.encode_ns", "ns", probes::pfcp_encode_ns());
    l.add(
        "core.net.msgs_per_proc",
        "count",
        delivered as f64 / procs as f64,
    );
    // Every allocation of the traced lifecycle happens under its root span.
    let allocs: u64 = rounds.totals.values().map(|t| t.self_allocs).sum();
    l.add(
        "core.net.allocs_per_proc",
        "count",
        allocs as f64 / procs as f64,
    );
    l.add("testbed.world.residual_us", "us", residual);
    for (k, (_, name)) in KINDS.iter().enumerate() {
        l.add(
            &format!("core.net.proc_us.{name}"),
            "us",
            stats::median(&phase_us[k]),
        );
    }
    l.add(
        "core.net.proc_us_p99",
        "us",
        stats::percentile(&per_proc_us, 99.0).expect("60 000 procedures timed"),
    );
    for (k, (_, name)) in KINDS.iter().enumerate() {
        l.add(
            &format!("core.net.scaling_10k_over_1k.{name}"),
            "ratio",
            stats::median(&phase_us[k]) / stats::median(&phase_us_1k[k]),
        );
    }
    l.add(
        "resilience.checkpoint_ms_10k",
        "ms",
        stats::median(&ckpt_ms),
    );
    Ok(())
}

/// Computes the whole ledger for `seed`: every per-layer metric in
/// `BENCHMARK.json` order, the printed ledgers as the outcome's text, and
/// one Chrome trace per workload under `out`. `attempted` / `failed`
/// count the ops of the untraced reference runs.
pub fn run(seed: u64, out: &Path) -> Result<Outcome, String> {
    let mut l = Ledger::default();
    load_family(&mut l, seed)?;
    upf_family(&mut l, seed)?;
    cp_family(&mut l, seed)?;
    for w in crate::WORKLOADS {
        let share = l
            .overhead
            .iter()
            .find(|o| o.0 == w)
            .expect("every workload traced")
            .1;
        l.add(&format!("trace.overhead_share.{w}"), "ratio", share);
    }
    for (workload, json) in &l.traces {
        if let Err(e) = crate::write_out(out, &format!("trace_{workload}.json"), json) {
            eprintln!("l25gc-benchmark: cannot write the {workload} trace: {e}");
        }
    }
    let _ = writeln!(
        l.text,
        "# per-layer ledger, computed whole whatever --workload says; \
         in-process, no socket or link crossed"
    );
    Ok(Outcome {
        attempted: l.attempted,
        failed: l.failed,
        metrics: l.metrics,
        text: l.text,
    })
}
