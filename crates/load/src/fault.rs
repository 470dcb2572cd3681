//! Scripted fault injection: a [`FaultPlan`] of kill / freeze / recover
//! events at virtual times, mirroring the declarative shape of
//! [`crate::arrival::ScriptedArrival`] rate profiles.
//!
//! A plan parses from the compact spec syntax used by the CLI —
//! `"kill@3s:shard=2,recover@5s"` — and compiles, against a
//! [`FailoverTimeline`], into per-shard [`Outage`] intervals the
//! execution engines apply identically:
//!
//! - **kill**: the shard's primary dies at `at`; its replica serves
//!   again at [`FailoverTimeline::recovered_at`] (detect → reroute →
//!   overlapped replay), so the outage is the paper's few-ms failover
//!   window, not a 3GPP-scale re-attach. Procedures in flight across the
//!   window are replayed from the packet log: their service restarts at
//!   the outage end and they are counted in
//!   [`Disruption::replayed`](crate::driver::Disruption).
//! - **freeze**: the shard stalls (e.g. a hypervisor pause) until an
//!   explicit matching `recover` event — or the run horizon if none
//!   follows. No failover fires; work queues.
//!
//! Both backends floor the FIFO service recurrence with the same
//! intervals, so analytic runs stay byte-deterministic per seed and
//! threaded runs measure the same virtual-time disruption while actually
//! killing the worker thread and failing its rings over to a standby.

use std::fmt;

use l25gc_resilience::FailoverTimeline;
use l25gc_sim::{SimDuration, SimTime};

/// What a scripted fault event does to its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// The shard's primary dies; the failover machinery recovers it.
    Kill,
    /// The shard stalls without dying; no failover fires.
    Freeze,
    /// Ends the most recent unmatched freeze on the shard.
    Recover,
}

impl FaultKind {
    fn as_str(self) -> &'static str {
        match self {
            FaultKind::Kill => "kill",
            FaultKind::Freeze => "freeze",
            FaultKind::Recover => "recover",
        }
    }
}

/// One scripted fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What happens.
    pub(crate) kind: FaultKind,
    /// When it happens (virtual time from run start).
    pub(crate) at: SimDuration,
    /// Which shard it happens to.
    pub(crate) shard: u16,
}

/// A declarative script of fault events, ordered by time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The events, non-decreasing in `at`.
    pub(crate) events: Vec<FaultSpec>,
}

/// One closed service interval a fault carves out of a shard's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Outage {
    /// The afflicted shard.
    pub(crate) shard: u16,
    /// When service stops.
    pub(crate) start: SimTime,
    /// When service resumes (exclusive).
    pub(crate) end: SimTime,
    /// True when the outage is a kill (failover + replay), false for a
    /// freeze (plain stall).
    pub(crate) kill: bool,
}

/// Floors a FIFO service start past every outage its service interval
/// would overlap, in start order (`start` only moves forward, so one
/// pass over a sorted list handles cascades). Returns the floored start
/// and whether a kill outage was crossed (= the procedure came back via
/// log replay). Both execution backends call this with identical
/// intervals, which is what keeps analytic runs byte-deterministic and
/// the two backends in agreement on completion counts.
pub(crate) fn floor_service(
    outages: &[Outage],
    mut start: SimTime,
    occupancy: SimDuration,
) -> (SimTime, bool) {
    let mut crossed_kill = false;
    for o in outages {
        if start < o.end && start + occupancy > o.start {
            start = o.end;
            if o.kill {
                crossed_kill = true;
            }
        }
    }
    (start, crossed_kill)
}

fn parse_time(s: &str) -> Result<SimDuration, String> {
    let (digits, scale_ns) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000.0)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000.0)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000.0)
    } else {
        return Err(format!("time `{s}` needs a s/ms/us suffix"));
    };
    let v: f64 = digits
        .parse()
        .map_err(|_| format!("bad time value `{digits}`"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("time `{s}` must be finite and non-negative"));
    }
    Ok(SimDuration::from_nanos((v * scale_ns).round() as u64))
}

fn fmt_time(d: SimDuration, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let ns = d.as_nanos();
    if ns.is_multiple_of(1_000_000_000) {
        write!(f, "{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        write!(f, "{}ms", ns / 1_000_000)
    } else {
        // Sub-ms precision: round to whole microseconds (the parser's
        // finest unit, so display∘parse stays the identity).
        write!(f, "{}us", ns / 1_000)
    }
}

impl fmt::Display for FaultPlan {
    /// The canonical spec string; [`FaultPlan::parse`] round-trips it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{}@", ev.kind.as_str())?;
            fmt_time(ev.at, f)?;
            write!(f, ":shard={}", ev.shard)?;
        }
        Ok(())
    }
}

impl FaultPlan {
    /// Parses the compact spec syntax: comma-separated
    /// `kind@time[:shard=N]` events, where `kind` is `kill` / `freeze` /
    /// `recover`, `time` takes a `s`/`ms`/`us` suffix, and an omitted
    /// shard repeats the previous event's (the first defaults to 0).
    ///
    /// Syntax and ordering are checked here; structural fit (shard
    /// bounds, horizon, freeze/recover pairing) is checked against the
    /// run config by [`FaultPlan::validate`].
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut events = Vec::new();
        let mut prev_shard = 0u16;
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err("empty fault event (stray comma?)".into());
            }
            let (head, shard) = match part.split_once(':') {
                Some((head, opt)) => {
                    let n = opt
                        .strip_prefix("shard=")
                        .ok_or_else(|| format!("expected `shard=N` after `:`, got `{opt}`"))?;
                    let shard = n
                        .parse::<u16>()
                        .map_err(|_| format!("bad shard index `{n}`"))?;
                    (head, shard)
                }
                None => (part, prev_shard),
            };
            let (kind, at) = head
                .split_once('@')
                .ok_or_else(|| format!("expected `kind@time`, got `{head}`"))?;
            let kind = match kind {
                "kill" => FaultKind::Kill,
                "freeze" => FaultKind::Freeze,
                "recover" => FaultKind::Recover,
                other => {
                    return Err(format!(
                        "unknown fault kind `{other}` (expected kill, freeze, or recover)"
                    ))
                }
            };
            let at = parse_time(at)?;
            if let Some(last) = events.last() {
                let last: &FaultSpec = last;
                if at < last.at {
                    return Err(format!(
                        "fault times must be non-decreasing ({} after {})",
                        at.as_secs_f64(),
                        last.at.as_secs_f64()
                    ));
                }
            }
            events.push(FaultSpec { kind, at, shard });
            prev_shard = shard;
        }
        Ok(FaultPlan { events })
    }

    /// Checks the plan fits a run with `shards` shards over `duration`:
    /// every shard index in range, every time inside the horizon, each
    /// `recover` matching an open `freeze`, at most one `kill` per shard
    /// (one standby each), and nothing scripted for a shard after its
    /// kill.
    pub fn validate(&self, shards: u16, duration: SimDuration) -> Result<(), &'static str> {
        if self.events.is_empty() {
            return Err("fault plan has no events");
        }
        let mut frozen = vec![false; shards as usize];
        let mut killed = vec![false; shards as usize];
        for ev in &self.events {
            if ev.shard >= shards {
                return Err("fault shard index out of range");
            }
            if ev.at >= duration {
                return Err("fault time at or beyond the run horizon");
            }
            let s = ev.shard as usize;
            if killed[s] {
                return Err("shard has events scripted after its kill");
            }
            match ev.kind {
                FaultKind::Kill => {
                    if frozen[s] {
                        return Err("cannot kill a frozen shard (recover it first)");
                    }
                    killed[s] = true;
                }
                FaultKind::Freeze => {
                    if frozen[s] {
                        return Err("shard is already frozen");
                    }
                    frozen[s] = true;
                }
                FaultKind::Recover => {
                    if !frozen[s] {
                        return Err("recover without a prior freeze on the shard");
                    }
                    frozen[s] = false;
                }
            }
        }
        Ok(())
    }

    /// Compiles the plan into per-shard service outages, sorted by
    /// (shard, start). Kill outages end at the failover timeline's
    /// recovery instant; unmatched freezes run to the horizon.
    pub(crate) fn outages(
        &self,
        timeline: &FailoverTimeline,
        duration: SimDuration,
    ) -> Vec<Outage> {
        let horizon = SimTime::ZERO + duration;
        let mut open: Vec<(u16, SimTime)> = Vec::new();
        let mut out = Vec::new();
        for ev in &self.events {
            let at = SimTime::ZERO + ev.at;
            match ev.kind {
                FaultKind::Kill => out.push(Outage {
                    shard: ev.shard,
                    start: at,
                    end: timeline.recovered_at(at).min(horizon),
                    kill: true,
                }),
                FaultKind::Freeze => open.push((ev.shard, at)),
                FaultKind::Recover => {
                    if let Some(i) = open.iter().rposition(|&(s, _)| s == ev.shard) {
                        let (shard, start) = open.remove(i);
                        out.push(Outage {
                            shard,
                            start,
                            end: at,
                            kill: false,
                        });
                    }
                }
            }
        }
        for (shard, start) in open {
            out.push(Outage {
                shard,
                start,
                end: horizon,
                kill: false,
            });
        }
        out.sort_by_key(|o| (o.shard, o.start.as_nanos()));
        out
    }

    /// The kill events in plan order (the standby roster the threaded
    /// backend pre-spawns against).
    pub fn kills(&self) -> impl Iterator<Item = &FaultSpec> {
        self.events.iter().filter(|e| e.kind == FaultKind::Kill)
    }

    /// Returns a copy with every event time scaled by `factor` (for
    /// shrunk test scenarios whose rate segments scale the same way).
    pub fn scaled(&self, factor: f64) -> FaultPlan {
        FaultPlan {
            events: self
                .events
                .iter()
                .map(|ev| FaultSpec {
                    at: SimDuration::from_nanos((ev.at.as_nanos() as f64 * factor).round() as u64),
                    ..*ev
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l25gc_nfv::cost::CostModel;

    fn paper_timeline() -> FailoverTimeline {
        FailoverTimeline::paper(&CostModel::paper())
    }

    #[test]
    fn parse_accepts_the_documented_syntax() {
        let plan = FaultPlan::parse("kill@3s:shard=2,recover@5s").unwrap();
        assert_eq!(
            plan.events,
            vec![
                FaultSpec {
                    kind: FaultKind::Kill,
                    at: SimDuration::from_secs(3),
                    shard: 2
                },
                // Omitted shard repeats the previous event's.
                FaultSpec {
                    kind: FaultKind::Recover,
                    at: SimDuration::from_secs(5),
                    shard: 2
                },
            ]
        );
        let plan = FaultPlan::parse("freeze@250ms").unwrap();
        assert_eq!(plan.events[0].shard, 0, "first event defaults to shard 0");
        assert_eq!(plan.events[0].at, SimDuration::from_millis(250));
        assert_eq!(
            FaultPlan::parse("kill@1500us").unwrap().events[0].at,
            SimDuration::from_micros(1_500)
        );
    }

    #[test]
    fn parse_rejects_malformed_specs_with_one_line_reasons() {
        for (spec, needle) in [
            ("", "empty fault event"),
            ("kill@3s,,recover@5s", "empty fault event"),
            ("explode@3s", "unknown fault kind"),
            ("kill3s", "expected `kind@time`"),
            ("kill@3", "needs a s/ms/us suffix"),
            ("kill@-1s", "finite and non-negative"),
            ("kill@xs", "bad time value"),
            ("kill@3s:core=2", "expected `shard=N`"),
            ("kill@3s:shard=banana", "bad shard index"),
            ("kill@3s,freeze@2s", "non-decreasing"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(needle), "`{spec}`: got `{err}`");
            assert!(!err.contains('\n'), "one-line contract: `{err}`");
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        for spec in [
            "kill@3s:shard=2,recover@5s",
            "freeze@250ms,recover@1s,kill@2s:shard=1",
            "freeze@1500us",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
            assert_eq!(plan, reparsed, "via `{}`", plan);
        }
    }

    #[test]
    fn validate_enforces_structure_against_the_run_shape() {
        let dur = SimDuration::from_secs(10);
        let ok = FaultPlan::parse("freeze@1s:shard=1,recover@2s,kill@3s:shard=0").unwrap();
        assert!(ok.validate(2, dur).is_ok());
        for (spec, needle) in [
            ("kill@1s:shard=5", "out of range"),
            ("kill@11s", "beyond the run horizon"),
            ("recover@1s", "without a prior freeze"),
            ("freeze@1s,freeze@2s", "already frozen"),
            ("freeze@1s,kill@2s", "cannot kill a frozen shard"),
            ("kill@1s,freeze@2s", "after its kill"),
            ("kill@1s,kill@2s", "after its kill"),
        ] {
            let err = FaultPlan::parse(spec)
                .unwrap()
                .validate(2, dur)
                .unwrap_err();
            assert!(err.contains(needle), "`{spec}`: got `{err}`");
        }
        assert!(FaultPlan::default().validate(2, dur).is_err(), "no events");
    }

    #[test]
    fn kill_outage_spans_the_failover_window_only() {
        let tl = paper_timeline();
        let plan = FaultPlan::parse("kill@3s:shard=1").unwrap();
        let outages = plan.outages(&tl, SimDuration::from_secs(10));
        assert_eq!(outages.len(), 1);
        let o = outages[0];
        assert_eq!(o.shard, 1);
        assert!(o.kill);
        assert_eq!(o.start, SimTime::ZERO + SimDuration::from_secs(3));
        let span = o.end.duration_since(o.start);
        // The paper's detect→reroute→replay window, not a re-attach.
        assert!(
            span >= SimDuration::from_millis(1) && span <= SimDuration::from_millis(10),
            "failover outage was {span}"
        );
        assert_eq!(o.end, tl.recovered_at(o.start));
    }

    #[test]
    fn freeze_runs_to_recover_or_horizon() {
        let tl = paper_timeline();
        let plan = FaultPlan::parse("freeze@1s:shard=0,recover@2s,freeze@3s:shard=1").unwrap();
        let outages = plan.outages(&tl, SimDuration::from_secs(5));
        assert_eq!(outages.len(), 2);
        assert_eq!(
            (outages[0].start, outages[0].end, outages[0].kill),
            (
                SimTime::ZERO + SimDuration::from_secs(1),
                SimTime::ZERO + SimDuration::from_secs(2),
                false
            )
        );
        assert_eq!(
            outages[1].end,
            SimTime::ZERO + SimDuration::from_secs(5),
            "unmatched freeze stalls to the horizon"
        );
    }

    #[test]
    fn floor_service_pushes_overlapping_work_past_the_outage() {
        let sec = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        let outages = [
            Outage {
                shard: 0,
                start: sec(2),
                end: sec(3),
                kill: true,
            },
            Outage {
                shard: 0,
                start: sec(4),
                end: sec(5),
                kill: false,
            },
        ];
        let occ = SimDuration::from_millis(500);
        // Service finishing before the outage starts is untouched.
        assert_eq!(floor_service(&outages, sec(1), occ), (sec(1), false));
        // Service that would straddle the kill restarts after it.
        let late = SimTime::ZERO + SimDuration::from_millis(1_800);
        assert_eq!(floor_service(&outages, late, occ), (sec(3), true));
        // Starting inside the kill also floors, and a long-occupancy
        // procedure cascades through the freeze right behind it.
        let (start, killed) = floor_service(&outages, sec(2), SimDuration::from_secs(2));
        assert_eq!((start, killed), (sec(5), true));
        // Work after every outage is untouched.
        assert_eq!(floor_service(&outages, sec(6), occ), (sec(6), false));
    }

    #[test]
    fn scaled_shrinks_event_times_like_scenario_segments() {
        let plan = FaultPlan::parse("kill@4s:shard=1").unwrap();
        assert_eq!(
            plan.scaled(0.25).events[0].at,
            SimDuration::from_secs(1),
            "fault times scale with the scenario"
        );
    }
}
