//! Seeded arrival processes: Poisson, MMPP-2, and scripted profiles.
//!
//! Open-loop load is a merged stream of procedure arrivals, one process
//! per procedure kind. A homogeneous Poisson process (exponential gaps)
//! models steady signalling load; a 2-phase Markov-modulated Poisson
//! process (MMPP-2) models bursty load — the process alternates between
//! a high-rate and a low-rate phase with exponentially distributed
//! dwell times, which is the standard model for flash-crowd signalling
//! storms in core-network capacity studies.
//!
//! A [`ScriptedArrival`] generalises both to a piecewise rate profile —
//! an ordered list of [`RateSegment`]s (step / linear ramp / hold, with
//! optional per-segment MMPP-2 modulation) — generated by Lewis–Shedler
//! thinning against each segment's rate envelope. Scripted profiles are
//! what the `load::scenario` library (flash crowds, post-outage
//! re-registration, diurnal cycles) is built from.
//!
//! Everything is driven by a forked [`SimRng`], so a given seed yields an
//! identical event sequence (property-tested in `tests/arrival_prop.rs`
//! and `tests/scenario_prop.rs`).

use l25gc_core::UeEvent;
use l25gc_sim::{SimDuration, SimRng, SimTime};

/// One piecewise segment of a scripted rate profile.
///
/// The instantaneous rate runs linearly from [`RateSegment::rate_start`]
/// to [`RateSegment::rate_end`] over [`RateSegment::duration_s`] seconds
/// (equal endpoints make a step/hold). When [`RateSegment::burst`] > 1,
/// the segment's rate is additionally modulated MMPP-2 style between a
/// high and a low phase with that rate ratio; the modulation factors are
/// chosen so the segment's *mean* rate stays on the scripted line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSegment {
    /// Segment length, seconds (must be positive and finite).
    pub duration_s: f64,
    /// Instantaneous rate at the segment start, events/s (≥ 0).
    pub rate_start: f64,
    /// Instantaneous rate at the segment end, events/s (≥ 0).
    pub rate_end: f64,
    /// MMPP-2 modulation ratio for this segment: 1.0 = unmodulated,
    /// `b > 1` alternates the scripted rate between `2b/(1+b)`× (high
    /// phase) and `2/(1+b)`× (low phase).
    pub burst: f64,
}

impl RateSegment {
    /// A constant-rate step: `rate` events/s for `duration_s` seconds.
    pub fn step(duration_s: f64, rate: f64) -> RateSegment {
        RateSegment {
            duration_s,
            rate_start: rate,
            rate_end: rate,
            burst: 1.0,
        }
    }

    /// A hold at `rate` — semantically identical to [`RateSegment::step`];
    /// the separate name keeps scenario scripts readable (a hold is the
    /// recovery tail after a disturbance).
    pub fn hold(duration_s: f64, rate: f64) -> RateSegment {
        RateSegment::step(duration_s, rate)
    }

    /// A linear ramp from `from` to `to` events/s over `duration_s`
    /// seconds.
    pub fn ramp(duration_s: f64, from: f64, to: f64) -> RateSegment {
        RateSegment {
            duration_s,
            rate_start: from,
            rate_end: to,
            burst: 1.0,
        }
    }

    /// Adds MMPP-2 modulation at ratio `burst` to this segment.
    pub fn with_burst(mut self, burst: f64) -> RateSegment {
        self.burst = burst;
        self
    }

    /// The same segment with both rate endpoints scaled by `factor` —
    /// how the merged stream splits a total profile across the event
    /// mix, and how scenario specs written in capacity fractions become
    /// absolute rates.
    pub(crate) fn scaled(&self, factor: f64) -> RateSegment {
        RateSegment {
            rate_start: self.rate_start * factor,
            rate_end: self.rate_end * factor,
            ..*self
        }
    }

    /// The segment's mean rate (modulation preserves it).
    pub fn mean_rate(&self) -> f64 {
        0.5 * (self.rate_start + self.rate_end)
    }

    /// Checks the invariants [`ScriptedArrival`] relies on. The final
    /// segment's end rate must be positive because the profile holds it
    /// forever past the scripted horizon — an infinite arrival stream
    /// with a zero tail rate would never produce another event.
    pub(crate) fn validate(segments: &[RateSegment]) -> Result<(), &'static str> {
        if segments.is_empty() {
            return Err("a scripted profile needs at least one segment");
        }
        for s in segments {
            if !s.duration_s.is_finite() || s.duration_s <= 0.0 {
                return Err("segment durations must be positive and finite");
            }
            if !s.rate_start.is_finite()
                || !s.rate_end.is_finite()
                || s.rate_start < 0.0
                || s.rate_end < 0.0
            {
                return Err("segment rates must be finite and non-negative");
            }
            if !s.burst.is_finite() || s.burst < 1.0 {
                return Err("segment burst must be finite and >= 1");
            }
        }
        if segments.last().is_some_and(|s| s.rate_end <= 0.0) {
            return Err("the final segment must end at a positive rate");
        }
        Ok(())
    }
}

/// A piecewise scripted arrival process: [`RateSegment`]s played back in
/// order, then the final end rate held (unmodulated) forever.
///
/// Events are generated by Lewis–Shedler thinning: candidates are drawn
/// at each segment's rate envelope (the larger endpoint times the
/// high-phase modulation factor) and accepted with probability
/// `λ(t) / λ_max`. Segment boundaries restart the scan exactly — the
/// candidate gap is exponential, so memorylessness makes the restart
/// free of boundary bias (the same idiom as the MMPP-2 phase flip).
/// Everything is a pure function of the [`SimRng`] stream, so a given
/// seed yields an identical event sequence.
#[derive(Debug, Clone)]
pub struct ScriptedArrival {
    segments: Vec<RateSegment>,
    /// Absolute start of each segment plus the tail start (len + 1).
    starts: Vec<SimTime>,
    /// Index of the segment the scan is currently in (`segments.len()`
    /// = the held tail).
    cursor: usize,
    /// Modulation phase, shared across segments.
    in_hi: bool,
    /// Absolute time of the next modulation phase flip.
    phase_end: SimTime,
}

impl ScriptedArrival {
    /// Builds the process; panics if [`RateSegment::validate`] rejects
    /// the profile (drivers validate first and return a typed error).
    pub(crate) fn new(segments: Vec<RateSegment>) -> ScriptedArrival {
        if let Err(e) = RateSegment::validate(&segments) {
            panic!("invalid scripted profile: {e}");
        }
        let mut starts = Vec::with_capacity(segments.len() + 1);
        let mut t = SimTime::ZERO;
        for s in &segments {
            starts.push(t);
            t += SimDuration::from_secs_f64(s.duration_s);
        }
        starts.push(t);
        ScriptedArrival {
            segments,
            starts,
            cursor: 0,
            in_hi: false,
            phase_end: SimTime::ZERO,
        }
    }

    /// Time-weighted mean rate over the scripted span (the held tail is
    /// excluded — it is infinite).
    #[cfg(test)]
    pub(crate) fn mean_rate(&self) -> f64 {
        let span: f64 = self.segments.iter().map(|s| s.duration_s).sum();
        let weighted: f64 = self
            .segments
            .iter()
            .map(|s| s.mean_rate() * s.duration_s)
            .sum();
        weighted / span
    }

    /// MMPP-2 modulation factors for ratio `b`: equal dwell preserves
    /// the mean, so `(hi + lo) / 2 = 1` with `hi = b × lo`.
    fn factors(burst: f64) -> (f64, f64) {
        (2.0 * burst / (1.0 + burst), 2.0 / (1.0 + burst))
    }

    /// The rate envelope at `t`: `(λ_max, segment_end)`. In the tail the
    /// end rate is held unmodulated and the envelope never closes.
    fn envelope(&mut self, t: SimTime) -> (f64, SimTime) {
        while self.cursor < self.segments.len() && t >= self.starts[self.cursor + 1] {
            self.cursor += 1;
        }
        if self.cursor == self.segments.len() {
            let tail = self.segments.last().expect("validated non-empty").rate_end;
            return (tail, SimTime::MAX);
        }
        let s = &self.segments[self.cursor];
        let base = s.rate_start.max(s.rate_end);
        let hi = if s.burst > 1.0 {
            ScriptedArrival::factors(s.burst).0
        } else {
            1.0
        };
        (base * hi, self.starts[self.cursor + 1])
    }

    /// The instantaneous (modulated) rate at `at`, which the envelope
    /// scan guarantees lies inside the cursor's segment.
    fn rate_at(&mut self, at: SimTime, rng: &mut SimRng) -> f64 {
        if self.cursor == self.segments.len() {
            return self.segments.last().expect("validated non-empty").rate_end;
        }
        let s = self.segments[self.cursor];
        let start = self.starts[self.cursor];
        let frac = at.duration_since(start).as_secs_f64() / s.duration_s;
        let base = s.rate_start + (s.rate_end - s.rate_start) * frac.clamp(0.0, 1.0);
        if s.burst <= 1.0 {
            return base;
        }
        // Phase flips are probed lazily at candidate times. Mean dwell
        // is an eighth of the segment, clamped to [20 ms, 100 ms]: short
        // spike segments still see several flips, and long segments
        // accumulate enough phases that the realised hi/lo time split
        // concentrates near 50/50 (the phase-mix variance of the count
        // shrinks as 1/sqrt(phases)).
        if self.phase_end <= at {
            self.in_hi = !self.in_hi;
            let dwell = (s.duration_s / 8.0).clamp(0.02, 0.1);
            self.phase_end = at + SimDuration::from_secs_f64(rng.exponential(dwell));
        }
        let (hi, lo) = ScriptedArrival::factors(s.burst);
        base * if self.in_hi { hi } else { lo }
    }

    /// Advances the process past `now`, returning the absolute time of
    /// the next arrival. `now` must be non-decreasing across calls (the
    /// merged stream always satisfies this).
    pub(crate) fn next_after(&mut self, now: SimTime, rng: &mut SimRng) -> SimTime {
        let mut t = now;
        loop {
            let (lam_max, seg_end) = self.envelope(t);
            if lam_max <= 0.0 {
                // Silent segment: nothing can arrive before it ends.
                t = seg_end;
                continue;
            }
            let cand = t + SimDuration::from_secs_f64(rng.exponential(1.0 / lam_max));
            if cand >= seg_end {
                // Memorylessness: restart the scan at the boundary.
                t = seg_end;
                continue;
            }
            let lam = self.rate_at(cand, rng);
            if rng.f64() * lam_max < lam {
                return cand;
            }
            t = cand;
        }
    }
}

/// One arrival process: the distribution of gaps between events.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson: exponential inter-arrival gaps at `rate`
    /// events/s.
    Poisson {
        /// Mean event rate, events per second.
        rate: f64,
    },
    /// Piecewise scripted rate profile (see [`ScriptedArrival`]).
    Scripted(ScriptedArrival),
    /// 2-phase Markov-modulated Poisson process.
    Mmpp2 {
        /// Event rate while in the high phase, events/s.
        rate_hi: f64,
        /// Event rate while in the low phase, events/s.
        rate_lo: f64,
        /// Mean dwell time in the high phase, seconds.
        dwell_hi_s: f64,
        /// Mean dwell time in the low phase, seconds.
        dwell_lo_s: f64,
        /// True while in the high phase.
        in_hi: bool,
        /// Absolute time of the next phase flip.
        phase_end: SimTime,
    },
}

impl ArrivalProcess {
    /// A Poisson process at `rate` events/s.
    pub fn poisson(rate: f64) -> ArrivalProcess {
        assert!(rate > 0.0, "rate must be positive");
        ArrivalProcess::Poisson { rate }
    }

    /// An MMPP-2 whose *long-run mean* rate is `mean_rate`, with the high
    /// phase `burst` times hotter than the low phase and equal mean dwell
    /// times of `dwell_s` in each phase. `burst = 1` degenerates to
    /// Poisson.
    pub fn mmpp2(mean_rate: f64, burst: f64, dwell_s: f64) -> ArrivalProcess {
        assert!(mean_rate > 0.0 && burst >= 1.0 && dwell_s > 0.0);
        // Equal dwell ⇒ mean = (hi + lo) / 2 with hi = burst × lo.
        let rate_lo = 2.0 * mean_rate / (1.0 + burst);
        let rate_hi = burst * rate_lo;
        ArrivalProcess::Mmpp2 {
            rate_hi,
            rate_lo,
            dwell_hi_s: dwell_s,
            dwell_lo_s: dwell_s,
            in_hi: false,
            phase_end: SimTime::ZERO,
        }
    }

    /// A scripted piecewise profile; panics on an invalid segment list
    /// (callers that want a typed error run [`RateSegment::validate`]
    /// first).
    pub fn scripted(segments: Vec<RateSegment>) -> ArrivalProcess {
        ArrivalProcess::Scripted(ScriptedArrival::new(segments))
    }

    /// The long-run mean rate in events/s (used by the property tests
    /// and by capacity accounting). For scripted profiles this is the
    /// time-weighted mean over the scripted span.
    #[cfg(test)]
    pub(crate) fn mean_rate(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate } => *rate,
            ArrivalProcess::Scripted(s) => s.mean_rate(),
            ArrivalProcess::Mmpp2 {
                rate_hi,
                rate_lo,
                dwell_hi_s,
                dwell_lo_s,
                ..
            } => (rate_hi * dwell_hi_s + rate_lo * dwell_lo_s) / (dwell_hi_s + dwell_lo_s),
        }
    }

    /// Advances the process past `now`, returning the absolute time of
    /// the next arrival.
    pub fn next_after(&mut self, now: SimTime, rng: &mut SimRng) -> SimTime {
        match self {
            ArrivalProcess::Poisson { rate } => {
                now + SimDuration::from_secs_f64(rng.exponential(1.0 / *rate))
            }
            ArrivalProcess::Scripted(s) => s.next_after(now, rng),
            ArrivalProcess::Mmpp2 {
                rate_hi,
                rate_lo,
                dwell_hi_s,
                dwell_lo_s,
                in_hi,
                phase_end,
            } => {
                let mut t = now;
                loop {
                    if *phase_end <= t {
                        // Enter the next phase (first call initialises).
                        *in_hi = !*in_hi;
                        let dwell = if *in_hi { *dwell_hi_s } else { *dwell_lo_s };
                        *phase_end = t + SimDuration::from_secs_f64(rng.exponential(dwell));
                    }
                    let rate = if *in_hi { *rate_hi } else { *rate_lo };
                    let cand = t + SimDuration::from_secs_f64(rng.exponential(1.0 / rate));
                    if cand <= *phase_end {
                        return cand;
                    }
                    // No arrival before the phase flips; resume the scan
                    // from the flip instant (memorylessness makes the
                    // restart exact).
                    t = *phase_end;
                }
            }
        }
    }
}

/// The procedure mix: relative weights per event kind. Weights are
/// normalised; a zero weight disables that kind.
#[derive(Debug, Clone)]
pub struct EventMix {
    /// `(kind, weight)` pairs in a fixed order (determinism: the merged
    /// stream breaks time ties by this order).
    pub weights: Vec<(UeEvent, f64)>,
}

impl Default for EventMix {
    /// A signalling-heavy default mix: mostly registrations and session
    /// establishments (the Fig 8 procedures), a handover/paging tail, and
    /// enough idle transitions to keep the paging pool populated.
    fn default() -> EventMix {
        EventMix {
            weights: vec![
                (UeEvent::Registration, 0.25),
                (UeEvent::SessionRequest, 0.25),
                (UeEvent::Handover, 0.15),
                (UeEvent::IdleTransition, 0.10),
                (UeEvent::Paging, 0.10),
                (UeEvent::Deregistration, 0.15),
            ],
        }
    }
}

impl EventMix {
    /// Sum of the weights.
    pub(crate) fn total(&self) -> f64 {
        self.weights.iter().map(|(_, w)| w).sum()
    }
}

/// The merged arrival stream: one process per event kind, popped in
/// global time order.
pub struct ArrivalStream {
    procs: Vec<(UeEvent, ArrivalProcess, SimTime, SimRng)>,
}

impl ArrivalStream {
    /// Builds one process per kind in `mix`, scaled so the *total* mean
    /// rate is `offered_eps`. Bursty kinds use MMPP-2 when `burst > 1`.
    /// Each process forks its own RNG from `rng` in mix order, so the
    /// sequence is a pure function of the seed.
    pub fn new(mix: &EventMix, offered_eps: f64, burst: f64, rng: &mut SimRng) -> ArrivalStream {
        let total = mix.total();
        assert!(total > 0.0, "event mix must have positive weight");
        let mut procs = Vec::new();
        for &(kind, w) in &mix.weights {
            if w <= 0.0 {
                continue;
            }
            let rate = offered_eps * w / total;
            let p = if burst > 1.0 {
                ArrivalProcess::mmpp2(rate, burst, 1.0)
            } else {
                ArrivalProcess::poisson(rate)
            };
            let mut prng = rng.fork();
            let mut proc = p;
            let first = proc.next_after(SimTime::ZERO, &mut prng);
            procs.push((kind, proc, first, prng));
        }
        ArrivalStream { procs }
    }

    /// Builds one scripted process per kind in `mix`, each kind's
    /// profile being `segments` with both rate endpoints scaled by the
    /// kind's mix share — the merged total follows the scripted profile
    /// exactly. RNG forking order matches [`ArrivalStream::new`] (one
    /// fork per active kind, in mix order), so swapping a steady stream
    /// for a scripted one leaves every downstream RNG untouched.
    pub(crate) fn scripted(
        mix: &EventMix,
        segments: &[RateSegment],
        rng: &mut SimRng,
    ) -> ArrivalStream {
        let total = mix.total();
        assert!(total > 0.0, "event mix must have positive weight");
        let mut procs = Vec::new();
        for &(kind, w) in &mix.weights {
            if w <= 0.0 {
                continue;
            }
            let scaled: Vec<RateSegment> = segments.iter().map(|s| s.scaled(w / total)).collect();
            let mut proc = ArrivalProcess::scripted(scaled);
            let mut prng = rng.fork();
            let first = proc.next_after(SimTime::ZERO, &mut prng);
            procs.push((kind, proc, first, prng));
        }
        ArrivalStream { procs }
    }

    /// Pops the next arrival `(time, kind)`. Ties break by mix order —
    /// deterministic. The stream is infinite; the driver stops at its
    /// horizon.
    #[allow(clippy::should_implement_trait)] // infallible, unlike Iterator::next
    pub fn next(&mut self) -> (SimTime, UeEvent) {
        let (mut best, mut best_t) = (0, self.procs[0].2);
        for (i, p) in self.procs.iter().enumerate().skip(1) {
            if p.2 < best_t {
                best = i;
                best_t = p.2;
            }
        }
        let (kind, proc, at, prng) = &mut self.procs[best];
        let fired = *at;
        *at = proc.next_after(fired, prng);
        (fired, *kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_rate_is_exact() {
        assert_eq!(ArrivalProcess::poisson(100.0).mean_rate(), 100.0);
    }

    #[test]
    fn mmpp2_long_run_rate_matches_construction() {
        let p = ArrivalProcess::mmpp2(1000.0, 4.0, 0.5);
        assert!((p.mean_rate() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn merged_stream_is_time_ordered() {
        let mut rng = SimRng::new(42);
        let mut s = ArrivalStream::new(&EventMix::default(), 10_000.0, 1.0, &mut rng);
        let mut last = SimTime::ZERO;
        for _ in 0..10_000 {
            let (t, _) = s.next();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn scripted_validation_rejects_bad_profiles() {
        assert!(RateSegment::validate(&[]).is_err(), "empty profile");
        assert!(
            RateSegment::validate(&[RateSegment::step(0.0, 10.0)]).is_err(),
            "zero duration"
        );
        assert!(
            RateSegment::validate(&[RateSegment::ramp(1.0, -1.0, 5.0)]).is_err(),
            "negative rate"
        );
        assert!(
            RateSegment::validate(&[RateSegment::step(1.0, 10.0).with_burst(0.5)]).is_err(),
            "burst < 1"
        );
        assert!(
            RateSegment::validate(&[RateSegment::ramp(1.0, 10.0, 0.0)]).is_err(),
            "zero tail rate"
        );
        assert!(RateSegment::validate(&[
            RateSegment::step(1.0, 100.0),
            RateSegment::step(0.5, 0.0),
            RateSegment::ramp(1.0, 0.0, 50.0),
        ])
        .is_ok());
    }

    #[test]
    fn scripted_mean_rate_is_time_weighted() {
        let p = ArrivalProcess::scripted(vec![
            RateSegment::step(1.0, 100.0),
            RateSegment::ramp(3.0, 100.0, 300.0),
        ]);
        // (100·1 + 200·3) / 4 = 175.
        assert!((p.mean_rate() - 175.0).abs() < 1e-9);
    }

    #[test]
    fn scripted_events_are_monotone_and_respect_silent_segments() {
        let mut p = ArrivalProcess::scripted(vec![
            RateSegment::step(1.0, 500.0),
            RateSegment::step(1.0, 0.0),
            RateSegment::step(1.0, 500.0).with_burst(4.0),
        ]);
        let mut rng = SimRng::new(17);
        let mut t = SimTime::ZERO;
        let horizon = SimTime::ZERO + SimDuration::from_secs(3);
        let quiet_lo = SimTime::ZERO + SimDuration::from_secs(1);
        let quiet_hi = SimTime::ZERO + SimDuration::from_secs(2);
        while t < horizon {
            let n = p.next_after(t, &mut rng);
            assert!(n > t, "arrivals strictly advance");
            assert!(
                !(n >= quiet_lo && n < quiet_hi),
                "no arrival may land in the zero-rate segment, got {n:?}"
            );
            t = n;
        }
    }

    #[test]
    fn scripted_stream_scales_segments_across_the_mix() {
        let mut rng = SimRng::new(7);
        let segs = [RateSegment::step(2.0, 10_000.0)];
        let mut s = ArrivalStream::scripted(&EventMix::default(), &segs, &mut rng);
        let horizon = SimTime::ZERO + SimDuration::from_secs(2);
        let mut n = 0u64;
        loop {
            let (t, _) = s.next();
            if t >= horizon {
                break;
            }
            n += 1;
        }
        let rate = n as f64 / 2.0;
        assert!(
            (rate - 10_000.0).abs() / 10_000.0 < 0.05,
            "merged scripted rate {rate} should be within 5% of 10000"
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Squared coefficient of variation of inter-arrival gaps: 1 for
        // Poisson, > 1 for MMPP with distinct phase rates.
        let cv2 = |mut p: ArrivalProcess, seed: u64| {
            let mut rng = SimRng::new(seed);
            let mut t = SimTime::ZERO;
            let mut gaps = Vec::with_capacity(50_000);
            for _ in 0..50_000 {
                let n = p.next_after(t, &mut rng);
                gaps.push(n.duration_since(t).as_secs_f64());
                t = n;
            }
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let poisson = cv2(ArrivalProcess::poisson(1000.0), 9);
        let mmpp = cv2(ArrivalProcess::mmpp2(1000.0, 8.0, 0.2), 9);
        assert!((0.9..1.1).contains(&poisson), "poisson cv² {poisson}");
        assert!(mmpp > 1.3, "mmpp cv² {mmpp} should exceed poisson");
    }
}
