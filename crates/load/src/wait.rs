//! The wait ladder of the threaded backend's poll loops.
//!
//! OpenNetVM busy-polls its rings from dedicated cores, but raw spinning
//! burns 100% CPU at every wait site and — on shared or oversubscribed
//! machines — steals cycles from the very threads being waited on, which
//! is where most wall-clock variance in `sustained_eps` came from. Every
//! wait site therefore descends one ladder, spin → `yield_now` →
//! parked-with-timeout, as a wait drags on, and every [`Waiter`] counts
//! its ladder transitions and descheduled time so idle burn shows up in
//! `l25gc-obs` gauges instead of being silent. There is one discipline,
//! not a selectable one: always-spin and park-at-once lost to or tied
//! with the ladder on every measured workload (DESIGN.md §12).

use std::time::{Duration, Instant};

/// Consecutive misses spent in `spin_loop` before the ladder yields.
/// Sized so a burst-to-burst gap at full load never leaves the spin tier.
const SPIN_ROUNDS: u32 = 128;
/// Consecutive misses spent yielding before the ladder parks.
const YIELD_ROUNDS: u32 = 32;
/// Park bound: long enough to stop the burn, short enough that a worker
/// notices new submissions promptly without being unparked explicitly.
const PARK_TIMEOUT: Duration = Duration::from_micros(100);

/// Counters exported (per wait site) as `l25gc-obs` gauges at run end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WaitStats {
    /// `spin_loop` rounds executed.
    pub(crate) spins: u64,
    /// `yield_now` calls executed.
    pub(crate) yields: u64,
    /// `park_timeout` calls executed.
    pub(crate) parks: u64,
    /// Ladder tier transitions (spin→yield and yield→park).
    pub(crate) transitions: u64,
    /// Wall time spent descheduled (yield + park tiers), in nanoseconds.
    pub(crate) blocked_ns: u64,
    /// Wall time spent in the park tier only, in nanoseconds — a subset
    /// of [`WaitStats::blocked_ns`]. The utilization lanes use the
    /// parked/blocked ratio to apportion idle time between the
    /// blocked and parked duty-cycle buckets.
    pub(crate) parked_ns: u64,
}

impl WaitStats {
    /// Merge another site's counters into this one.
    pub(crate) fn absorb(&mut self, other: &WaitStats) {
        self.spins += other.spins;
        self.yields += other.yields;
        self.parks += other.parks;
        self.transitions += other.transitions;
        self.blocked_ns += other.blocked_ns;
        self.parked_ns += other.parked_ns;
    }
}

/// One wait site's ladder state plus its counters.
///
/// Call [`Waiter::wait`] on every missed poll and [`Waiter::reset`] after
/// useful work; the ladder position is per-site, so a busy submit ring
/// never pushes the completion path into parking.
#[derive(Debug, Default)]
pub(crate) struct Waiter {
    /// Consecutive misses since the last reset.
    round: u32,
    stats: WaitStats,
}

impl Waiter {
    /// A fresh waiter at the bottom of the ladder.
    pub(crate) fn new() -> Waiter {
        Waiter::default()
    }

    /// Back to the bottom of the ladder — call after a successful poll.
    #[inline]
    pub(crate) fn reset(&mut self) {
        self.round = 0;
    }

    /// One backoff step; the tier depends on how many consecutive misses
    /// this site has seen since the last reset.
    #[inline]
    pub(crate) fn wait(&mut self) {
        let round = self.round;
        self.round = round.saturating_add(1);
        if round < SPIN_ROUNDS {
            self.stats.spins += 1;
            std::hint::spin_loop();
        } else if round < SPIN_ROUNDS + YIELD_ROUNDS {
            if round == SPIN_ROUNDS {
                self.stats.transitions += 1;
            }
            self.yield_timed();
        } else {
            if round == SPIN_ROUNDS + YIELD_ROUNDS {
                self.stats.transitions += 1;
            }
            self.park_timed();
        }
    }

    /// Counters accumulated so far.
    pub(crate) fn stats(&self) -> WaitStats {
        self.stats
    }

    fn yield_timed(&mut self) {
        self.stats.yields += 1;
        let t = Instant::now();
        std::thread::yield_now();
        self.stats.blocked_ns += t.elapsed().as_nanos() as u64;
    }

    fn park_timed(&mut self) {
        self.stats.parks += 1;
        let t = Instant::now();
        std::thread::park_timeout(PARK_TIMEOUT);
        let ns = t.elapsed().as_nanos() as u64;
        self.stats.blocked_ns += ns;
        self.stats.parked_ns += ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_ladder_descends_and_counts_transitions() {
        let mut w = Waiter::new();
        for _ in 0..(SPIN_ROUNDS + YIELD_ROUNDS + 2) {
            w.wait();
        }
        let s = w.stats();
        assert_eq!(s.spins, SPIN_ROUNDS as u64);
        assert_eq!(s.yields, YIELD_ROUNDS as u64);
        assert_eq!(s.parks, 2);
        assert_eq!(s.transitions, 2, "one per tier boundary");
        assert!(s.blocked_ns > 0, "park time is measured");
        assert!(s.parked_ns > 0, "park-tier time is tracked separately");
        assert!(s.parked_ns <= s.blocked_ns, "parked is a subset of blocked");
    }

    #[test]
    fn reset_returns_to_spin_tier() {
        let mut w = Waiter::new();
        for _ in 0..(SPIN_ROUNDS + 1) {
            w.wait();
        }
        assert_eq!(w.stats().yields, 1);
        w.reset();
        w.wait();
        assert_eq!(w.stats().spins, SPIN_ROUNDS as u64 + 1, "back to spinning");
        assert_eq!(w.stats().yields, 1);
    }

    #[test]
    fn stats_absorb_sums_fields() {
        let mut a = WaitStats {
            spins: 1,
            yields: 2,
            parks: 3,
            transitions: 4,
            blocked_ns: 5,
            parked_ns: 6,
        };
        let b = WaitStats {
            spins: 10,
            yields: 20,
            parks: 30,
            transitions: 40,
            blocked_ns: 50,
            parked_ns: 60,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            WaitStats {
                spins: 11,
                yields: 22,
                parks: 33,
                transitions: 44,
                blocked_ns: 55,
                parked_ns: 66
            }
        );
    }
}
