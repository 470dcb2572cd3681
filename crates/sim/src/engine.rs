//! The discrete-event engine.
//!
//! An [`Engine`] owns a priority queue of scheduled events and a user-defined
//! *world* `W` — the mutable state of the whole simulated system. Each event
//! is a boxed closure that receives `&mut W` and a [`Ctx`] through which it
//! reads the clock. Timers are cancelled through [`Engine::cancel`].
//!
//! Handlers schedule *new* events through a [`Mailbox`] embedded in the
//! world (see [`HasMailbox`]): closures are staged in the mailbox and the
//! engine pumps them into its queue between steps. This keeps the handler's
//! `&mut W` borrow independent of the queue without interior mutability.
//!
//! Determinism: ties in time are broken by a monotonically increasing
//! sequence number, so two events scheduled for the same instant always run
//! in the order they were scheduled, and a run is a pure function of
//! (initial world, seed, event program).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// An event handler: runs against the world at its scheduled instant.
pub(crate) type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Ctx)>;

/// Identifies a scheduled event so it can be cancelled before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

struct Scheduled<W> {
    at: SimTime,
    seq: u64,
    f: EventFn<W>,
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Handle passed to running events: the clock (and, in tests, the RNG and
/// a stop request).
pub struct Ctx {
    now: SimTime,
    rng: SimRng,
    stop: bool,
}

impl Ctx {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The engine's deterministic random number generator.
    #[cfg(test)]
    pub(crate) fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Requests that the engine stop after this handler returns, leaving any
    /// remaining events in the queue.
    #[cfg(test)]
    pub(crate) fn stop(&mut self) {
        self.stop = true;
    }
}

/// The discrete-event engine over a world `W`.
pub struct Engine<W> {
    world: W,
    queue: BinaryHeap<Scheduled<W>>,
    cancelled: HashSet<u64>,
    now: SimTime,
    next_seq: u64,
    rng: Option<SimRng>,
}

impl<W> Engine<W> {
    /// Creates an engine at `t = 0` with a seeded RNG and the given world.
    pub fn new(seed: u64, world: W) -> Self {
        Engine {
            world,
            queue: BinaryHeap::new(),
            cancelled: HashSet::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            rng: Some(SimRng::new(seed)),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (e.g. to inspect or mutate between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the engine and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules `f` to run at absolute time `at`. Scheduling in the past is
    /// clamped to `now` (the event still runs, at the current instant, after
    /// all events already scheduled for `now`).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Ctx) + 'static,
    ) -> EventId {
        self.push(at, Box::new(f))
    }

    /// Schedules `f` to run `after` from now.
    pub fn schedule_in(
        &mut self,
        after: SimDuration,
        f: impl FnOnce(&mut W, &mut Ctx) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + after, f)
    }

    fn push(&mut self, at: SimTime, f: EventFn<W>) -> EventId {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled { at, seq, f });
        EventId(seq)
    }

    /// Cancels a scheduled event by id. No-op if it already ran.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id.0);
    }

    /// Runs a single event if one is queued. Returns `false` when the queue
    /// is empty. Does not pump the mailbox; prefer the `*_with_mailbox`
    /// runners for worlds that stage events.
    pub(crate) fn step(&mut self) -> bool {
        self.step_bounded(SimTime::MAX).is_ran()
    }

    fn step_bounded(&mut self, deadline: SimTime) -> StepOutcome {
        loop {
            let Some(head) = self.queue.peek() else {
                return StepOutcome::Empty;
            };
            if head.at > deadline {
                return StepOutcome::PastDeadline;
            }
            let ev = self.queue.pop().expect("peeked");
            if self.cancelled.remove(&ev.seq) {
                continue;
            }
            debug_assert!(ev.at >= self.now, "event queue went backwards");
            self.now = ev.at;

            let mut ctx = Ctx {
                now: self.now,
                rng: self.rng.take().expect("rng present"),
                stop: false,
            };
            (ev.f)(&mut self.world, &mut ctx);

            self.rng = Some(ctx.rng);
            if ctx.stop {
                return StepOutcome::Stopped;
            }
            return StepOutcome::Ran;
        }
    }

    /// Runs until the queue is empty (without mailbox pumping). Returns the
    /// final time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Runs events with timestamps `<= deadline` (without mailbox pumping),
    /// then advances the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while self.step_bounded(deadline).is_ran() {}
        if self.now < deadline && deadline != SimTime::MAX {
            self.now = deadline;
        }
        self.now
    }
}

enum StepOutcome {
    Ran,
    Stopped,
    Empty,
    PastDeadline,
}

impl StepOutcome {
    fn is_ran(&self) -> bool {
        matches!(self, StepOutcome::Ran)
    }
}

/// A deferred-event mailbox the *world* owns, letting handlers schedule
/// followup events without borrowing the engine.
///
/// Usage: the world embeds a `Mailbox<W>`; handlers call
/// `world.mailbox.send_in(ctx, delay, closure)`; the engine drains it after
/// each step when driven by [`Engine::run_with_mailbox`] /
/// [`Engine::run_until_with_mailbox`].
pub struct Mailbox<W> {
    items: Vec<(SimTime, EventFn<W>)>,
}

impl<W> Default for Mailbox<W> {
    fn default() -> Self {
        Mailbox { items: Vec::new() }
    }
}

impl<W> Mailbox<W> {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `f` at absolute virtual time `at`.
    pub(crate) fn send_at(&mut self, at: SimTime, f: impl FnOnce(&mut W, &mut Ctx) + 'static) {
        self.items.push((at, Box::new(f)));
    }

    /// Schedules `f` to run `d` after the current instant.
    pub fn send_in(
        &mut self,
        ctx: &Ctx,
        d: SimDuration,
        f: impl FnOnce(&mut W, &mut Ctx) + 'static,
    ) {
        self.send_at(ctx.now() + d, f);
    }

    fn drain(&mut self) -> Vec<(SimTime, EventFn<W>)> {
        std::mem::take(&mut self.items)
    }
}

/// Worlds that embed a [`Mailbox`] and want automatic pumping.
pub trait HasMailbox: Sized {
    /// Access to the embedded mailbox.
    fn mailbox(&mut self) -> &mut Mailbox<Self>;
}

impl<W: HasMailbox + 'static> Engine<W> {
    /// Moves events staged in the world's mailbox into the engine queue.
    pub(crate) fn pump(&mut self) {
        for (at, f) in self.world.mailbox().drain() {
            self.push(at, f);
        }
    }

    /// Runs to completion, pumping the mailbox between steps.
    pub fn run_with_mailbox(&mut self) -> SimTime {
        self.run_until_with_mailbox(SimTime::MAX)
    }

    /// Runs until `deadline`, pumping the mailbox between steps, then
    /// advances the clock to `deadline`.
    pub(crate) fn run_until_with_mailbox(&mut self, deadline: SimTime) -> SimTime {
        loop {
            self.pump();
            match self.step_bounded(deadline) {
                StepOutcome::Ran => {}
                StepOutcome::Stopped => break,
                StepOutcome::Empty | StepOutcome::PastDeadline => {
                    self.pump();
                    let head_ok = self.queue.peek().map(|h| h.at <= deadline).unwrap_or(false);
                    if !head_ok {
                        break;
                    }
                }
            }
        }
        if self.now < deadline && deadline != SimTime::MAX {
            self.now = deadline;
        }
        self.now
    }

    /// Runs for `dur` of virtual time from now, pumping the mailbox.
    pub fn run_for_with_mailbox(&mut self, dur: SimDuration) -> SimTime {
        let deadline = self.now + dur;
        self.run_until_with_mailbox(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    #[test]
    fn events_run_in_time_order() {
        let mut eng = Engine::new(1, World::default());
        eng.schedule_at(SimTime::from_nanos(30), |w: &mut World, c| {
            w.log.push((c.now().as_nanos(), "c"))
        });
        eng.schedule_at(SimTime::from_nanos(10), |w: &mut World, c| {
            w.log.push((c.now().as_nanos(), "a"))
        });
        eng.schedule_at(SimTime::from_nanos(20), |w: &mut World, c| {
            w.log.push((c.now().as_nanos(), "b"))
        });
        eng.run();
        assert_eq!(eng.world().log, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut eng = Engine::new(1, World::default());
        let t = SimTime::from_nanos(5);
        eng.schedule_at(t, |w: &mut World, _| w.log.push((0, "first")));
        eng.schedule_at(t, |w: &mut World, _| w.log.push((0, "second")));
        eng.run();
        assert_eq!(eng.world().log, vec![(0, "first"), (0, "second")]);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut eng = Engine::new(1, World::default());
        let id = eng.schedule_at(SimTime::from_nanos(10), |w: &mut World, _| {
            w.log.push((0, "cancelled"))
        });
        eng.schedule_at(SimTime::from_nanos(20), |w: &mut World, _| {
            w.log.push((0, "kept"))
        });
        eng.cancel(id);
        eng.run();
        assert_eq!(eng.world().log, vec![(0, "kept")]);
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut eng = Engine::new(1, World::default());
        eng.schedule_at(SimTime::from_nanos(10), |w: &mut World, _| {
            w.log.push((0, "x"))
        });
        eng.schedule_at(SimTime::from_nanos(100), |w: &mut World, _| {
            w.log.push((0, "y"))
        });
        let t = eng.run_until(SimTime::from_nanos(50));
        assert_eq!(t, SimTime::from_nanos(50));
        assert_eq!(eng.world().log.len(), 1);
        eng.run();
        assert_eq!(eng.world().log.len(), 2);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut eng = Engine::new(1, World::default());
        eng.schedule_at(SimTime::from_nanos(100), |w: &mut World, c| {
            w.log.push((c.now().as_nanos(), "late"));
        });
        eng.run();
        // Now at t=100; schedule "in the past".
        eng.schedule_at(SimTime::from_nanos(10), |w: &mut World, c| {
            w.log.push((c.now().as_nanos(), "clamped"));
        });
        eng.run();
        assert_eq!(eng.world().log, vec![(100, "late"), (100, "clamped")]);
    }

    struct MbWorld {
        mailbox: Mailbox<MbWorld>,
        hits: Vec<u64>,
    }
    impl HasMailbox for MbWorld {
        fn mailbox(&mut self) -> &mut Mailbox<Self> {
            &mut self.mailbox
        }
    }

    #[test]
    fn mailbox_chains_events() {
        let mut eng = Engine::new(
            7,
            MbWorld {
                mailbox: Mailbox::new(),
                hits: vec![],
            },
        );
        eng.schedule_at(SimTime::from_nanos(1), |w: &mut MbWorld, c| {
            w.hits.push(c.now().as_nanos());
            w.mailbox.send_in(c, SimDuration::from_nanos(9), |w, c| {
                w.hits.push(c.now().as_nanos());
                w.mailbox.send_in(c, SimDuration::from_nanos(90), |w, c| {
                    w.hits.push(c.now().as_nanos());
                });
            });
        });
        eng.run_with_mailbox();
        assert_eq!(eng.world().hits, vec![1, 10, 100]);
    }

    #[test]
    fn deterministic_given_same_seed() {
        fn run(seed: u64) -> Vec<u64> {
            let mut eng = Engine::new(
                seed,
                MbWorld {
                    mailbox: Mailbox::new(),
                    hits: vec![],
                },
            );
            eng.schedule_at(SimTime::ZERO, |w: &mut MbWorld, c| {
                for _ in 0..10 {
                    let jitter = c.rng().range_u64(0, 1000);
                    let t = c.now() + SimDuration::from_nanos(jitter);
                    w.mailbox.send_at(t, move |w: &mut MbWorld, c| {
                        w.hits.push(c.now().as_nanos());
                    });
                }
            });
            eng.run_with_mailbox();
            eng.into_world().hits
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn stop_halts_the_run() {
        let mut eng = Engine::new(1, World::default());
        eng.schedule_at(SimTime::from_nanos(1), |w: &mut World, c| {
            w.log.push((1, "ran"));
            c.stop();
        });
        eng.schedule_at(SimTime::from_nanos(2), |w: &mut World, _| {
            w.log.push((2, "should not run yet"));
        });
        eng.run_until(SimTime::MAX);
        assert_eq!(eng.world().log.len(), 1);
    }

    #[test]
    fn run_for_with_mailbox_respects_deadline() {
        let mut eng = Engine::new(
            1,
            MbWorld {
                mailbox: Mailbox::new(),
                hits: vec![],
            },
        );
        eng.schedule_at(SimTime::from_nanos(1), |w: &mut MbWorld, c| {
            w.hits.push(c.now().as_nanos());
            w.mailbox.send_in(c, SimDuration::from_secs(10), |w, c| {
                w.hits.push(c.now().as_nanos());
            });
        });
        let t = eng.run_for_with_mailbox(SimDuration::from_secs(1));
        assert_eq!(t, SimTime::from_nanos(1_000_000_000));
        assert_eq!(eng.world().hits, vec![1]);
    }
}
