//! The discrete-event engine.
//!
//! An [`Engine`] owns a user-defined *world* `W` — the mutable state of the
//! whole simulated system — and an [`EventQueue`] of boxed handlers. Each
//! handler receives `&mut W` and a [`Ctx`], which holds the clock and a
//! mutable borrow of the same queue: [`Ctx::schedule_in`] is how a handler
//! schedules its follow-ups, and [`Engine::schedule_at`] /
//! [`Engine::schedule_in`] how the code outside the run seeds it. There is
//! no other way onto the queue.
//!
//! Determinism: the queue breaks ties in time by push order, and every
//! push — from outside the run or from a handler — takes the next
//! sequence number in call order. A run is therefore a pure function of
//! (initial world, event program).

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// An event handler: runs against the world at its scheduled instant.
type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Ctx<'_, W>)>;

/// What a running handler sees: the clock, and the engine's queue to
/// schedule follow-up events onto.
pub struct Ctx<'q, W> {
    now: SimTime,
    queue: &'q mut EventQueue<EventFn<W>>,
}

impl<W> Ctx<'_, W> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `f` to run `after` from now. Follow-ups scheduled for the
    /// same instant run in the order they were scheduled.
    pub fn schedule_in(
        &mut self,
        after: SimDuration,
        f: impl FnOnce(&mut W, &mut Ctx<'_, W>) + 'static,
    ) {
        self.queue.push(self.now + after, Box::new(f));
    }
}

/// The discrete-event engine over a world `W`.
pub struct Engine<W> {
    world: W,
    queue: EventQueue<EventFn<W>>,
    now: SimTime,
}

impl<W> Engine<W> {
    /// Creates an engine at `t = 0` over `world`. The first argument is
    /// ignored — nothing in a run draws randomness from the engine — and
    /// survives only because `benchmark/src/cp.rs` still passes a seed;
    /// crate callers pass `0`.
    pub fn new(_seed: u64, world: W) -> Self {
        Engine {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
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
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut W, &mut Ctx<'_, W>) + 'static) {
        self.queue.push(at.max(self.now), Box::new(f));
    }

    /// Schedules `f` to run `after` from now.
    pub fn schedule_in(
        &mut self,
        after: SimDuration,
        f: impl FnOnce(&mut W, &mut Ctx<'_, W>) + 'static,
    ) {
        self.schedule_at(self.now + after, f);
    }

    /// Runs until the queue is empty. Returns the final time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Runs every event due at or before `deadline`, including those the
    /// run itself schedules, then advances the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some((at, f)) = self.queue.pop_before(deadline) {
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            let mut ctx = Ctx {
                now: at,
                queue: &mut self.queue,
            };
            f(&mut self.world, &mut ctx);
        }
        if self.now < deadline && deadline != SimTime::MAX {
            self.now = deadline;
        }
        self.now
    }

    /// Runs for `dur` of virtual time from now.
    pub fn run_for(&mut self, dur: SimDuration) -> SimTime {
        self.run_until(self.now + dur)
    }

    /// [`Engine::run`] under its old name, kept only because
    /// `benchmark/src/cp.rs` still calls it.
    pub fn run_with_mailbox(&mut self) -> SimTime {
        self.run()
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
        let mut eng = Engine::new(0, World::default());
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
        let mut eng = Engine::new(0, World::default());
        let t = SimTime::from_nanos(5);
        eng.schedule_at(t, |w: &mut World, _| w.log.push((0, "first")));
        eng.schedule_at(t, |w: &mut World, _| w.log.push((0, "second")));
        eng.run();
        assert_eq!(eng.world().log, vec![(0, "first"), (0, "second")]);
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut eng = Engine::new(0, World::default());
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
        let mut eng = Engine::new(0, World::default());
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

    #[derive(Default)]
    struct Hits(Vec<u64>);

    #[test]
    fn ctx_chains_events() {
        let mut eng = Engine::new(0, Hits::default());
        eng.schedule_at(SimTime::from_nanos(1), |w: &mut Hits, c| {
            w.0.push(c.now().as_nanos());
            c.schedule_in(SimDuration::from_nanos(9), |w, c| {
                w.0.push(c.now().as_nanos());
                c.schedule_in(SimDuration::from_nanos(90), |w, c| {
                    w.0.push(c.now().as_nanos());
                });
            });
        });
        eng.run();
        assert_eq!(eng.world().0, vec![1, 10, 100]);
    }

    #[test]
    fn run_for_respects_deadline() {
        let mut eng = Engine::new(0, Hits::default());
        eng.schedule_at(SimTime::from_nanos(1), |w: &mut Hits, c| {
            w.0.push(c.now().as_nanos());
            c.schedule_in(SimDuration::from_secs(10), |w, c| {
                w.0.push(c.now().as_nanos());
            });
        });
        let t = eng.run_for(SimDuration::from_secs(1));
        assert_eq!(t, SimTime::from_nanos(1_000_000_000));
        assert_eq!(eng.world().0, vec![1]);
    }
}
