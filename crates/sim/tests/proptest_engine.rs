//! Property tests for the discrete-event engine's ordering invariants.

use std::rc::Rc;

use l25gc_sim::{Ctx, Engine, EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

/// What each event appends when it runs: (its time in ns, its node id).
type Log = Vec<(u64, usize)>;

/// An event program: node `i`'s follow-ups as (delay ns, child node), in
/// the order its handler schedules them.
type Program = Rc<Vec<Vec<(u64, usize)>>>;

/// Builds the program from one (delay, parent selector) per node. Node
/// `i` is a root, scheduled before the run at time `delay`, when its
/// selector lands on `i`; otherwise it is a follow-up of an earlier node,
/// scheduled `delay` after that node runs. About a third of the delays
/// are zero.
fn program(nodes: &[(u64, usize)]) -> (Vec<(u64, usize)>, Program) {
    let mut roots = Vec::new();
    let mut children = vec![Vec::new(); nodes.len()];
    for (i, &(raw, sel)) in nodes.iter().enumerate() {
        let delay = raw.saturating_sub(20);
        match sel % (i + 1) {
            p if p == i => roots.push((delay, i)),
            p => children[p].push((delay, i)),
        }
    }
    (roots, Rc::new(children))
}

/// Node `i`'s handler: logs itself, then schedules its follow-ups through
/// the `Ctx`.
fn fire(prog: Program, i: usize) -> impl FnOnce(&mut Log, &mut Ctx<'_, Log>) + 'static {
    move |log, ctx| {
        log.push((ctx.now().as_nanos(), i));
        for &(delay, child) in &prog[i] {
            ctx.schedule_in(SimDuration::from_nanos(delay), fire(prog.clone(), child));
        }
    }
}

/// The same program played on a bare `EventQueue`: roots pushed in node
/// order, each popped node's follow-ups pushed in order as it pops.
fn model(roots: &[(u64, usize)], prog: &Program) -> Log {
    let mut q = EventQueue::new();
    for &(at, i) in roots {
        q.push(SimTime::from_nanos(at), i);
    }
    let mut log = Log::new();
    while let Some((at, i)) = q.pop() {
        log.push((at.as_nanos(), i));
        for &(delay, child) in &prog[i] {
            q.push(at + SimDuration::from_nanos(delay), child);
        }
    }
    log
}

proptest! {
    /// Events always execute in nondecreasing time order, with ties broken
    /// by scheduling order, regardless of the order they were submitted in.
    #[test]
    fn execution_order_is_time_then_seq(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        #[derive(Default)]
        struct W { ran: Vec<(u64, usize)> }

        let mut eng = Engine::new(0, W::default());
        for (i, &t) in times.iter().enumerate() {
            eng.schedule_at(SimTime::from_nanos(t), move |w: &mut W, c| {
                w.ran.push((c.now().as_nanos(), i));
            });
        }
        eng.run();

        let ran = &eng.world().ran;
        prop_assert_eq!(ran.len(), times.len());
        for pair in ran.windows(2) {
            let (t0, i0) = pair[0];
            let (t1, i1) = pair[1];
            prop_assert!(t0 <= t1);
            if t0 == t1 {
                // Same instant: earlier-scheduled index runs first.
                prop_assert!(i0 < i1);
            }
        }
        // Each event observes its own scheduled time.
        for &(t, i) in ran {
            prop_assert_eq!(t, times[i]);
        }
    }

    /// run_until never executes an event past the deadline, and a
    /// subsequent full run executes exactly the remainder.
    #[test]
    fn run_until_partitions_cleanly(
        times in proptest::collection::vec(0u64..10_000, 1..100),
        deadline in 0u64..10_000,
    ) {
        #[derive(Default)]
        struct W { ran: Vec<u64> }

        let mut eng = Engine::new(0, W::default());
        for &t in &times {
            eng.schedule_at(SimTime::from_nanos(t), move |w: &mut W, c| {
                w.ran.push(c.now().as_nanos());
            });
        }
        eng.run_until(SimTime::from_nanos(deadline));
        let before = eng.world().ran.len();
        prop_assert!(eng.world().ran.iter().all(|&t| t <= deadline));
        let expected_before = times.iter().filter(|&&t| t <= deadline).count();
        prop_assert_eq!(before, expected_before);
        eng.run();
        prop_assert_eq!(eng.world().ran.len(), times.len());
    }

    /// Follow-ups scheduled through `Ctx`, at random delays including
    /// zero, run in exactly the order a plain `EventQueue` gives the same
    /// pushes, whether the run stops at a deadline on the way or not, and
    /// nothing past the deadline runs before the deadline is lifted.
    #[test]
    fn ctx_fan_out_matches_the_queue_model(
        nodes in proptest::collection::vec((0u64..60, 0usize..1_000), 1..120),
        deadline in 0u64..150,
    ) {
        let (roots, prog) = program(&nodes);
        let want = model(&roots, &prog);

        let mut eng = Engine::new(0, Log::new());
        for &(at, i) in &roots {
            eng.schedule_at(SimTime::from_nanos(at), fire(prog.clone(), i));
        }
        let t = eng.run_until(SimTime::from_nanos(deadline));
        prop_assert_eq!(t, SimTime::from_nanos(deadline));
        let due = want.iter().take_while(|&&(at, _)| at <= deadline).count();
        prop_assert_eq!(&eng.world()[..], &want[..due]);
        eng.run();
        prop_assert_eq!(eng.world(), &want);
    }
}
