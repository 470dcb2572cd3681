//! # l25gc-sim — deterministic discrete-event simulation engine
//!
//! The time substrate for the L²5GC reproduction. Every latency figure in
//! the paper's evaluation is a function of *event ordering* plus *path
//! costs*; this crate provides the ordering half: a virtual clock
//! ([`SimTime`]/[`SimDuration`]), a deterministic priority queue
//! ([`EventQueue`]) and the event engine built on it ([`Engine`]: handlers
//! get `&mut` the world and a [`Ctx`] to schedule follow-ups through), a
//! seeded RNG ([`SimRng`]) for the workloads that draw, and metric
//! recorders ([`TimeSeries`], [`Stats`], [`Counters`]).
//!
//! Design follows the smoltcp school: event-driven, no background threads,
//! no interior mutability, simulations are pure functions of their inputs.
//!
//! ```
//! use l25gc_sim::{Engine, SimDuration, SimTime};
//!
//! struct World { pings: u32 }
//!
//! let mut eng = Engine::new(0, World { pings: 0 });
//! eng.schedule_at(SimTime::ZERO, |w: &mut World, ctx| {
//!     w.pings += 1;
//!     ctx.schedule_in(SimDuration::from_millis(1), |w, _| w.pings += 1);
//! });
//! eng.run();
//! assert_eq!(eng.world().pings, 2);
//! assert_eq!(eng.now(), SimTime::from_nanos(1_000_000));
//! ```

mod engine;
mod hash;
mod queue;
mod rng;
mod time;
mod trace;

pub use engine::{Ctx, Engine};
pub use hash::FastMap;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{Counters, Stats, TimeSeries};
