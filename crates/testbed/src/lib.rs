//! # l25gc-testbed — experiment harnesses
//!
//! Wires RAN + traffic + (optionally) the LB/resiliency layer around one
//! or two 5GC units and reproduces every figure and table of the paper's
//! evaluation. See DESIGN.md §4 for the experiment index.

pub mod exp;
mod netem;
pub mod trace;
mod world;

pub use netem::NetEm;
pub use world::World;
