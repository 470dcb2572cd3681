//! # l25gc-load — fleet-scale workload engine
//!
//! The ROADMAP's north star is a core serving millions of users; the
//! figure-reproduction harnesses in `l25gc-testbed` drive a handful of
//! UEs each. This crate closes the gap with three layers:
//!
//! - a **fleet model** ([`Fleet`]): millions of UEs in 16-byte records
//!   with O(1) per-state sampling, plus seeded Poisson/MMPP-2 arrival
//!   processes ([`ArrivalStream`]) for registrations, session
//!   establishments, handovers, paging, idle transitions, and detaches;
//! - a **sharded execution layer** ([`ShardSet`]): UEs hash by SUPI to N
//!   worker shards ([`shard_for_supi`]), each shard a FIFO server with an
//!   `l25gc_nfv::ring` in-flight queue, high-water-mark admission
//!   control (shed vs queue), and typed `RingFull` backpressure — all
//!   rejections surfaced as `l25gc-obs` drop codes;
//! - **calibrated dispatch** ([`calibrate`]): per-deployment procedure
//!   profiles (unloaded latency, shard-CPU occupancy, message count)
//!   measured by driving the *real* `l25gc-core` + `l25gc-ran` state
//!   machines once per procedure, one `CoreNetwork::handle` call per
//!   envelope.
//!
//! A single [`Driver`] ties the layers together: a validated
//! [`LoadConfig`] (built via [`LoadConfig::builder`]) selects open- or
//! closed-loop generation ([`LoadMode`]) and an execution backend
//! ([`ExecBackend`]) — `Analytic` runs the seed-deterministic
//! virtual-time model, `Threaded` runs one OS thread per shard fed
//! through real `l25gc_nfv::ring` SPSC submit/completion pairs and adds
//! wall-clock sustained-throughput stats ([`WallClock`]). Both emit a
//! [`LoadReport`] (latency quantiles from log2 histograms, sustained
//! events/s, drop and occupancy accounting). The `reproduce capacity`
//! subcommand sweeps offered load × deployment over this engine to find
//! each system's sustainable-throughput knee.
//!
//! Open-loop arrivals can also follow a **scripted profile**
//! ([`RateSegment`] / [`LoadConfigBuilder::script`]): piecewise
//! step/ramp/hold segments with optional per-segment MMPP modulation,
//! generated by seeded thinning. The [`scenario`] module packages the
//! profiles real 5GC incidents take — flash crowds, post-outage mass
//! re-registration, diurnal cycles, stadium egress — as named,
//! declarative [`ScenarioSpec`]s the `reproduce scenarios` matrix runs
//! against both admission policies.
//!
//! Telemetry rides the same hot path, opt-in per run: a windowed
//! per-shard [`l25gc_obs::MetricsTimeline`]
//! ([`LoadConfigBuilder::metrics_interval`]) carried on the report, and
//! strided procedure-span sampling ([`LoadConfigBuilder::trace_sample`])
//! feeding the Chrome-trace/Perfetto exporter. The timeline now carries
//! a **utilization anatomy**: per-window busy/blocked/parked duty
//! cycles and a ring-occupancy time integral per shard, recorded
//! identically by both backends (the analytic model derives busy time
//! from charged service; the threaded dispatcher serves its own copy of
//! each worker's FIFO server), plus run-wide dispatcher utilization. With
//! [`LoadConfigBuilder::serve_metrics`] the driver also publishes each
//! closed window to a std-only live scrape endpoint
//! ([`l25gc_obs::MetricsServer`]): `GET /metrics` serves the current
//! Prometheus exposition mid-run — including the `l25gc_shard_outage`
//! gauge flipping during a scripted [`FaultPlan`] kill — and
//! `GET /healthz` reports the run phase.
//!
//! Threaded placement is configurable too: [`LoadConfigBuilder::pin`]
//! reproduces the paper's one-NF-per-core testbed discipline
//! (best-effort `sched_setaffinity` via [`l25gc_nfv::topology`], warning
//! and running unpinned when affinity is restricted). Waiting is not:
//! every poll loop idles down the one spin→yield→park ladder of
//! [`Waiter`], which keeps wall-clock numbers stable on shared machines.

#![warn(missing_docs)]

mod arrival;
mod dispatch;
mod driver;
mod fault;
mod fifo;
mod fleet;
mod scenario;
mod shard;
mod wait;
mod worker;

pub use arrival::{ArrivalProcess, ArrivalStream, EventMix, RateSegment};
pub use dispatch::{calibrate, ProcedureProfile, ProfileSet};
pub use driver::{
    Driver, ExecBackend, LoadConfig, LoadConfigBuilder, LoadError, LoadReport, HIST_ALL,
    HIST_QUEUE_WAIT, HIST_SERVICE, HIST_TRANSIT, MAX_THREADED_SHARDS,
};
pub use fault::FaultPlan;
pub use fleet::{Fleet, UeState};
pub use l25gc_core::proc_kind;
pub use scenario::{ScenarioSpec, SCENARIO_NAMES};
pub use shard::{Admission, OverloadPolicy, ShardConfig, ShardSet};
