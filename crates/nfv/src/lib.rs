//! # l25gc-nfv — the OpenNetVM-style NFV platform substrate
//!
//! L²5GC runs on OpenNetVM/DPDK; this crate is that platform's role in
//! the reproduction, in two registers:
//!
//! **Real concurrent structures** (wall-clock benchmarked):
//! - [`mod@ring`] — the lock-free SPSC descriptor ring every NF's Rx/Tx path
//!   uses; moving a descriptor here *is* the shared-memory "send".
//! - [`mempool`] — the packet-buffer arena (DPDK hugepage analogue);
//!   descriptors point into it, payloads never move.
//! - [`session_table`] — the dual-key (TEID / UE IP) session table the
//!   UPF-C writes and the UPF-U reads with zero propagation cost (§3.2).
//!
//! **Simulation-facing models:**
//! - [`cost`] — the calibrated per-hop / per-packet cost model; the only
//!   place the paper's measured primitives enter the reproduction.
//! - [`manager`] — the NF manager: service registry, canary-weighted
//!   routing (§4), heartbeat failure detection (§3.5.2), and the
//!   freeze/unfreeze replica lifecycle (§3.5.1).
//! - [`topology`] — CPU topology discovery (cores, SMT siblings) and
//!   `sched_setaffinity` pinning, reproducing OpenNetVM's
//!   one-NF-per-core placement for the threaded backend.

pub mod cost;
pub mod manager;
pub mod mempool;
pub mod ring;
pub mod session_table;
pub mod topology;

pub use cost::{CostModel, DataPath, SerFormat, Transport};
pub use manager::{InstanceId, Manager, NfInstance, NfState, ServiceId};
pub use mempool::{Mempool, PktAction, PktHandle, PktMeta};
pub use ring::{duplex, ring, Consumer, DuplexHost, DuplexWorker, Producer, RingFull};
pub use session_table::DualKeyTable;
pub use topology::{pin_current_thread, CpuTopology, PinError, PinPlan};
