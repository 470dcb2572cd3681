//! # l25gc-core — the 5G core network
//!
//! The paper's primary contribution as a library: the control-plane NFs
//! (AMF, SMF, AUSF, UDM, PCF) and the split UPF (UPF-C / UPF-U), the
//! TS 23.502 procedures connecting them (registration, PDU session
//! establishment, N2 handover, paging, idle transition), the smart
//! buffering of §3.3, fast PDR lookup (§3.4, via `l25gc-classifier`),
//! and the three deployment modes of the Fig 8 evaluation:
//!
//! - [`Deployment::Free5gc`] — kernel datapath, HTTP/JSON SBI, UDP PFCP;
//! - [`Deployment::OnvmUpf`] — DPDK datapath, REST control plane;
//! - [`Deployment::L25gc`] — consolidated NFs over shared memory.
//!
//! The NFs are pure state machines: [`CoreNetwork::handle`] maps one
//! delivered [`Envelope`] to the set of follow-up sends with their
//! delays. Drivers (the testbed, the RAN simulator, the resiliency
//! framework) own the event loop; the core owns the 3GPP logic.

pub mod context;
mod deploy;
pub mod msg;
pub mod net;
mod qer;
mod udr;
pub mod upf;

pub use context::{proc_kind, EventRecord, UeEvent};
pub use deploy::Deployment;
pub use net::{CoreNetwork, Output};
pub use qer::QerTable;
pub use udr::Udr;
pub use upf::{ue_ip_for, PdrBackend, Upf, Verdict};
