//! # l25gc-ran — the UE & RAN simulator and traffic side
//!
//! The paper evaluates L²5GC with a custom UE/RAN simulator speaking the
//! N1/N2 interfaces over SCTP (no PHY model) and MoonGen as the traffic
//! generator. This crate is both, plus the transport model the QoE
//! experiments need:
//!
//! - [`ran`] — gNB and UE state machines: NAS auth/security answers,
//!   PDU-session tunnel allocation, paging wake-up and handover execution.
//! - [`traffic`] — CBR flows with per-packet RTT accounting (Figs 13/14,
//!   Tables 1/2).
//! - [`tcp`] — a Reno-style TCP model with Linux's 200 ms minimum RTO:
//!   the machinery behind the spurious-timeout results (Figs 12/15/16/17).
//! - [`webpage`] — the §5.4.1 page-load-time harness (six parallel
//!   connections fetching ~15 MB images).

mod ran;
mod tcp;
pub mod traffic;
mod webpage;

pub use ran::Ran;
pub use tcp::{TcpReceiver, TcpSender, MSS};
pub use traffic::{echo, CbrFlow};
pub use webpage::{paper_page, PageLoad};
