//! # l25gc-pkt — control-plane wire formats for the L²5GC reproduction
//!
//! Each format is an owned message type with `encode`/`decode`. The
//! encoders size every control message the core sends (`Envelope::wire_len`);
//! the decoders are the round-trip oracle the property tests check the
//! encoders against. The user plane carries typed packet descriptors, not
//! header bytes, so it needs no codec here.
//!
//! - [`pfcp`] — the N4 protocol (SMF ↔ UPF): session establishment,
//!   modification (UpdateFAR — the handover/paging workhorse), and
//!   downlink-data reports, with PDR/FAR rule IEs.
//! - [`nas`], [`ngap`] — simplified N1/N2 signalling used by the UE/RAN
//!   simulator, covering registration, PDU session setup, N2 handover,
//!   paging and context release.
//! - [`Ipv4Addr`] — the address type the IEs and session tables carry.
//!
//! ```
//! use l25gc_pkt::pfcp::{IeSet, Message, MsgType};
//!
//! let report = Message::session(
//!     MsgType::SessionReportRequest,
//!     0x42,
//!     1,
//!     IeSet {
//!         report_downlink_data: true,
//!         downlink_data_pdr: Some(2),
//!         ..IeSet::default()
//!     },
//! );
//! let bytes = report.encode();
//! assert_eq!(Message::decode(&bytes).unwrap(), report);
//! ```

mod error;
pub mod ipv4;
pub mod nas;
pub mod ngap;
pub mod pfcp;

pub use ipv4::Ipv4Addr;
