//! # l25gc-pkt — wire formats for the L²5GC reproduction
//!
//! Zero-copy packet views in the smoltcp idiom: a `Packet<T: AsRef<[u8]>>`
//! wrapper with typed accessors, plus an owned `Repr` with `parse`/`emit`
//! for each format. The formats are those the 5G core datapath and N-plane
//! interfaces actually carry:
//!
//! - [`ether`], [`ipv4`], [`udp`], [`tcp`] — the classic stack; inner user
//!   packets and outer tunnel headers.
//! - [`gtpu`] — GTP-U tunnels on N3 (gNB ↔ UPF), keyed by TEID.
//! - [`pfcp`] — the N4 protocol (SMF ↔ UPF): session establishment,
//!   modification (UpdateFAR — the handover/paging workhorse), and
//!   downlink-data reports, with PDR/FAR rule IEs.
//! - [`nas`], [`ngap`] — simplified N1/N2 signalling used by the UE/RAN
//!   simulator, covering registration, PDU session setup, N2 handover,
//!   paging and context release.
//!
//! ```
//! use l25gc_pkt::gtpu;
//!
//! let repr = gtpu::Repr {
//!     msg_type: gtpu::MessageType::GPdu,
//!     teid: 0x42,
//!     seq: None,
//!     payload_len: 4,
//! };
//! let mut buf = vec![0u8; repr.total_len()];
//! let mut pkt = gtpu::Packet::new_unchecked(&mut buf[..]);
//! repr.emit(&mut pkt);
//! pkt.payload_mut().copy_from_slice(b"user");
//!
//! let parsed = gtpu::Packet::new_checked(&buf[..]).unwrap();
//! assert_eq!(parsed.teid(), 0x42);
//! assert_eq!(parsed.payload(), b"user");
//! ```

mod checksum;
mod error;
pub mod ether;
pub mod gtpu;
pub mod ipv4;
pub mod nas;
pub mod ngap;
pub mod pcap;
pub mod pfcp;
pub mod tcp;
pub mod udp;

pub use ipv4::Ipv4Addr;
