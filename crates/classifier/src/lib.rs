//! # l25gc-classifier — PDR lookup structures for the UPF
//!
//! The paper's Challenge 3: as 5G becomes packet-oriented, the number of
//! Packet Detection Rules per session grows far beyond the 2–4 used for
//! plain UL/DL classification, and 3GPP's recommended linear scan
//! (TS 29.244 §5.2.1) stops scaling. This crate implements the three
//! alternatives the paper compares in Fig 11 — and that comparison runs as
//! a *real* wall-clock benchmark here, not a simulation:
//!
//! - [`LinearList`] (PDR-LL): priority-sorted list, first match wins.
//! - [`TupleSpace`] (PDR-TSS): hash sub-table per tuple of effective
//!   prefix lengths; O(1) when rules share tuples, degrades with tuple
//!   count and pays the software-hashing toll per probe.
//! - [`PartitionSort`] (PDR-PS): sortable partitions searched by
//!   multi-dimensional binary search; no hashing, consistent latency —
//!   the structure L²5GC adopts.
//!
//! All three implement [`Classifier`] with identical best-match semantics
//! (lowest TS 29.244 precedence value wins, ties by lowest id), enforced
//! by differential property tests. [`Generator`] produces ClassBench-style
//! 20-dimension rule sets, including the TSS best/worst structures used in
//! the paper's Fig 11.
//!
//! ```
//! use l25gc_classifier::{Classifier, Field, FieldRange, PacketKey, PartitionSort, PdrRule};
//!
//! let mut ps = PartitionSort::new();
//! ps.insert(PdrRule::any(1, 255)); // catch-all
//! ps.insert(
//!     PdrRule::any(2, 10)
//!         .with(Field::DstPort, FieldRange::exact(443))
//!         .with(Field::Protocol, FieldRange::exact(6)),
//! );
//! let https = PacketKey::default()
//!     .with(Field::DstPort, 443)
//!     .with(Field::Protocol, 6);
//! assert_eq!(ps.lookup(&https).unwrap().id, 2);
//! ```

mod generator;
mod linear;
mod partition_sort;
mod rule;
mod tss;

pub use generator::{Generator, Profile};
pub use linear::LinearList;
pub use partition_sort::PartitionSort;
pub use rule::{Classifier, Field, FieldRange, PacketKey, PdrRule, RuleId, NDIMS};
pub use tss::TupleSpace;
