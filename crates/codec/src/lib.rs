//! # l25gc-codec — SBI serialization, the Fig 6 comparison
//!
//! The paper's Challenge 1: every SBI hop in free5GC pays message
//! serialization plus kernel socket and HTTP costs. Fig 6 measures the
//! serialization/deserialization component for the formats proposed in
//! prior work; this crate implements all three from scratch so the
//! comparison runs as a real wall-clock benchmark:
//!
//! - [`json`] — the OpenAPI/REST de-facto format (free5GC). Text, field
//!   names, full parse on read: the expensive end.
//! - [`proto`] — protobuf-style varint TLV (Buyakar et al.'s gRPC SBI).
//!   Binary, but still a full encode/decode per hop.
//! - [`flat`] — FlatBuffers-style fixed layout (Neutrino). Zero-parse
//!   reads; writing still serializes, and the bytes still cross a socket.
//!
//! L²5GC's shared-memory SBI is the fourth column of Fig 6: it passes a
//! typed struct by descriptor and does none of the above. That path lives
//! in `l25gc-nfv`; its "serialization cost" is zero by construction.
//!
//! [`messages`] provides hand-written codec impls (the role of generated
//! code) for three real SBI bodies spanning the size spectrum, headed by
//! `PostSmContextsRequest` — the exact message Fig 6 exchanges.

mod flat;
pub mod json;
mod messages;
mod proto;
pub mod value;

pub use messages::{SmContextCreateData, SmContextUpdateData, UeAuthenticationRequest};
pub use value::{FieldError, ObjectBuilder, Value};
