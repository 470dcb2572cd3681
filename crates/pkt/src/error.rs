//! Parse and emit errors shared by all wire formats in this crate.

use core::fmt;

/// Why a byte slice failed to parse as (or emit into) a given format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is shorter than the fixed header, or shorter than a
    /// length field inside the header claims.
    Truncated,
    /// A version field holds a value this implementation does not speak.
    BadVersion,
    /// A field holds a value that is structurally invalid (bad length
    /// field, unknown mandatory IE, reserved bits set where forbidden).
    Malformed,
    /// The message type is not one this implementation understands.
    UnknownType,
    /// The output buffer is too small for the value being emitted.
    BufferTooSmall,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Error::Truncated => "buffer truncated",
            Error::BadVersion => "unsupported protocol version",
            Error::Malformed => "malformed field",
            Error::UnknownType => "unknown message type",
            Error::BufferTooSmall => "output buffer too small",
        };
        f.write_str(s)
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub(crate) type Result<T> = core::result::Result<T, Error>;
