//! Protobuf-style binary codec — the gRPC alternative (Buyakar et al.)
//! compared in Fig 6.
//!
//! Implements the protobuf wire format primitives: varints, `(field_num,
//! wire_type)` tags, and length-delimited payloads. Message structs use a
//! [`Writer`]/[`Reader`] pair the way protoc-generated code does. Cheaper
//! than JSON (no field names, no text), but still a full encode on write
//! and a full decode on read — which is exactly the residual cost the
//! paper's shared-memory path eliminates.

/// Wire types from the protobuf encoding spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireType {
    /// Varint-encoded integer.
    Varint,
    /// Length-delimited bytes (strings, nested messages, packed fields).
    LengthDelimited,
}

impl WireType {
    fn to_bits(self) -> u64 {
        match self {
            WireType::Varint => 0,
            WireType::LengthDelimited => 2,
        }
    }

    fn from_bits(bits: u64) -> Option<WireType> {
        match bits {
            0 => Some(WireType::Varint),
            2 => Some(WireType::LengthDelimited),
            _ => None,
        }
    }
}

/// Decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended inside a value.
    Truncated,
    /// A varint longer than 10 bytes.
    VarintOverflow,
    /// An unsupported wire type.
    BadWireType,
    /// A required field was absent.
    MissingField(u32),
    /// Length-delimited payload was not valid UTF-8 where a string was
    /// expected.
    BadUtf8,
}

/// Appends messages field by field.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Finishes, returning the wire bytes.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    fn tag(&mut self, field: u32, wt: WireType) {
        self.varint((u64::from(field) << 3) | wt.to_bits());
    }

    /// Writes a varint field.
    pub(crate) fn u64(&mut self, field: u32, v: u64) {
        self.tag(field, WireType::Varint);
        self.varint(v);
    }

    /// Writes a bool field as varint 0/1.
    pub(crate) fn bool(&mut self, field: u32, v: bool) {
        self.u64(field, v as u64);
    }

    /// Writes a string field.
    pub(crate) fn str(&mut self, field: u32, v: &str) {
        self.bytes(field, v.as_bytes());
    }

    /// Writes a bytes field.
    pub(crate) fn bytes(&mut self, field: u32, v: &[u8]) {
        self.tag(field, WireType::LengthDelimited);
        self.varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a nested message built by `f`.
    pub(crate) fn nested(&mut self, field: u32, f: impl FnOnce(&mut Writer)) {
        let mut inner = Writer::new();
        f(&mut inner);
        self.bytes(field, &inner.buf);
    }
}

/// Streams `(field, value)` pairs back out of wire bytes.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// One decoded field.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FieldValue<'a> {
    /// A varint field.
    Varint(u64),
    /// A length-delimited field.
    Bytes(&'a [u8]),
}

impl<'a> FieldValue<'a> {
    /// Interprets as u64, erroring on wrong wire type.
    pub(crate) fn u64(&self) -> Result<u64, DecodeError> {
        match self {
            FieldValue::Varint(v) => Ok(*v),
            _ => Err(DecodeError::BadWireType),
        }
    }

    /// Interprets as UTF-8 string.
    pub(crate) fn str(&self) -> Result<&'a str, DecodeError> {
        match self {
            FieldValue::Bytes(b) => core::str::from_utf8(b).map_err(|_| DecodeError::BadUtf8),
            _ => Err(DecodeError::BadWireType),
        }
    }

    /// Interprets as raw bytes (also used for nested messages).
    pub(crate) fn bytes(&self) -> Result<&'a [u8], DecodeError> {
        match self {
            FieldValue::Bytes(b) => Ok(b),
            _ => Err(DecodeError::BadWireType),
        }
    }
}

impl<'a> Reader<'a> {
    /// Creates a reader over wire bytes.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        for shift in 0..10 {
            let byte = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
            self.pos += 1;
            v |= u64::from(byte & 0x7f) << (shift * 7);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::VarintOverflow)
    }

    /// Reads the next `(field_number, value)` pair, or `None` at the end.
    pub(crate) fn next_field(&mut self) -> Result<Option<(u32, FieldValue<'a>)>, DecodeError> {
        if self.pos >= self.buf.len() {
            return Ok(None);
        }
        let tag = self.varint()?;
        let field = (tag >> 3) as u32;
        let wt = WireType::from_bits(tag & 0x07).ok_or(DecodeError::BadWireType)?;
        let value = match wt {
            WireType::Varint => FieldValue::Varint(self.varint()?),
            WireType::LengthDelimited => {
                let len = self.varint()? as usize;
                let end = self.pos.checked_add(len).ok_or(DecodeError::Truncated)?;
                if end > self.buf.len() {
                    return Err(DecodeError::Truncated);
                }
                let b = &self.buf[self.pos..end];
                self.pos = end;
                FieldValue::Bytes(b)
            }
        };
        Ok(Some((field, value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut w = Writer::new();
            w.u64(1, v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let (f, val) = r.next_field().unwrap().unwrap();
            assert_eq!(f, 1);
            assert_eq!(val.u64().unwrap(), v);
            assert!(r.next_field().unwrap().is_none());
        }
    }

    #[test]
    fn mixed_fields_roundtrip() {
        let mut w = Writer::new();
        w.str(1, "imsi-208930000000001");
        w.u64(2, 1);
        w.bool(3, true);
        w.nested(4, |inner| {
            inner.u64(1, 1);
            inner.str(2, "010203");
        });
        w.bytes(5, &[0xde, 0xad]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        let (f, v) = r.next_field().unwrap().unwrap();
        assert_eq!((f, v.str().unwrap()), (1, "imsi-208930000000001"));
        let (f, v) = r.next_field().unwrap().unwrap();
        assert_eq!((f, v.u64().unwrap()), (2, 1));
        let (f, v) = r.next_field().unwrap().unwrap();
        assert_eq!((f, v.u64().unwrap()), (3, 1));
        let (f, v) = r.next_field().unwrap().unwrap();
        assert_eq!(f, 4);
        let mut inner = Reader::new(v.bytes().unwrap());
        assert_eq!(inner.next_field().unwrap().unwrap().1.u64().unwrap(), 1);
        assert_eq!(
            inner.next_field().unwrap().unwrap().1.str().unwrap(),
            "010203"
        );
        let (f, v) = r.next_field().unwrap().unwrap();
        assert_eq!((f, v.bytes().unwrap()), (5, &[0xde, 0xad][..]));
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.str(1, "hello");
        let bytes = w.into_bytes();
        for cut in 1..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.next_field().is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn varint_overflow_detected() {
        let bytes = [0x80u8; 11];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.next_field().unwrap_err(), DecodeError::VarintOverflow);
    }

    #[test]
    fn unsupported_wire_type_rejected() {
        // Tag with wire type 5 (32-bit), unsupported here.
        let bytes = [(1 << 3) | 5, 0, 0, 0, 0];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.next_field().unwrap_err(), DecodeError::BadWireType);
    }
}
