//! FlatBuffers-style codec — the Neutrino alternative compared in Fig 6.
//!
//! Fixed-layout fields at known offsets plus a trailing heap for variable
//! data; readers access fields *in place* with no parse step (the
//! "zero-parse read" property that makes FlatBuffers cheap to
//! deserialize). Writing still costs a full encode, and the bytes still
//! cross a kernel socket in the Neutrino design — the paper's point is
//! that shared memory removes even this.

/// Build-side: writes a fixed region + heap.
#[derive(Debug)]
pub(crate) struct FlatBuilder {
    fixed: Vec<u8>,
    heap: Vec<u8>,
}

impl FlatBuilder {
    /// Creates a builder whose fixed region holds `fixed_size` bytes.
    pub(crate) fn new(fixed_size: usize) -> FlatBuilder {
        FlatBuilder {
            fixed: vec![0u8; fixed_size],
            heap: Vec::new(),
        }
    }

    /// Writes a `u64` at a fixed offset.
    #[cfg(test)]
    pub(crate) fn put_u64(&mut self, off: usize, v: u64) {
        self.fixed[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` at a fixed offset.
    pub(crate) fn put_u32(&mut self, off: usize, v: u32) {
        self.fixed[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Writes a single byte at a fixed offset.
    pub(crate) fn put_u8(&mut self, off: usize, v: u8) {
        self.fixed[off] = v;
    }

    /// Writes a bool at a fixed offset.
    pub(crate) fn put_bool(&mut self, off: usize, v: bool) {
        self.put_u8(off, v as u8);
    }

    /// Stores `bytes` in the heap and writes an `(absolute offset, len)`
    /// reference pair at the fixed offset (8 bytes).
    pub(crate) fn put_bytes(&mut self, off: usize, bytes: &[u8]) {
        let abs = (self.fixed.len() + self.heap.len()) as u32;
        self.heap.extend_from_slice(bytes);
        self.put_u32(off, abs);
        self.put_u32(off + 4, bytes.len() as u32);
    }

    /// Stores a string in the heap (see [`FlatBuilder::put_bytes`]).
    pub(crate) fn put_str(&mut self, off: usize, s: &str) {
        self.put_bytes(off, s.as_bytes());
    }

    /// Finishes, concatenating fixed region and heap.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        self.fixed.extend_from_slice(&self.heap);
        self.fixed
    }
}

/// Read errors: only structural ones, since access is positional.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlatError {
    /// A fixed offset or heap reference points outside the buffer.
    OutOfBounds,
    /// A string reference does not hold UTF-8.
    BadUtf8,
}

/// Read-side: zero-parse field access into the raw buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlatView<'a> {
    buf: &'a [u8],
}

impl<'a> FlatView<'a> {
    /// Wraps a buffer.
    pub(crate) fn new(buf: &'a [u8]) -> FlatView<'a> {
        FlatView { buf }
    }

    fn slice(&self, off: usize, len: usize) -> Result<&'a [u8], FlatError> {
        self.buf.get(off..off + len).ok_or(FlatError::OutOfBounds)
    }

    /// Reads a `u64` at a fixed offset.
    #[cfg(test)]
    pub(crate) fn u64(&self, off: usize) -> Result<u64, FlatError> {
        Ok(u64::from_le_bytes(
            self.slice(off, 8)?.try_into().expect("8"),
        ))
    }

    /// Reads a `u32` at a fixed offset.
    pub(crate) fn u32(&self, off: usize) -> Result<u32, FlatError> {
        Ok(u32::from_le_bytes(
            self.slice(off, 4)?.try_into().expect("4"),
        ))
    }

    /// Reads one byte at a fixed offset.
    pub(crate) fn u8(&self, off: usize) -> Result<u8, FlatError> {
        Ok(self.slice(off, 1)?[0])
    }

    /// Reads a bool at a fixed offset.
    pub(crate) fn bool(&self, off: usize) -> Result<bool, FlatError> {
        Ok(self.u8(off)? != 0)
    }

    /// Follows an `(offset, len)` reference to heap bytes.
    pub(crate) fn bytes(&self, off: usize) -> Result<&'a [u8], FlatError> {
        let abs = self.u32(off)? as usize;
        let len = self.u32(off + 4)? as usize;
        self.slice(abs, len)
    }

    /// Follows a reference to a heap string.
    pub(crate) fn str(&self, off: usize) -> Result<&'a str, FlatError> {
        core::str::from_utf8(self.bytes(off)?).map_err(|_| FlatError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_and_heap_roundtrip() {
        let mut b = FlatBuilder::new(32);
        b.put_u64(0, 0xdead_beef_cafe);
        b.put_u32(8, 77);
        b.put_bool(12, true);
        b.put_str(16, "imsi-20893");
        b.put_bytes(24, &[1, 2, 3]);
        let buf = b.finish();

        let v = FlatView::new(&buf);
        assert_eq!(v.u64(0).unwrap(), 0xdead_beef_cafe);
        assert_eq!(v.u32(8).unwrap(), 77);
        assert!(v.bool(12).unwrap());
        assert_eq!(v.str(16).unwrap(), "imsi-20893");
        assert_eq!(v.bytes(24).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn out_of_bounds_detected() {
        let buf = vec![0u8; 4];
        let v = FlatView::new(&buf);
        assert_eq!(v.u64(0).unwrap_err(), FlatError::OutOfBounds);
        assert_eq!(v.u32(4).unwrap_err(), FlatError::OutOfBounds);
    }

    #[test]
    fn dangling_heap_reference_detected() {
        let mut b = FlatBuilder::new(8);
        b.put_u32(0, 1000); // bogus heap offset
        b.put_u32(4, 10);
        let buf = b.finish();
        assert_eq!(
            FlatView::new(&buf).bytes(0).unwrap_err(),
            FlatError::OutOfBounds
        );
    }

    #[test]
    fn invalid_utf8_detected() {
        let mut b = FlatBuilder::new(8);
        b.put_bytes(0, &[0xff, 0xfe]);
        let buf = b.finish();
        assert_eq!(FlatView::new(&buf).str(0).unwrap_err(), FlatError::BadUtf8);
    }

    #[test]
    fn empty_string_ok() {
        let mut b = FlatBuilder::new(8);
        b.put_str(0, "");
        let buf = b.finish();
        assert_eq!(FlatView::new(&buf).str(0).unwrap(), "");
    }
}
