//! TCP segment headers (RFC 793).
//!
//! Only the header view is provided here — enough for the UPF's PDR
//! classifier to extract ports/flags from inner packets and for traffic
//! generators to stamp segments. TCP *behaviour* (cwnd, RTO) is modeled in
//! `l25gc-ran::tcp`, which is where the paper's QoE experiments live.

use crate::checksum;
use crate::error::{Error, Result};
use crate::ipv4::Ipv4Addr;

/// Minimum TCP header length (no options).
pub const HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// FIN: sender is done.
    pub fin: bool,
    /// SYN: synchronize sequence numbers.
    pub syn: bool,
    /// RST: reset the connection.
    pub rst: bool,
    /// PSH: push buffered data to the application.
    pub psh: bool,
    /// ACK: acknowledgment field is valid.
    pub ack: bool,
}

impl Flags {
    fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    fn from_byte(b: u8) -> Flags {
        Flags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// A zero-copy view of a TCP segment.
#[derive(Debug, Clone)]
pub struct Segment<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Segment<T> {
    /// Wraps a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Segment<T> {
        Segment { buffer }
    }

    /// Wraps a buffer, validating the fixed header and data offset.
    pub fn new_checked(buffer: T) -> Result<Segment<T>> {
        let s = Segment { buffer };
        let b = s.buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let off = s.header_len();
        if off < HEADER_LEN || b.len() < off {
            return Err(Error::Malformed);
        }
        Ok(s)
    }

    /// Source port.
    pub(crate) fn src_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Destination port.
    pub(crate) fn dst_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// Sequence number.
    pub(crate) fn seq(&self) -> u32 {
        let b = self.buffer.as_ref();
        u32::from_be_bytes([b[4], b[5], b[6], b[7]])
    }

    /// Acknowledgment number.
    pub(crate) fn ack_num(&self) -> u32 {
        let b = self.buffer.as_ref();
        u32::from_be_bytes([b[8], b[9], b[10], b[11]])
    }

    /// Header length from the data-offset field, in bytes.
    pub(crate) fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[12] >> 4) * 4
    }

    /// Flag bits.
    pub(crate) fn flags(&self) -> Flags {
        Flags::from_byte(self.buffer.as_ref()[13])
    }

    /// Advertised receive window.
    pub(crate) fn window(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[14], b[15]])
    }

    /// Payload after the header.
    #[cfg(test)]
    pub(crate) fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len()..]
    }

    /// Verifies the checksum with the IPv4 pseudo-header.
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let b = self.buffer.as_ref();
        let acc =
            checksum::pseudo_header_v4(src.0, dst.0, crate::ipv4::protocol::TCP, b.len() as u16);
        checksum::finish(checksum::sum(acc, b)) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Segment<T> {
    /// Sets the source port.
    pub(crate) fn set_src_port(&mut self, p: u16) {
        self.buffer.as_mut()[0..2].copy_from_slice(&p.to_be_bytes());
    }

    /// Sets the destination port.
    pub(crate) fn set_dst_port(&mut self, p: u16) {
        self.buffer.as_mut()[2..4].copy_from_slice(&p.to_be_bytes());
    }

    /// Sets the sequence number.
    pub(crate) fn set_seq(&mut self, v: u32) {
        self.buffer.as_mut()[4..8].copy_from_slice(&v.to_be_bytes());
    }

    /// Sets the acknowledgment number.
    pub(crate) fn set_ack_num(&mut self, v: u32) {
        self.buffer.as_mut()[8..12].copy_from_slice(&v.to_be_bytes());
    }

    /// Sets data offset to 5 words (no options).
    pub(crate) fn set_header_len_no_options(&mut self) {
        self.buffer.as_mut()[12] = 5 << 4;
    }

    /// Sets the flag bits.
    pub(crate) fn set_flags(&mut self, f: Flags) {
        self.buffer.as_mut()[13] = f.to_byte();
    }

    /// Sets the advertised window.
    pub(crate) fn set_window(&mut self, w: u16) {
        self.buffer.as_mut()[14..16].copy_from_slice(&w.to_be_bytes());
    }

    /// Mutable payload after the header.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let off = self.header_len();
        &mut self.buffer.as_mut()[off..]
    }

    /// Computes and stores the checksum over the whole segment.
    pub fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        let b = self.buffer.as_mut();
        b[16..18].fill(0);
        let acc =
            checksum::pseudo_header_v4(src.0, dst.0, crate::ipv4::protocol::TCP, b.len() as u16);
        let c = checksum::finish(checksum::sum(acc, b));
        b[16..18].copy_from_slice(&c.to_be_bytes());
    }
}

/// A parsed, owned TCP header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number (meaningful when `flags.ack`).
    pub ack_num: u32,
    /// Flag bits.
    pub flags: Flags,
    /// Advertised window.
    pub window: u16,
}

impl Repr {
    /// Parses a checked segment.
    pub fn parse<T: AsRef<[u8]>>(seg: &Segment<T>) -> Repr {
        Repr {
            src_port: seg.src_port(),
            dst_port: seg.dst_port(),
            seq: seg.seq(),
            ack_num: seg.ack_num(),
            flags: seg.flags(),
            window: seg.window(),
        }
    }

    /// Writes the header into `seg` (checksum left zero; call
    /// [`Segment::fill_checksum`] after the payload is in place).
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, seg: &mut Segment<T>) {
        seg.set_src_port(self.src_port);
        seg.set_dst_port(self.dst_port);
        seg.set_seq(self.seq);
        seg.set_ack_num(self.ack_num);
        seg.set_header_len_no_options();
        seg.set_flags(self.flags);
        seg.set_window(self.window);
        let b = seg.buffer.as_mut();
        b[16..18].fill(0); // checksum
        b[18..20].fill(0); // urgent pointer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let repr = Repr {
            src_port: 443,
            dst_port: 50123,
            seq: 0xdead_beef,
            ack_num: 0x0102_0304,
            flags: Flags {
                ack: true,
                psh: true,
                ..Flags::default()
            },
            window: 65535,
        };
        let mut buf = [0u8; HEADER_LEN + 3];
        let mut s = Segment::new_unchecked(&mut buf[..]);
        repr.emit(&mut s);
        s.payload_mut().copy_from_slice(b"abc");
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        s.fill_checksum(src, dst);
        let s = Segment::new_checked(&buf[..]).unwrap();
        assert!(s.verify_checksum(src, dst));
        assert_eq!(Repr::parse(&s), repr);
        assert_eq!(s.payload(), b"abc");
    }

    #[test]
    fn flags_byte_mapping() {
        let f = Flags {
            fin: true,
            syn: false,
            rst: true,
            psh: false,
            ack: true,
        };
        assert_eq!(Flags::from_byte(f.to_byte()), f);
        assert!(Flags::from_byte(0x12).ack);
        assert!(Flags::from_byte(0x12).syn);
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut buf = [0u8; HEADER_LEN];
        buf[12] = 4 << 4; // offset 16 bytes < 20
        assert_eq!(
            Segment::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
        buf[12] = 8 << 4; // offset 32 bytes > buffer
        assert_eq!(
            Segment::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn corrupt_segment_fails_checksum() {
        let repr = Repr {
            src_port: 1,
            dst_port: 2,
            seq: 3,
            ack_num: 0,
            flags: Flags {
                syn: true,
                ..Flags::default()
            },
            window: 100,
        };
        let mut buf = [0u8; HEADER_LEN];
        let mut s = Segment::new_unchecked(&mut buf[..]);
        repr.emit(&mut s);
        let src = Ipv4Addr::new(9, 9, 9, 9);
        let dst = Ipv4Addr::new(8, 8, 8, 8);
        s.fill_checksum(src, dst);
        buf[4] ^= 0xff;
        let s = Segment::new_checked(&buf[..]).unwrap();
        assert!(!s.verify_checksum(src, dst));
    }
}
