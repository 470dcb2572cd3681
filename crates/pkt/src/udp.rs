//! UDP datagrams (RFC 768).

use crate::checksum;
use crate::error::{Error, Result};
use crate::ipv4::Ipv4Addr;

/// UDP header length.
pub(crate) const HEADER_LEN: usize = 8;

/// The well-known GTP-U port (outer tunnel header).
pub const GTPU_PORT: u16 = 2152;

/// A zero-copy view of a UDP datagram.
#[derive(Debug, Clone)]
pub struct Datagram<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Datagram<T> {
    /// Wraps a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Datagram<T> {
        Datagram { buffer }
    }

    /// Wraps a buffer, validating the header and length field.
    pub fn new_checked(buffer: T) -> Result<Datagram<T>> {
        let d = Datagram { buffer };
        let b = d.buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let len = usize::from(u16::from_be_bytes([b[4], b[5]]));
        if len < HEADER_LEN || b.len() < len {
            return Err(Error::Truncated);
        }
        Ok(d)
    }

    /// Source port.
    pub(crate) fn src_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// The header length field value.
    pub(crate) fn len_field(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[4], b[5]])
    }

    /// The checksum field value (0 = not computed).
    pub(crate) fn checksum_field(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[6], b[7]])
    }

    /// Payload bytes, bounded by the length field.
    pub fn payload(&self) -> &[u8] {
        let len = usize::from(self.len_field());
        &self.buffer.as_ref()[HEADER_LEN..len]
    }

    /// Verifies the checksum with the IPv4 pseudo-header; a zero checksum
    /// field means "not computed" and always verifies (RFC 768).
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        if self.checksum_field() == 0 {
            return true;
        }
        let b = self.buffer.as_ref();
        let len = usize::from(self.len_field());
        let acc = checksum::pseudo_header_v4(src.0, dst.0, crate::ipv4::protocol::UDP, len as u16);
        checksum::finish(checksum::sum(acc, &b[..len])) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Datagram<T> {
    /// Sets the source port.
    pub(crate) fn set_src_port(&mut self, p: u16) {
        self.buffer.as_mut()[0..2].copy_from_slice(&p.to_be_bytes());
    }

    /// Sets the destination port.
    pub(crate) fn set_dst_port(&mut self, p: u16) {
        self.buffer.as_mut()[2..4].copy_from_slice(&p.to_be_bytes());
    }

    /// Sets the length field.
    pub(crate) fn set_len_field(&mut self, len: u16) {
        self.buffer.as_mut()[4..6].copy_from_slice(&len.to_be_bytes());
    }

    /// Mutable payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let len = usize::from(self.len_field());
        &mut self.buffer.as_mut()[HEADER_LEN..len]
    }

    /// Computes and stores the checksum using the IPv4 pseudo-header. Per
    /// RFC 768 a computed checksum of zero is transmitted as `0xffff`.
    pub fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        let len = usize::from(self.len_field());
        let b = self.buffer.as_mut();
        b[6..8].fill(0);
        let acc = checksum::pseudo_header_v4(src.0, dst.0, crate::ipv4::protocol::UDP, len as u16);
        let mut c = checksum::finish(checksum::sum(acc, &b[..len]));
        if c == 0 {
            c = 0xffff;
        }
        b[6..8].copy_from_slice(&c.to_be_bytes());
    }
}

/// A parsed, owned UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl Repr {
    /// Parses a checked datagram.
    pub fn parse<T: AsRef<[u8]>>(dgram: &Datagram<T>) -> Repr {
        Repr {
            src_port: dgram.src_port(),
            dst_port: dgram.dst_port(),
            payload_len: usize::from(dgram.len_field()) - HEADER_LEN,
        }
    }

    /// Header + payload length.
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Writes the header (ports + length; checksum left zero) into `dgram`.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, dgram: &mut Datagram<T>) {
        dgram.set_src_port(self.src_port);
        dgram.set_dst_port(self.dst_port);
        dgram.set_len_field(self.total_len() as u16);
        dgram.buffer.as_mut()[6..8].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_checksum() {
        let repr = Repr {
            src_port: 2152,
            dst_port: 2152,
            payload_len: 4,
        };
        let mut buf = vec![0u8; repr.total_len()];
        let mut d = Datagram::new_unchecked(&mut buf[..]);
        repr.emit(&mut d);
        d.payload_mut().copy_from_slice(b"gtpu");
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        d.fill_checksum(src, dst);
        let d = Datagram::new_checked(&buf[..]).unwrap();
        assert!(d.verify_checksum(src, dst));
        assert_eq!(Repr::parse(&d), repr);
        assert_eq!(d.payload(), b"gtpu");
    }

    #[test]
    fn zero_checksum_always_verifies() {
        let repr = Repr {
            src_port: 1,
            dst_port: 2,
            payload_len: 0,
        };
        let mut buf = vec![0u8; repr.total_len()];
        let mut d = Datagram::new_unchecked(&mut buf[..]);
        repr.emit(&mut d);
        let d = Datagram::new_checked(&buf[..]).unwrap();
        assert!(d.verify_checksum(Ipv4Addr::default(), Ipv4Addr::default()));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let repr = Repr {
            src_port: 5,
            dst_port: 6,
            payload_len: 4,
        };
        let mut buf = vec![0u8; repr.total_len()];
        let mut d = Datagram::new_unchecked(&mut buf[..]);
        repr.emit(&mut d);
        d.payload_mut().copy_from_slice(b"data");
        let src = Ipv4Addr::new(1, 1, 1, 1);
        let dst = Ipv4Addr::new(2, 2, 2, 2);
        d.fill_checksum(src, dst);
        buf[HEADER_LEN] ^= 0x01;
        let d = Datagram::new_checked(&buf[..]).unwrap();
        assert!(!d.verify_checksum(src, dst));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            Datagram::new_checked(&[0u8; 4][..]).unwrap_err(),
            Error::Truncated
        );
        let mut buf = [0u8; 8];
        buf[4..6].copy_from_slice(&20u16.to_be_bytes()); // claims 20 bytes
        assert_eq!(
            Datagram::new_checked(&buf[..]).unwrap_err(),
            Error::Truncated
        );
    }
}
