//! IPv4 packets (RFC 791), without options.
//!
//! The UPF datapath parses inner IPv4 headers out of GTP-U payloads to feed
//! the PDR classifier, and emits outer IPv4 headers when encapsulating.

use crate::checksum;
use crate::error::{Error, Result};
use core::fmt;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// Constructs from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr([a, b, c, d])
    }

    /// The address as a big-endian `u32` (classifier key form).
    pub const fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// Constructs from a big-endian `u32`.
    pub const fn from_u32(v: u32) -> Self {
        Ipv4Addr(v.to_be_bytes())
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// IP protocol numbers used in this workspace.
pub mod protocol {
    /// ICMP.
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
    /// SCTP (N1/N2 transport).
    pub const SCTP: u8 = 132;
}

/// Length of an IPv4 header without options.
pub const HEADER_LEN: usize = 20;

/// A zero-copy view of an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wraps a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wraps a buffer, validating version, header length and total length.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let p = Packet { buffer };
        p.check()?;
        Ok(p)
    }

    fn check(&self) -> Result<()> {
        let b = self.buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if b[0] >> 4 != 4 {
            return Err(Error::BadVersion);
        }
        let ihl = usize::from(b[0] & 0x0f) * 4;
        if ihl < HEADER_LEN || b.len() < ihl {
            return Err(Error::Malformed);
        }
        let total = usize::from(u16::from_be_bytes([b[2], b[3]]));
        if total < ihl || b.len() < total {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// Consumes the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[0] & 0x0f) * 4
    }

    /// Total packet length from the header.
    pub fn total_len(&self) -> usize {
        let b = self.buffer.as_ref();
        usize::from(u16::from_be_bytes([b[2], b[3]]))
    }

    /// The full ToS / traffic-class byte.
    pub fn tos(&self) -> u8 {
        self.buffer.as_ref()[1]
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// Payload protocol number.
    pub fn protocol(&self) -> u8 {
        self.buffer.as_ref()[9]
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        let b = self.buffer.as_ref();
        Ipv4Addr([b[12], b[13], b[14], b[15]])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        let b = self.buffer.as_ref();
        Ipv4Addr([b[16], b[17], b[18], b[19]])
    }

    /// Verifies the header checksum.
    pub fn verify_checksum(&self) -> bool {
        let b = self.buffer.as_ref();
        checksum::checksum(&b[..self.header_len()]) == 0
    }

    /// Payload bytes (between header and `total_len`).
    pub fn payload(&self) -> &[u8] {
        let b = self.buffer.as_ref();
        &b[self.header_len()..self.total_len()]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Sets version=4 and IHL=5 (no options).
    pub fn set_version_ihl(&mut self) {
        self.buffer.as_mut()[0] = 0x45;
    }

    /// Sets the ToS byte.
    pub fn set_tos(&mut self, tos: u8) {
        self.buffer.as_mut()[1] = tos;
    }

    /// Sets the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        self.buffer.as_mut()[2..4].copy_from_slice(&len.to_be_bytes());
    }

    /// Sets identification, flags and fragment offset to zero (DF clear).
    pub fn clear_frag(&mut self) {
        self.buffer.as_mut()[4..8].fill(0);
    }

    /// Sets the TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[8] = ttl;
    }

    /// Sets the payload protocol.
    pub fn set_protocol(&mut self, proto: u8) {
        self.buffer.as_mut()[9] = proto;
    }

    /// Sets the source address.
    pub fn set_src(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[12..16].copy_from_slice(&a.0);
    }

    /// Sets the destination address.
    pub fn set_dst(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[16..20].copy_from_slice(&a.0);
    }

    /// Recomputes and stores the header checksum.
    pub fn fill_checksum(&mut self) {
        let hlen = self.header_len();
        let b = self.buffer.as_mut();
        b[10..12].fill(0);
        let c = checksum::checksum(&b[..hlen]);
        b[10..12].copy_from_slice(&c.to_be_bytes());
    }

    /// Mutable payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let hlen = self.header_len();
        let total = self.total_len();
        &mut self.buffer.as_mut()[hlen..total]
    }
}

/// A parsed, owned IPv4 header (options unsupported).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub protocol: u8,
    /// ToS byte.
    pub tos: u8,
    /// Time-to-live.
    pub ttl: u8,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl Repr {
    /// Parses a checked packet into a `Repr`, verifying the checksum.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        if !packet.verify_checksum() {
            return Err(Error::BadChecksum);
        }
        Ok(Repr {
            src: packet.src(),
            dst: packet.dst(),
            protocol: packet.protocol(),
            tos: packet.tos(),
            ttl: packet.ttl(),
            payload_len: packet.total_len() - packet.header_len(),
        })
    }

    /// Bytes the emitted header occupies.
    pub const fn header_len(&self) -> usize {
        HEADER_LEN
    }

    /// Total length of header plus payload.
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Writes the header (and checksum) into `packet`.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_version_ihl();
        packet.set_tos(self.tos);
        packet.set_total_len(self.total_len() as u16);
        packet.clear_frag();
        packet.set_ttl(self.ttl);
        packet.set_protocol(self.protocol);
        packet.set_src(self.src);
        packet.set_dst(self.dst);
        packet.fill_checksum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Repr {
        Repr {
            src: Ipv4Addr::new(10, 60, 0, 1),
            dst: Ipv4Addr::new(10, 100, 200, 3),
            protocol: protocol::UDP,
            tos: 0,
            ttl: 64,
            payload_len: 8,
        }
    }

    #[test]
    fn roundtrip() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut p);
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert!(p.verify_checksum());
        assert_eq!(Repr::parse(&p).unwrap(), repr);
    }

    #[test]
    fn corrupt_checksum_detected() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut p);
        buf[12] ^= 0xff; // flip a source-address bit pattern
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(Repr::parse(&p).unwrap_err(), Error::BadChecksum);
    }

    #[test]
    fn version_check() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 0x65; // version 6
        assert_eq!(
            Packet::new_checked(&buf[..]).unwrap_err(),
            Error::BadVersion
        );
    }

    #[test]
    fn truncation_checks() {
        assert_eq!(
            Packet::new_checked(&[0x45u8; 10][..]).unwrap_err(),
            Error::Truncated
        );
        // total_len larger than buffer
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 0x45;
        buf[2..4].copy_from_slice(&100u16.to_be_bytes());
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn payload_respects_total_len() {
        let repr = sample_repr();
        // Oversized buffer: payload must stop at total_len.
        let mut buf = vec![0xffu8; repr.total_len() + 10];
        let mut p = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut p);
        p.payload_mut().copy_from_slice(&[7u8; 8]);
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.payload(), &[7u8; 8]);
    }

    #[test]
    fn addr_u32_roundtrip() {
        let a = Ipv4Addr::new(192, 168, 1, 77);
        assert_eq!(Ipv4Addr::from_u32(a.to_u32()), a);
        assert_eq!(format!("{a}"), "192.168.1.77");
    }
}
