//! Ethernet II frames.
//!
//! [`Frame`] is a zero-copy view over any `AsRef<[u8]>`; setters are
//! available when the storage is also `AsMut<[u8]>` — the smoltcp idiom.

use crate::error::{Error, Result};
use core::fmt;

/// A MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// EtherType values this workspace uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EtherType {
    /// IPv4 (`0x0800`).
    Ipv4,
    /// ARP (`0x0806`).
    Arp,
    /// Anything else, carried verbatim.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(v: EtherType) -> u16 {
        match v {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(o) => o,
        }
    }
}

/// Length of the Ethernet II header.
pub(crate) const HEADER_LEN: usize = 14;

/// A zero-copy view of an Ethernet II frame.
#[derive(Debug, Clone)]
pub struct Frame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Frame<T> {
    /// Wraps a buffer without length validation.
    pub(crate) fn new_unchecked(buffer: T) -> Frame<T> {
        Frame { buffer }
    }

    /// Wraps a buffer, checking it is long enough for the header.
    pub fn new_checked(buffer: T) -> Result<Frame<T>> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(Frame { buffer })
    }

    /// Destination MAC address.
    #[cfg(test)]
    pub(crate) fn dst(&self) -> MacAddr {
        let b = self.buffer.as_ref();
        MacAddr([b[0], b[1], b[2], b[3], b[4], b[5]])
    }

    /// Source MAC address.
    #[cfg(test)]
    pub(crate) fn src(&self) -> MacAddr {
        let b = self.buffer.as_ref();
        MacAddr([b[6], b[7], b[8], b[9], b[10], b[11]])
    }

    /// EtherType of the payload.
    #[cfg(test)]
    pub(crate) fn ethertype(&self) -> EtherType {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[12], b[13]]).into()
    }

    /// The payload following the header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Frame<T> {
    /// Sets the destination MAC address.
    pub(crate) fn set_dst(&mut self, addr: MacAddr) {
        self.buffer.as_mut()[0..6].copy_from_slice(&addr.0);
    }

    /// Sets the source MAC address.
    pub(crate) fn set_src(&mut self, addr: MacAddr) {
        self.buffer.as_mut()[6..12].copy_from_slice(&addr.0);
    }

    /// Sets the EtherType.
    pub(crate) fn set_ethertype(&mut self, ty: EtherType) {
        self.buffer.as_mut()[12..14].copy_from_slice(&u16::from(ty).to_be_bytes());
    }

    /// Mutable access to the payload.
    pub(crate) fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[HEADER_LEN..]
    }
}

/// A parsed, owned representation of the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Repr {
    /// Destination MAC.
    pub(crate) dst: MacAddr,
    /// Source MAC.
    pub(crate) src: MacAddr,
    /// Payload EtherType.
    pub(crate) ethertype: EtherType,
}

impl Repr {
    /// Parses the header of `frame`.
    #[cfg(test)]
    pub(crate) fn parse<T: AsRef<[u8]>>(frame: &Frame<T>) -> Repr {
        Repr {
            dst: frame.dst(),
            src: frame.src(),
            ethertype: frame.ethertype(),
        }
    }

    /// Writes the header into `frame`.
    pub(crate) fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, frame: &mut Frame<T>) {
        frame.set_dst(self.dst);
        frame.set_src(self.src);
        frame.set_ethertype(self.ethertype);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let repr = Repr {
            dst: MacAddr([1, 2, 3, 4, 5, 6]),
            src: MacAddr([7, 8, 9, 10, 11, 12]),
            ethertype: EtherType::Ipv4,
        };
        let mut buf = [0u8; HEADER_LEN + 4];
        let mut f = Frame::new_unchecked(&mut buf[..]);
        repr.emit(&mut f);
        f.payload_mut().copy_from_slice(b"abcd");
        let f = Frame::new_checked(&buf[..]).unwrap();
        assert_eq!(Repr::parse(&f), repr);
        assert_eq!(f.payload(), b"abcd");
    }

    #[test]
    fn short_buffer_rejected() {
        assert_eq!(
            Frame::new_checked(&[0u8; 13][..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(u16::from(EtherType::Ipv4), 0x0800);
        assert_eq!(EtherType::from(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from(0x1234), EtherType::Other(0x1234));
    }

    #[test]
    fn mac_predicates() {
        assert_eq!(
            format!("{}", MacAddr([0xde, 0xad, 0xbe, 0xef, 0, 1])),
            "de:ad:be:ef:00:01"
        );
    }
}
