//! GTP-U (GPRS Tunnelling Protocol, user plane) per 3GPP TS 29.281.
//!
//! The N3 interface between gNB and UPF carries user IP packets inside
//! GTP-U tunnels over UDP port 2152; the Tunnel Endpoint Identifier (TEID)
//! is the uplink session-lookup key in the UPF (see §2.1 of the paper).

use crate::error::{Error, Result};

/// Mandatory GTP-U header length (no optional fields).
pub(crate) const HEADER_LEN: usize = 8;
/// Header length when any of E/S/PN is set.
pub(crate) const HEADER_LEN_WITH_OPT: usize = 12;

/// GTP-U message types used by the 5GC datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageType {
    /// Echo Request (path management).
    EchoRequest,
    /// Echo Response.
    EchoResponse,
    /// Error Indication (no session for TEID).
    ErrorIndication,
    /// End Marker (sent on the old path at handover).
    EndMarker,
    /// G-PDU: an encapsulated user packet.
    GPdu,
}

impl MessageType {
    fn to_byte(self) -> u8 {
        match self {
            MessageType::EchoRequest => 1,
            MessageType::EchoResponse => 2,
            MessageType::ErrorIndication => 26,
            MessageType::EndMarker => 254,
            MessageType::GPdu => 255,
        }
    }

    fn from_byte(b: u8) -> Result<MessageType> {
        Ok(match b {
            1 => MessageType::EchoRequest,
            2 => MessageType::EchoResponse,
            26 => MessageType::ErrorIndication,
            254 => MessageType::EndMarker,
            255 => MessageType::GPdu,
            _ => return Err(Error::UnknownType),
        })
    }
}

/// A zero-copy view of a GTP-U packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wraps a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wraps a buffer, validating version, length field and option bits.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let p = Packet { buffer };
        let b = p.buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if b[0] >> 5 != 1 {
            return Err(Error::BadVersion);
        }
        if b[0] & 0x10 == 0 {
            // PT must be 1 for GTP (0 is GTP').
            return Err(Error::Malformed);
        }
        if b.len() < p.header_len() {
            return Err(Error::Truncated);
        }
        let len = usize::from(u16::from_be_bytes([b[2], b[3]]));
        if b.len() < HEADER_LEN + len {
            return Err(Error::Truncated);
        }
        Ok(p)
    }

    /// True if any optional field (E/S/PN) is present.
    pub(crate) fn has_options(&self) -> bool {
        self.buffer.as_ref()[0] & 0x07 != 0
    }

    /// True if the sequence-number flag (S) is set.
    pub(crate) fn has_seq(&self) -> bool {
        self.buffer.as_ref()[0] & 0x02 != 0
    }

    /// Actual header length given the option bits.
    pub(crate) fn header_len(&self) -> usize {
        if self.has_options() {
            HEADER_LEN_WITH_OPT
        } else {
            HEADER_LEN
        }
    }

    /// Message type.
    pub(crate) fn msg_type(&self) -> Result<MessageType> {
        MessageType::from_byte(self.buffer.as_ref()[1])
    }

    /// The length field: bytes after the mandatory 8-byte header.
    pub(crate) fn len_field(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// Tunnel Endpoint Identifier.
    pub fn teid(&self) -> u32 {
        let b = self.buffer.as_ref();
        u32::from_be_bytes([b[4], b[5], b[6], b[7]])
    }

    /// Sequence number, if the S flag is set.
    pub(crate) fn seq(&self) -> Option<u16> {
        if self.has_seq() {
            let b = self.buffer.as_ref();
            Some(u16::from_be_bytes([b[8], b[9]]))
        } else {
            None
        }
    }

    /// The encapsulated payload (a user IP packet for G-PDU).
    pub fn payload(&self) -> &[u8] {
        let end = HEADER_LEN + usize::from(self.len_field());
        &self.buffer.as_ref()[self.header_len()..end]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Mutable access to the payload.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let start = self.header_len();
        let end = HEADER_LEN + usize::from(self.len_field());
        &mut self.buffer.as_mut()[start..end]
    }
}

/// A parsed, owned GTP-U header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Message type.
    pub msg_type: MessageType,
    /// Tunnel endpoint identifier.
    pub teid: u32,
    /// Optional sequence number (sets the S flag when present).
    pub seq: Option<u16>,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl Repr {
    /// Parses a checked packet.
    pub fn parse<T: AsRef<[u8]>>(p: &Packet<T>) -> Result<Repr> {
        Ok(Repr {
            msg_type: p.msg_type()?,
            teid: p.teid(),
            seq: p.seq(),
            payload_len: HEADER_LEN + usize::from(p.len_field()) - p.header_len(),
        })
    }

    /// Bytes the emitted header occupies.
    pub(crate) fn header_len(&self) -> usize {
        if self.seq.is_some() {
            HEADER_LEN_WITH_OPT
        } else {
            HEADER_LEN
        }
    }

    /// Header + payload length.
    pub fn total_len(&self) -> usize {
        self.header_len() + self.payload_len
    }

    /// Writes the header into `p`'s buffer.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, p: &mut Packet<T>) {
        let with_seq = self.seq.is_some();
        let b = p.buffer.as_mut();
        b[0] = (1 << 5) | 0x10 | if with_seq { 0x02 } else { 0 };
        b[1] = self.msg_type.to_byte();
        // Length counts everything after the mandatory header, including
        // the optional fields themselves.
        let len = self.total_len() - HEADER_LEN;
        b[2..4].copy_from_slice(&(len as u16).to_be_bytes());
        b[4..8].copy_from_slice(&self.teid.to_be_bytes());
        if let Some(seq) = self.seq {
            b[8..10].copy_from_slice(&seq.to_be_bytes());
            b[10] = 0; // N-PDU number (unused)
            b[11] = 0; // next extension header type: none
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpdu_roundtrip() {
        let repr = Repr {
            msg_type: MessageType::GPdu,
            teid: 0x0042_4242,
            seq: None,
            payload_len: 5,
        };
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut p);
        p.payload_mut().copy_from_slice(b"inner");
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(Repr::parse(&p).unwrap(), repr);
        assert_eq!(p.payload(), b"inner");
        assert_eq!(p.teid(), 0x0042_4242);
    }

    #[test]
    fn roundtrip_with_sequence() {
        let repr = Repr {
            msg_type: MessageType::GPdu,
            teid: 7,
            seq: Some(0x1234),
            payload_len: 3,
        };
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut p);
        p.payload_mut().copy_from_slice(b"xyz");
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.header_len(), HEADER_LEN_WITH_OPT);
        assert_eq!(p.seq(), Some(0x1234));
        assert_eq!(Repr::parse(&p).unwrap(), repr);
        assert_eq!(p.payload(), b"xyz");
    }

    #[test]
    fn end_marker_roundtrip() {
        let repr = Repr {
            msg_type: MessageType::EndMarker,
            teid: 99,
            seq: None,
            payload_len: 0,
        };
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut p);
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.msg_type().unwrap(), MessageType::EndMarker);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = (2 << 5) | 0x10;
        assert_eq!(
            Packet::new_checked(&buf[..]).unwrap_err(),
            Error::BadVersion
        );
    }

    #[test]
    fn gtp_prime_rejected() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 1 << 5; // PT = 0
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn truncated_payload_rejected() {
        let repr = Repr {
            msg_type: MessageType::GPdu,
            teid: 1,
            seq: None,
            payload_len: 10,
        };
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut p);
        assert_eq!(
            Packet::new_checked(&buf[..HEADER_LEN + 5]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn unknown_message_type() {
        let repr = Repr {
            msg_type: MessageType::GPdu,
            teid: 1,
            seq: None,
            payload_len: 0,
        };
        let mut buf = vec![0u8; repr.total_len()];
        let mut p = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut p);
        buf[1] = 77;
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.msg_type().unwrap_err(), Error::UnknownType);
    }
}
