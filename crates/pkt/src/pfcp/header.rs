//! PFCP message header (3GPP TS 29.244 §7.2).
//!
//! Node-related messages (heartbeat, association) carry no SEID; session
//! messages set the S flag and carry the 8-byte SEID before the 3-byte
//! sequence number.

use crate::error::{Error, Result};

/// Header length without SEID.
pub(crate) const NODE_HEADER_LEN: usize = 8;
/// Header length with SEID (S flag set).
pub(crate) const SESSION_HEADER_LEN: usize = 16;

/// PFCP message types used by the 5GC (subset of TS 29.244 §7.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgType {
    /// Heartbeat Request (node).
    HeartbeatRequest,
    /// Heartbeat Response (node).
    HeartbeatResponse,
    /// Association Setup Request (node).
    AssociationSetupRequest,
    /// Association Setup Response (node).
    AssociationSetupResponse,
    /// Session Establishment Request.
    SessionEstablishmentRequest,
    /// Session Establishment Response.
    SessionEstablishmentResponse,
    /// Session Modification Request.
    SessionModificationRequest,
    /// Session Modification Response.
    SessionModificationResponse,
    /// Session Deletion Request.
    SessionDeletionRequest,
    /// Session Deletion Response.
    SessionDeletionResponse,
    /// Session Report Request (UPF → SMF, e.g. downlink data report).
    SessionReportRequest,
    /// Session Report Response.
    SessionReportResponse,
}

impl MsgType {
    /// The wire value.
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            MsgType::HeartbeatRequest => 1,
            MsgType::HeartbeatResponse => 2,
            MsgType::AssociationSetupRequest => 5,
            MsgType::AssociationSetupResponse => 6,
            MsgType::SessionEstablishmentRequest => 50,
            MsgType::SessionEstablishmentResponse => 51,
            MsgType::SessionModificationRequest => 52,
            MsgType::SessionModificationResponse => 53,
            MsgType::SessionDeletionRequest => 54,
            MsgType::SessionDeletionResponse => 55,
            MsgType::SessionReportRequest => 56,
            MsgType::SessionReportResponse => 57,
        }
    }

    /// Parses the wire value.
    pub(crate) fn from_byte(b: u8) -> Result<MsgType> {
        Ok(match b {
            1 => MsgType::HeartbeatRequest,
            2 => MsgType::HeartbeatResponse,
            5 => MsgType::AssociationSetupRequest,
            6 => MsgType::AssociationSetupResponse,
            50 => MsgType::SessionEstablishmentRequest,
            51 => MsgType::SessionEstablishmentResponse,
            52 => MsgType::SessionModificationRequest,
            53 => MsgType::SessionModificationResponse,
            54 => MsgType::SessionDeletionRequest,
            55 => MsgType::SessionDeletionResponse,
            56 => MsgType::SessionReportRequest,
            57 => MsgType::SessionReportResponse,
            _ => return Err(Error::UnknownType),
        })
    }

    /// True for session-scoped messages, which carry a SEID.
    pub(crate) fn is_session(self) -> bool {
        self.to_byte() >= 50
    }
}

/// A parsed PFCP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    /// Message type; decides whether `seid` is present on the wire.
    pub(crate) msg_type: MsgType,
    /// Session endpoint identifier (session messages only).
    pub(crate) seid: Option<u64>,
    /// 24-bit transaction sequence number.
    pub(crate) seq: u32,
    /// Body length in bytes (everything after the header).
    pub(crate) body_len: usize,
}

impl Header {
    /// Length of this header on the wire.
    pub(crate) fn header_len(&self) -> usize {
        if self.seid.is_some() {
            SESSION_HEADER_LEN
        } else {
            NODE_HEADER_LEN
        }
    }

    /// Parses a header from the front of `buf`; returns it and the offset
    /// at which the body begins.
    pub(crate) fn parse(buf: &[u8]) -> Result<(Header, usize)> {
        if buf.len() < NODE_HEADER_LEN {
            return Err(Error::Truncated);
        }
        if buf[0] >> 5 != 1 {
            return Err(Error::BadVersion);
        }
        let s_flag = buf[0] & 0x01 != 0;
        let msg_type = MsgType::from_byte(buf[1])?;
        if s_flag != msg_type.is_session() {
            return Err(Error::Malformed);
        }
        // Wire length counts everything after the 4-byte prefix.
        let wire_len = usize::from(u16::from_be_bytes([buf[2], buf[3]]));
        let header_len = if s_flag {
            SESSION_HEADER_LEN
        } else {
            NODE_HEADER_LEN
        };
        if buf.len() < 4 + wire_len || 4 + wire_len < header_len {
            return Err(Error::Truncated);
        }
        let (seid, seq_off) = if s_flag {
            let seid = u64::from_be_bytes(buf[4..12].try_into().expect("8 bytes"));
            (Some(seid), 12)
        } else {
            (None, 4)
        };
        let seq = u32::from_be_bytes([0, buf[seq_off], buf[seq_off + 1], buf[seq_off + 2]]);
        Ok((
            Header {
                msg_type,
                seid,
                seq,
                body_len: 4 + wire_len - header_len,
            },
            header_len,
        ))
    }

    /// Emits the header into the front of `buf`, which must hold at least
    /// `header_len()` bytes. Panics if `seid.is_some()` disagrees with the
    /// message type's session-ness (a programming error, not input error).
    pub(crate) fn emit(&self, buf: &mut [u8]) -> Result<usize> {
        let hlen = self.header_len();
        assert_eq!(
            self.seid.is_some(),
            self.msg_type.is_session(),
            "SEID presence must match message type"
        );
        if buf.len() < hlen {
            return Err(Error::BufferTooSmall);
        }
        buf[0] = (1 << 5) | if self.seid.is_some() { 0x01 } else { 0 };
        buf[1] = self.msg_type.to_byte();
        let wire_len = hlen - 4 + self.body_len;
        buf[2..4].copy_from_slice(&(wire_len as u16).to_be_bytes());
        let seq_off = if let Some(seid) = self.seid {
            buf[4..12].copy_from_slice(&seid.to_be_bytes());
            12
        } else {
            4
        };
        let seq_bytes = self.seq.to_be_bytes();
        buf[seq_off..seq_off + 3].copy_from_slice(&seq_bytes[1..4]);
        buf[seq_off + 3] = 0; // spare
        Ok(hlen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_header_roundtrip() {
        let h = Header {
            msg_type: MsgType::HeartbeatRequest,
            seid: None,
            seq: 0x00ab_cdef,
            body_len: 4,
        };
        let mut buf = vec![0u8; NODE_HEADER_LEN + 4];
        let n = h.emit(&mut buf).unwrap();
        assert_eq!(n, NODE_HEADER_LEN);
        let (parsed, off) = Header::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(off, NODE_HEADER_LEN);
    }

    #[test]
    fn session_header_roundtrip() {
        let h = Header {
            msg_type: MsgType::SessionEstablishmentRequest,
            seid: Some(0x1122_3344_5566_7788),
            seq: 42,
            body_len: 10,
        };
        let mut buf = vec![0u8; SESSION_HEADER_LEN + 10];
        let n = h.emit(&mut buf).unwrap();
        assert_eq!(n, SESSION_HEADER_LEN);
        let (parsed, off) = Header::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(off, SESSION_HEADER_LEN);
    }

    #[test]
    fn seq_is_24_bits() {
        let h = Header {
            msg_type: MsgType::HeartbeatRequest,
            seid: None,
            seq: 0xffff_ffff,
            body_len: 0,
        };
        let mut buf = vec![0u8; NODE_HEADER_LEN];
        h.emit(&mut buf).unwrap();
        let (parsed, _) = Header::parse(&buf).unwrap();
        assert_eq!(parsed.seq, 0x00ff_ffff);
    }

    #[test]
    fn s_flag_must_match_type() {
        // Session type with S=0 is malformed.
        let h = Header {
            msg_type: MsgType::HeartbeatRequest,
            seid: None,
            seq: 1,
            body_len: 0,
        };
        let mut buf = vec![0u8; NODE_HEADER_LEN];
        h.emit(&mut buf).unwrap();
        buf[1] = MsgType::SessionReportRequest.to_byte();
        assert_eq!(Header::parse(&buf).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = vec![0u8; NODE_HEADER_LEN];
        buf[0] = 3 << 5;
        assert_eq!(Header::parse(&buf).unwrap_err(), Error::BadVersion);
    }

    #[test]
    fn truncated_body_rejected() {
        let h = Header {
            msg_type: MsgType::HeartbeatRequest,
            seid: None,
            seq: 1,
            body_len: 100,
        };
        let mut buf = vec![0u8; NODE_HEADER_LEN];
        h.emit(&mut buf).unwrap();
        assert_eq!(Header::parse(&buf).unwrap_err(), Error::Truncated);
    }
}
