//! Simplified NAS (Non-Access Stratum) messages, 3GPP TS 24.501.
//!
//! NAS PDUs ride inside NGAP messages between the UE and the AMF/SMF. The
//! paper's UE events need the registration, authentication, security-mode,
//! PDU-session and service-request message families; we encode them in a
//! compact fixed-layout binary form (type byte + fields) rather than the
//! full 3GPP IE grammar. Message *semantics* and sequence cardinalities
//! match TS 23.502 procedures; per-message byte size is in the right order
//! of magnitude so channel cost models see realistic payloads.

use crate::error::{Error, Result};

/// A NAS message, as exchanged on the N1 interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NasMessage {
    /// UE → AMF: initial registration. Carries the subscriber identity.
    RegistrationRequest {
        /// Subscription identifier (SUPI, simplified to a u64).
        supi: u64,
    },
    /// AMF → UE: authentication challenge (RAND + the AUTN's sequence
    /// number, which the USIM needs to compute its response).
    AuthenticationRequest {
        /// Challenge nonce.
        rand: [u8; 16],
        /// AKA sequence number (AUTN payload, simplified).
        sqn: u64,
    },
    /// UE → AMF: challenge response.
    AuthenticationResponse {
        /// Response digest.
        res: [u8; 16],
    },
    /// AMF → UE: activate NAS security.
    SecurityModeCommand,
    /// UE → AMF: security activated.
    SecurityModeComplete,
    /// AMF → UE: registration accepted; carries the 5G-GUTI.
    RegistrationAccept {
        /// Assigned temporary identity.
        guti: u64,
    },
    /// UE → AMF: registration complete.
    RegistrationComplete,
    /// UE → SMF (via AMF): request a PDU session.
    PduSessionEstablishmentRequest {
        /// PDU session id chosen by the UE.
        session_id: u8,
    },
    /// SMF → UE: session accepted; carries the assigned UE IP.
    PduSessionEstablishmentAccept {
        /// PDU session id.
        session_id: u8,
        /// UE IPv4 address, big-endian.
        ue_ip: u32,
    },
    /// UE → AMF: service request (idle → connected, paging response).
    ServiceRequest {
        /// Temporary identity.
        guti: u64,
    },
    /// AMF → UE: service accept.
    ServiceAccept,
    /// UE → AMF: deregister from the network.
    DeregistrationRequest {
        /// Temporary identity.
        guti: u64,
    },
    /// AMF → UE: deregistration accepted.
    DeregistrationAccept,
}

impl NasMessage {
    fn discriminant(&self) -> u8 {
        match self {
            NasMessage::RegistrationRequest { .. } => 0x41,
            NasMessage::AuthenticationRequest { .. } => 0x56,
            NasMessage::AuthenticationResponse { .. } => 0x57,
            NasMessage::SecurityModeCommand => 0x5d,
            NasMessage::SecurityModeComplete => 0x5e,
            NasMessage::RegistrationAccept { .. } => 0x42,
            NasMessage::RegistrationComplete => 0x43,
            NasMessage::PduSessionEstablishmentRequest { .. } => 0xc1,
            NasMessage::PduSessionEstablishmentAccept { .. } => 0xc2,
            NasMessage::ServiceRequest { .. } => 0x4c,
            NasMessage::ServiceAccept => 0x4e,
            NasMessage::DeregistrationRequest { .. } => 0x45,
            NasMessage::DeregistrationAccept => 0x46,
        }
    }

    /// Encodes to bytes: `[type, fields...]`.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.discriminant()];
        match self {
            NasMessage::RegistrationRequest { supi } => out.extend_from_slice(&supi.to_be_bytes()),
            NasMessage::AuthenticationRequest { rand, sqn } => {
                out.extend_from_slice(rand);
                out.extend_from_slice(&sqn.to_be_bytes());
            }
            NasMessage::AuthenticationResponse { res } => out.extend_from_slice(res),
            NasMessage::SecurityModeCommand
            | NasMessage::SecurityModeComplete
            | NasMessage::RegistrationComplete
            | NasMessage::ServiceAccept => {}
            NasMessage::RegistrationAccept { guti } => out.extend_from_slice(&guti.to_be_bytes()),
            NasMessage::PduSessionEstablishmentRequest { session_id } => out.push(*session_id),
            NasMessage::PduSessionEstablishmentAccept { session_id, ue_ip } => {
                out.push(*session_id);
                out.extend_from_slice(&ue_ip.to_be_bytes());
            }
            NasMessage::ServiceRequest { guti } => out.extend_from_slice(&guti.to_be_bytes()),
            NasMessage::DeregistrationRequest { guti } => {
                out.extend_from_slice(&guti.to_be_bytes())
            }
            NasMessage::DeregistrationAccept => {}
        }
        out
    }

    /// Decodes from bytes produced by [`NasMessage::encode`].
    pub fn decode(buf: &[u8]) -> Result<NasMessage> {
        let (&ty, rest) = buf.split_first().ok_or(Error::Truncated)?;
        let u64of = |b: &[u8]| -> Result<u64> {
            Ok(u64::from_be_bytes(
                b.get(..8).ok_or(Error::Truncated)?.try_into().expect("8"),
            ))
        };
        let arr16 = |b: &[u8]| -> Result<[u8; 16]> {
            Ok(b.get(..16).ok_or(Error::Truncated)?.try_into().expect("16"))
        };
        Ok(match ty {
            0x41 => NasMessage::RegistrationRequest { supi: u64of(rest)? },
            0x56 => {
                let rand = arr16(rest)?;
                let sqn = u64::from_be_bytes(
                    rest.get(16..24)
                        .ok_or(Error::Truncated)?
                        .try_into()
                        .expect("8"),
                );
                NasMessage::AuthenticationRequest { rand, sqn }
            }
            0x57 => NasMessage::AuthenticationResponse { res: arr16(rest)? },
            0x5d => NasMessage::SecurityModeCommand,
            0x5e => NasMessage::SecurityModeComplete,
            0x42 => NasMessage::RegistrationAccept { guti: u64of(rest)? },
            0x43 => NasMessage::RegistrationComplete,
            0xc1 => NasMessage::PduSessionEstablishmentRequest {
                session_id: *rest.first().ok_or(Error::Truncated)?,
            },
            0xc2 => {
                let session_id = *rest.first().ok_or(Error::Truncated)?;
                let ue_ip = u32::from_be_bytes(
                    rest.get(1..5)
                        .ok_or(Error::Truncated)?
                        .try_into()
                        .expect("4"),
                );
                NasMessage::PduSessionEstablishmentAccept { session_id, ue_ip }
            }
            0x4c => NasMessage::ServiceRequest { guti: u64of(rest)? },
            0x4e => NasMessage::ServiceAccept,
            0x45 => NasMessage::DeregistrationRequest { guti: u64of(rest)? },
            0x46 => NasMessage::DeregistrationAccept,
            _ => return Err(Error::UnknownType),
        })
    }

    /// Encoded size in bytes, used by channel cost models.
    #[cfg(test)]
    pub(crate) fn wire_len(&self) -> usize {
        self.encode().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<NasMessage> {
        vec![
            NasMessage::RegistrationRequest {
                supi: 208_930_000_000_001,
            },
            NasMessage::AuthenticationRequest {
                rand: [7u8; 16],
                sqn: 3,
            },
            NasMessage::AuthenticationResponse { res: [9u8; 16] },
            NasMessage::SecurityModeCommand,
            NasMessage::SecurityModeComplete,
            NasMessage::RegistrationAccept { guti: 0xdead },
            NasMessage::RegistrationComplete,
            NasMessage::PduSessionEstablishmentRequest { session_id: 1 },
            NasMessage::PduSessionEstablishmentAccept {
                session_id: 1,
                ue_ip: 0x0a3c_0001,
            },
            NasMessage::ServiceRequest { guti: 0xdead },
            NasMessage::ServiceAccept,
            NasMessage::DeregistrationRequest { guti: 0xdead },
            NasMessage::DeregistrationAccept,
        ]
    }

    #[test]
    fn all_variants_roundtrip() {
        for msg in all_messages() {
            let bytes = msg.encode();
            assert_eq!(NasMessage::decode(&bytes).unwrap(), msg, "{msg:?}");
            assert_eq!(msg.wire_len(), bytes.len());
        }
    }

    #[test]
    fn truncated_fields_rejected() {
        let full = NasMessage::RegistrationRequest { supi: 1 }.encode();
        for cut in 0..full.len() {
            assert!(NasMessage::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_type_rejected() {
        assert_eq!(
            NasMessage::decode(&[0xff, 0, 0]).unwrap_err(),
            Error::UnknownType
        );
        assert_eq!(NasMessage::decode(&[]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn discriminants_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in all_messages() {
            assert!(
                seen.insert(m.discriminant()),
                "duplicate discriminant for {m:?}"
            );
        }
    }
}
