//! PFCP Information Elements (TS 29.244 §8), TLV-encoded.
//!
//! This implements the IEs the 5GC procedures actually exchange: PDR/FAR
//! create & update groups, PDI with SDF filters, F-TEID, UE IP address,
//! apply actions (including BUFF, which L²5GC's smart handover piggybacks
//! on), and reporting IEs for downlink-data (paging) notifications.
//!
//! *Simplification, documented:* 3GPP encodes SDF filters as an IPFilterRule
//! string; we use a fixed 36-byte binary layout carrying the same match
//! fields (the classifier dimensions of Appendix A, Table 3). Flag octets
//! elsewhere follow the spec where practical.

use crate::error::{Error, Result};
use crate::ipv4::Ipv4Addr;

// IE type codes from TS 29.244 Table 8.1.2-1 (subset).
const IE_CREATE_PDR: u16 = 1;
const IE_PDI: u16 = 2;
const IE_CREATE_FAR: u16 = 3;
const IE_FORWARDING_PARAMETERS: u16 = 4;
const IE_CREATE_QER: u16 = 7;
const IE_UPDATE_PDR: u16 = 9;
const IE_UPDATE_FAR: u16 = 10;
const IE_UPDATE_FORWARDING_PARAMETERS: u16 = 11;
const IE_CAUSE: u16 = 19;
const IE_SOURCE_INTERFACE: u16 = 20;
const IE_FTEID: u16 = 21;
const IE_SDF_FILTER: u16 = 23;
const IE_PRECEDENCE: u16 = 29;
const IE_REPORT_TYPE: u16 = 39;
const IE_DESTINATION_INTERFACE: u16 = 42;
const IE_APPLY_ACTION: u16 = 44;
const IE_PDR_ID: u16 = 56;
const IE_FSEID: u16 = 57;
const IE_NODE_ID: u16 = 60;
const IE_DOWNLINK_DATA_REPORT: u16 = 83;
const IE_OUTER_HEADER_CREATION: u16 = 84;
const IE_UE_IP_ADDRESS: u16 = 93;
const IE_OUTER_HEADER_REMOVAL: u16 = 95;
const IE_FAR_ID: u16 = 108;
const IE_QER_ID: u16 = 109;
const IE_MBR: u16 = 26;
const IE_QFI: u16 = 124;

/// Appends one TLV IE built by `f` to `out`.
fn put_tlv(out: &mut Vec<u8>, ty: u16, f: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(&ty.to_be_bytes());
    let len_pos = out.len();
    out.extend_from_slice(&[0, 0]);
    f(out);
    let len = (out.len() - len_pos - 2) as u16;
    out[len_pos..len_pos + 2].copy_from_slice(&len.to_be_bytes());
}

/// Iterates `(type, value)` pairs over an IE sequence.
struct IeReader<'a> {
    buf: &'a [u8],
}

impl<'a> IeReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        IeReader { buf }
    }

    fn next_ie(&mut self) -> Result<Option<(u16, &'a [u8])>> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        if self.buf.len() < 4 {
            return Err(Error::Truncated);
        }
        let ty = u16::from_be_bytes([self.buf[0], self.buf[1]]);
        let len = usize::from(u16::from_be_bytes([self.buf[2], self.buf[3]]));
        if self.buf.len() < 4 + len {
            return Err(Error::Truncated);
        }
        let value = &self.buf[4..4 + len];
        self.buf = &self.buf[4 + len..];
        Ok(Some((ty, value)))
    }
}

fn need(value: &[u8], n: usize) -> Result<()> {
    if value.len() < n {
        Err(Error::Truncated)
    } else {
        Ok(())
    }
}

/// Which side of the UPF a packet arrives on (PDI Source Interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interface {
    /// Access side: from the gNB (uplink).
    Access,
    /// Core side: from the data network (downlink).
    Core,
}

impl Interface {
    fn to_byte(self) -> u8 {
        match self {
            Interface::Access => 0,
            Interface::Core => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Interface> {
        Ok(match b & 0x0f {
            0 => Interface::Access,
            1 => Interface::Core,
            _ => return Err(Error::Malformed),
        })
    }
}

/// Fully-qualified TEID: the local tunnel endpoint a PDR matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FTeid {
    /// Tunnel endpoint identifier.
    pub teid: u32,
    /// Local IPv4 address of the endpoint.
    pub addr: Ipv4Addr,
}

impl FTeid {
    fn encode(&self, out: &mut Vec<u8>) {
        put_tlv(out, IE_FTEID, |b| {
            b.push(0x01); // flags: V4
            b.extend_from_slice(&self.teid.to_be_bytes());
            b.extend_from_slice(&self.addr.0);
        });
    }

    fn decode(value: &[u8]) -> Result<FTeid> {
        need(value, 9)?;
        if value[0] & 0x01 == 0 {
            return Err(Error::Malformed);
        }
        Ok(FTeid {
            teid: u32::from_be_bytes(value[1..5].try_into().expect("4 bytes")),
            addr: Ipv4Addr([value[5], value[6], value[7], value[8]]),
        })
    }
}

/// UE IP address (the downlink session-lookup key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UeIpAddress {
    /// The UE's IPv4 address.
    pub addr: Ipv4Addr,
    /// True when the address is the packet *destination* (downlink match).
    pub is_destination: bool,
}

impl UeIpAddress {
    fn encode(&self, out: &mut Vec<u8>) {
        put_tlv(out, IE_UE_IP_ADDRESS, |b| {
            // flags: V4 | S/D
            b.push(0x02 | if self.is_destination { 0x04 } else { 0 });
            b.extend_from_slice(&self.addr.0);
        });
    }

    fn decode(value: &[u8]) -> Result<UeIpAddress> {
        need(value, 5)?;
        if value[0] & 0x02 == 0 {
            return Err(Error::Malformed);
        }
        Ok(UeIpAddress {
            addr: Ipv4Addr([value[1], value[2], value[3], value[4]]),
            is_destination: value[0] & 0x04 != 0,
        })
    }
}

/// A port range, inclusive. `0..=65535` means "any".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortRange {
    /// Lowest matching port.
    pub min: u16,
    /// Highest matching port.
    pub max: u16,
}

impl PortRange {
    /// The wildcard range matching every port.
    pub(crate) const ANY: PortRange = PortRange {
        min: 0,
        max: u16::MAX,
    };

    /// A range matching exactly one port.
    #[cfg(test)]
    pub(crate) const fn exact(p: u16) -> PortRange {
        PortRange { min: p, max: p }
    }

    /// True if `p` falls within the range.
    #[cfg(test)]
    pub(crate) fn contains(&self, p: u16) -> bool {
        self.min <= p && p <= self.max
    }
}

/// Service Data Flow filter: the match-field payload of a PDI.
///
/// Carries the classifier dimensions of Appendix A Table 3. Fixed 36-byte
/// binary layout (simplification of 3GPP's IPFilterRule string; see module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdfFilter {
    /// Source address prefix value.
    pub src_addr: Ipv4Addr,
    /// Source prefix length (0 = wildcard, 32 = host).
    pub src_prefix: u8,
    /// Destination address prefix value.
    pub dst_addr: Ipv4Addr,
    /// Destination prefix length.
    pub dst_prefix: u8,
    /// Source port range.
    pub src_port: PortRange,
    /// Destination port range.
    pub dst_port: PortRange,
    /// IP protocol, or `None` for any.
    pub protocol: Option<u8>,
    /// Type-of-service value/mask pair.
    pub tos: u8,
    /// ToS mask (0 = wildcard).
    pub tos_mask: u8,
    /// IPsec SPI, or `None` for any.
    pub spi: Option<u32>,
    /// IPv6 flow label (20 bits), or `None` for any.
    pub flow_label: Option<u32>,
    /// SDF filter id, correlating filters across PDRs.
    pub filter_id: u32,
}

impl Default for SdfFilter {
    /// The match-everything filter.
    fn default() -> Self {
        SdfFilter {
            src_addr: Ipv4Addr::default(),
            src_prefix: 0,
            dst_addr: Ipv4Addr::default(),
            dst_prefix: 0,
            src_port: PortRange::ANY,
            dst_port: PortRange::ANY,
            protocol: None,
            tos: 0,
            tos_mask: 0,
            spi: None,
            flow_label: None,
            filter_id: 0,
        }
    }
}

impl SdfFilter {
    const WIRE_LEN: usize = 36;

    fn encode(&self, out: &mut Vec<u8>) {
        put_tlv(out, IE_SDF_FILTER, |b| {
            b.extend_from_slice(&self.src_addr.0);
            b.push(self.src_prefix);
            b.extend_from_slice(&self.dst_addr.0);
            b.push(self.dst_prefix);
            b.extend_from_slice(&self.src_port.min.to_be_bytes());
            b.extend_from_slice(&self.src_port.max.to_be_bytes());
            b.extend_from_slice(&self.dst_port.min.to_be_bytes());
            b.extend_from_slice(&self.dst_port.max.to_be_bytes());
            b.push(self.protocol.unwrap_or(0));
            b.push(self.protocol.is_some() as u8);
            b.push(self.tos);
            b.push(self.tos_mask);
            b.extend_from_slice(&self.spi.unwrap_or(0).to_be_bytes());
            b.push(self.spi.is_some() as u8);
            b.extend_from_slice(&self.flow_label.unwrap_or(0).to_be_bytes());
            b.push(self.flow_label.is_some() as u8);
            b.extend_from_slice(&self.filter_id.to_be_bytes());
        });
    }

    fn decode(v: &[u8]) -> Result<SdfFilter> {
        need(v, Self::WIRE_LEN)?;
        let u16at = |i: usize| u16::from_be_bytes([v[i], v[i + 1]]);
        let u32at = |i: usize| u32::from_be_bytes([v[i], v[i + 1], v[i + 2], v[i + 3]]);
        let src_prefix = v[4];
        let dst_prefix = v[9];
        if src_prefix > 32 || dst_prefix > 32 {
            return Err(Error::Malformed);
        }
        Ok(SdfFilter {
            src_addr: Ipv4Addr([v[0], v[1], v[2], v[3]]),
            src_prefix,
            dst_addr: Ipv4Addr([v[5], v[6], v[7], v[8]]),
            dst_prefix,
            src_port: PortRange {
                min: u16at(10),
                max: u16at(12),
            },
            dst_port: PortRange {
                min: u16at(14),
                max: u16at(16),
            },
            protocol: if v[19] != 0 { Some(v[18]) } else { None },
            tos: v[20],
            tos_mask: v[21],
            spi: if v[26] != 0 { Some(u32at(22)) } else { None },
            flow_label: if v[31] != 0 {
                Some(u32at(27) & 0x000f_ffff)
            } else {
                None
            },
            filter_id: u32at(32),
        })
    }
}

/// Packet Detection Information: where and what a PDR matches.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pdi {
    /// Which interface packets arrive on. `None` defaults to Access.
    pub source_interface: Option<Interface>,
    /// Local F-TEID to match (uplink PDRs).
    pub f_teid: Option<FTeid>,
    /// UE IP to match (downlink PDRs).
    pub ue_ip: Option<UeIpAddress>,
    /// SDF filters for flow-level classification; empty = match all flows.
    pub sdf_filters: Vec<SdfFilter>,
    /// QoS Flow Identifier to match.
    pub qfi: Option<u8>,
}

impl Pdi {
    fn encode(&self, out: &mut Vec<u8>) {
        put_tlv(out, IE_PDI, |b| {
            if let Some(si) = self.source_interface {
                put_tlv(b, IE_SOURCE_INTERFACE, |b| b.push(si.to_byte()));
            }
            if let Some(ft) = &self.f_teid {
                ft.encode(b);
            }
            if let Some(ue) = &self.ue_ip {
                ue.encode(b);
            }
            for f in &self.sdf_filters {
                f.encode(b);
            }
            if let Some(qfi) = self.qfi {
                put_tlv(b, IE_QFI, |b| b.push(qfi & 0x3f));
            }
        });
    }

    fn decode(value: &[u8]) -> Result<Pdi> {
        let mut pdi = Pdi::default();
        let mut r = IeReader::new(value);
        while let Some((ty, v)) = r.next_ie()? {
            match ty {
                IE_SOURCE_INTERFACE => {
                    need(v, 1)?;
                    pdi.source_interface = Some(Interface::from_byte(v[0])?);
                }
                IE_FTEID => pdi.f_teid = Some(FTeid::decode(v)?),
                IE_UE_IP_ADDRESS => pdi.ue_ip = Some(UeIpAddress::decode(v)?),
                IE_SDF_FILTER => pdi.sdf_filters.push(SdfFilter::decode(v)?),
                IE_QFI => {
                    need(v, 1)?;
                    pdi.qfi = Some(v[0] & 0x3f);
                }
                _ => {} // unknown optional IEs are skipped
            }
        }
        Ok(pdi)
    }
}

/// FAR apply-action flags (TS 29.244 §8.2.26).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ApplyAction {
    /// Drop the packet.
    pub drop: bool,
    /// Forward the packet.
    pub forward: bool,
    /// Buffer the packet (paging; L²5GC also sets this during handover).
    pub buffer: bool,
    /// Notify the CP function (triggers a Session Report → paging).
    pub notify_cp: bool,
    /// Duplicate the packet.
    pub(crate) duplicate: bool,
}

impl ApplyAction {
    /// Plain forwarding.
    pub const FORW: ApplyAction = ApplyAction {
        drop: false,
        forward: true,
        buffer: false,
        notify_cp: false,
        duplicate: false,
    };
    /// Buffer and notify the control plane — the idle-mode (paging) action.
    pub const BUFF_NOCP: ApplyAction = ApplyAction {
        drop: false,
        forward: false,
        buffer: true,
        notify_cp: true,
        duplicate: false,
    };
    /// Buffer without notification — L²5GC's smart-handover action.
    pub const BUFF: ApplyAction = ApplyAction {
        drop: false,
        forward: false,
        buffer: true,
        notify_cp: false,
        duplicate: false,
    };
    /// Drop.
    pub const DROP: ApplyAction = ApplyAction {
        drop: true,
        forward: false,
        buffer: false,
        notify_cp: false,
        duplicate: false,
    };

    fn to_byte(self) -> u8 {
        (self.drop as u8)
            | (self.forward as u8) << 1
            | (self.buffer as u8) << 2
            | (self.notify_cp as u8) << 3
            | (self.duplicate as u8) << 4
    }

    fn from_byte(b: u8) -> ApplyAction {
        ApplyAction {
            drop: b & 0x01 != 0,
            forward: b & 0x02 != 0,
            buffer: b & 0x04 != 0,
            notify_cp: b & 0x08 != 0,
            duplicate: b & 0x10 != 0,
        }
    }
}

/// Outer header creation: GTP-U/UDP/IPv4 toward `addr` with `teid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OuterHeaderCreation {
    /// TEID to stamp on the outgoing tunnel header.
    pub teid: u32,
    /// Remote tunnel endpoint (gNB for downlink).
    pub addr: Ipv4Addr,
}

impl OuterHeaderCreation {
    fn encode(&self, out: &mut Vec<u8>) {
        put_tlv(out, IE_OUTER_HEADER_CREATION, |b| {
            b.extend_from_slice(&0x0100u16.to_be_bytes()); // GTP-U/UDP/IPv4
            b.extend_from_slice(&self.teid.to_be_bytes());
            b.extend_from_slice(&self.addr.0);
        });
    }

    fn decode(v: &[u8]) -> Result<OuterHeaderCreation> {
        need(v, 10)?;
        Ok(OuterHeaderCreation {
            teid: u32::from_be_bytes(v[2..6].try_into().expect("4 bytes")),
            addr: Ipv4Addr([v[6], v[7], v[8], v[9]]),
        })
    }
}

/// Forwarding parameters inside a (Create/Update) FAR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardingParameters {
    /// Interface packets leave through.
    pub dest_interface: Interface,
    /// Tunnel header to add (downlink toward a gNB).
    pub outer_header_creation: Option<OuterHeaderCreation>,
}

impl ForwardingParameters {
    fn encode(&self, out: &mut Vec<u8>, ie_type: u16) {
        put_tlv(out, ie_type, |b| {
            put_tlv(b, IE_DESTINATION_INTERFACE, |b| {
                b.push(self.dest_interface.to_byte())
            });
            if let Some(ohc) = &self.outer_header_creation {
                ohc.encode(b);
            }
        });
    }

    fn decode(value: &[u8]) -> Result<ForwardingParameters> {
        let mut dest = None;
        let mut ohc = None;
        let mut r = IeReader::new(value);
        while let Some((ty, v)) = r.next_ie()? {
            match ty {
                IE_DESTINATION_INTERFACE => {
                    need(v, 1)?;
                    dest = Some(Interface::from_byte(v[0])?);
                }
                IE_OUTER_HEADER_CREATION => ohc = Some(OuterHeaderCreation::decode(v)?),
                _ => {}
            }
        }
        Ok(ForwardingParameters {
            dest_interface: dest.ok_or(Error::Malformed)?,
            outer_header_creation: ohc,
        })
    }
}

/// Create PDR grouped IE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreatePdr {
    /// Rule id, unique within the session.
    pub pdr_id: u16,
    /// Precedence: lower value = higher priority (TS 29.244).
    pub precedence: u32,
    /// What the rule matches.
    pub pdi: Pdi,
    /// Whether to strip the GTP-U header on match.
    pub outer_header_removal: bool,
    /// FAR carrying the action for matched packets.
    pub far_id: u32,
    /// Associated QoS enforcement rules.
    pub qer_ids: Vec<u32>,
}

impl CreatePdr {
    fn encode_grouped(&self, out: &mut Vec<u8>, ie_type: u16) {
        put_tlv(out, ie_type, |b| {
            put_tlv(b, IE_PDR_ID, |b| {
                b.extend_from_slice(&self.pdr_id.to_be_bytes())
            });
            put_tlv(b, IE_PRECEDENCE, |b| {
                b.extend_from_slice(&self.precedence.to_be_bytes())
            });
            self.pdi.encode(b);
            if self.outer_header_removal {
                put_tlv(b, IE_OUTER_HEADER_REMOVAL, |b| b.push(0)); // GTP-U/UDP/IPv4
            }
            put_tlv(b, IE_FAR_ID, |b| {
                b.extend_from_slice(&self.far_id.to_be_bytes())
            });
            for q in &self.qer_ids {
                put_tlv(b, IE_QER_ID, |b| b.extend_from_slice(&q.to_be_bytes()));
            }
        });
    }

    /// Encodes as a Create PDR IE.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        self.encode_grouped(out, IE_CREATE_PDR);
    }

    fn decode(value: &[u8]) -> Result<CreatePdr> {
        let mut pdr_id = None;
        let mut precedence = None;
        let mut pdi = None;
        let mut ohr = false;
        let mut far_id = None;
        let mut qer_ids = Vec::new();
        let mut r = IeReader::new(value);
        while let Some((ty, v)) = r.next_ie()? {
            match ty {
                IE_PDR_ID => {
                    need(v, 2)?;
                    pdr_id = Some(u16::from_be_bytes([v[0], v[1]]));
                }
                IE_PRECEDENCE => {
                    need(v, 4)?;
                    precedence = Some(u32::from_be_bytes(v[..4].try_into().expect("4")));
                }
                IE_PDI => pdi = Some(Pdi::decode(v)?),
                IE_OUTER_HEADER_REMOVAL => ohr = true,
                IE_FAR_ID => {
                    need(v, 4)?;
                    far_id = Some(u32::from_be_bytes(v[..4].try_into().expect("4")));
                }
                IE_QER_ID => {
                    need(v, 4)?;
                    qer_ids.push(u32::from_be_bytes(v[..4].try_into().expect("4")));
                }
                _ => {}
            }
        }
        Ok(CreatePdr {
            pdr_id: pdr_id.ok_or(Error::Malformed)?,
            precedence: precedence.ok_or(Error::Malformed)?,
            pdi: pdi.ok_or(Error::Malformed)?,
            outer_header_removal: ohr,
            far_id: far_id.ok_or(Error::Malformed)?,
            qer_ids,
        })
    }
}

/// Create FAR grouped IE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreateFar {
    /// Rule id referenced by PDRs.
    pub far_id: u32,
    /// What to do with matched packets.
    pub apply_action: ApplyAction,
    /// Where to forward (required when `apply_action.forward`).
    pub forwarding: Option<ForwardingParameters>,
}

impl CreateFar {
    fn encode_grouped(&self, out: &mut Vec<u8>, ie_type: u16, fwd_type: u16) {
        put_tlv(out, ie_type, |b| {
            put_tlv(b, IE_FAR_ID, |b| {
                b.extend_from_slice(&self.far_id.to_be_bytes())
            });
            put_tlv(b, IE_APPLY_ACTION, |b| b.push(self.apply_action.to_byte()));
            if let Some(fp) = &self.forwarding {
                fp.encode(b, fwd_type);
            }
        });
    }

    /// Encodes as a Create FAR IE.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        self.encode_grouped(out, IE_CREATE_FAR, IE_FORWARDING_PARAMETERS);
    }

    fn decode(value: &[u8]) -> Result<CreateFar> {
        let mut far_id = None;
        let mut action = None;
        let mut fwd = None;
        let mut r = IeReader::new(value);
        while let Some((ty, v)) = r.next_ie()? {
            match ty {
                IE_FAR_ID => {
                    need(v, 4)?;
                    far_id = Some(u32::from_be_bytes(v[..4].try_into().expect("4")));
                }
                IE_APPLY_ACTION => {
                    need(v, 1)?;
                    action = Some(ApplyAction::from_byte(v[0]));
                }
                IE_FORWARDING_PARAMETERS | IE_UPDATE_FORWARDING_PARAMETERS => {
                    fwd = Some(ForwardingParameters::decode(v)?);
                }
                _ => {}
            }
        }
        Ok(CreateFar {
            far_id: far_id.ok_or(Error::Malformed)?,
            apply_action: action.ok_or(Error::Malformed)?,
            forwarding: fwd,
        })
    }
}

/// Update FAR grouped IE — the workhorse of paging wake-up and L²5GC's
/// smart-handover re-pointing ("UpdateFAR" in Fig 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateFar {
    /// FAR to update.
    pub far_id: u32,
    /// New apply action, if changing.
    pub apply_action: Option<ApplyAction>,
    /// New forwarding parameters (e.g. target gNB's F-TEID after handover).
    pub forwarding: Option<ForwardingParameters>,
}

impl UpdateFar {
    /// Encodes as an Update FAR IE.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_tlv(out, IE_UPDATE_FAR, |b| {
            put_tlv(b, IE_FAR_ID, |b| {
                b.extend_from_slice(&self.far_id.to_be_bytes())
            });
            if let Some(a) = self.apply_action {
                put_tlv(b, IE_APPLY_ACTION, |b| b.push(a.to_byte()));
            }
            if let Some(fp) = &self.forwarding {
                fp.encode(b, IE_UPDATE_FORWARDING_PARAMETERS);
            }
        });
    }

    fn decode(value: &[u8]) -> Result<UpdateFar> {
        let mut far_id = None;
        let mut action = None;
        let mut fwd = None;
        let mut r = IeReader::new(value);
        while let Some((ty, v)) = r.next_ie()? {
            match ty {
                IE_FAR_ID => {
                    need(v, 4)?;
                    far_id = Some(u32::from_be_bytes(v[..4].try_into().expect("4")));
                }
                IE_APPLY_ACTION => {
                    need(v, 1)?;
                    action = Some(ApplyAction::from_byte(v[0]));
                }
                IE_UPDATE_FORWARDING_PARAMETERS => fwd = Some(ForwardingParameters::decode(v)?),
                _ => {}
            }
        }
        Ok(UpdateFar {
            far_id: far_id.ok_or(Error::Malformed)?,
            apply_action: action,
            forwarding: fwd,
        })
    }
}

/// Update PDR grouped IE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdatePdr {
    /// PDR to update.
    pub pdr_id: u16,
    /// New precedence, if changing.
    pub precedence: Option<u32>,
    /// New PDI, if changing.
    pub pdi: Option<Pdi>,
    /// New FAR binding, if changing.
    pub far_id: Option<u32>,
}

impl UpdatePdr {
    /// Encodes as an Update PDR IE.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_tlv(out, IE_UPDATE_PDR, |b| {
            put_tlv(b, IE_PDR_ID, |b| {
                b.extend_from_slice(&self.pdr_id.to_be_bytes())
            });
            if let Some(p) = self.precedence {
                put_tlv(b, IE_PRECEDENCE, |b| b.extend_from_slice(&p.to_be_bytes()));
            }
            if let Some(pdi) = &self.pdi {
                pdi.encode(b);
            }
            if let Some(f) = self.far_id {
                put_tlv(b, IE_FAR_ID, |b| b.extend_from_slice(&f.to_be_bytes()));
            }
        });
    }

    fn decode(value: &[u8]) -> Result<UpdatePdr> {
        let mut pdr_id = None;
        let mut precedence = None;
        let mut pdi = None;
        let mut far_id = None;
        let mut r = IeReader::new(value);
        while let Some((ty, v)) = r.next_ie()? {
            match ty {
                IE_PDR_ID => {
                    need(v, 2)?;
                    pdr_id = Some(u16::from_be_bytes([v[0], v[1]]));
                }
                IE_PRECEDENCE => {
                    need(v, 4)?;
                    precedence = Some(u32::from_be_bytes(v[..4].try_into().expect("4")));
                }
                IE_PDI => pdi = Some(Pdi::decode(v)?),
                IE_FAR_ID => {
                    need(v, 4)?;
                    far_id = Some(u32::from_be_bytes(v[..4].try_into().expect("4")));
                }
                _ => {}
            }
        }
        Ok(UpdatePdr {
            pdr_id: pdr_id.ok_or(Error::Malformed)?,
            precedence,
            pdi,
            far_id,
        })
    }
}

/// Create QER grouped IE (simplified: QER id + session MBR; GBR and
/// gate status are out of scope for the experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreateQer {
    /// Rule id referenced by PDRs.
    pub qer_id: u32,
    /// Maximum bit rate in bits/s; 0 = unlimited.
    pub mbr_bps: u64,
}

impl CreateQer {
    /// Encodes as a Create QER IE.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_tlv(out, IE_CREATE_QER, |b| {
            put_tlv(b, IE_QER_ID, |b| {
                b.extend_from_slice(&self.qer_id.to_be_bytes())
            });
            put_tlv(b, IE_MBR, |b| {
                b.extend_from_slice(&self.mbr_bps.to_be_bytes())
            });
        });
    }

    fn decode(value: &[u8]) -> Result<CreateQer> {
        let mut qer_id = None;
        let mut mbr = 0u64;
        let mut r = IeReader::new(value);
        while let Some((ty, v)) = r.next_ie()? {
            match ty {
                IE_QER_ID => {
                    need(v, 4)?;
                    qer_id = Some(u32::from_be_bytes(v[..4].try_into().expect("4")));
                }
                IE_MBR => {
                    need(v, 8)?;
                    mbr = u64::from_be_bytes(v[..8].try_into().expect("8"));
                }
                _ => {}
            }
        }
        Ok(CreateQer {
            qer_id: qer_id.ok_or(Error::Malformed)?,
            mbr_bps: mbr,
        })
    }
}

/// PFCP cause values (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Request accepted.
    Accepted,
    /// Request rejected for an unspecified reason.
    Rejected,
    /// Referenced session was not found.
    SessionNotFound,
    /// A mandatory IE was missing.
    MandatoryIeMissing,
}

impl Cause {
    fn to_byte(self) -> u8 {
        match self {
            Cause::Accepted => 1,
            Cause::Rejected => 64,
            Cause::SessionNotFound => 65,
            Cause::MandatoryIeMissing => 66,
        }
    }

    fn from_byte(b: u8) -> Result<Cause> {
        Ok(match b {
            1 => Cause::Accepted,
            64 => Cause::Rejected,
            65 => Cause::SessionNotFound,
            66 => Cause::MandatoryIeMissing,
            _ => return Err(Error::Malformed),
        })
    }
}

/// The body IEs a PFCP message may carry, in decoded form.
///
/// A flat container keeps encode/decode simple; which fields are meaningful
/// depends on the message type (see `pfcp::msg`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IeSet {
    /// Node id of the sender (IPv4 form only).
    pub node_id: Option<Ipv4Addr>,
    /// CP/UP F-SEID: session id + address.
    pub f_seid: Option<(u64, Ipv4Addr)>,
    /// Cause (responses).
    pub cause: Option<Cause>,
    /// PDRs to create.
    pub create_pdrs: Vec<CreatePdr>,
    /// FARs to create.
    pub create_fars: Vec<CreateFar>,
    /// QERs to create.
    pub create_qers: Vec<CreateQer>,
    /// PDRs to update.
    pub update_pdrs: Vec<UpdatePdr>,
    /// FARs to update.
    pub update_fars: Vec<UpdateFar>,
    /// Report type (Session Report Request).
    pub report_downlink_data: bool,
    /// PDR that triggered a downlink-data report.
    pub downlink_data_pdr: Option<u16>,
}

impl IeSet {
    /// Encodes all present IEs into `out`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        if let Some(nid) = self.node_id {
            put_tlv(out, IE_NODE_ID, |b| {
                b.push(0); // IPv4 node id type
                b.extend_from_slice(&nid.0);
            });
        }
        if let Some((seid, addr)) = self.f_seid {
            put_tlv(out, IE_FSEID, |b| {
                b.push(0x02); // V4
                b.extend_from_slice(&seid.to_be_bytes());
                b.extend_from_slice(&addr.0);
            });
        }
        if let Some(c) = self.cause {
            put_tlv(out, IE_CAUSE, |b| b.push(c.to_byte()));
        }
        for p in &self.create_pdrs {
            p.encode(out);
        }
        for f in &self.create_fars {
            f.encode(out);
        }
        for q in &self.create_qers {
            q.encode(out);
        }
        for p in &self.update_pdrs {
            p.encode(out);
        }
        for f in &self.update_fars {
            f.encode(out);
        }
        if self.report_downlink_data {
            put_tlv(out, IE_REPORT_TYPE, |b| b.push(0x01)); // DLDR bit
            if let Some(pdr) = self.downlink_data_pdr {
                put_tlv(out, IE_DOWNLINK_DATA_REPORT, |b| {
                    put_tlv(b, IE_PDR_ID, |b| b.extend_from_slice(&pdr.to_be_bytes()));
                });
            }
        }
    }

    /// Decodes a message body into an `IeSet`. Unknown IEs are skipped
    /// (forward compatibility, like real PFCP stacks).
    pub(crate) fn decode(body: &[u8]) -> Result<IeSet> {
        let mut set = IeSet::default();
        let mut r = IeReader::new(body);
        while let Some((ty, v)) = r.next_ie()? {
            match ty {
                IE_NODE_ID => {
                    need(v, 5)?;
                    set.node_id = Some(Ipv4Addr([v[1], v[2], v[3], v[4]]));
                }
                IE_FSEID => {
                    need(v, 13)?;
                    let seid = u64::from_be_bytes(v[1..9].try_into().expect("8"));
                    set.f_seid = Some((seid, Ipv4Addr([v[9], v[10], v[11], v[12]])));
                }
                IE_CAUSE => {
                    need(v, 1)?;
                    set.cause = Some(Cause::from_byte(v[0])?);
                }
                IE_CREATE_PDR => set.create_pdrs.push(CreatePdr::decode(v)?),
                IE_CREATE_FAR => set.create_fars.push(CreateFar::decode(v)?),
                IE_CREATE_QER => set.create_qers.push(CreateQer::decode(v)?),
                IE_UPDATE_PDR => set.update_pdrs.push(UpdatePdr::decode(v)?),
                IE_UPDATE_FAR => set.update_fars.push(UpdateFar::decode(v)?),
                IE_REPORT_TYPE => {
                    need(v, 1)?;
                    set.report_downlink_data = v[0] & 0x01 != 0;
                }
                IE_DOWNLINK_DATA_REPORT => {
                    let mut inner = IeReader::new(v);
                    while let Some((ity, iv)) = inner.next_ie()? {
                        if ity == IE_PDR_ID {
                            need(iv, 2)?;
                            set.downlink_data_pdr = Some(u16::from_be_bytes([iv[0], iv[1]]));
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ul_pdr() -> CreatePdr {
        CreatePdr {
            pdr_id: 1,
            precedence: 255,
            pdi: Pdi {
                source_interface: Some(Interface::Access),
                f_teid: Some(FTeid {
                    teid: 0x100,
                    addr: Ipv4Addr::new(10, 200, 200, 102),
                }),
                ue_ip: None,
                sdf_filters: vec![],
                qfi: Some(9),
            },
            outer_header_removal: true,
            far_id: 1,
            qer_ids: vec![1],
        }
    }

    fn dl_pdr() -> CreatePdr {
        CreatePdr {
            pdr_id: 2,
            precedence: 255,
            pdi: Pdi {
                source_interface: Some(Interface::Core),
                f_teid: None,
                ue_ip: Some(UeIpAddress {
                    addr: Ipv4Addr::new(10, 60, 0, 1),
                    is_destination: true,
                }),
                sdf_filters: vec![SdfFilter {
                    dst_port: PortRange::exact(443),
                    protocol: Some(6),
                    filter_id: 7,
                    ..SdfFilter::default()
                }],
                qfi: None,
            },
            outer_header_removal: false,
            far_id: 2,
            qer_ids: vec![],
        }
    }

    #[test]
    fn create_pdr_roundtrip() {
        for pdr in [ul_pdr(), dl_pdr()] {
            let mut buf = Vec::new();
            pdr.encode(&mut buf);
            let set = IeSet::decode(&buf).unwrap();
            assert_eq!(set.create_pdrs, vec![pdr]);
        }
    }

    #[test]
    fn create_far_roundtrip() {
        let far = CreateFar {
            far_id: 2,
            apply_action: ApplyAction::FORW,
            forwarding: Some(ForwardingParameters {
                dest_interface: Interface::Access,
                outer_header_creation: Some(OuterHeaderCreation {
                    teid: 0x200,
                    addr: Ipv4Addr::new(10, 200, 200, 101),
                }),
            }),
        };
        let mut buf = Vec::new();
        far.encode(&mut buf);
        let set = IeSet::decode(&buf).unwrap();
        assert_eq!(set.create_fars, vec![far]);
    }

    #[test]
    fn update_far_buffering_roundtrip() {
        // The smart-handover piggyback: switch the FAR to BUFF.
        let upd = UpdateFar {
            far_id: 2,
            apply_action: Some(ApplyAction::BUFF),
            forwarding: None,
        };
        let mut buf = Vec::new();
        upd.encode(&mut buf);
        let set = IeSet::decode(&buf).unwrap();
        assert_eq!(set.update_fars, vec![upd]);
        assert!(set.update_fars[0].apply_action.unwrap().buffer);
    }

    #[test]
    fn update_pdr_roundtrip() {
        let upd = UpdatePdr {
            pdr_id: 1,
            precedence: Some(10),
            pdi: Some(Pdi {
                source_interface: Some(Interface::Access),
                ..Pdi::default()
            }),
            far_id: Some(3),
        };
        let mut buf = Vec::new();
        upd.encode(&mut buf);
        let set = IeSet::decode(&buf).unwrap();
        assert_eq!(set.update_pdrs, vec![upd]);
    }

    #[test]
    fn sdf_filter_full_roundtrip() {
        let f = SdfFilter {
            src_addr: Ipv4Addr::new(192, 168, 0, 0),
            src_prefix: 16,
            dst_addr: Ipv4Addr::new(10, 60, 0, 1),
            dst_prefix: 32,
            src_port: PortRange {
                min: 1024,
                max: 65535,
            },
            dst_port: PortRange::exact(53),
            protocol: Some(17),
            tos: 0xb8,
            tos_mask: 0xfc,
            spi: Some(0xdeadbeef),
            flow_label: Some(0xabcde),
            filter_id: 99,
        };
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let mut r = IeReader::new(&buf);
        let (ty, v) = r.next_ie().unwrap().unwrap();
        assert_eq!(ty, IE_SDF_FILTER);
        assert_eq!(SdfFilter::decode(v).unwrap(), f);
    }

    #[test]
    fn bad_prefix_rejected() {
        let f = SdfFilter::default();
        let mut buf = Vec::new();
        f.encode(&mut buf);
        // Corrupt the src prefix length (offset: 4 TLV header + 4 addr).
        buf[8] = 40;
        let mut r = IeReader::new(&buf);
        let (_, v) = r.next_ie().unwrap().unwrap();
        assert_eq!(SdfFilter::decode(v).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn ie_set_session_establishment_shape() {
        let set = IeSet {
            node_id: Some(Ipv4Addr::new(10, 200, 200, 1)),
            f_seid: Some((0x77, Ipv4Addr::new(10, 200, 200, 1))),
            create_pdrs: vec![ul_pdr(), dl_pdr()],
            create_fars: vec![CreateFar {
                far_id: 1,
                apply_action: ApplyAction::FORW,
                forwarding: Some(ForwardingParameters {
                    dest_interface: Interface::Core,
                    outer_header_creation: None,
                }),
            }],
            ..IeSet::default()
        };
        let mut buf = Vec::new();
        set.encode(&mut buf);
        let parsed = IeSet::decode(&buf).unwrap();
        assert_eq!(parsed, set);
    }

    #[test]
    fn downlink_data_report_roundtrip() {
        let set = IeSet {
            report_downlink_data: true,
            downlink_data_pdr: Some(2),
            ..IeSet::default()
        };
        let mut buf = Vec::new();
        set.encode(&mut buf);
        let parsed = IeSet::decode(&buf).unwrap();
        assert!(parsed.report_downlink_data);
        assert_eq!(parsed.downlink_data_pdr, Some(2));
    }

    #[test]
    fn truncated_tlv_rejected() {
        let buf = [0x00, 0x01, 0x00]; // 3 bytes: not even a TLV header
        assert_eq!(IeSet::decode(&buf).unwrap_err(), Error::Truncated);
        let buf = [0x00, 0x01, 0x00, 0x08, 0x00]; // claims 8 value bytes, has 1
        assert_eq!(IeSet::decode(&buf).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn unknown_ies_are_skipped() {
        let mut buf = Vec::new();
        put_tlv(&mut buf, 999, |b| b.extend_from_slice(&[1, 2, 3]));
        put_tlv(&mut buf, IE_CAUSE, |b| b.push(1));
        let set = IeSet::decode(&buf).unwrap();
        assert_eq!(set.cause, Some(Cause::Accepted));
    }

    #[test]
    fn apply_action_bits() {
        assert_eq!(
            ApplyAction::from_byte(ApplyAction::BUFF_NOCP.to_byte()),
            ApplyAction::BUFF_NOCP
        );
        assert_eq!(ApplyAction::DROP.to_byte(), 0x01);
        assert_eq!(ApplyAction::FORW.to_byte(), 0x02);
        assert_eq!(ApplyAction::BUFF.to_byte(), 0x04);
    }

    #[test]
    fn port_range_contains() {
        assert!(PortRange::ANY.contains(0));
        assert!(PortRange::ANY.contains(65535));
        assert!(PortRange::exact(80).contains(80));
        assert!(!PortRange::exact(80).contains(81));
    }
}
