//! SBI message structs with hand-written codec implementations — the role
//! protoc / OpenAPI-generator code plays in the systems the paper
//! compares. Three messages cover the size spectrum:
//!
//! - [`SmContextCreateData`] — the `PostSmContextsRequest` body used in
//!   Fig 6 (AMF → SMF at PDU session establishment; biggest).
//! - [`SmContextUpdateData`] — `UpdateSmContext` (handover path; medium).
//! - [`UeAuthenticationRequest`] — Nausf authentication (small).

use crate::flat::{FlatBuilder, FlatError, FlatView};
use crate::json;
use crate::proto::{DecodeError, Reader, Writer};
use crate::value::{ObjectBuilder, Value};

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field {key}"))
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing numeric field {key}"))
}

/// Single Network Slice Selection Assistance Information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SNssai {
    /// Slice/service type.
    pub sst: u8,
    /// Slice differentiator (hex string).
    pub(crate) sd: String,
}

/// Globally Unique AMF Identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Guami {
    /// PLMN id (MCC+MNC).
    pub(crate) plmn_id: String,
    /// AMF identifier.
    pub(crate) amf_id: String,
}

/// User location (NR).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct UserLocation {
    /// NR cell identity.
    pub(crate) nr_cell_id: String,
    /// Tracking area identity.
    pub(crate) tai: String,
}

/// The `PostSmContextsRequest` body (TS 29.502 SmContextCreateData),
/// AMF → SMF when a UE requests a PDU session. This is the message the
/// paper serializes in the Fig 6 experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmContextCreateData {
    /// Subscription permanent identifier.
    pub supi: String,
    /// Whether the SUPI is unauthenticated.
    pub unauthenticated_supi: bool,
    /// Permanent equipment identifier.
    pub(crate) pei: String,
    /// PDU session id.
    pub pdu_session_id: u8,
    /// Data network name.
    pub dnn: String,
    /// Requested slice.
    pub s_nssai: SNssai,
    /// Serving AMF instance id.
    pub(crate) serving_nf_id: String,
    /// Serving AMF GUAMI.
    pub(crate) guami: Guami,
    /// Request type (initial/existing).
    pub(crate) request_type: String,
    /// Access network type (3GPP / non-3GPP).
    pub(crate) an_type: String,
    /// Radio access technology.
    pub(crate) rat_type: String,
    /// Current UE location.
    pub(crate) ue_location: UserLocation,
    /// Callback URI for SM context status notifications.
    pub(crate) sm_context_status_uri: String,
    /// Embedded N1 SM message (the NAS PDU), opaque bytes.
    pub n1_sm_msg: Vec<u8>,
}

impl SmContextCreateData {
    /// A realistic sample instance (field values shaped like free5GC's).
    pub fn sample() -> SmContextCreateData {
        SmContextCreateData {
            supi: "imsi-208930000000003".into(),
            unauthenticated_supi: false,
            pei: "imeisv-4370816125816151".into(),
            pdu_session_id: 1,
            dnn: "internet".into(),
            s_nssai: SNssai {
                sst: 1,
                sd: "010203".into(),
            },
            serving_nf_id: "9f7d5a3c-8e2b-41a6-b0c3-d94e51f20a77".into(),
            guami: Guami {
                plmn_id: "20893".into(),
                amf_id: "cafe00".into(),
            },
            request_type: "INITIAL_REQUEST".into(),
            an_type: "3GPP_ACCESS".into(),
            rat_type: "NR".into(),
            ue_location: UserLocation {
                nr_cell_id: "000000010".into(),
                tai: "20893-000001".into(),
            },
            sm_context_status_uri: "http://10.200.200.1:8000/namf-callback/v1/smContextStatus/0"
                .into(),
            n1_sm_msg: vec![
                0x2e, 0x01, 0x01, 0xc1, 0xff, 0xff, 0x91, 0xa1, 0x28, 0x01, 0x00, 0x7b, 0x00, 0x07,
                0x80, 0x00, 0x0a, 0x00, 0x00, 0x0d, 0x00,
            ],
        }
    }

    // ---------------- JSON ----------------

    /// Converts to the dynamic value tree (then `json::to_string`).
    pub(crate) fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("supi", Value::Str(self.supi.clone()))
            .field(
                "unauthenticatedSupi",
                Value::Bool(self.unauthenticated_supi),
            )
            .field("pei", Value::Str(self.pei.clone()))
            .field("pduSessionId", Value::U64(self.pdu_session_id.into()))
            .field("dnn", Value::Str(self.dnn.clone()))
            .field(
                "sNssai",
                ObjectBuilder::new()
                    .field("sst", Value::U64(self.s_nssai.sst.into()))
                    .field("sd", Value::Str(self.s_nssai.sd.clone()))
                    .build(),
            )
            .field("servingNfId", Value::Str(self.serving_nf_id.clone()))
            .field(
                "guami",
                ObjectBuilder::new()
                    .field("plmnId", Value::Str(self.guami.plmn_id.clone()))
                    .field("amfId", Value::Str(self.guami.amf_id.clone()))
                    .build(),
            )
            .field("requestType", Value::Str(self.request_type.clone()))
            .field("anType", Value::Str(self.an_type.clone()))
            .field("ratType", Value::Str(self.rat_type.clone()))
            .field(
                "ueLocation",
                ObjectBuilder::new()
                    .field("nrCellId", Value::Str(self.ue_location.nr_cell_id.clone()))
                    .field("tai", Value::Str(self.ue_location.tai.clone()))
                    .build(),
            )
            .field(
                "smContextStatusUri",
                Value::Str(self.sm_context_status_uri.clone()),
            )
            .field(
                "n1SmMsg",
                // JSON carries binary as hex (free5GC uses base64; same
                // order of cost).
                Value::Str(self.n1_sm_msg.iter().map(|b| format!("{b:02x}")).collect()),
            )
            .build()
    }

    /// Serializes to JSON text.
    pub fn to_json(&self) -> String {
        json::to_string(&self.to_value())
    }

    /// Parses back from a value tree.
    pub(crate) fn from_value(v: &Value) -> Result<SmContextCreateData, String> {
        let s_nssai = v.get("sNssai").ok_or("missing sNssai")?;
        let guami = v.get("guami").ok_or("missing guami")?;
        let loc = v.get("ueLocation").ok_or("missing ueLocation")?;
        let hex = req_str(v, "n1SmMsg")?;
        if hex.len() % 2 != 0 {
            return Err("odd hex length".into());
        }
        let n1_sm_msg = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).map_err(|e| e.to_string()))
            .collect::<Result<Vec<u8>, String>>()?;
        Ok(SmContextCreateData {
            supi: req_str(v, "supi")?,
            unauthenticated_supi: v
                .get("unauthenticatedSupi")
                .and_then(Value::as_bool)
                .ok_or("missing unauthenticatedSupi")?,
            pei: req_str(v, "pei")?,
            pdu_session_id: req_u64(v, "pduSessionId")? as u8,
            dnn: req_str(v, "dnn")?,
            s_nssai: SNssai {
                sst: req_u64(s_nssai, "sst")? as u8,
                sd: req_str(s_nssai, "sd")?,
            },
            serving_nf_id: req_str(v, "servingNfId")?,
            guami: Guami {
                plmn_id: req_str(guami, "plmnId")?,
                amf_id: req_str(guami, "amfId")?,
            },
            request_type: req_str(v, "requestType")?,
            an_type: req_str(v, "anType")?,
            rat_type: req_str(v, "ratType")?,
            ue_location: UserLocation {
                nr_cell_id: req_str(loc, "nrCellId")?,
                tai: req_str(loc, "tai")?,
            },
            sm_context_status_uri: req_str(v, "smContextStatusUri")?,
            n1_sm_msg,
        })
    }

    /// Parses from JSON text.
    pub fn from_json(text: &str) -> Result<SmContextCreateData, String> {
        let v = json::parse(text).map_err(|e| format!("{e:?}"))?;
        Self::from_value(&v)
    }

    // ---------------- Protobuf-style ----------------

    /// Encodes in protobuf wire format.
    pub fn to_proto(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(1, &self.supi);
        w.bool(2, self.unauthenticated_supi);
        w.str(3, &self.pei);
        w.u64(4, self.pdu_session_id.into());
        w.str(5, &self.dnn);
        w.nested(6, |n| {
            n.u64(1, self.s_nssai.sst.into());
            n.str(2, &self.s_nssai.sd);
        });
        w.str(7, &self.serving_nf_id);
        w.nested(8, |n| {
            n.str(1, &self.guami.plmn_id);
            n.str(2, &self.guami.amf_id);
        });
        w.str(9, &self.request_type);
        w.str(10, &self.an_type);
        w.str(11, &self.rat_type);
        w.nested(12, |n| {
            n.str(1, &self.ue_location.nr_cell_id);
            n.str(2, &self.ue_location.tai);
        });
        w.str(13, &self.sm_context_status_uri);
        w.bytes(14, &self.n1_sm_msg);
        w.into_bytes()
    }

    /// Decodes from protobuf wire format.
    pub fn from_proto(bytes: &[u8]) -> Result<SmContextCreateData, DecodeError> {
        let mut out = SmContextCreateData {
            supi: String::new(),
            unauthenticated_supi: false,
            pei: String::new(),
            pdu_session_id: 0,
            dnn: String::new(),
            s_nssai: SNssai {
                sst: 0,
                sd: String::new(),
            },
            serving_nf_id: String::new(),
            guami: Guami {
                plmn_id: String::new(),
                amf_id: String::new(),
            },
            request_type: String::new(),
            an_type: String::new(),
            rat_type: String::new(),
            ue_location: UserLocation {
                nr_cell_id: String::new(),
                tai: String::new(),
            },
            sm_context_status_uri: String::new(),
            n1_sm_msg: Vec::new(),
        };
        let mut r = Reader::new(bytes);
        while let Some((field, v)) = r.next_field()? {
            match field {
                1 => out.supi = v.str()?.to_owned(),
                2 => out.unauthenticated_supi = v.u64()? != 0,
                3 => out.pei = v.str()?.to_owned(),
                4 => out.pdu_session_id = v.u64()? as u8,
                5 => out.dnn = v.str()?.to_owned(),
                6 => {
                    let mut n = Reader::new(v.bytes()?);
                    while let Some((f, nv)) = n.next_field()? {
                        match f {
                            1 => out.s_nssai.sst = nv.u64()? as u8,
                            2 => out.s_nssai.sd = nv.str()?.to_owned(),
                            _ => {}
                        }
                    }
                }
                7 => out.serving_nf_id = v.str()?.to_owned(),
                8 => {
                    let mut n = Reader::new(v.bytes()?);
                    while let Some((f, nv)) = n.next_field()? {
                        match f {
                            1 => out.guami.plmn_id = nv.str()?.to_owned(),
                            2 => out.guami.amf_id = nv.str()?.to_owned(),
                            _ => {}
                        }
                    }
                }
                9 => out.request_type = v.str()?.to_owned(),
                10 => out.an_type = v.str()?.to_owned(),
                11 => out.rat_type = v.str()?.to_owned(),
                12 => {
                    let mut n = Reader::new(v.bytes()?);
                    while let Some((f, nv)) = n.next_field()? {
                        match f {
                            1 => out.ue_location.nr_cell_id = nv.str()?.to_owned(),
                            2 => out.ue_location.tai = nv.str()?.to_owned(),
                            _ => {}
                        }
                    }
                }
                13 => out.sm_context_status_uri = v.str()?.to_owned(),
                14 => out.n1_sm_msg = v.bytes()?.to_vec(),
                _ => {}
            }
        }
        Ok(out)
    }

    // ---------------- FlatBuffers-style ----------------

    // Fixed layout: bool(1) pad(1) u8 session(1) u8 sst(1) + 13 string refs
    // (8 bytes each) + 1 bytes ref = 4 + 14*8 = 116 bytes.
    const F_BOOL: usize = 0;
    const F_SESSION: usize = 2;
    const F_SST: usize = 3;
    const F_REFS: usize = 4;
    const FIXED_SIZE: usize = 4 + 14 * 8;

    fn string_fields(&self) -> [&str; 13] {
        [
            &self.supi,
            &self.pei,
            &self.dnn,
            &self.s_nssai.sd,
            &self.serving_nf_id,
            &self.guami.plmn_id,
            &self.guami.amf_id,
            &self.request_type,
            &self.an_type,
            &self.rat_type,
            &self.ue_location.nr_cell_id,
            &self.ue_location.tai,
            &self.sm_context_status_uri,
        ]
    }

    /// Encodes in the flat zero-parse layout.
    pub fn to_flat(&self) -> Vec<u8> {
        let mut b = FlatBuilder::new(Self::FIXED_SIZE);
        b.put_bool(Self::F_BOOL, self.unauthenticated_supi);
        b.put_u8(Self::F_SESSION, self.pdu_session_id);
        b.put_u8(Self::F_SST, self.s_nssai.sst);
        for (i, s) in self.string_fields().iter().enumerate() {
            b.put_str(Self::F_REFS + i * 8, s);
        }
        b.put_bytes(Self::F_REFS + 13 * 8, &self.n1_sm_msg);
        b.finish()
    }

    /// Zero-parse access: reads two hot fields straight from the buffer —
    /// the FlatBuffers read pattern that a handler touching a couple of
    /// fields would exhibit. Returns (supi, pduSessionId).
    pub fn flat_peek(buf: &[u8]) -> Result<(&str, u8), FlatError> {
        let v = FlatView::new(buf);
        Ok((v.str(Self::F_REFS)?, v.u8(Self::F_SESSION)?))
    }

    /// Full materialization from the flat layout (used for equality
    /// testing; a real FlatBuffers consumer would keep using the view).
    pub fn from_flat(buf: &[u8]) -> Result<SmContextCreateData, FlatError> {
        let v = FlatView::new(buf);
        let s =
            |i: usize| -> Result<String, FlatError> { Ok(v.str(Self::F_REFS + i * 8)?.to_owned()) };
        Ok(SmContextCreateData {
            unauthenticated_supi: v.bool(Self::F_BOOL)?,
            pdu_session_id: v.u8(Self::F_SESSION)?,
            supi: s(0)?,
            pei: s(1)?,
            dnn: s(2)?,
            s_nssai: SNssai {
                sst: v.u8(Self::F_SST)?,
                sd: s(3)?,
            },
            serving_nf_id: s(4)?,
            guami: Guami {
                plmn_id: s(5)?,
                amf_id: s(6)?,
            },
            request_type: s(7)?,
            an_type: s(8)?,
            rat_type: s(9)?,
            ue_location: UserLocation {
                nr_cell_id: s(10)?,
                tai: s(11)?,
            },
            sm_context_status_uri: s(12)?,
            n1_sm_msg: v.bytes(Self::F_REFS + 13 * 8)?.to_vec(),
        })
    }
}

/// `UpdateSmContext` body (TS 29.502), AMF → SMF during handover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmContextUpdateData {
    /// User-plane connection state.
    pub(crate) up_cnx_state: String,
    /// Handover state (PREPARING / PREPARED / COMPLETED).
    pub(crate) ho_state: String,
    /// Target RAN node id.
    pub(crate) target_ran_id: String,
    /// Target tracking area.
    pub(crate) target_tai: String,
    /// Embedded N2 SM information (NGAP payload).
    pub(crate) n2_sm_info: Vec<u8>,
    /// Whether indirect data forwarding is requested.
    pub(crate) data_forwarding: bool,
}

impl SmContextUpdateData {
    /// A realistic sample instance.
    pub fn sample() -> SmContextUpdateData {
        SmContextUpdateData {
            up_cnx_state: "ACTIVATED".into(),
            ho_state: "PREPARING".into(),
            target_ran_id: "20893-gnb-000002".into(),
            target_tai: "20893-000001".into(),
            n2_sm_info: vec![0x00, 0x0e, 0x40, 0x01, 0x01, 0x00, 0x2b, 0x80, 0x0a],
            data_forwarding: false,
        }
    }

    /// Converts to the dynamic value tree.
    pub(crate) fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("upCnxState", Value::Str(self.up_cnx_state.clone()))
            .field("hoState", Value::Str(self.ho_state.clone()))
            .field(
                "targetId",
                ObjectBuilder::new()
                    .field("ranNodeId", Value::Str(self.target_ran_id.clone()))
                    .field("tai", Value::Str(self.target_tai.clone()))
                    .build(),
            )
            .field(
                "n2SmInfo",
                Value::Str(self.n2_sm_info.iter().map(|b| format!("{b:02x}")).collect()),
            )
            .field("dataForwarding", Value::Bool(self.data_forwarding))
            .build()
    }

    /// Serializes to JSON text.
    pub fn to_json(&self) -> String {
        json::to_string(&self.to_value())
    }

    /// Parses back from a value tree.
    #[cfg(test)]
    pub(crate) fn from_value(v: &Value) -> Result<SmContextUpdateData, String> {
        let target = v.get("targetId").ok_or("missing targetId")?;
        let hex = req_str(v, "n2SmInfo")?;
        let n2_sm_info = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).map_err(|e| e.to_string()))
            .collect::<Result<Vec<u8>, String>>()?;
        Ok(SmContextUpdateData {
            up_cnx_state: req_str(v, "upCnxState")?,
            ho_state: req_str(v, "hoState")?,
            target_ran_id: req_str(target, "ranNodeId")?,
            target_tai: req_str(target, "tai")?,
            n2_sm_info,
            data_forwarding: v
                .get("dataForwarding")
                .and_then(Value::as_bool)
                .ok_or("missing dataForwarding")?,
        })
    }

    /// Encodes in protobuf wire format.
    #[cfg(test)]
    pub(crate) fn to_proto(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(1, &self.up_cnx_state);
        w.str(2, &self.ho_state);
        w.nested(3, |n| {
            n.str(1, &self.target_ran_id);
            n.str(2, &self.target_tai);
        });
        w.bytes(4, &self.n2_sm_info);
        w.bool(5, self.data_forwarding);
        w.into_bytes()
    }

    /// Decodes from protobuf wire format.
    #[cfg(test)]
    pub(crate) fn from_proto(bytes: &[u8]) -> Result<SmContextUpdateData, DecodeError> {
        let mut out = SmContextUpdateData {
            up_cnx_state: String::new(),
            ho_state: String::new(),
            target_ran_id: String::new(),
            target_tai: String::new(),
            n2_sm_info: Vec::new(),
            data_forwarding: false,
        };
        let mut r = Reader::new(bytes);
        while let Some((field, v)) = r.next_field()? {
            match field {
                1 => out.up_cnx_state = v.str()?.to_owned(),
                2 => out.ho_state = v.str()?.to_owned(),
                3 => {
                    let mut n = Reader::new(v.bytes()?);
                    while let Some((f, nv)) = n.next_field()? {
                        match f {
                            1 => out.target_ran_id = nv.str()?.to_owned(),
                            2 => out.target_tai = nv.str()?.to_owned(),
                            _ => {}
                        }
                    }
                }
                4 => out.n2_sm_info = v.bytes()?.to_vec(),
                5 => out.data_forwarding = v.u64()? != 0,
                _ => {}
            }
        }
        Ok(out)
    }

    #[cfg(test)]
    const FIXED_SIZE: usize = 1 + 5 * 8;

    /// Encodes in the flat zero-parse layout.
    #[cfg(test)]
    pub(crate) fn to_flat(&self) -> Vec<u8> {
        let mut b = FlatBuilder::new(Self::FIXED_SIZE);
        b.put_bool(0, self.data_forwarding);
        b.put_str(1, &self.up_cnx_state);
        b.put_str(9, &self.ho_state);
        b.put_str(17, &self.target_ran_id);
        b.put_str(25, &self.target_tai);
        b.put_bytes(33, &self.n2_sm_info);
        b.finish()
    }

    /// Full materialization from the flat layout.
    #[cfg(test)]
    pub(crate) fn from_flat(buf: &[u8]) -> Result<SmContextUpdateData, FlatError> {
        let v = FlatView::new(buf);
        Ok(SmContextUpdateData {
            data_forwarding: v.bool(0)?,
            up_cnx_state: v.str(1)?.to_owned(),
            ho_state: v.str(9)?.to_owned(),
            target_ran_id: v.str(17)?.to_owned(),
            target_tai: v.str(25)?.to_owned(),
            n2_sm_info: v.bytes(33)?.to_vec(),
        })
    }
}

/// Nausf `UeAuthenticationRequest` body — the small end of the spectrum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UeAuthenticationRequest {
    /// SUPI or concealed SUCI.
    pub supi_or_suci: String,
    /// Serving network name.
    pub serving_network_name: String,
}

impl UeAuthenticationRequest {
    /// A realistic sample instance.
    pub fn sample() -> UeAuthenticationRequest {
        UeAuthenticationRequest {
            supi_or_suci: "suci-0-208-93-0000-0-0-0000000003".into(),
            serving_network_name: "5G:mnc093.mcc208.3gppnetwork.org".into(),
        }
    }

    /// Converts to the dynamic value tree.
    pub(crate) fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("supiOrSuci", Value::Str(self.supi_or_suci.clone()))
            .field(
                "servingNetworkName",
                Value::Str(self.serving_network_name.clone()),
            )
            .build()
    }

    /// Serializes to JSON text.
    pub fn to_json(&self) -> String {
        json::to_string(&self.to_value())
    }

    /// Parses back from a value tree.
    #[cfg(test)]
    pub(crate) fn from_value(v: &Value) -> Result<UeAuthenticationRequest, String> {
        Ok(UeAuthenticationRequest {
            supi_or_suci: req_str(v, "supiOrSuci")?,
            serving_network_name: req_str(v, "servingNetworkName")?,
        })
    }

    /// Encodes in protobuf wire format.
    pub fn to_proto(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(1, &self.supi_or_suci);
        w.str(2, &self.serving_network_name);
        w.into_bytes()
    }

    /// Decodes from protobuf wire format.
    pub fn from_proto(bytes: &[u8]) -> Result<UeAuthenticationRequest, DecodeError> {
        let mut out = UeAuthenticationRequest {
            supi_or_suci: String::new(),
            serving_network_name: String::new(),
        };
        let mut r = Reader::new(bytes);
        while let Some((field, v)) = r.next_field()? {
            match field {
                1 => out.supi_or_suci = v.str()?.to_owned(),
                2 => out.serving_network_name = v.str()?.to_owned(),
                _ => {}
            }
        }
        Ok(out)
    }

    /// Encodes in the flat zero-parse layout.
    pub fn to_flat(&self) -> Vec<u8> {
        let mut b = FlatBuilder::new(16);
        b.put_str(0, &self.supi_or_suci);
        b.put_str(8, &self.serving_network_name);
        b.finish()
    }

    /// Full materialization from the flat layout.
    pub fn from_flat(buf: &[u8]) -> Result<UeAuthenticationRequest, FlatError> {
        let v = FlatView::new(buf);
        Ok(UeAuthenticationRequest {
            supi_or_suci: v.str(0)?.to_owned(),
            serving_network_name: v.str(8)?.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sm_context_create_all_codecs_roundtrip() {
        let m = SmContextCreateData::sample();
        assert_eq!(SmContextCreateData::from_json(&m.to_json()).unwrap(), m);
        assert_eq!(SmContextCreateData::from_proto(&m.to_proto()).unwrap(), m);
        assert_eq!(SmContextCreateData::from_flat(&m.to_flat()).unwrap(), m);
    }

    #[test]
    fn sm_context_update_all_codecs_roundtrip() {
        let m = SmContextUpdateData::sample();
        assert_eq!(
            SmContextUpdateData::from_value(&crate::json::parse(&m.to_json()).unwrap()).unwrap(),
            m
        );
        assert_eq!(SmContextUpdateData::from_proto(&m.to_proto()).unwrap(), m);
        assert_eq!(SmContextUpdateData::from_flat(&m.to_flat()).unwrap(), m);
    }

    #[test]
    fn ue_auth_all_codecs_roundtrip() {
        let m = UeAuthenticationRequest::sample();
        assert_eq!(
            UeAuthenticationRequest::from_value(&crate::json::parse(&m.to_json()).unwrap())
                .unwrap(),
            m
        );
        assert_eq!(
            UeAuthenticationRequest::from_proto(&m.to_proto()).unwrap(),
            m
        );
        assert_eq!(UeAuthenticationRequest::from_flat(&m.to_flat()).unwrap(), m);
    }

    #[test]
    fn encoded_sizes_ordered_sensibly() {
        // JSON carries field names and hex blobs; proto and flat are binary.
        let m = SmContextCreateData::sample();
        let json_len = m.to_json().len();
        let proto_len = m.to_proto().len();
        assert!(
            json_len > proto_len,
            "JSON ({json_len}) should exceed proto ({proto_len})"
        );
    }

    #[test]
    fn flat_peek_reads_without_full_parse() {
        let m = SmContextCreateData::sample();
        let buf = m.to_flat();
        let (supi, sid) = SmContextCreateData::flat_peek(&buf).unwrap();
        assert_eq!(supi, m.supi);
        assert_eq!(sid, m.pdu_session_id);
    }

    #[test]
    fn json_missing_field_reported() {
        let err = SmContextCreateData::from_json("{}").unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }
}
