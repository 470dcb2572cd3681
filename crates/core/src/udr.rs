//! The Unified Data Repository: the subscriber database behind the UDM
//! (free5GC stores this in MongoDB; §B "Subscriber information is stored
//! in a MongoDB database, and accessed through the UDR NF").
//!
//! Holds per-SUPI subscription records: the permanent key material used
//! to derive 5G-AKA authentication vectors, the subscribed slice and
//! DNN, and AMBR limits that seed the session's QER. The AKA derivation
//! is a simplified deterministic PRF — the experiment-visible property
//! is that challenge and response agree end to end, not the exact
//! Milenage algebra.

use std::collections::HashMap;

/// Subscribed QoS profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ambr {
    /// Downlink aggregate maximum bit rate (bits/s); 0 = unlimited.
    pub dl_bps: u64,
    /// Uplink aggregate maximum bit rate (bits/s); 0 = unlimited.
    pub ul_bps: u64,
}

/// One subscriber record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscriber {
    /// Subscription permanent identifier.
    pub supi: u64,
    /// Permanent key K (USIM secret).
    pub k: [u8; 16],
    /// Operator code OPc.
    pub opc: [u8; 16],
    /// Sequence number for AKA freshness.
    pub sqn: u64,
    /// Subscribed data network name.
    pub dnn: String,
    /// Subscribed S-NSSAI (slice/service type).
    pub sst: u8,
    /// Subscribed AMBR.
    pub ambr: Ambr,
}

/// A 5G-AKA authentication vector as the UDM hands it to the AUSF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthVector {
    /// Challenge nonce.
    pub rand: [u8; 16],
    /// Network authentication token.
    pub autn: [u8; 16],
    /// Expected UE response.
    pub xres: [u8; 16],
}

/// Derives a 16-byte digest from key material and inputs — the stand-in
/// for the Milenage f2 function (deterministic, key-dependent,
/// input-dependent; not cryptographically strong, which none of the
/// experiments need).
pub fn prf(k: &[u8; 16], opc: &[u8; 16], input: &[u8]) -> [u8; 16] {
    let mut state: u64 = 0x6a09_e667_f3bc_c908;
    let mut mix = |b: u8| {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x100_0000_01b3);
        state = state.rotate_left(23);
    };
    for &b in k.iter().chain(opc.iter()).chain(input.iter()) {
        mix(b);
    }
    let mut out = [0u8; 16];
    let mut s = state;
    for chunk in out.chunks_mut(8) {
        s = s.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
        chunk.copy_from_slice(&s.to_be_bytes());
    }
    out
}

/// The repository.
#[derive(Debug, Clone, Default)]
pub struct Udr {
    subscribers: HashMap<u64, Subscriber>,
}

impl Udr {
    /// An empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Provisions a subscriber with deterministic key material derived
    /// from the SUPI (what the testbed's "fill the HSS" scripts do).
    pub fn provision_default(&mut self, supi: u64) -> &Subscriber {
        let mut k = [0u8; 16];
        let mut opc = [0u8; 16];
        k[..8].copy_from_slice(&supi.to_be_bytes());
        k[8..].copy_from_slice(&supi.wrapping_mul(0x5851_f42d_4c95_7f2d).to_be_bytes());
        opc[..8].copy_from_slice(&supi.rotate_left(17).to_be_bytes());
        opc[8..].copy_from_slice(&supi.wrapping_add(0x1234_5678_9abc_def0).to_be_bytes());
        self.subscribers.entry(supi).or_insert(Subscriber {
            supi,
            k,
            opc,
            sqn: 0,
            dnn: "internet".into(),
            sst: 1,
            ambr: Ambr {
                dl_bps: 0,
                ul_bps: 0,
            },
        })
    }

    /// Reads a record.
    pub fn get(&self, supi: u64) -> Option<&Subscriber> {
        self.subscribers.get(&supi)
    }

    /// Generates a fresh authentication vector for `supi`, advancing its
    /// SQN (each challenge is unique). `None` for unknown subscribers.
    pub fn generate_auth_vector(&mut self, supi: u64, rand: [u8; 16]) -> Option<AuthVector> {
        let sub = self.subscribers.get_mut(&supi)?;
        sub.sqn += 1;
        let mut input = [0u8; 24];
        input[..16].copy_from_slice(&rand);
        input[16..].copy_from_slice(&sub.sqn.to_be_bytes());
        let xres = prf(&sub.k, &sub.opc, &input);
        let autn = prf(&sub.opc, &sub.k, &input);
        Some(AuthVector { rand, autn, xres })
    }

    /// The UE side of the same computation (the USIM holds the same K,
    /// OPc and tracks the SQN): produces RES for a challenge.
    pub fn ue_response(sub: &Subscriber, rand: [u8; 16], sqn: u64) -> [u8; 16] {
        let mut input = [0u8; 24];
        input[..16].copy_from_slice(&rand);
        input[16..].copy_from_slice(&sqn.to_be_bytes());
        prf(&sub.k, &sub.opc, &input)
    }

    /// Number of provisioned subscribers.
    pub fn len(&self) -> usize {
        self.subscribers.len()
    }

    /// True if no subscribers are provisioned.
    pub fn is_empty(&self) -> bool {
        self.subscribers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioning_is_deterministic_and_distinct() {
        let mut a = Udr::new();
        let mut b = Udr::new();
        let s1 = a.provision_default(101).clone();
        let s1b = b.provision_default(101).clone();
        assert_eq!(s1, s1b, "same SUPI, same material");
        let s2 = a.provision_default(102).clone();
        assert_ne!(s1.k, s2.k, "distinct subscribers get distinct keys");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn auth_vector_matches_ue_side() {
        let mut udr = Udr::new();
        udr.provision_default(101);
        let rand = [0x5a; 16];
        let av = udr
            .generate_auth_vector(101, rand)
            .expect("known subscriber");
        let sub = udr.get(101).unwrap();
        let res = Udr::ue_response(sub, rand, sub.sqn);
        assert_eq!(res, av.xres, "USIM and UDM agree");
    }

    #[test]
    fn challenges_are_fresh() {
        let mut udr = Udr::new();
        udr.provision_default(101);
        let av1 = udr.generate_auth_vector(101, [1; 16]).unwrap();
        let av2 = udr.generate_auth_vector(101, [1; 16]).unwrap();
        assert_ne!(av1.xres, av2.xres, "SQN advances per challenge");
    }

    #[test]
    fn unknown_subscriber_is_refused() {
        let mut udr = Udr::new();
        assert!(udr.generate_auth_vector(999, [0; 16]).is_none());
        assert!(udr.get(999).is_none());
    }

    #[test]
    fn wrong_key_fails_verification() {
        let mut udr = Udr::new();
        udr.provision_default(101);
        let rand = [7; 16];
        let av = udr.generate_auth_vector(101, rand).unwrap();
        let mut impostor = udr.get(101).unwrap().clone();
        impostor.k[0] ^= 0xff;
        let res = Udr::ue_response(&impostor, rand, impostor.sqn);
        assert_ne!(res, av.xres, "a wrong K cannot answer the challenge");
    }

    #[test]
    fn prf_sensitivity() {
        let k = [1u8; 16];
        let opc = [2u8; 16];
        let a = prf(&k, &opc, b"input-a");
        let b = prf(&k, &opc, b"input-b");
        assert_ne!(a, b);
        let mut k2 = k;
        k2[15] ^= 1;
        assert_ne!(prf(&k, &opc, b"x"), prf(&k2, &opc, b"x"));
    }
}
