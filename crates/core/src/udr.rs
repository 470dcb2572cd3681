//! The Unified Data Repository: the subscriber database behind the UDM
//! (free5GC stores this in MongoDB; §B "Subscriber information is stored
//! in a MongoDB database, and accessed through the UDR NF").
//!
//! Holds per-SUPI subscription records: the USIM's permanent key
//! material and the SQN, from which 5G-AKA authentication vectors are
//! derived. The AKA derivation is a simplified deterministic PRF — the
//! experiment-visible property is that challenge and response agree end
//! to end, not the exact Milenage algebra.

use std::collections::HashMap;

/// A USIM's permanent key material; the UDR holds the same copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Usim {
    /// Permanent key K.
    k: [u8; 16],
    /// Operator code OPc.
    opc: [u8; 16],
}

impl Usim {
    /// The key material derived from `supi`, which both the testbed's
    /// "fill the HSS" provisioning and the simulated UE's USIM hold.
    fn of(supi: u64) -> Usim {
        let mut k = [0u8; 16];
        let mut opc = [0u8; 16];
        k[..8].copy_from_slice(&supi.to_be_bytes());
        k[8..].copy_from_slice(&supi.wrapping_mul(0x5851_f42d_4c95_7f2d).to_be_bytes());
        opc[..8].copy_from_slice(&supi.rotate_left(17).to_be_bytes());
        opc[8..].copy_from_slice(&supi.wrapping_add(0x1234_5678_9abc_def0).to_be_bytes());
        Usim { k, opc }
    }

    /// RES for the challenge `rand` at `sqn` (the UDM's XRES).
    fn res(&self, rand: [u8; 16], sqn: u64) -> [u8; 16] {
        prf(&self.k, &self.opc, &challenge(rand, sqn))
    }
}

/// The PRF input of a challenge: RAND followed by the SQN.
fn challenge(rand: [u8; 16], sqn: u64) -> [u8; 24] {
    let mut input = [0u8; 24];
    input[..16].copy_from_slice(&rand);
    input[16..].copy_from_slice(&sqn.to_be_bytes());
    input
}

/// One subscriber record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Subscriber {
    /// The subscriber's USIM key material.
    usim: Usim,
    /// Sequence number for AKA freshness.
    pub(crate) sqn: u64,
}

/// A 5G-AKA authentication vector as the UDM hands it to the AUSF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AuthVector {
    /// Challenge nonce.
    pub(crate) rand: [u8; 16],
    /// Network authentication token.
    pub(crate) autn: [u8; 16],
    /// Expected UE response.
    pub(crate) xres: [u8; 16],
}

/// Derives a 16-byte digest from key material and inputs — the stand-in
/// for the Milenage f2 function (deterministic, key-dependent,
/// input-dependent; not cryptographically strong, which none of the
/// experiments need).
pub(crate) fn prf(k: &[u8; 16], opc: &[u8; 16], input: &[u8]) -> [u8; 16] {
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
    /// Provisions `supi` with the key material its USIM holds.
    pub(crate) fn provision_default(&mut self, supi: u64) {
        self.subscribers.entry(supi).or_insert(Subscriber {
            usim: Usim::of(supi),
            sqn: 0,
        });
    }

    /// Reads a record.
    pub(crate) fn get(&self, supi: u64) -> Option<&Subscriber> {
        self.subscribers.get(&supi)
    }

    /// Generates a fresh authentication vector for `supi`, advancing its
    /// SQN (each challenge is unique). `None` for unknown subscribers.
    pub(crate) fn generate_auth_vector(&mut self, supi: u64, rand: [u8; 16]) -> Option<AuthVector> {
        let sub = self.subscribers.get_mut(&supi)?;
        sub.sqn += 1;
        let Usim { k, opc } = sub.usim;
        let input = challenge(rand, sub.sqn);
        let xres = prf(&k, &opc, &input);
        let autn = prf(&opc, &k, &input);
        Some(AuthVector { rand, autn, xres })
    }

    /// The UE side of the same computation: `supi`'s USIM answers the
    /// challenge `rand` at `sqn` with RES.
    pub fn ue_response(supi: u64, rand: [u8; 16], sqn: u64) -> [u8; 16] {
        Usim::of(supi).res(rand, sqn)
    }

    /// Number of provisioned subscribers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.subscribers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioning_is_deterministic_and_distinct() {
        let mut a = Udr::default();
        let mut b = Udr::default();
        a.provision_default(101);
        b.provision_default(101);
        assert_eq!(a.get(101), b.get(101), "same SUPI, same material");
        a.provision_default(102);
        let (k1, k2) = (a.get(101).unwrap().usim.k, a.get(102).unwrap().usim.k);
        assert_ne!(k1, k2, "distinct subscribers get distinct keys");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn auth_vector_matches_ue_side() {
        let mut udr = Udr::default();
        udr.provision_default(101);
        let rand = [0x5a; 16];
        let av = udr
            .generate_auth_vector(101, rand)
            .expect("known subscriber");
        let res = Udr::ue_response(101, rand, udr.get(101).unwrap().sqn);
        assert_eq!(res, av.xres, "USIM and UDM agree");
    }

    #[test]
    fn challenges_are_fresh() {
        let mut udr = Udr::default();
        udr.provision_default(101);
        let av1 = udr.generate_auth_vector(101, [1; 16]).unwrap();
        let av2 = udr.generate_auth_vector(101, [1; 16]).unwrap();
        assert_ne!(av1.xres, av2.xres, "SQN advances per challenge");
    }

    #[test]
    fn unknown_subscriber_is_refused() {
        let mut udr = Udr::default();
        assert!(udr.generate_auth_vector(999, [0; 16]).is_none());
        assert!(udr.get(999).is_none());
    }

    #[test]
    fn wrong_key_fails_verification() {
        let mut udr = Udr::default();
        udr.provision_default(101);
        let rand = [7; 16];
        let av = udr.generate_auth_vector(101, rand).unwrap();
        let mut impostor = Usim::of(101);
        impostor.k[0] ^= 0xff;
        let res = impostor.res(rand, udr.get(101).unwrap().sqn);
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
