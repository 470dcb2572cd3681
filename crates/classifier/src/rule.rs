//! The PDR rule model: a 20-dimensional match over packet header fields.
//!
//! The paper ("we employ a number of PDI IEs (up to 20) in the PDR to
//! support rich functionality") classifies on the Packet Detection
//! Information fields of Appendix A Table 3. Every dimension is an
//! inclusive `u32` range; prefixes and exact values are special cases.
//! Precedence follows TS 29.244: **lower value = higher priority**, ties
//! broken by lower rule id (deterministic across all classifiers).

use core::fmt;

/// Number of match dimensions in a PDR (the paper's "up to 20 PDI IEs").
pub const NDIMS: usize = 20;

/// Names for the classifier dimensions, indexable by position.
///
/// Positions 0–11 carry the concrete PDI/SDF fields; 12–19 are the
/// additional expandable IEs the paper alludes to (vendor extensions such
/// as firewall zone or NAT pool id) and are usually wildcarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// Inner packet source IPv4 address.
    SrcIp = 0,
    /// Inner packet destination IPv4 address.
    DstIp = 1,
    /// Transport source port.
    SrcPort = 2,
    /// Transport destination port.
    DstPort = 3,
    /// IP protocol number.
    Protocol = 4,
    /// Type-of-service / DSCP byte.
    Tos = 5,
    /// IPsec Security Parameter Index.
    Spi = 6,
    /// IPv6 flow label (20 bits).
    FlowLabel = 7,
    /// QoS Flow Identifier.
    Qfi = 8,
    /// Local F-TEID (uplink tunnel id).
    Teid = 9,
    /// Application id.
    AppId = 10,
    /// Network instance.
    NetworkInstance = 11,
    /// First extension IE.
    Ext0 = 12,
    /// Second extension IE.
    Ext1 = 13,
    /// Third extension IE.
    Ext2 = 14,
    /// Fourth extension IE.
    Ext3 = 15,
    /// Fifth extension IE.
    Ext4 = 16,
    /// Sixth extension IE.
    Ext5 = 17,
    /// Seventh extension IE.
    Ext6 = 18,
    /// Eighth extension IE.
    Ext7 = 19,
}

/// An inclusive `u32` range over one dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldRange {
    /// Low bound, inclusive.
    pub lo: u32,
    /// High bound, inclusive.
    pub hi: u32,
}

impl FieldRange {
    /// The full-range wildcard.
    pub const ANY: FieldRange = FieldRange {
        lo: 0,
        hi: u32::MAX,
    };

    /// A range matching exactly one value.
    pub const fn exact(v: u32) -> FieldRange {
        FieldRange { lo: v, hi: v }
    }

    /// A prefix match: the `plen` leading bits of `addr` fixed, the rest
    /// free. `plen == 0` is the wildcard; `plen == 32` is exact.
    pub fn prefix(addr: u32, plen: u8) -> FieldRange {
        assert!(plen <= 32, "prefix length out of range");
        if plen == 0 {
            return FieldRange::ANY;
        }
        let mask = u32::MAX << (32 - u32::from(plen));
        FieldRange {
            lo: addr & mask,
            hi: addr | !mask,
        }
    }

    /// True if `v` falls within the range.
    #[inline]
    pub(crate) fn contains(&self, v: u32) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// True if this is the full wildcard.
    pub(crate) fn is_any(&self) -> bool {
        *self == FieldRange::ANY
    }

    /// True if the ranges share at least one value.
    #[inline]
    #[cfg(test)]
    pub(crate) fn overlaps(&self, other: &FieldRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Length of the longest prefix whose span contains this range — the
    /// "effective mask length" used to assign a rule to a TSS tuple.
    pub(crate) fn effective_prefix_len(&self) -> u8 {
        // Common leading bits of lo and hi.
        let diff = self.lo ^ self.hi;
        diff.leading_zeros() as u8
    }
}

impl Default for FieldRange {
    fn default() -> Self {
        FieldRange::ANY
    }
}

impl fmt::Display for FieldRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_any() {
            write!(f, "*")
        } else if self.lo == self.hi {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "{}..={}", self.lo, self.hi)
        }
    }
}

/// A rule id, unique within one classifier instance.
pub type RuleId = u64;

/// A Packet Detection Rule in classifier form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdrRule {
    /// Unique id (maps back to the PFCP PDR id + session).
    pub id: RuleId,
    /// TS 29.244 precedence: lower value wins.
    pub precedence: u32,
    /// The 20 match dimensions.
    pub fields: [FieldRange; NDIMS],
}

impl PdrRule {
    /// A rule matching everything, at the given precedence.
    pub fn any(id: RuleId, precedence: u32) -> PdrRule {
        PdrRule {
            id,
            precedence,
            fields: [FieldRange::ANY; NDIMS],
        }
    }

    /// Sets one dimension, builder-style.
    pub fn with(mut self, field: Field, range: FieldRange) -> PdrRule {
        self.fields[field as usize] = range;
        self
    }

    /// True if the key matches every dimension.
    #[inline]
    pub(crate) fn matches(&self, key: &PacketKey) -> bool {
        self.fields
            .iter()
            .zip(key.values.iter())
            .all(|(r, &v)| r.contains(v))
    }

    /// True if `self` beats `other` under (precedence, id) ordering.
    #[inline]
    pub(crate) fn beats(&self, other: &PdrRule) -> bool {
        (self.precedence, self.id) < (other.precedence, other.id)
    }
}

/// The extracted header fields of one packet, aligned with [`PdrRule`]'s
/// dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PacketKey {
    /// One value per dimension.
    pub values: [u32; NDIMS],
}

impl PacketKey {
    /// Sets one dimension, builder-style.
    pub fn with(mut self, field: Field, v: u32) -> PacketKey {
        self.values[field as usize] = v;
        self
    }
}

/// Interface shared by all three PDR lookup structures.
///
/// `lookup` returns the matching rule with the **lowest precedence value**
/// (highest priority), ties broken by lowest id, or `None` if nothing
/// matches — identical semantics for PDR-LL, PDR-TSS and PDR-PS, verified
/// by differential property tests.
pub trait Classifier {
    /// Adds a rule. Panics if the id is already present (caller manages
    /// id uniqueness; `update` is `remove` + `insert`).
    fn insert(&mut self, rule: PdrRule);

    /// Removes a rule by id. Returns the rule if it was present.
    fn remove(&mut self, id: RuleId) -> Option<PdrRule>;

    /// Finds the highest-priority matching rule.
    fn lookup(&self, key: &PacketKey) -> Option<&PdrRule>;

    /// Number of rules currently installed.
    fn len(&self) -> usize;

    /// True if no rules are installed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_ranges() {
        let r = FieldRange::prefix(0xc0a8_0100, 24); // 192.168.1.0/24
        assert_eq!(r.lo, 0xc0a8_0100);
        assert_eq!(r.hi, 0xc0a8_01ff);
        assert!(r.contains(0xc0a8_0180));
        assert!(!r.contains(0xc0a8_0200));
        assert_eq!(FieldRange::prefix(0x1234, 0), FieldRange::ANY);
        assert_eq!(FieldRange::prefix(0x1234, 32), FieldRange::exact(0x1234));
    }

    #[test]
    fn effective_prefix_len() {
        assert_eq!(FieldRange::ANY.effective_prefix_len(), 0);
        assert_eq!(FieldRange::exact(7).effective_prefix_len(), 32);
        assert_eq!(FieldRange::prefix(0xff00_0000, 8).effective_prefix_len(), 8);
        // Non-prefix range [4,7] has common prefix 30 bits.
        assert_eq!(FieldRange { lo: 4, hi: 7 }.effective_prefix_len(), 30);
    }

    #[test]
    fn overlap_detection() {
        let a = FieldRange { lo: 10, hi: 20 };
        let b = FieldRange { lo: 20, hi: 30 };
        let c = FieldRange { lo: 21, hi: 30 };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(FieldRange::ANY.overlaps(&a));
    }

    #[test]
    fn rule_matching() {
        let rule = PdrRule::any(1, 100)
            .with(Field::DstIp, FieldRange::prefix(0x0a3c_0000, 16))
            .with(Field::DstPort, FieldRange::exact(443))
            .with(Field::Protocol, FieldRange::exact(6));
        let hit = PacketKey::default()
            .with(Field::DstIp, 0x0a3c_0001)
            .with(Field::DstPort, 443)
            .with(Field::Protocol, 6);
        let miss = hit.with(Field::DstPort, 80);
        assert!(rule.matches(&hit));
        assert!(!rule.matches(&miss));
    }

    #[test]
    fn priority_ordering() {
        let a = PdrRule::any(1, 10);
        let b = PdrRule::any(2, 10);
        let c = PdrRule::any(3, 5);
        assert!(a.beats(&b)); // same precedence: lower id wins
        assert!(c.beats(&a)); // lower precedence value wins
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", FieldRange::ANY), "*");
        assert_eq!(format!("{}", FieldRange::exact(9)), "9");
        assert_eq!(format!("{}", FieldRange { lo: 1, hi: 3 }), "1..=3");
    }
}
