//! IPv4 addresses: UE IPs, gNB and UPF N3 addresses and PDR match keys.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_u32_roundtrip() {
        let a = Ipv4Addr::new(192, 168, 1, 77);
        assert_eq!(Ipv4Addr::from_u32(a.to_u32()), a);
        assert_eq!(format!("{a}"), "192.168.1.77");
    }
}
