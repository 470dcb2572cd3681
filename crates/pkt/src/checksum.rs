//! RFC 1071 Internet checksum, used by IPv4, UDP and TCP.

/// One's-complement sum over `data`, folded to 16 bits, starting from
/// `initial` (an already-folded partial sum, e.g. over a pseudo-header).
pub(crate) fn sum(initial: u32, data: &[u8]) -> u32 {
    let mut acc = initial;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        acc += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        acc += u32::from(u16::from_be_bytes([*last, 0]));
    }
    acc
}

/// Folds a 32-bit accumulator into a final 16-bit checksum value.
pub(crate) fn finish(mut acc: u32) -> u16 {
    while acc > 0xffff {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    !(acc as u16)
}

/// Computes the checksum of `data` directly.
pub(crate) fn checksum(data: &[u8]) -> u16 {
    finish(sum(0, data))
}

/// Partial sum of the IPv4 pseudo-header used by UDP and TCP.
pub(crate) fn pseudo_header_v4(src: [u8; 4], dst: [u8; 4], protocol: u8, length: u16) -> u32 {
    let mut acc = 0u32;
    acc += u32::from(u16::from_be_bytes([src[0], src[1]]));
    acc += u32::from(u16::from_be_bytes([src[2], src[3]]));
    acc += u32::from(u16::from_be_bytes([dst[0], dst[1]]));
    acc += u32::from(u16::from_be_bytes([dst[2], dst[3]]));
    acc += u32::from(protocol);
    acc += u32::from(length);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Example from RFC 1071 §3: {0x0001, 0xf203, 0xf4f5, 0xf6f7}.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), finish(sum(0, &[0xab, 0x00])));
    }

    #[test]
    fn verifying_a_packet_including_its_checksum_yields_zero() {
        let mut data = vec![
            0x45, 0x00, 0x00, 0x1c, 0x00, 0x00, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        let c = checksum(&data);
        data[10..12].copy_from_slice(&c.to_be_bytes());
        assert_eq!(checksum(&data), 0);
    }

    #[test]
    fn empty_checksum_is_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }
}
