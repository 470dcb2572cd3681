//! Seeded input generators. Every workload's inputs are a pure function
//! of `--seed`; the system under test only ever sees the generated
//! values, never the seed.

/// xorshift64* — small, fast, and good enough to pick sessions and
/// ports uniformly.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// A generator for `seed` (any value; zero is remapped).
    pub fn new(seed: u64) -> XorShift {
        // splitmix64 of the seed, so neighbouring seeds diverge at once.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        XorShift(if z == 0 { 0x2545_f491_4f6c_dd1d } else { z })
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2^-32 for n < 2^32).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u32 + 1) as usize);
        }
    }
}

/// Ports a generated packet may carry: 14 that hit a pinhole PDR and 2
/// that fall through to the session's base PDR.
pub const PORTS: u32 = 16;
/// How many of [`PORTS`] have a pinhole.
pub const PINHOLES: u32 = 14;

/// One generated packet, packed: session index, direction, port index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSpec(u32);

impl PacketSpec {
    fn new(session: u32, uplink: bool, port: u32) -> PacketSpec {
        debug_assert!(session < 1 << 16 && port < PORTS);
        PacketSpec(session | (u32::from(uplink) << 16) | (port << 17))
    }

    /// Index of the session the packet belongs to.
    pub fn session(self) -> u32 {
        self.0 & 0xffff
    }

    /// Uplink (from the gNB, in a tunnel) or downlink (from the DN).
    pub fn uplink(self) -> bool {
        self.0 & (1 << 16) != 0
    }

    /// Port index in `0..PORTS`; below [`PINHOLES`] it has a pinhole.
    pub fn port(self) -> u32 {
        self.0 >> 17
    }

    /// Ordinal of the PDR that must match, in the order the session's
    /// PDRs were created: 0 = UL base, 1 = DL base, 2.. = pinholes.
    pub fn expected_pdr(self) -> usize {
        if self.port() < PINHOLES {
            2 + self.port() as usize
        } else if self.uplink() {
            0
        } else {
            1
        }
    }
}

/// `n` packets over `sessions` sessions: session uniform, direction
/// 50/50, port uniform over the 16.
pub fn packets(seed: u64, sessions: u32, n: usize) -> Vec<PacketSpec> {
    let mut rng = XorShift::new(seed);
    (0..n)
        .map(|_| {
            let session = rng.below(sessions);
            let r = rng.next_u64();
            PacketSpec::new(session, r & 1 != 0, ((r >> 1) as u32) % PORTS)
        })
        .collect()
}

/// How many of `pkts` must match each of the 16 PDR ordinals.
pub fn expected_pdr_histogram(pkts: &[PacketSpec]) -> [u64; 16] {
    let mut h = [0u64; 16];
    for p in pkts {
        h[p.expected_pdr()] += 1;
    }
    h
}

/// The order in which `cp_lifecycle` walks its UEs in each phase: a
/// seeded permutation of `1..=ues`.
pub fn ue_order(seed: u64, ues: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (1..=ues).collect();
    XorShift::new(seed).shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_are_a_function_of_the_seed() {
        let a = packets(7, 10_000, 50_000);
        assert_eq!(a, packets(7, 10_000, 50_000));
        assert_ne!(a, packets(11, 10_000, 50_000));
        assert_ne!(packets(0, 10_000, 100), packets(1, 10_000, 100));
    }

    #[test]
    fn packets_cover_sessions_directions_and_ports_evenly() {
        let pkts = packets(7, 1_000, 400_000);
        assert!(pkts.iter().all(|p| p.session() < 1_000 && p.port() < PORTS));
        let ul = pkts.iter().filter(|p| p.uplink()).count() as f64;
        assert!((ul / pkts.len() as f64 - 0.5).abs() < 0.01);
        let mut per_session = vec![0u32; 1_000];
        for p in &pkts {
            per_session[p.session() as usize] += 1;
        }
        assert!(per_session.iter().all(|&c| (300..500).contains(&c)));
        let h = expected_pdr_histogram(&pkts);
        assert_eq!(h.iter().sum::<u64>(), pkts.len() as u64);
        // 1/16 of packets per pinhole; each base PDR takes 1/16 too.
        for (i, &c) in h.iter().enumerate() {
            let share = c as f64 / pkts.len() as f64;
            assert!((share - 1.0 / 16.0).abs() < 0.005, "pdr {i}: {share}");
        }
    }

    #[test]
    fn spec_round_trips_and_names_its_pdr() {
        let p = PacketSpec::new(9_999, true, 15);
        assert_eq!((p.session(), p.uplink(), p.port()), (9_999, true, 15));
        assert_eq!(p.expected_pdr(), 0);
        assert_eq!(PacketSpec::new(0, false, 14).expected_pdr(), 1);
        assert_eq!(PacketSpec::new(0, false, 0).expected_pdr(), 2);
        assert_eq!(PacketSpec::new(0, true, 13).expected_pdr(), 15);
    }

    #[test]
    fn ue_order_is_a_seeded_permutation() {
        let a = ue_order(7, 1_000);
        assert_eq!(a, ue_order(7, 1_000));
        assert_ne!(a, ue_order(11, 1_000));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=1_000).collect::<Vec<u64>>());
    }
}
