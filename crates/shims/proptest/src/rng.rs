//! Internal deterministic RNG for value generation (xoshiro256++).

/// The generator threaded through strategies by the `proptest!` runner.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TestRng {
    /// A generator whose stream is fully determined by `seed`.
    pub fn new(seed: u64) -> TestRng {
        let mut sm = seed;
        TestRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform `u128`-widened draw in `[lo, hi]` (inclusive), as `u128`.
    pub(crate) fn in_range_u128(&mut self, lo: u128, hi: u128) -> u128 {
        debug_assert!(lo <= hi);
        let span = hi - lo + 1;
        if span == 0 {
            // Full 128-bit range; compose two words.
            return (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64());
        }
        lo + (u128::from(self.next_u64()) % span)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }
}
