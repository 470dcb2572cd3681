//! QoS Enforcement Rules (QER): per-flow rate enforcement at the UPF.
//!
//! Table 3 binds every PDR to a QER id; the paper's packet-oriented 5GC
//! (§2.3 Challenge 3) applies QoS "at the granularity of subflows". This
//! module implements the enforcement half: a token-bucket MBR policer per
//! QER, driven by the virtual clock. Guaranteed-bit-rate accounting is
//! the same bucket read the other way (tokens always available ⇒ the GBR
//! was honoured).

use l25gc_sim::SimTime;

/// One QoS Enforcement Rule: an MBR token bucket.
#[derive(Debug, Clone)]
pub struct Qer {
    /// Rule id (session-scoped, referenced by PDRs).
    pub(crate) qer_id: u32,
    /// Maximum bit rate, bits per second. `None` = unlimited.
    pub(crate) mbr_bps: Option<f64>,
    /// Bucket depth in bits (burst tolerance).
    pub(crate) burst_bits: f64,
    tokens: f64,
    last_refill: SimTime,
    /// Packets passed.
    pub passed: u64,
    /// Packets dropped by the policer.
    pub dropped: u64,
}

impl Qer {
    /// An unlimited QER (the default QFI-9 best-effort flow).
    pub(crate) fn unlimited(qer_id: u32) -> Qer {
        Qer {
            qer_id,
            mbr_bps: None,
            burst_bits: 0.0,
            tokens: 0.0,
            last_refill: SimTime::ZERO,
            passed: 0,
            dropped: 0,
        }
    }

    /// A rate-limited QER with the given MBR and burst (in bits).
    pub(crate) fn with_mbr(qer_id: u32, mbr_bps: f64, burst_bits: f64) -> Qer {
        assert!(mbr_bps > 0.0 && burst_bits > 0.0);
        Qer {
            qer_id,
            mbr_bps: Some(mbr_bps),
            burst_bits,
            tokens: burst_bits, // start full
            last_refill: SimTime::ZERO,
            passed: 0,
            dropped: 0,
        }
    }

    /// Polices one packet of `size` bytes at virtual time `now`.
    /// Returns true if the packet conforms (forward) or false (drop).
    pub(crate) fn police(&mut self, now: SimTime, size: usize) -> bool {
        let Some(rate) = self.mbr_bps else {
            self.passed += 1;
            return true;
        };
        // Refill.
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed * rate).min(self.burst_bits);
        let need = size as f64 * 8.0;
        if self.tokens >= need {
            self.tokens -= need;
            self.passed += 1;
            true
        } else {
            self.dropped += 1;
            false
        }
    }

    /// Current bucket level in bits (for tests/diagnostics).
    #[cfg(test)]
    pub(crate) fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// The per-session QER table: a session holds one to a few QERs, so a
/// flat `Vec` scanned by id beats a hash table — one allocation, no
/// hashing, and every QER on the cache line the scan already loaded.
#[derive(Debug, Clone, Default)]
pub struct QerTable {
    qers: Vec<Qer>,
}

impl QerTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) a QER.
    pub(crate) fn install(&mut self, qer: Qer) {
        match self.qers.iter_mut().find(|q| q.qer_id == qer.qer_id) {
            Some(slot) => *slot = qer,
            None => self.qers.push(qer),
        }
    }

    /// Polices a packet against every referenced QER; all must pass.
    /// Unknown ids pass (a PDR may reference a QER provisioned later; the
    /// permissive default mirrors free5GC).
    pub fn police(&mut self, qer_ids: &[u32], now: SimTime, size: usize) -> bool {
        qer_ids
            .iter()
            .all(|&id| match self.qers.iter_mut().find(|q| q.qer_id == id) {
                Some(q) => q.police(now, size),
                None => true,
            })
    }

    /// Reads a QER.
    pub fn get(&self, id: u32) -> Option<&Qer> {
        self.qers.iter().find(|q| q.qer_id == id)
    }

    /// Number of installed QERs.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.qers.len()
    }

    /// True if no QERs are installed.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.qers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l25gc_sim::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn unlimited_passes_everything() {
        let mut q = Qer::unlimited(1);
        for i in 0..1000 {
            assert!(q.police(at(i), 1500));
        }
        assert_eq!(q.passed, 1000);
        assert_eq!(q.dropped, 0);
    }

    #[test]
    fn mbr_enforces_long_term_rate() {
        // 1 Mbps MBR, 10 kbit burst; offer 10 Mbps for one second.
        let mut q = Qer::with_mbr(1, 1e6, 10_000.0);
        let pkt = 1250; // 10 kbit per packet
        let mut passed = 0;
        for i in 0..1000 {
            // 1 ms apart ⇒ 10 Mbps offered load.
            if q.police(at(i), pkt) {
                passed += 1;
            }
        }
        // 1 Mbps over 1 s = 1 Mbit = 100 packets (+ the initial burst).
        assert!((95..=110).contains(&passed), "passed {passed}");
        assert!(q.dropped > 800);
    }

    #[test]
    fn bucket_refills_after_idle() {
        let mut q = Qer::with_mbr(1, 1e6, 12_000.0);
        // Drain the bucket.
        assert!(q.police(at(0), 1500));
        assert!(
            !q.police(at(0), 1500),
            "second back-to-back MTU exceeds burst"
        );
        // After 100 ms, 100 kbit accrued (capped at burst): passes again.
        assert!(q.police(at(100), 1500));
    }

    #[test]
    fn burst_tolerance_caps_tokens() {
        let mut q = Qer::with_mbr(1, 1e9, 24_000.0);
        // Long idle cannot exceed the bucket depth: exactly 2 MTU pass.
        q.police(at(1000), 1500);
        q.police(at(1000), 1500);
        assert!(!q.police(at(1000), 1500));
    }

    #[test]
    fn table_requires_all_referenced_qers_to_pass() {
        let mut t = QerTable::new();
        t.install(Qer::unlimited(1));
        t.install(Qer::with_mbr(2, 1e6, 8_000.0));
        assert!(t.police(&[1, 2], at(0), 1000));
        // QER 2's bucket is empty now for another full packet.
        assert!(!t.police(&[1, 2], at(0), 1000));
        // Unreferenced or unknown QERs don't block.
        assert!(t.police(&[1], at(0), 1000));
        assert!(t.police(&[99], at(0), 1000));
        assert_eq!(t.len(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use l25gc_sim::{SimDuration, SimTime};
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        /// Long-run conservation: however the offered load is spaced, a
        /// policer never passes more than burst + rate×time bits, and
        /// passes at least that minus one packet's worth when the offered
        /// load exceeds the rate throughout.
        #[test]
        fn token_bucket_conserves_rate(
            mbr_mbps in 1u32..50,
            pkt in 200usize..1500,
            gaps_us in proptest::collection::vec(1u64..2_000, 10..200),
        ) {
            let rate = f64::from(mbr_mbps) * 1e6;
            let burst = rate * 0.05; // 50 ms bucket
            let mut q = Qer::with_mbr(1, rate, burst);
            let mut now = SimTime::ZERO;
            let mut passed_bits = 0.0f64;
            for gap in &gaps_us {
                now += SimDuration::from_micros(*gap);
                if q.police(now, pkt) {
                    passed_bits += pkt as f64 * 8.0;
                }
            }
            let elapsed = now.as_secs_f64();
            let ceiling = burst + rate * elapsed + pkt as f64 * 8.0;
            prop_assert!(
                passed_bits <= ceiling,
                "passed {passed_bits} bits > ceiling {ceiling}"
            );
            prop_assert_eq!(q.passed + q.dropped, gaps_us.len() as u64);
        }

        /// Offered load below the MBR never drops.
        #[test]
        fn conforming_traffic_never_drops(mbr_mbps in 5u32..100) {
            let rate = f64::from(mbr_mbps) * 1e6;
            let mut q = Qer::with_mbr(1, rate, rate * 0.1);
            // Send at half the MBR: packet of 1250 B every interval that
            // carries 10 kbit at rate/2.
            let pkt = 1250usize;
            let interval = SimDuration::from_secs_f64(pkt as f64 * 8.0 / (rate / 2.0));
            let mut now = SimTime::ZERO;
            for _ in 0..500 {
                now += interval;
                prop_assert!(q.police(now, pkt), "conforming packet dropped");
            }
            prop_assert_eq!(q.dropped, 0);
        }

        /// The flat table behaves as a `HashMap<u32, Qer>` keyed by id:
        /// `install` replaces, `police` is an in-order `all` in which
        /// unknown ids pass, and `get` / `len` read the same state.
        #[test]
        fn table_matches_a_hash_map_model(
            ops in proptest::collection::vec(
                (any::<bool>(), 0u32..6, 0u32..4, proptest::collection::vec(0u32..8, 0..4), 1u64..3_000, 40usize..1500),
                1..120,
            ),
        ) {
            let mut table = QerTable::new();
            let mut model: HashMap<u32, Qer> = HashMap::new();
            let mut now = SimTime::ZERO;
            for (install, id, kind, ids, gap_us, size) in ops {
                now += SimDuration::from_micros(gap_us);
                if install {
                    // Ids 0..6 against references 0..8: replaced and
                    // unknown ids both occur.
                    let qer = match kind {
                        0 => Qer::unlimited(id),
                        k => Qer::with_mbr(id, f64::from(k) * 1e5, f64::from(k) * 1e4),
                    };
                    table.install(qer.clone());
                    model.insert(id, qer);
                } else {
                    let want = ids.iter().all(|id| model.get_mut(id).is_none_or(|q| q.police(now, size)));
                    prop_assert_eq!(table.police(&ids, now, size), want);
                }
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.is_empty(), model.is_empty());
                for id in 0..8 {
                    let got = table.get(id).map(|q| (q.passed, q.dropped, q.tokens().to_bits()));
                    let want = model.get(&id).map(|q| (q.passed, q.dropped, q.tokens().to_bits()));
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
