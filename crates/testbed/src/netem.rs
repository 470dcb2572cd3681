//! Network emulation on the N6 (DN ↔ UPF) link: bottleneck rate shaping
//! and added propagation delay — the `tc`/netem role in the paper's
//! testbed ("we set the aggregate bottleneck bandwidth as 30Mbps and
//! round-trip delay (RTT) of 20ms").

use l25gc_sim::{SimDuration, SimTime};

/// A rate-limited, delay-added link direction.
#[derive(Debug, Clone)]
pub(crate) struct Shaper {
    /// Link rate in bits per second (`None` = unshaped).
    pub(crate) rate_bps: Option<f64>,
    /// One-way propagation delay.
    pub(crate) prop: SimDuration,
    /// Queue limit in packets; beyond this, packets drop (`None` =
    /// unbounded).
    pub(crate) queue_pkts: Option<usize>,
    busy_until: SimTime,
}

impl Shaper {
    /// An unshaped direction (zero delay, infinite rate).
    pub(crate) fn unshaped() -> Shaper {
        Shaper {
            rate_bps: None,
            prop: SimDuration::ZERO,
            queue_pkts: None,
            busy_until: SimTime::ZERO,
        }
    }

    /// A shaped direction.
    pub(crate) fn new(rate_bps: f64, prop: SimDuration, queue_pkts: Option<usize>) -> Shaper {
        Shaper {
            rate_bps: Some(rate_bps),
            prop,
            queue_pkts,
            busy_until: SimTime::ZERO,
        }
    }

    /// Computes the transit delay for a packet of `size` bytes arriving
    /// now, updating the queue state. `None` means the queue overflowed
    /// and the packet drops.
    pub(crate) fn transit(&mut self, now: SimTime, size: usize) -> Option<SimDuration> {
        match self.rate_bps {
            None => Some(self.prop),
            Some(rate) => {
                let ser = SimDuration::from_secs_f64(size as f64 * 8.0 / rate);
                // Queue occupancy in packets ≈ backlog time / one MTU time.
                if let Some(limit) = self.queue_pkts {
                    let backlog = self.busy_until.duration_since(now);
                    let per_pkt = SimDuration::from_secs_f64(1500.0 * 8.0 / rate);
                    let occupancy = (backlog.as_secs_f64() / per_pkt.as_secs_f64()) as usize;
                    if occupancy >= limit {
                        return None;
                    }
                }
                let start = self.busy_until.max(now);
                self.busy_until = start + ser;
                Some(self.busy_until.duration_since(now) + self.prop)
            }
        }
    }
}

/// Both directions of the N6 link.
#[derive(Debug, Clone)]
pub struct NetEm {
    /// DN → UPF (downlink toward UEs).
    pub(crate) dl: Shaper,
    /// UPF → DN (uplink/acks).
    pub(crate) ul: Shaper,
}

impl NetEm {
    /// No shaping at all (the data-plane microbenchmarks).
    pub(crate) fn off() -> NetEm {
        NetEm {
            dl: Shaper::unshaped(),
            ul: Shaper::unshaped(),
        }
    }

    /// The §5.4.1 web experiment: 30 Mbps bottleneck, 20 ms RTT. The
    /// queue is sized like a shaped operator link (~240 ms worth), so
    /// six parallel connections can ramp without a synchronized loss
    /// collapse at startup.
    pub(crate) fn web_30mbps_20ms() -> NetEm {
        let prop = SimDuration::from_millis(10);
        NetEm {
            dl: Shaper::new(30e6, prop, Some(600)),
            ul: Shaper::new(30e6, prop, None),
        }
    }

    /// The Appendix C experiment: 100 Mbps bottleneck, 50 ms RTT.
    pub(crate) fn appendix_100mbps_50ms() -> NetEm {
        let prop = SimDuration::from_millis(25);
        NetEm {
            dl: Shaper::new(100e6, prop, Some(1000)),
            ul: Shaper::new(100e6, prop, None),
        }
    }

    /// The §5.5 failover experiment: 30 Mbps toward a single UE.
    pub fn failover_30mbps() -> NetEm {
        let prop = SimDuration::from_millis(5);
        NetEm {
            dl: Shaper::new(30e6, prop, Some(300)),
            ul: Shaper::new(30e6, prop, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unshaped_is_instant() {
        let mut s = Shaper::unshaped();
        assert_eq!(s.transit(SimTime::ZERO, 1500), Some(SimDuration::ZERO));
    }

    #[test]
    fn serialization_delay_accumulates_under_load() {
        // 30 Mbps, 1500 B packets: 400 µs each on the wire.
        let mut s = Shaper::new(30e6, SimDuration::ZERO, None);
        let d1 = s.transit(SimTime::ZERO, 1500).unwrap();
        let d2 = s.transit(SimTime::ZERO, 1500).unwrap();
        let d3 = s.transit(SimTime::ZERO, 1500).unwrap();
        assert!((d1.as_micros_f64() - 400.0).abs() < 1.0);
        assert!((d2.as_micros_f64() - 800.0).abs() < 1.0);
        assert!((d3.as_micros_f64() - 1200.0).abs() < 1.0);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut s = Shaper::new(30e6, SimDuration::ZERO, None);
        s.transit(SimTime::ZERO, 1500);
        // Arrive after the first packet fully serialized: no queueing.
        let later = SimTime::ZERO + SimDuration::from_millis(1);
        let d = s.transit(later, 1500).unwrap();
        assert!((d.as_micros_f64() - 400.0).abs() < 1.0);
    }

    #[test]
    fn propagation_added() {
        let mut s = Shaper::new(30e6, SimDuration::from_millis(10), None);
        let d = s.transit(SimTime::ZERO, 1500).unwrap();
        assert!(d >= SimDuration::from_millis(10));
    }

    #[test]
    fn bounded_queue_drops() {
        let mut s = Shaper::new(30e6, SimDuration::ZERO, Some(3));
        let mut drops = 0;
        for _ in 0..10 {
            if s.transit(SimTime::ZERO, 1500).is_none() {
                drops += 1;
            }
        }
        assert!(drops > 0, "overflow must drop");
    }

    #[test]
    fn rtt_configuration_reaches_20ms() {
        let mut ne = NetEm::web_30mbps_20ms();
        let dl = ne.dl.transit(SimTime::ZERO, 1500).unwrap();
        let ul = ne.ul.transit(SimTime::ZERO, 40).unwrap();
        let rtt = (dl + ul).as_millis_f64();
        assert!(
            (20.0..22.0).contains(&rtt),
            "configured RTT ≈ 20 ms, got {rtt}"
        );
    }
}
