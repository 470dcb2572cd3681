//! Traffic generation and measurement (the MoonGen role in the paper's
//! testbed): constant-bit-rate flows with per-packet RTT tracking.
//!
//! For the paging and handover experiments (Figs 13/14, Tables 1/2) the
//! generator on the DN side sends downlink packets at a fixed rate; the
//! UE side acknowledges each packet, and the generator records the RTT
//! "of packets sent from and ack'd back to the generator".

use l25gc_core::msg::{DataPacket, Direction, UeId};
use l25gc_sim::{SimDuration, SimTime, Stats, TimeSeries};

/// A constant-rate downlink flow source with RTT accounting.
#[derive(Debug)]
pub struct CbrFlow {
    /// Target UE.
    pub ue: UeId,
    /// Flow id.
    pub flow: u32,
    /// Packet payload size.
    pub(crate) size: usize,
    /// Inter-packet gap (1/rate).
    pub interval: SimDuration,
    /// Direction of the data stream.
    pub(crate) dir: Direction,
    next_seq: u64,
    /// Send time per outstanding sequence number.
    outstanding: Vec<(u64, SimTime)>,
    /// Recorded RTTs (µs), one sample per acked packet.
    pub rtt: TimeSeries,
    /// Packets sent.
    pub sent: u64,
    /// Acks received.
    pub acked: u64,
}

impl CbrFlow {
    /// A flow sending `pps` packets per second of `size` bytes.
    pub fn downlink(ue: UeId, flow: u32, pps: u64, size: usize) -> CbrFlow {
        CbrFlow {
            ue,
            flow,
            size,
            interval: SimDuration::from_secs(1) / pps,
            dir: Direction::Downlink,
            next_seq: 0,
            outstanding: Vec::new(),
            rtt: TimeSeries::new(),
            sent: 0,
            acked: 0,
        }
    }

    /// Emits the next packet; the caller schedules the following emission
    /// `interval` later.
    pub fn next_packet(&mut self, now: SimTime) -> DataPacket {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent += 1;
        self.outstanding.push((seq, now));
        DataPacket {
            ue: self.ue,
            flow: self.flow,
            dir: self.dir,
            seq,
            size: self.size,
            sent_at: now,
            dst_port: 5001,
            protocol: 17,
            tunnel_teid: None,
            ack_seq: None,
        }
    }

    /// Processes an ack (echoed packet), recording its RTT.
    pub fn on_ack(&mut self, seq: u64, now: SimTime) {
        if let Some(pos) = self.outstanding.iter().position(|&(s, _)| s == seq) {
            let (_, sent_at) = self.outstanding.swap_remove(pos);
            self.acked += 1;
            self.rtt.record_dur(now, now.duration_since(sent_at));
        }
    }

    /// Packets never acknowledged (lost somewhere on the path).
    pub fn lost(&self) -> u64 {
        self.sent - self.acked
    }

    /// RTT summary statistics (µs).
    pub fn rtt_stats(&self) -> Stats {
        self.rtt.stats()
    }

    /// Packets whose RTT exceeded `threshold` — the Tables 1/2 "# Pkts
    /// experience higher RTT" column (threshold = a small multiple of the
    /// base RTT).
    pub fn pkts_above(&self, threshold: SimDuration) -> usize {
        self.rtt.count_above(threshold.as_micros_f64())
    }

    /// Mean RTT over a time window (µs) — used to read "base RTT" before
    /// an event and "RTT after" it.
    pub fn mean_rtt_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        self.rtt.mean_in_window(from, to)
    }

    /// The maximum observed RTT (µs).
    pub fn max_rtt(&self) -> Option<f64> {
        self.rtt.max()
    }
}

/// The UE-side echo: turns a delivered packet into an ack traveling back.
pub fn echo(pkt: &DataPacket, now: SimTime) -> DataPacket {
    DataPacket {
        dir: match pkt.dir {
            Direction::Downlink => Direction::Uplink,
            Direction::Uplink => Direction::Downlink,
        },
        size: 64,
        sent_at: now,
        tunnel_teid: None,
        ack_seq: Some(pkt.seq),
        ..*pkt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_spacing_and_seq() {
        let mut f = CbrFlow::downlink(1, 0, 10_000, 200);
        assert_eq!(f.interval, SimDuration::from_micros(100));
        let p0 = f.next_packet(SimTime::ZERO);
        let p1 = f.next_packet(SimTime::ZERO + f.interval);
        assert_eq!(p0.seq, 0);
        assert_eq!(p1.seq, 1);
        assert_eq!(f.sent, 2);
    }

    #[test]
    fn rtt_accounting() {
        let mut f = CbrFlow::downlink(1, 0, 1000, 100);
        let t0 = SimTime::ZERO;
        let p = f.next_packet(t0);
        let ack_time = t0 + SimDuration::from_micros(116);
        f.on_ack(p.seq, ack_time);
        assert_eq!(f.acked, 1);
        assert_eq!(f.lost(), 0);
        let stats = f.rtt_stats();
        assert!((stats.mean - 116.0).abs() < 1e-9);
    }

    #[test]
    fn lost_packets_counted() {
        let mut f = CbrFlow::downlink(1, 0, 1000, 100);
        for i in 0..10 {
            f.next_packet(SimTime::ZERO + f.interval * i);
        }
        for seq in 0..7u64 {
            f.on_ack(seq, SimTime::ZERO + SimDuration::from_millis(1));
        }
        assert_eq!(f.lost(), 3);
        // Acking an unknown seq is a no-op.
        f.on_ack(999, SimTime::ZERO);
        assert_eq!(f.acked, 7);
    }

    #[test]
    fn higher_rtt_counting() {
        let mut f = CbrFlow::downlink(1, 0, 1000, 100);
        for i in 0..5u64 {
            let p = f.next_packet(SimTime::ZERO);
            let rtt = if i < 2 { 100 } else { 50_000 };
            f.on_ack(p.seq, SimTime::ZERO + SimDuration::from_micros(rtt));
        }
        assert_eq!(f.pkts_above(SimDuration::from_micros(1000)), 3);
    }

    #[test]
    fn echo_reverses_direction() {
        let mut f = CbrFlow::downlink(1, 0, 1000, 100);
        let p = f.next_packet(SimTime::ZERO);
        let e = echo(&p, SimTime::ZERO + SimDuration::from_micros(10));
        assert_eq!(e.dir, Direction::Uplink);
        assert_eq!(e.ack_seq, Some(p.seq));
    }
}
