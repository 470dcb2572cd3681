//! A Reno-style TCP sender/receiver model for the QoE experiments.
//!
//! The paper's §5.4/§5.5/Appendix C results hinge on one mechanism: a
//! handover or failover stalls the downlink longer than Linux's minimum
//! retransmission timeout (200 ms), so senders time out *spuriously*,
//! retransmit data that was merely buffered, and collapse their
//! congestion windows — degrading goodput and page-load time. This model
//! reproduces exactly that machinery:
//!
//! - slow start / congestion avoidance / fast retransmit on 3 dup-acks,
//! - an RTO timer with SRTT/RTTVAR estimation clamped to `MIN_RTO`
//!   (200 ms, the Linux default the paper cites),
//! - cwnd collapse to 1 MSS on timeout, ssthresh halving,
//! - spurious-retransmission accounting (a retransmission is spurious if
//!   the original was not actually lost).
//!
//! The model is transport-only and segment-granular (one [`DataPacket`]
//! = one MSS): the driver delivers packets/acks with whatever delays the
//! simulated network imposes and calls [`TcpSender::on_ack`] /
//! [`TcpSender::on_tick`]. No wire-level TCP headers are involved.

use l25gc_core::msg::{DataPacket, Direction, UeId};
use l25gc_sim::{SimDuration, SimTime};

/// Linux's default minimum retransmission timeout.
pub(crate) const MIN_RTO: SimDuration = SimDuration::from_millis(200);
/// Maximum segment size used by the experiments (MTU-sized frames).
pub const MSS: usize = 1400;
/// ACK segment size on the wire.
pub(crate) const ACK_SIZE: usize = 40;

/// The sending side of one TCP connection (lives at the data network,
/// streaming downlink toward a UE — the paper's DL-dominant workloads).
#[derive(Debug)]
pub struct TcpSender {
    /// UE this connection serves.
    pub(crate) ue: UeId,
    /// Flow id distinguishing parallel connections.
    pub flow: u32,
    /// Total segments the application wants to send; `u64::MAX` for an
    /// unbounded (flent-style) stream.
    pub(crate) total_segments: u64,

    next_seq: u64,
    /// Highest sequence ever sent (for marking rewound sends as
    /// retransmissions).
    max_seq_sent: u64,
    highest_acked: u64,
    /// Fast-recovery exit point (snapshot of `next_seq` at entry).
    recovery_seq: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    in_fast_recovery: bool,

    srtt: Option<SimDuration>,
    min_rtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    /// When the RTO timer fires (None = no outstanding data).
    rto_deadline: Option<SimTime>,
    /// Send times of in-flight segments for RTT sampling + spurious
    /// detection: (seq, sent_at, retransmitted).
    sent: Vec<(u64, SimTime, bool)>,

    /// Retransmissions performed.
    pub retransmissions: u64,
    /// Retransmissions that later proved spurious (the original arrived).
    pub spurious_retransmissions: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// The largest RTT sample so far (µs).
    pub max_rtt_us: Option<f64>,
}

impl TcpSender {
    /// A sender with `total_bytes` of application data (rounded up to
    /// whole segments), or unbounded when `None`.
    pub fn new(ue: UeId, flow: u32, total_bytes: Option<u64>) -> TcpSender {
        let total_segments = total_bytes
            .map(|b| b.div_ceil(MSS as u64))
            .unwrap_or(u64::MAX);
        TcpSender {
            ue,
            flow,
            total_segments,
            next_seq: 0,
            max_seq_sent: 0,
            highest_acked: 0,
            recovery_seq: 0,
            cwnd: 10.0, // RFC 6928 initial window
            ssthresh: f64::INFINITY,
            dup_acks: 0,
            in_fast_recovery: false,
            srtt: None,
            min_rtt: None,
            rttvar: SimDuration::ZERO,
            rto: MIN_RTO,
            rto_deadline: None,
            sent: Vec::new(),
            retransmissions: 0,
            spurious_retransmissions: 0,
            timeouts: 0,
            max_rtt_us: None,
        }
    }

    /// Segments acknowledged so far.
    pub fn acked_segments(&self) -> u64 {
        self.highest_acked
    }

    /// Bytes acknowledged so far.
    #[cfg(test)]
    pub(crate) fn acked_bytes(&self) -> u64 {
        self.highest_acked * MSS as u64
    }

    /// True when the whole transfer is acknowledged.
    pub fn is_complete(&self) -> bool {
        self.total_segments != u64::MAX && self.highest_acked >= self.total_segments
    }

    /// Current congestion window in segments.
    #[cfg(test)]
    pub(crate) fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Current RTO value.
    #[cfg(test)]
    pub(crate) fn rto(&self) -> SimDuration {
        self.rto
    }

    /// When the engine must next call [`TcpSender::on_tick`].
    pub fn next_timeout(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    fn in_flight(&self) -> u64 {
        self.next_seq - self.highest_acked
    }

    /// Emits as many new segments as cwnd allows. Call after `new`, after
    /// every `on_ack`, and after every `on_tick`. After an RTO rewind the
    /// same window re-covers previously sent sequences; those are marked
    /// retransmissions (go-back-N) and excluded from RTT sampling (Karn).
    pub fn pump(&mut self, now: SimTime) -> Vec<DataPacket> {
        let mut out = Vec::new();
        while (self.in_flight() as f64) < self.cwnd && self.next_seq < self.total_segments {
            let seq = self.next_seq;
            self.next_seq += 1;
            let is_retx = seq < self.max_seq_sent;
            if is_retx {
                self.retransmissions += 1;
            }
            self.max_seq_sent = self.max_seq_sent.max(self.next_seq);
            self.record_sent(seq, now, is_retx);
            out.push(self.segment(seq, now));
        }
        if !out.is_empty() && self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
        out
    }

    fn record_sent(&mut self, seq: u64, now: SimTime, retx: bool) {
        if let Some(e) = self.sent.iter_mut().find(|e| e.0 == seq) {
            e.1 = now;
            e.2 = e.2 || retx;
        } else {
            self.sent.push((seq, now, retx));
        }
    }

    fn segment(&self, seq: u64, now: SimTime) -> DataPacket {
        DataPacket {
            ue: self.ue,
            flow: self.flow,
            dir: Direction::Downlink,
            seq,
            size: MSS,
            sent_at: now,
            dst_port: 443,
            protocol: 6,
            tunnel_teid: None,
            ack_seq: None,
        }
    }

    /// Processes a cumulative ACK (`ack` = next expected seq). Returns
    /// retransmissions to send immediately (fast retransmit).
    pub fn on_ack(&mut self, ack: u64, now: SimTime) -> Vec<DataPacket> {
        let mut out = Vec::new();
        if ack > self.highest_acked {
            // New data acked.
            let newly = ack - self.highest_acked;
            let first_newly_acked = self.highest_acked;
            self.highest_acked = ack;
            // A late ack (original flight, post-rewind) can overtake the
            // rewound send cursor.
            self.next_seq = self.next_seq.max(ack);
            self.dup_acks = 0;

            // RTT sample from the *oldest* newly-acked segment (the one
            // whose delivery moved the cumulative ack), never from
            // retransmitted segments (Karn's algorithm). Sampling a later
            // segment would mis-attribute hole-induced ack delay to the
            // network.
            if let Some(&(_, sent_at, retx)) =
                self.sent.iter().find(|&&(s, _, _)| s == first_newly_acked)
            {
                if !retx {
                    self.rtt_sample(now.duration_since(sent_at), now);
                }
            }
            // Spurious-retransmission detection: a retransmitted segment
            // acked sooner than one RTT after retransmission means the
            // original was in flight all along. Heuristic: if the ack
            // arrives within `srtt/2` of the retransmission, count it.
            let spurious_window = self.srtt.unwrap_or(MIN_RTO) / 2;
            for &(s, sent_at, retx) in &self.sent {
                if retx && s < ack && now.duration_since(sent_at) < spurious_window {
                    self.spurious_retransmissions += 1;
                }
            }
            self.sent.retain(|&(s, _, _)| s >= ack);

            if self.in_fast_recovery {
                if self.highest_acked >= self.recovery_seq {
                    self.in_fast_recovery = false;
                    self.cwnd = self.ssthresh;
                } else {
                    // NewReno partial ack: the next hole is also lost;
                    // retransmit it immediately and deflate the window.
                    out.push(self.retransmit(self.highest_acked, now));
                    self.cwnd = (self.cwnd - newly as f64 + 1.0).max(1.0);
                }
            } else if self.cwnd < self.ssthresh {
                self.cwnd += newly as f64; // slow start
            } else {
                self.cwnd += newly as f64 / self.cwnd; // congestion avoidance
            }

            self.rto_deadline = if self.in_flight() > 0 {
                Some(now + self.rto)
            } else {
                None
            };
        } else if self.in_flight() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_fast_recovery {
                // Fast retransmit + fast recovery.
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh + 3.0;
                self.in_fast_recovery = true;
                self.recovery_seq = self.next_seq;
                out.push(self.retransmit(self.highest_acked, now));
            } else if self.in_fast_recovery {
                self.cwnd += 1.0; // window inflation per extra dup-ack
            }
        }
        out
    }

    fn retransmit(&mut self, seq: u64, now: SimTime) -> DataPacket {
        self.retransmissions += 1;
        self.record_sent(seq, now, true);
        self.segment(seq, now)
    }

    /// Drives the RTO timer; call when `now >= next_timeout()`. Returns
    /// the go-back-N retransmission burst (first unacked segment; Reno
    /// recovers the rest via subsequent acks).
    pub fn on_tick(&mut self, now: SimTime) -> Vec<DataPacket> {
        let Some(deadline) = self.rto_deadline else {
            return Vec::new();
        };
        if now < deadline || self.in_flight() == 0 {
            return Vec::new();
        }
        // RTO expiry: collapse to one segment, rewind to the first
        // unacked sequence (go-back-N — everything in flight will be
        // resent as the window reopens), exponential backoff.
        self.timeouts += 1;
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.in_fast_recovery = false;
        self.dup_acks = 0;
        self.sent.clear();
        self.next_seq = self.highest_acked + 1;
        let max_rto = SimDuration::from_secs(60);
        self.rto = if self.rto >= max_rto {
            max_rto
        } else {
            (self.rto * 2u64).min(max_rto)
        };
        self.rto_deadline = Some(now + self.rto);
        vec![self.retransmit(self.highest_acked, now)]
    }

    fn rtt_sample(&mut self, rtt: SimDuration, now: SimTime) {
        debug_assert!(
            rtt < SimDuration::from_secs(3600),
            "absurd RTT sample {rtt} at {now}"
        );
        if std::env::var_os("L25GC_TCP_DEBUG").is_some() && rtt > SimDuration::from_secs(1) {
            eprintln!(
                "big RTT sample {rtt} at {now}: flow={} acked={} next={} max_sent={} rto={} sent_len={}",
                self.flow, self.highest_acked, self.next_seq, self.max_seq_sent, self.rto,
                self.sent.len()
            );
        }
        self.min_rtt = Some(match self.min_rtt {
            Some(m) => m.min(rtt),
            None => rtt,
        });
        // Hystart-style delay-increase exit from slow start: a growing
        // RTT means the bottleneck queue is filling; stop doubling before
        // a burst loss (what Linux senders do in practice).
        if self.cwnd < self.ssthresh {
            let min = self.min_rtt.expect("just set");
            if rtt > min * 2u64 + SimDuration::from_millis(4) {
                self.ssthresh = self.cwnd;
            }
        }
        let us = rtt.as_micros_f64();
        self.max_rtt_us = Some(self.max_rtt_us.map_or(us, |m| m.max(us)));
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RFC 6298 with α=1/8, β=1/4.
                let delta = if rtt > srtt { rtt - srtt } else { srtt - rtt };
                self.rttvar = (self.rttvar * 3u64 + delta) / 4;
                self.srtt = Some((srtt * 7u64 + rtt) / 8);
            }
        }
        let srtt = self.srtt.expect("just set");
        self.rto = (srtt + self.rttvar * 4u64).max(MIN_RTO);
    }
}

/// The receiving side: generates cumulative ACKs, tracks out-of-order
/// arrivals.
#[derive(Debug)]
pub struct TcpReceiver {
    /// Next in-order sequence expected.
    next_expected: u64,
    /// Out-of-order segments held for reassembly.
    ooo: Vec<u64>,
    /// Segments delivered in order to the application.
    pub(crate) delivered: u64,
    /// Duplicated segments received (already-delivered data).
    pub(crate) duplicates: u64,
}

impl TcpReceiver {
    /// A fresh receiver.
    pub fn new() -> TcpReceiver {
        TcpReceiver {
            next_expected: 0,
            ooo: Vec::new(),
            delivered: 0,
            duplicates: 0,
        }
    }

    /// Processes one data segment, returning the cumulative ACK to send
    /// (the next expected sequence number).
    pub fn on_segment(&mut self, seq: u64) -> u64 {
        if seq < self.next_expected || self.ooo.contains(&seq) {
            self.duplicates += 1;
        } else if seq == self.next_expected {
            self.next_expected += 1;
            self.delivered += 1;
            // Drain contiguous out-of-order data.
            while let Some(pos) = self.ooo.iter().position(|&s| s == self.next_expected) {
                self.ooo.swap_remove(pos);
                self.next_expected += 1;
                self.delivered += 1;
            }
        } else {
            self.ooo.push(seq);
        }
        self.next_expected
    }

    /// Builds the ACK packet for a given data packet.
    pub fn ack_packet(&self, data: &DataPacket, ack: u64, now: SimTime) -> DataPacket {
        DataPacket {
            ue: data.ue,
            flow: data.flow,
            dir: Direction::Uplink,
            seq: data.seq,
            size: ACK_SIZE,
            sent_at: now,
            dst_port: data.dst_port,
            protocol: 6,
            tunnel_teid: None,
            ack_seq: Some(ack),
        }
    }
}

impl Default for TcpReceiver {
    fn default() -> Self {
        TcpReceiver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Runs sender+receiver over an ideal pipe with the given one-way
    /// delay; returns time to complete.
    fn run_ideal(total_bytes: u64, owd_ms: u64) -> (TcpSender, SimTime) {
        let mut tx = TcpSender::new(1, 0, Some(total_bytes));
        let mut rx = TcpReceiver::new();
        let mut now = SimTime::ZERO;
        // (arrival_time, packet) queues, processed in time order.
        let mut events: Vec<(SimTime, DataPacket)> = tx
            .pump(now)
            .into_iter()
            .map(|p| (now + SimDuration::from_millis(owd_ms), p))
            .collect();
        let mut guard = 0;
        while !tx.is_complete() {
            guard += 1;
            assert!(guard < 1_000_000, "transfer did not complete");
            events.sort_by_key(|e| e.0);
            let (at, pkt) = events.remove(0);
            now = at;
            if let Some(acked) = pkt.ack_seq {
                for r in tx.on_ack(acked, now) {
                    events.push((now + SimDuration::from_millis(owd_ms), r));
                }
                for p in tx.pump(now) {
                    events.push((now + SimDuration::from_millis(owd_ms), p));
                }
            } else {
                let ack = rx.on_segment(pkt.seq);
                let ap = rx.ack_packet(&pkt, ack, now);
                events.push((now + SimDuration::from_millis(owd_ms), ap));
            }
        }
        (tx, now)
    }

    #[test]
    fn lossless_transfer_completes_without_retransmissions() {
        let (tx, _) = run_ideal(1_000_000, 10);
        assert_eq!(tx.retransmissions, 0);
        assert_eq!(tx.timeouts, 0);
        assert!(tx.is_complete());
    }

    #[test]
    fn slow_start_doubles_cwnd_per_rtt() {
        let mut tx = TcpSender::new(1, 0, None);
        let initial = tx.pump(t(0)).len();
        assert_eq!(initial, 10, "IW10");
        // Ack the whole first flight: cwnd should double.
        let mut sent = initial as u64;
        for ack in 1..=sent {
            tx.on_ack(ack, t(20));
        }
        assert!((tx.cwnd() - 20.0).abs() < 1e-9, "cwnd {}", tx.cwnd());
        let second = tx.pump(t(20)).len() as u64;
        assert_eq!(second, 20 - (sent - sent)); // 20 allowed, 0 in flight
        sent += second;
        let _ = sent;
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let mut tx = TcpSender::new(1, 0, None);
        let flight = tx.pump(t(0));
        assert!(flight.len() >= 5);
        // Segment 0 lost: acks for 1..4 all say "expecting 0".
        assert!(tx.on_ack(0, t(20)).is_empty());
        assert!(tx.on_ack(0, t(21)).is_empty());
        let retx = tx.on_ack(0, t(22));
        assert_eq!(retx.len(), 1, "third dup-ack retransmits");
        assert_eq!(retx[0].seq, 0);
        assert_eq!(tx.retransmissions, 1);
        assert!(tx.cwnd() < 10.0, "window halved: {}", tx.cwnd());
    }

    #[test]
    fn rto_fires_after_min_200ms_and_collapses_cwnd() {
        let mut tx = TcpSender::new(1, 0, None);
        tx.pump(t(0));
        assert!(tx.rto() >= MIN_RTO);
        // Nothing before the deadline.
        assert!(tx.on_tick(t(150)).is_empty());
        assert_eq!(tx.timeouts, 0);
        // Past the deadline: timeout.
        let deadline = tx.next_timeout().unwrap();
        let retx = tx.on_tick(deadline);
        assert_eq!(retx.len(), 1);
        assert_eq!(tx.timeouts, 1);
        assert_eq!(tx.cwnd() as u64, 1);
        // Exponential backoff.
        assert!(tx.rto() >= MIN_RTO * 2u64);
    }

    #[test]
    fn stall_longer_than_rto_causes_spurious_retransmission() {
        // The paper's core mechanism: segments delayed (buffered at the
        // 5GC during handover) longer than 200 ms are NOT lost, but the
        // sender times out and retransmits them anyway.
        let mut tx = TcpSender::new(1, 0, None);
        let flight = tx.pump(t(0));
        assert!(!flight.is_empty());
        // Establish an SRTT so the spurious window is meaningful.
        tx.on_ack(1, t(20));
        tx.pump(t(20));
        // Stall: no acks until 300 ms. RTO fires.
        let deadline = tx.next_timeout().unwrap();
        let retx = tx.on_tick(deadline);
        assert_eq!(retx.len(), 1);
        // The delayed (buffered) acks now arrive shortly after the
        // retransmission — proving it spurious.
        tx.on_ack(5, deadline + SimDuration::from_millis(5));
        assert!(tx.spurious_retransmissions > 0);
    }

    #[test]
    fn receiver_reassembles_out_of_order() {
        let mut rx = TcpReceiver::new();
        assert_eq!(rx.on_segment(0), 1);
        assert_eq!(rx.on_segment(2), 1, "gap at 1");
        assert_eq!(rx.on_segment(3), 1);
        assert_eq!(rx.on_segment(1), 4, "gap filled, cumulative jump");
        assert_eq!(rx.delivered, 4);
        assert_eq!(rx.duplicates, 0);
        assert_eq!(rx.on_segment(2), 4);
        assert_eq!(rx.duplicates, 1);
    }

    #[test]
    fn throughput_scales_with_rtt() {
        // Same transfer, two RTTs: the longer RTT must take longer.
        let (_, t_short) = run_ideal(2_000_000, 5);
        let (_, t_long) = run_ideal(2_000_000, 50);
        assert!(t_long > t_short);
    }

    #[test]
    fn bounded_transfer_reports_progress() {
        let (tx, _) = run_ideal(500_000, 10);
        assert_eq!(tx.acked_segments(), 500_000u64.div_ceil(MSS as u64));
        assert!(tx.acked_bytes() >= 500_000);
        assert!(tx.max_rtt_us.is_some());
    }
}
