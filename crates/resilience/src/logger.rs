//! The packet logger at the load-balancer node (§3.5.1, Fig 5).
//!
//! Every message entering the 5GC unit gets a monotonically increasing
//! counter and a copy in one of **four queues** — UL-control, UL-data,
//! DL-control, DL-data — so that a data flood cannot evict control
//! packets when the buffer overflows. On failover, the replica replays
//! the queues in counter order (the replica "picks from the queue with
//! the lowest counter value, so as to maintain the processing order").
//! Entries are released when the remote replica acknowledges a
//! checkpoint covering their counters.

use std::collections::VecDeque;

use l25gc_core::msg::{Direction, Endpoint, Envelope, Msg};

/// Which of the four logger queues a message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// Uplink control (RAN → core signalling).
    UlControl,
    /// Uplink data (UE → DN packets).
    UlData,
    /// Downlink control (DN-side / inter-site signalling toward the core).
    DlControl,
    /// Downlink data (DN → UE packets).
    DlData,
}

impl QueueKind {
    /// Classifies an envelope entering the 5GC unit.
    pub(crate) fn classify(env: &Envelope) -> QueueKind {
        match &env.msg {
            Msg::Data(p) => match p.dir {
                Direction::Uplink => QueueKind::UlData,
                Direction::Downlink => QueueKind::DlData,
            },
            // Control: direction by which side it enters from.
            _ => match env.from {
                Endpoint::Gnb(_) | Endpoint::Ue(_) => QueueKind::UlControl,
                _ => QueueKind::DlControl,
            },
        }
    }
}

/// One logged message.
#[derive(Debug, Clone)]
pub struct LoggedEntry {
    /// The order stamp.
    pub counter: u64,
    /// The message copy.
    pub env: Envelope,
}

/// The four-queue packet logger.
#[derive(Debug)]
pub struct PacketLogger {
    queues: [VecDeque<LoggedEntry>; 4],
    next_counter: u64,
    /// Capacity per *data* queue; control queues are effectively
    /// unbounded ("control packets are not dropped if the replay buffer
    /// overflows", §5.5).
    pub data_capacity: usize,
    /// Data entries dropped due to overflow.
    pub overflow_drops: u64,
}

fn idx(kind: QueueKind) -> usize {
    match kind {
        QueueKind::UlControl => 0,
        QueueKind::UlData => 1,
        QueueKind::DlControl => 2,
        QueueKind::DlData => 3,
    }
}

impl PacketLogger {
    /// A logger whose data queues hold `data_capacity` entries each.
    pub fn new(data_capacity: usize) -> PacketLogger {
        PacketLogger {
            queues: Default::default(),
            next_counter: 0,
            data_capacity,
            overflow_drops: 0,
        }
    }

    /// Stamps and logs a message on its way into the core. Returns the
    /// assigned counter.
    pub fn log(&mut self, env: &Envelope) -> u64 {
        let counter = self.next_counter;
        self.next_counter += 1;
        let kind = QueueKind::classify(env);
        let q = &mut self.queues[idx(kind)];
        let is_data = matches!(kind, QueueKind::UlData | QueueKind::DlData);
        if is_data && q.len() >= self.data_capacity {
            // Shed the *oldest* data entry; control is never shed.
            q.pop_front();
            self.overflow_drops += 1;
        }
        q.push_back(LoggedEntry {
            counter,
            env: env.clone(),
        });
        counter
    }

    /// Releases all entries with `counter < upto` (covered by an
    /// acknowledged checkpoint).
    pub fn release_upto(&mut self, upto: u64) {
        for q in &mut self.queues {
            while q.front().map(|e| e.counter < upto).unwrap_or(false) {
                q.pop_front();
            }
        }
    }

    /// The queue whose head has the lowest counter.
    fn head(&self) -> Option<usize> {
        let (_, i) = self
            .queues
            .iter()
            .enumerate()
            .filter_map(|(i, q)| q.front().map(|e| (e.counter, i)))
            .min()?;
        Some(i)
    }

    /// The entry with the lowest counter: the next one the replay feeds
    /// the replica on failover.
    pub fn peek(&self) -> Option<&LoggedEntry> {
        self.queues[self.head()?].front()
    }

    /// Removes the entry with the lowest counter.
    pub fn pop(&mut self) -> Option<LoggedEntry> {
        let i = self.head()?;
        self.queues[i].pop_front()
    }

    /// Drains every logged entry in counter order.
    pub fn replay(&mut self) -> Vec<LoggedEntry> {
        std::iter::from_fn(|| self.pop()).collect()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// True when nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The next counter value to be assigned.
    pub fn next_counter(&self) -> u64 {
        self.next_counter
    }

    /// Held entries in one queue.
    pub fn queue_len(&self, kind: QueueKind) -> usize {
        self.queues[idx(kind)].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l25gc_core::msg::{DataPacket, SbiOp, UeId};
    use l25gc_sim::SimTime;

    fn data_env(dir: Direction, seq: u64) -> Envelope {
        let (from, to) = match dir {
            Direction::Uplink => (Endpoint::Gnb(1), Endpoint::UpfU),
            Direction::Downlink => (Endpoint::Dn, Endpoint::UpfU),
        };
        Envelope::new(
            from,
            to,
            Msg::Data(DataPacket {
                ue: 1,
                flow: 0,
                dir,
                seq,
                size: 100,
                sent_at: SimTime::ZERO,
                dst_port: 80,
                protocol: 6,
                tunnel_teid: None,
                ack_seq: None,
            }),
        )
    }

    fn ctrl_env() -> Envelope {
        Envelope::new(
            Endpoint::Gnb(1),
            Endpoint::Amf,
            Msg::Sbi {
                op: SbiOp::SmContextRetrieveReq,
                ue: 1 as UeId,
            },
        )
    }

    #[test]
    fn classification() {
        assert_eq!(
            QueueKind::classify(&data_env(Direction::Uplink, 0)),
            QueueKind::UlData
        );
        assert_eq!(
            QueueKind::classify(&data_env(Direction::Downlink, 0)),
            QueueKind::DlData
        );
        assert_eq!(QueueKind::classify(&ctrl_env()), QueueKind::UlControl);
    }

    #[test]
    fn counters_are_monotonic_and_replay_is_ordered() {
        let mut log = PacketLogger::new(100);
        log.log(&data_env(Direction::Downlink, 0));
        log.log(&ctrl_env());
        log.log(&data_env(Direction::Uplink, 1));
        log.log(&data_env(Direction::Downlink, 2));
        let replay = log.replay();
        let counters: Vec<u64> = replay.iter().map(|e| e.counter).collect();
        assert_eq!(counters, vec![0, 1, 2, 3], "global order across queues");
        assert!(log.is_empty());
    }

    #[test]
    fn release_frees_acknowledged_prefix() {
        let mut log = PacketLogger::new(100);
        for i in 0..10 {
            log.log(&data_env(Direction::Downlink, i));
        }
        log.release_upto(6);
        assert_eq!(log.len(), 4);
        let replay = log.replay();
        assert_eq!(replay[0].counter, 6);
    }

    #[test]
    fn data_overflow_sheds_data_not_control() {
        let mut log = PacketLogger::new(3);
        log.log(&ctrl_env());
        for i in 0..5 {
            log.log(&data_env(Direction::Downlink, i));
        }
        log.log(&ctrl_env());
        assert_eq!(log.overflow_drops, 2);
        assert_eq!(log.queue_len(QueueKind::DlData), 3);
        assert_eq!(log.queue_len(QueueKind::UlControl), 2, "control survives");
        // Replay still emits in counter order.
        let counters: Vec<u64> = log.replay().iter().map(|e| e.counter).collect();
        let mut sorted = counters.clone();
        sorted.sort_unstable();
        assert_eq!(counters, sorted);
    }

    #[test]
    fn separate_queues_keep_episode_counts() {
        let mut log = PacketLogger::new(100);
        for i in 0..3 {
            log.log(&data_env(Direction::Uplink, i));
        }
        for i in 0..2 {
            log.log(&data_env(Direction::Downlink, i));
        }
        assert_eq!(log.queue_len(QueueKind::UlData), 3);
        assert_eq!(log.queue_len(QueueKind::DlData), 2);
        assert_eq!(log.queue_len(QueueKind::DlControl), 0);
    }
}
