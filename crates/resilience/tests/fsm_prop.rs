//! Interleaving exploration of the failover state this crate keeps for
//! `l25gc_testbed::World`'s harness: the packet logger and the frozen
//! replica. Across arbitrary schedules of ingress / processing /
//! checkpoint / failover steps, the woken replica plus the replay burst
//! holds every ingress exactly once, in counter order, except the data
//! entries the logger counted as shed. The end-to-end half (duplicate
//! outputs suppressed, nothing overtaking the replay) is checked on the
//! running core by `tests/proptest_world.rs`.

use std::collections::VecDeque;

use l25gc_core::msg::{DataPacket, Direction, Endpoint, Envelope, Msg, SbiOp, UeId};
use l25gc_resilience::{PacketLogger, Replica};
use l25gc_sim::{SimDuration, SimTime};
use proptest::prelude::*;

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

/// Decodes a drawn byte into a data or control ingress.
fn env_for(code: u8, seq: u64) -> Envelope {
    match code % 3 {
        0 => data_env(Direction::Uplink, seq),
        1 => data_env(Direction::Downlink, seq),
        _ => Envelope::new(
            Endpoint::Gnb(1),
            Endpoint::Amf,
            Msg::Sbi {
                op: SbiOp::SmContextRetrieveReq,
                ue: seq as UeId,
            },
        ),
    }
}

/// The replicated state: the counters the core has processed, in order.
type Applied = Vec<u64>;

proptest! {
    /// The headline invariant: for every interleaving, each failover
    /// wakes the replica at its watermark and replays exactly the
    /// logged tail, so the recovered core has processed every ingress
    /// once — none lost unless the logger counted it as shed data, none
    /// applied twice — and replay drains in counter order.
    #[test]
    fn no_event_lost_or_duplicated_across_interleavings(
        ops in proptest::collection::vec((0u8..6, any::<u8>()), 1..250),
        shed in any::<bool>(),
    ) {
        let mut logger = PacketLogger::new(if shed { 4 } else { 10_000 });
        let mut primary: Applied = Vec::new();
        let mut replica = Replica::new(primary.clone(), SimTime::ZERO);
        // Logged but not yet processed by the primary.
        let mut pending: VecDeque<u64> = VecDeque::new();
        let mut data_counters: Vec<u64> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut failovers = 0u32;
        for (op, code) in ops {
            now += SimDuration::from_millis(1);
            match op {
                0 | 1 => {
                    let counter = logger.log(&env_for(code, u64::from(code)));
                    if matches!(code % 3, 0 | 1) {
                        data_counters.push(counter);
                    }
                    pending.push_back(counter);
                }
                2 | 3 => {
                    if let Some(c) = pending.pop_front() {
                        primary.push(c);
                    }
                }
                4 => {
                    // A checkpoint is taken only at a quiescent point:
                    // everything below the watermark is processed.
                    if pending.is_empty() {
                        let watermark = logger.next_counter();
                        replica.checkpoint(&primary, watermark);
                        logger.release_upto(watermark);
                    }
                }
                _ => {
                    let mut woken = replica.unfreeze();
                    let burst = logger.replay();
                    prop_assert!(
                        burst.windows(2).all(|w| w[0].counter < w[1].counter),
                        "replay must drain in counter order"
                    );
                    prop_assert!(
                        burst.iter().all(|e| e.counter >= replica.synced_upto()),
                        "replay holds only the unreleased tail"
                    );
                    woken.extend(burst.iter().map(|e| e.counter));
                    // The dead primary's in-flight ingress was logged, so
                    // the replay covers it.
                    pending.clear();
                    primary = woken;
                    replica = Replica::new(primary.clone(), now);
                    failovers += 1;
                }
            }
        }
        primary.extend(pending.drain(..));

        prop_assert!(
            primary.windows(2).all(|w| w[0] < w[1]),
            "no ingress applied twice, and processing keeps counter order"
        );
        let lost: Vec<u64> = (0..logger.next_counter())
            .filter(|c| primary.binary_search(c).is_err())
            .collect();
        prop_assert!(
            lost.iter().all(|c| data_counters.contains(c)),
            "control is never lost: {:?}", lost
        );
        prop_assert!(
            lost.len() as u64 <= logger.overflow_drops,
            "every lost ingress was counted as shed"
        );
        if !shed {
            prop_assert!(lost.is_empty(), "nothing lost without shedding");
        }
        if failovers == 0 {
            prop_assert!(lost.is_empty(), "nothing lost without a failover");
        }
    }

    /// Focused replay shape: log N, process a prefix, checkpoint at a
    /// watermark inside it, fail — the replay burst is exactly the
    /// unreleased entries, counter-ordered, and the woken replica plus
    /// the burst equals the primary's processed state plus its
    /// unprocessed tail.
    #[test]
    fn replay_burst_is_exactly_the_unreleased_tail(
        mix in proptest::collection::vec(any::<u8>(), 1..60),
        processed in 0usize..60,
        watermark in 0usize..60,
    ) {
        let n = mix.len();
        let processed = processed.min(n);
        let watermark = watermark.min(processed) as u64;
        let mut logger = PacketLogger::new(10_000);
        for (i, &code) in mix.iter().enumerate() {
            prop_assert_eq!(logger.log(&env_for(code, i as u64)), i as u64);
        }
        let mut replica = Replica::new(Applied::new(), SimTime::ZERO);
        let checkpointed: Applied = (0..watermark).collect();
        replica.checkpoint(&checkpointed, watermark);
        logger.release_upto(watermark);

        let woken = replica.unfreeze();
        prop_assert_eq!(&woken, &checkpointed);
        let burst: Vec<u64> = logger.replay().iter().map(|e| e.counter).collect();
        prop_assert_eq!(&burst, &(watermark..n as u64).collect::<Vec<_>>());
        let recovered: Applied = woken.into_iter().chain(burst).collect();
        prop_assert_eq!(recovered, (0..n as u64).collect::<Vec<_>>());
        prop_assert!(logger.is_empty(), "replay drains the log");
    }
}
