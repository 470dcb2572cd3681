//! Single-layer probes: one public function of one crate, called in a
//! tight loop over a fixed key sequence and capped by time, not by a
//! repetition count. They give the ledger rows that the workloads reach
//! only through a single opaque call (`Driver::run`, `World`), and the
//! paper's own primitives (classifier lookup at 10 k rules, ring
//! crossing).

use std::hint::black_box;
use std::time::{Duration, Instant};

use l25gc_classifier::{
    Classifier, Generator, LinearList, PacketKey, PartitionSort, PdrRule, Profile, TupleSpace,
};
use l25gc_nfv::ring::{duplex, ring};
use l25gc_obs::{HistogramSet, Log2Histogram};
use l25gc_pkt::pfcp::{Message, MsgType};
use l25gc_sim::{EventQueue, SimTime};

use crate::gen::XorShift;
use crate::stats;
use crate::upf;

/// Runs `batch` (which performs `ops` operations per call) until
/// `budget` is spent, at least five times after one warm-up call, and
/// returns the median ns per operation.
pub fn ns_per_op(budget: Duration, ops: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    stats::median(&samples)
}

const BUDGET: Duration = Duration::from_millis(120);

/// Values shaped like the latencies the load engine records: ~0.1–600 ms
/// in ns, log-uniform.
fn latency_values(n: usize) -> Vec<u64> {
    let mut rng = XorShift::new(0x6869_7374);
    (0..n)
        .map(|_| {
            let r = rng.next_u64();
            (100_000u64 << (r % 13)) + (r >> 40)
        })
        .collect()
}

/// `Log2Histogram::record`: bucket arithmetic alone, ns per record.
pub fn log2_record_ns() -> f64 {
    let vals = latency_values(4096);
    let mut h = Log2Histogram::new();
    ns_per_op(BUDGET, vals.len() as u64, || {
        for &v in &vals {
            h.record(v);
        }
        black_box(h.count());
    })
}

/// `HistogramSet::record` by name, cycling the five names one load event
/// records under: name hashing + bucket arithmetic, ns per record.
pub fn named_record_ns() -> f64 {
    let names = [
        "registration",
        l25gc_load::HIST_ALL,
        l25gc_load::HIST_QUEUE_WAIT,
        l25gc_load::HIST_SERVICE,
        l25gc_load::HIST_TRANSIT,
    ];
    let vals = latency_values(4096);
    let mut set = HistogramSet::new();
    ns_per_op(BUDGET, vals.len() as u64, || {
        for (i, &v) in vals.iter().enumerate() {
            set.record(names[i % names.len()], v);
        }
        black_box(set.get(names[0]).map(Log2Histogram::count));
    })
}

/// Items per ring-crossing measurement.
const RING_ITEMS: u64 = 1 << 20;
/// Ring capacity of the probes: a ring that stays cache-resident and
/// pushes back (the dispatch workloads' own never fills, see `load::config`).
const RING_CAP: usize = 1 << 15;

/// One ring, one thread: `push` then `pop`, ns per item. The floor a
/// crossing would cost with no second core involved.
pub fn ring_same_thread_ns() -> f64 {
    let (mut tx, mut rx) = ring::<u64>(RING_CAP);
    ns_per_op(BUDGET, 4096, || {
        for i in 0..4096u64 {
            let _ = tx.push(i);
            black_box(rx.pop());
        }
    })
}

/// A two-thread `duplex` pair: this thread pushes [`RING_ITEMS`] items
/// `burst` at a time (`push` for 1, `push_burst` otherwise), a null
/// consumer drains them with `pop_burst`. Wall ns per item, median of
/// five crossings.
pub fn ring_cross_ns(burst: usize) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..5 {
        let (mut host, mut worker) = duplex::<u64, u64>(RING_CAP, "probe");
        let wall = std::thread::scope(|s| {
            let consumer = s.spawn(move || {
                let mut got = 0u64;
                let mut out = Vec::with_capacity(256);
                while got < RING_ITEMS {
                    out.clear();
                    got += worker.submissions.pop_burst(&mut out, 256) as u64;
                    if out.is_empty() {
                        std::hint::spin_loop();
                    }
                }
                black_box(out.len());
            });
            let t = Instant::now();
            if burst == 1 {
                for i in 0..RING_ITEMS {
                    let mut v = i;
                    while let Err(full) = host.submit.push(v) {
                        v = full.into_inner();
                        std::hint::spin_loop();
                    }
                }
            } else {
                let mut staged = Vec::with_capacity(burst);
                let mut next = 0u64;
                while next < RING_ITEMS {
                    while staged.len() < burst && next < RING_ITEMS {
                        staged.push(next);
                        next += 1;
                    }
                    while !staged.is_empty() {
                        if host.submit.push_burst(&mut staged) == 0 {
                            std::hint::spin_loop();
                        }
                    }
                }
            }
            consumer.join().expect("ring consumer thread");
            t.elapsed()
        });
        samples.push(wall.as_nanos() as f64 / RING_ITEMS as f64);
    }
    stats::median(&samples)
}

/// `EventQueue::push` + `pop` on a queue holding a handful of pending
/// items, as a control-plane procedure keeps it. ns per pair.
pub fn queue_push_pop_ns() -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..4u64 {
        q.push(SimTime::from_nanos(i * 1_000), i);
    }
    let mut now = 4_000u64;
    ns_per_op(BUDGET, 4096, || {
        for _ in 0..4096 {
            now += 1_000;
            q.push(SimTime::from_nanos(now), now);
            black_box(q.pop());
        }
    })
}

/// `pfcp::Message::encode` of the 16-PDR session-establishment request
/// the UPF workload installs. ns per message.
pub fn pfcp_encode_ns() -> f64 {
    let msg = Message::session(
        MsgType::SessionEstablishmentRequest,
        1,
        1,
        upf::session_ies(0),
    );
    ns_per_op(BUDGET, 64, || {
        for _ in 0..64 {
            black_box(black_box(&msg).encode());
        }
    })
}

/// The Fig 11 rule set: 10 000 pinhole rules, generator seed 11.
const FIG11_RULES: usize = 10_000;
const FIG11_SEED: u64 = 11;

/// `PartitionSort::insert`, µs per rule, building 16-rule tables (the
/// size a session holds).
pub fn ps_insert_us() -> f64 {
    let rules: Vec<PdrRule> = Generator::new(FIG11_SEED, Profile::Pinholes).rules(16);
    ns_per_op(BUDGET, 16 * 64, || {
        for _ in 0..64 {
            let mut ps = PartitionSort::new();
            for r in &rules {
                ps.insert(r.clone());
            }
            black_box(ps.len());
        }
    }) / 1e3
}

/// Lookup ns at 10 000 rules for PartitionSort, the linear list and
/// tuple-space search, over keys matching the second half of the list
/// (as Fig 11 probes it). Returns `(ps, ll, tss)`.
pub fn classifier_lookup_ns_10k() -> (f64, f64, f64) {
    let mut gen = Generator::new(FIG11_SEED, Profile::Pinholes);
    let rules = gen.rules(FIG11_RULES);
    let keys: Vec<PacketKey> = rules[FIG11_RULES / 2..]
        .iter()
        .step_by(FIG11_RULES / 2 / 256)
        .map(|r| gen.matching_key(r))
        .collect();
    fn probe<C: Classifier>(mut c: C, rules: &[PdrRule], keys: &[PacketKey]) -> f64 {
        for r in rules {
            c.insert(r.clone());
        }
        for k in keys {
            assert!(c.lookup(k).is_some(), "a matching key must match");
        }
        ns_per_op(BUDGET, keys.len() as u64, || {
            for k in keys {
                black_box(c.lookup(black_box(k)).map(|r| r.id));
            }
        })
    }
    (
        probe(PartitionSort::new(), &rules, &keys),
        probe(LinearList::new(), &rules, &keys),
        probe(TupleSpace::new(), &rules, &keys),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_op_runs_at_least_five_batches_and_divides_by_ops() {
        let mut calls = 0;
        let v = ns_per_op(Duration::ZERO, 1_000, || {
            calls += 1;
            std::thread::sleep(Duration::from_micros(200));
        });
        assert_eq!(calls, 6, "one warm-up + five timed batches");
        assert!(v >= 200.0, "200 µs / 1000 ops = 200 ns/op, got {v}");
    }

    #[test]
    fn latency_values_are_fixed_and_plausible() {
        let a = latency_values(1_000);
        assert_eq!(a, latency_values(1_000));
        assert!(a.iter().all(|&v| (100_000..1_000_000_000).contains(&v)));
    }
}
