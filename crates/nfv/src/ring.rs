//! Lock-free single-producer/single-consumer descriptor ring.
//!
//! The ONVM shared-memory fabric attaches an Rx and a Tx ring to every NF;
//! the manager moves packet *descriptors* (not packet bytes) between rings
//! to implement zero-copy NF-to-NF communication. This is a real
//! concurrent data structure — benchmarked wall-clock in
//! `l25gc-bench` — not a simulation artifact.
//!
//! Classic Lamport queue: `head` is owned by the consumer, `tail` by the
//! producer; each reads the other's index with Acquire and publishes its
//! own with Release. Capacity is rounded up to a power of two so index
//! arithmetic is a mask. Indices are unbounded `usize` counters and all
//! index arithmetic is wrapping, so the ring survives counter overflow
//! (occupancy `tail.wrapping_sub(head)` stays correct across the
//! `usize::MAX` boundary because the ring can never hold more than
//! `capacity ≪ usize::MAX` items).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::utils::CachePadded;
use l25gc_obs::{EventKind, FlightRecorder};
use l25gc_sim::SimTime;

struct RingBuf<T> {
    /// Cached base of `_store`, so the hot path is one pointer chase with
    /// no bounds check.
    slots: *const UnsafeCell<MaybeUninit<T>>,
    mask: usize,
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
    /// Owns the slot memory; dropped after the item cleanup below.
    _store: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

impl<T> RingBuf<T> {
    /// The slot at masked index `i`.
    ///
    /// The SAFETY contract is positional: callers may only touch slots
    /// their head/tail ownership entitles them to.
    fn slot(&self, i: usize) -> &UnsafeCell<MaybeUninit<T>> {
        // SAFETY: `i` is already masked by the caller; the array holds
        // `mask + 1` slots and `_store` keeps it alive as long as `self`.
        unsafe { &*self.slots.add(i) }
    }
}

// SAFETY: producer and consumer each touch disjoint slots, synchronized by
// the head/tail indices with Acquire/Release ordering. The raw base
// pointer aliases memory owned by `_store`, which lives exactly as long.
unsafe impl<T: Send> Send for RingBuf<T> {}
unsafe impl<T: Send> Sync for RingBuf<T> {}

impl<T> Drop for RingBuf<T> {
    fn drop(&mut self) {
        // Drop any items still enqueued; `_store` frees the slot memory
        // afterwards (field drop order) without running destructors.
        let mut head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        while head != tail {
            let slot = self.slot(head & self.mask);
            // SAFETY: slots in [head, tail) hold initialized values and
            // nobody else can access them during drop.
            unsafe { (*slot.get()).assume_init_drop() };
            head = head.wrapping_add(1);
        }
    }
}

/// Typed "ring is full" error carrying the rejected descriptor back to
/// the producer, so callers decide between dropping (as the NIC would)
/// and backpressure — and so every drop site shares one error/drop-code
/// path instead of ad-hoc booleans.
#[derive(Debug, PartialEq, Eq)]
pub struct RingFull<T>(pub T);

impl<T> RingFull<T> {
    /// The descriptor the ring refused.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> std::fmt::Display for RingFull<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ring full")
    }
}

/// The producing half of a ring.
pub struct Producer<T> {
    ring: Arc<RingBuf<T>>,
    /// Cached consumer index, refreshed only when the ring looks full.
    cached_head: usize,
    /// Label used by the traced operations and the depth gauge.
    label: &'static str,
    /// Occupancy at or above which [`Producer::above_high_water`] reports
    /// congestion (defaults to the full capacity, i.e. never early).
    high_water: usize,
}

/// The consuming half of a ring.
pub struct Consumer<T> {
    ring: Arc<RingBuf<T>>,
    /// Cached producer index, refreshed only when the ring looks empty.
    cached_tail: usize,
    /// Label used by the traced operations and the depth gauge.
    label: &'static str,
}

/// Creates a ring with capacity of at least `capacity` descriptors
/// (rounded up to a power of two, minimum 2).
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    ring_labeled(capacity, "ring")
}

/// [`ring`], with a label that names this ring in flight-recorder events
/// and depth gauges (e.g. `"rx:amf"`).
pub fn ring_labeled<T>(capacity: usize, label: &'static str) -> (Producer<T>, Consumer<T>) {
    ring_labeled_at(capacity, label, 0)
}

/// [`ring_labeled`], starting both indices at `start` instead of 0.
///
/// Semantically identical to a fresh ring — only the (unobservable)
/// internal counters differ. Exists so tests can start the unbounded
/// `usize` indices just below `usize::MAX` and prove that push/pop/burst
/// survive counter wraparound.
#[doc(hidden)]
pub fn ring_labeled_at<T>(
    capacity: usize,
    label: &'static str,
    start: usize,
) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let store: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let ring = Arc::new(RingBuf {
        slots: store.as_ptr(),
        mask: cap - 1,
        head: CachePadded::new(AtomicUsize::new(start)),
        tail: CachePadded::new(AtomicUsize::new(start)),
        _store: store,
    });
    (
        Producer {
            ring: ring.clone(),
            cached_head: start,
            label,
            high_water: cap,
        },
        Consumer {
            ring,
            cached_tail: start,
            label,
        },
    )
}

impl<T> Producer<T> {
    /// Enqueues a descriptor; returns it back inside [`RingFull`] if the
    /// ring has no room (the caller decides whether that is a drop — as
    /// the NIC would — or backpressure).
    pub fn push(&mut self, value: T) -> Result<(), RingFull<T>> {
        let ring = &*self.ring;
        let tail = ring.tail.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.cached_head) > ring.mask {
            self.cached_head = ring.head.load(Ordering::Acquire);
            if tail.wrapping_sub(self.cached_head) > ring.mask {
                return Err(RingFull(value));
            }
        }
        // SAFETY: slot at `tail` is unoccupied (tail - head <= mask).
        unsafe { (*ring.slot(tail & ring.mask).get()).write(value) };
        ring.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Enqueues descriptors from the front of `src` in order until the
    /// ring fills or `src` empties (burst transmit, the DPDK idiom that
    /// pairs with [`Consumer::pop_burst`]). Pushed descriptors are
    /// drained from `src`; the stragglers stay, still in order. Returns
    /// how many were enqueued.
    ///
    /// Allocation-free: the free room is computed up front (one Acquire
    /// refresh of the consumer index) and exactly that many descriptors
    /// are drained, so the hot dispatch path never builds a temporary.
    pub fn push_burst(&mut self, src: &mut Vec<T>) -> usize {
        let ring = &*self.ring;
        let tail = ring.tail.load(Ordering::Relaxed);
        self.cached_head = ring.head.load(Ordering::Acquire);
        let room = (ring.mask + 1) - tail.wrapping_sub(self.cached_head);
        let n = room.min(src.len());
        for item in src.drain(..n) {
            // Guaranteed to fit: we reserved `n` slots above and this is
            // the only producer.
            let _ = self.push(item);
        }
        n
    }

    /// [`Producer::push`], recording a `RingEnqueueStall` event when the
    /// ring is full. The happy path costs nothing beyond `push`.
    pub fn push_traced(
        &mut self,
        value: T,
        fr: &mut FlightRecorder,
        now: SimTime,
    ) -> Result<(), RingFull<T>> {
        match self.push(value) {
            Ok(()) => Ok(()),
            Err(back) => {
                fr.record(
                    now,
                    EventKind::RingEnqueueStall {
                        ring: self.label,
                        depth: self.len(),
                    },
                );
                Err(back)
            }
        }
    }

    /// Sets the congestion threshold for [`Producer::above_high_water`],
    /// clamped to the ring's capacity. Admission-control layers set this
    /// below capacity so they can start shedding or queuing *before*
    /// pushes hard-fail.
    pub fn set_high_water(&mut self, high_water: usize) {
        self.high_water = high_water.min(self.capacity());
    }

    /// The current congestion threshold.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// True when occupancy has reached the high-water mark — the
    /// backpressure signal consumed by admission control (approximate
    /// under concurrency, like [`Producer::len`]).
    pub fn above_high_water(&self) -> bool {
        self.len() >= self.high_water
    }

    /// Number of occupied slots (approximate under concurrency).
    pub fn len(&self) -> usize {
        let ring = &*self.ring;
        ring.tail
            .load(Ordering::Relaxed)
            .wrapping_sub(ring.head.load(Ordering::Relaxed))
    }

    /// True when no descriptors are queued (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.ring.mask + 1
    }

    /// The label given at construction.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Samples the current depth into `fr` as a `Gauge` event named after
    /// the ring's label.
    pub fn record_depth(&self, fr: &mut FlightRecorder, now: SimTime) {
        fr.record(
            now,
            EventKind::Gauge {
                name: self.label,
                value: self.len() as u64,
            },
        );
    }
}

impl<T> Consumer<T> {
    /// Dequeues the next descriptor, or `None` if the ring is empty.
    pub fn pop(&mut self) -> Option<T> {
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        if head == self.cached_tail {
            self.cached_tail = ring.tail.load(Ordering::Acquire);
            if head == self.cached_tail {
                return None;
            }
        }
        // SAFETY: slot at `head` was initialized by the producer and
        // published via the tail store.
        let value = unsafe { (*ring.slot(head & ring.mask).get()).assume_init_read() };
        ring.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Dequeues up to `max` descriptors into `out` (burst receive, the
    /// DPDK poll-mode idiom). Returns how many were dequeued.
    pub fn pop_burst(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.pop() {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// [`Consumer::pop`], recording a `RingDequeueStall` event when the
    /// ring is empty (the NF span out of work — a wakeup in the ADN
    /// shared-memory design, a wasted poll in DPDK).
    pub fn pop_traced(&mut self, fr: &mut FlightRecorder, now: SimTime) -> Option<T> {
        let v = self.pop();
        if v.is_none() {
            fr.record(now, EventKind::RingDequeueStall { ring: self.label });
        }
        v
    }

    /// Number of occupied slots (approximate under concurrency).
    pub fn len(&self) -> usize {
        let ring = &*self.ring;
        ring.tail
            .load(Ordering::Relaxed)
            .wrapping_sub(ring.head.load(Ordering::Relaxed))
    }

    /// True when no descriptors are queued (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The label given at construction.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Samples the current depth into `fr` as a `Gauge` event named after
    /// the ring's label.
    pub fn record_depth(&self, fr: &mut FlightRecorder, now: SimTime) {
        fr.record(
            now,
            EventKind::Gauge {
                name: self.label,
                value: self.len() as u64,
            },
        );
    }
}

/// The dispatcher-side endpoint of a duplex worker channel: submissions
/// go out on `submit`, completions come back on `completions`. Both
/// directions are the same lock-free SPSC ring the NFs use — attaching
/// one of these per worker is exactly the ONVM manager↔NF wiring.
pub struct DuplexHost<S, C> {
    /// Producer half of the submit ring.
    pub submit: Producer<S>,
    /// Consumer half of the completion ring.
    pub completions: Consumer<C>,
}

/// The worker-side endpoint of a duplex channel created by [`duplex`]:
/// the worker pops submissions and pushes completions.
pub struct DuplexWorker<S, C> {
    /// Consumer half of the submit ring.
    pub submissions: Consumer<S>,
    /// Producer half of the completion ring.
    pub complete: Producer<C>,
}

/// Creates a submit ring + completion ring pair and hands back the two
/// endpoints. Both rings share `capacity` (rounded up per [`ring`]) and
/// are labelled `label` in flight-recorder events and depth gauges.
pub fn duplex<S, C>(
    capacity: usize,
    label: &'static str,
) -> (DuplexHost<S, C>, DuplexWorker<S, C>) {
    let (submit_tx, submit_rx) = ring_labeled::<S>(capacity, label);
    let (complete_tx, complete_rx) = ring_labeled::<C>(capacity, label);
    (
        DuplexHost {
            submit: submit_tx,
            completions: complete_rx,
        },
        DuplexWorker {
            submissions: submit_rx,
            complete: complete_tx,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let (mut tx, mut rx) = ring::<u32>(8);
        for i in 0..8 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(RingFull(99)), "ring full");
        for i in 0..8 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn capacity_rounds_up() {
        let (tx, _rx) = ring::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = ring::<u8>(0);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn wraparound_many_times() {
        let (mut tx, mut rx) = ring::<u64>(4);
        for round in 0..1000u64 {
            tx.push(round).unwrap();
            assert_eq!(rx.pop(), Some(round));
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn burst_pop() {
        let (mut tx, mut rx) = ring::<u32>(32);
        for i in 0..20 {
            tx.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.pop_burst(&mut out, 16), 16);
        assert_eq!(out.len(), 16);
        assert_eq!(rx.pop_burst(&mut out, 16), 4);
        assert_eq!(out, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn cross_thread_transfer_is_lossless() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = ring::<u64>(1024);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(RingFull(back)) => {
                            v = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            if let Some(v) = rx.pop() {
                assert_eq!(v, expected, "descriptors reordered or lost");
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn traced_ops_record_stalls_and_gauges() {
        let mut fr = FlightRecorder::new(16);
        let t = SimTime::from_nanos;
        let (mut tx, mut rx) = ring_labeled::<u32>(2, "rx:test");

        assert_eq!(rx.pop_traced(&mut fr, t(1)), None, "empty pop stalls");
        tx.push_traced(0, &mut fr, t(2)).unwrap();
        tx.push_traced(1, &mut fr, t(3)).unwrap();
        assert!(
            tx.push_traced(2, &mut fr, t(4)).is_err(),
            "full push stalls"
        );
        tx.record_depth(&mut fr, t(5));

        let kinds: Vec<_> = fr.iter().map(|e| e.kind).collect();
        assert_eq!(kinds.len(), 3, "successful ops record nothing");
        assert_eq!(kinds[0], EventKind::RingDequeueStall { ring: "rx:test" });
        assert_eq!(
            kinds[1],
            EventKind::RingEnqueueStall {
                ring: "rx:test",
                depth: 2
            }
        );
        assert_eq!(
            kinds[2],
            EventKind::Gauge {
                name: "rx:test",
                value: 2
            }
        );
    }

    #[test]
    fn high_water_signal() {
        let (mut tx, mut rx) = ring::<u32>(8);
        assert_eq!(tx.high_water(), 8, "defaults to capacity");
        tx.set_high_water(4);
        for i in 0..3 {
            tx.push(i).unwrap();
        }
        assert!(!tx.above_high_water());
        tx.push(3).unwrap();
        assert!(tx.above_high_water(), "at the mark counts as congested");
        rx.pop().unwrap();
        assert!(!tx.above_high_water());
        tx.set_high_water(100);
        assert_eq!(tx.high_water(), 8, "clamped to capacity");
    }

    #[test]
    fn push_burst_fills_then_returns_stragglers_in_order() {
        let (mut tx, mut rx) = ring::<u32>(4);
        let mut src: Vec<u32> = (0..7).collect();
        assert_eq!(tx.push_burst(&mut src), 4);
        assert_eq!(src, vec![4, 5, 6], "stragglers keep their order");
        let mut out = Vec::new();
        rx.pop_burst(&mut out, 8);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(tx.push_burst(&mut src), 3);
        assert!(src.is_empty());
    }

    #[test]
    fn duplex_round_trip_across_threads() {
        let (mut host, mut worker) = duplex::<u64, u64>(64, "duplex:test");
        let t = std::thread::spawn(move || {
            let mut done = 0u64;
            while done < 1_000 {
                if let Some(v) = worker.submissions.pop() {
                    // Echo the doubled value back; spin if the host lags.
                    let mut c = v * 2;
                    loop {
                        match worker.complete.push(c) {
                            Ok(()) => break,
                            Err(RingFull(back)) => {
                                c = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                    done += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let mut next = 0u64;
        let mut seen = 0u64;
        while seen < 1_000 {
            if next < 1_000 && host.submit.push(next).is_ok() {
                next += 1;
            }
            if let Some(c) = host.completions.pop() {
                assert_eq!(c, seen * 2, "completions arrive in FIFO order");
                seen += 1;
            }
        }
        t.join().unwrap();
    }

    #[test]
    fn indices_survive_usize_overflow() {
        // Start both unbounded counters 5 below usize::MAX and push enough
        // traffic to cross the boundary many times over; the wrapping
        // `tail - head` occupancy arithmetic must stay exact throughout.
        let start = usize::MAX - 5;
        let (mut tx, mut rx) = ring_labeled_at::<u64>(4, "wrap", start);
        for round in 0..64u64 {
            tx.push(round).unwrap();
            assert_eq!(tx.len(), 1);
            assert_eq!(rx.pop(), Some(round));
            assert!(rx.is_empty());
        }
    }

    #[test]
    fn burst_ops_survive_usize_overflow() {
        // The counter overflow lands mid-burst here.
        let start = usize::MAX - 2;
        let (mut tx, mut rx) = ring_labeled_at::<u32>(8, "wrap-burst", start);
        let mut seq = 0u32;
        let mut expect = 0u32;
        for _ in 0..8 {
            let mut src: Vec<u32> = (seq..seq + 6).collect();
            seq += 6;
            while !src.is_empty() {
                tx.push_burst(&mut src);
                let mut out = Vec::new();
                rx.pop_burst(&mut out, 16);
                for v in out {
                    assert_eq!(v, expect, "burst reordered or lost at overflow");
                    expect += 1;
                }
            }
        }
        assert_eq!(expect, 48);
        assert!(rx.is_empty());
    }

    #[test]
    fn full_ring_rejects_across_overflow_boundary() {
        // Fill the ring so occupied slots straddle the usize::MAX boundary:
        // the full check, the rejection, and FIFO order must all hold.
        let start = usize::MAX - 1;
        let (mut tx, mut rx) = ring_labeled_at::<u8>(4, "wrap-full", start);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(9), Err(RingFull(9)));
        assert_eq!(tx.len(), 4);
        assert!(tx.above_high_water());
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn drop_releases_items_straddling_overflow() {
        // Drop's cleanup walk must also use wrapping iteration.
        let (mut tx, rx) = ring_labeled_at::<String>(4, "wrap-drop", usize::MAX - 1);
        for s in ["a", "b", "c"] {
            tx.push(s.to_owned()).unwrap();
        }
        drop(rx);
        drop(tx);
    }

    #[test]
    fn drop_releases_queued_items() {
        // Detectable under Miri/ASan; here it at least must not crash.
        let (mut tx, rx) = ring::<String>(8);
        tx.push("a".to_owned()).unwrap();
        tx.push("b".to_owned()).unwrap();
        drop(rx);
        drop(tx);
    }
}
