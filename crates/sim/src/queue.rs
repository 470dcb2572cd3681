//! A value-typed, deterministic event queue.
//!
//! [`EventQueue<T>`] is a binary heap of `(SimTime, seq, T)` triples: the
//! earliest time pops first, and ties in time pop in push order, so a run
//! is a pure function of the push sequence. There is no allocation per push
//! beyond the heap's amortised growth, and [`EventQueue::with_capacity`]
//! pre-sizes it for a known population.
//!
//! It is the one scheduler in this crate. [`Engine`](crate::Engine) is
//! built on an `EventQueue` of boxed handlers; `l25gc-load` drives its
//! fleet-scale capacity sweeps through an `EventQueue` of plain values
//! (arrivals, completions, think-time expiries), where a box per event
//! would dominate the run.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted: earliest (time, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic min-time priority queue.
///
/// Events scheduled for the same instant pop in the order they were
/// pushed, so a run is a pure function of the push sequence.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// An empty queue with room for `capacity` events before any
    /// reallocation.
    pub fn with_capacity(capacity: usize) -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `item` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, item });
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the earliest event as `(time, item)`.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.at, e.item))
    }

    /// Pops the earliest event only if it is due at or before `deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        if self.peek_time()? > deadline {
            return None;
        }
        self.pop()
    }

    /// Pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, x)| x).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_pop_in_push_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100u32 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, x)| x).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(50), 2);
        assert_eq!(
            q.pop_before(SimTime::from_nanos(20)),
            Some((SimTime::from_nanos(10), 1))
        );
        assert_eq!(q.pop_before(SimTime::from_nanos(20)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn million_events_round_trip_in_order() {
        // The load-engine scale this queue exists for: push a million
        // events in scrambled order, pop them back fully sorted.
        let mut q = EventQueue::with_capacity(1 << 20);
        let mut t = 0u64;
        for i in 0..1_000_000u64 {
            // Deterministic scramble over a wide time range.
            t = t.wrapping_mul(6364136223846793005).wrapping_add(i) % (1 << 40);
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0u64;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last, "time went backwards");
            last = at;
            n += 1;
        }
        assert_eq!(n, 1_000_000);
    }
}
