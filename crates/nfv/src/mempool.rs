//! Packet buffer mempool, the DPDK-hugepage analogue.
//!
//! All packet payloads live in one preallocated arena; NFs hold
//! [`PktHandle`]s (descriptor = handle + metadata) and the arena is never
//! copied — the zero-copy property the paper's data plane relies on.
//! Allocation is a free-list pop; freeing is a push. Like a DPDK mempool,
//! exhaustion is visible to the caller (the NIC would drop).

use l25gc_obs::{EventKind, FlightRecorder};
use l25gc_sim::SimTime;
use parking_lot::Mutex;

/// An opaque handle to one packet buffer in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PktHandle(u32);

/// A fixed-size pool of packet buffers.
pub struct Mempool {
    /// One contiguous arena, `buf_size` bytes per slot.
    arena: Mutex<Arena>,
    buf_size: usize,
}

struct Arena {
    data: Vec<u8>,
    free: Vec<u32>,
    allocated: usize,
}

impl Mempool {
    /// Creates a pool of `count` buffers of `buf_size` bytes each.
    pub fn new(count: usize, buf_size: usize) -> Mempool {
        assert!(count > 0 && count <= u32::MAX as usize);
        Mempool {
            arena: Mutex::new(Arena {
                data: vec![0u8; count * buf_size],
                free: (0..count as u32).rev().collect(),
                allocated: 0,
            }),
            buf_size,
        }
    }

    /// Allocates a buffer, or `None` when the pool is exhausted.
    pub fn alloc(&self) -> Option<PktHandle> {
        let mut a = self.arena.lock();
        let idx = a.free.pop()?;
        a.allocated += 1;
        Some(PktHandle(idx))
    }

    /// [`Mempool::alloc`], recording a `MempoolExhausted` event when the
    /// pool has no free buffer (the moment a hardware NIC would tail-drop).
    pub fn alloc_traced(&self, fr: &mut FlightRecorder, now: SimTime) -> Option<PktHandle> {
        let h = self.alloc();
        if h.is_none() {
            let cap = self.capacity();
            fr.record(
                now,
                EventKind::MempoolExhausted {
                    in_use: cap,
                    capacity: cap,
                },
            );
        }
        h
    }

    /// Samples current occupancy into `fr` as a `Gauge` event.
    pub fn record_occupancy(&self, name: &'static str, fr: &mut FlightRecorder, now: SimTime) {
        fr.record(
            now,
            EventKind::Gauge {
                name,
                value: self.in_use() as u64,
            },
        );
    }

    /// Returns a buffer to the pool.
    ///
    /// # Panics
    /// Panics on double-free (the bug this layer must never mask).
    pub fn free(&self, h: PktHandle) {
        let mut a = self.arena.lock();
        assert!(!a.free.contains(&h.0), "double free of {h:?}");
        a.free.push(h.0);
        a.allocated -= 1;
    }

    /// Copies `data` into the buffer. Panics if it exceeds the slot size.
    pub fn write(&self, h: PktHandle, data: &[u8]) {
        assert!(data.len() <= self.buf_size, "payload exceeds mempool slot");
        let mut a = self.arena.lock();
        let off = h.0 as usize * self.buf_size;
        a.data[off..off + data.len()].copy_from_slice(data);
    }

    /// Reads `len` bytes from the buffer into a fresh `Vec`.
    #[cfg(test)]
    pub(crate) fn read(&self, h: PktHandle, len: usize) -> Vec<u8> {
        assert!(len <= self.buf_size);
        let a = self.arena.lock();
        let off = h.0 as usize * self.buf_size;
        a.data[off..off + len].to_vec()
    }

    /// Applies `f` to the buffer contents in place (zero-copy access).
    #[cfg(test)]
    pub(crate) fn with<R>(&self, h: PktHandle, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut a = self.arena.lock();
        let off = h.0 as usize * self.buf_size;
        let size = self.buf_size;
        f(&mut a.data[off..off + size])
    }

    /// Buffers currently allocated.
    pub(crate) fn in_use(&self) -> usize {
        self.arena.lock().allocated
    }

    /// Total buffer count.
    pub(crate) fn capacity(&self) -> usize {
        // One lock for both reads: two `.lock()` temporaries in a single
        // expression both live to the end of it, which self-deadlocks.
        let a = self.arena.lock();
        a.free.len() + a.allocated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let pool = Mempool::new(4, 64);
        let hs: Vec<_> = (0..4).map(|_| pool.alloc().unwrap()).collect();
        assert_eq!(pool.in_use(), 4);
        assert!(pool.alloc().is_none(), "pool exhausted");
        for h in hs {
            pool.free(h);
        }
        assert_eq!(pool.in_use(), 0);
        assert!(pool.alloc().is_some());
    }

    #[test]
    fn traced_alloc_records_exhaustion_and_occupancy() {
        let mut fr = FlightRecorder::new(8);
        let t = SimTime::from_nanos;
        let pool = Mempool::new(2, 16);
        let _a = pool.alloc_traced(&mut fr, t(1)).unwrap();
        let _b = pool.alloc_traced(&mut fr, t(2)).unwrap();
        assert!(pool.alloc_traced(&mut fr, t(3)).is_none());
        pool.record_occupancy("mempool", &mut fr, t(4));

        let kinds: Vec<_> = fr.iter().map(|e| e.kind).collect();
        assert_eq!(kinds.len(), 2, "successful allocs record nothing");
        assert_eq!(
            kinds[0],
            EventKind::MempoolExhausted {
                in_use: 2,
                capacity: 2
            }
        );
        assert_eq!(
            kinds[1],
            EventKind::Gauge {
                name: "mempool",
                value: 2
            }
        );
    }

    #[test]
    fn data_survives_roundtrip() {
        let pool = Mempool::new(2, 32);
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        pool.write(a, b"hello");
        pool.write(b, b"world");
        assert_eq!(pool.read(a, 5), b"hello");
        assert_eq!(pool.read(b, 5), b"world");
    }

    #[test]
    fn with_mutates_in_place() {
        let pool = Mempool::new(1, 16);
        let h = pool.alloc().unwrap();
        pool.with(h, |buf| buf[0] = 0xaa);
        assert_eq!(pool.read(h, 1), vec![0xaa]);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let pool = Mempool::new(2, 16);
        let h = pool.alloc().unwrap();
        pool.free(h);
        pool.free(h);
    }

    #[test]
    #[should_panic(expected = "exceeds mempool slot")]
    fn oversized_write_panics() {
        let pool = Mempool::new(1, 4);
        let h = pool.alloc().unwrap();
        pool.write(h, &[0u8; 5]);
    }

    #[test]
    fn concurrent_alloc_free() {
        use std::sync::Arc;
        let pool = Arc::new(Mempool::new(64, 16));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let pool = pool.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    if let Some(h) = pool.alloc() {
                        pool.free(h);
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(pool.in_use(), 0);
    }
}
