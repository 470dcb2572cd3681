//! A counting global allocator: every allocation bumps two counters of
//! the allocating thread, so a span can report how many allocations (and
//! bytes) the code inside it made. Always on — the end-to-end runs pay
//! the same two increments the traced run does.
//!
//! The counters are per thread: the layers whose allocation counts the
//! ledger reports all run on the calling thread, a span never sees
//! another thread's noise, and two threads never share a cache line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and no destructor: touching these from inside
    // the allocator never allocates and stays valid during thread exit.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` only fails once the thread's locals are gone; an
    // allocation that late is nobody's to report.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// The system allocator plus the per-thread counters.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow counts as one allocation of the added bytes; a shrink
        // as one allocation of nothing.
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller vouched for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes)` the calling thread has made since it started.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_exactly() {
        let (a0, b0) = snapshot();
        let v: Vec<u64> = Vec::with_capacity(100);
        let (a1, b1) = snapshot();
        assert_eq!(a1 - a0, 1);
        assert_eq!(b1 - b0, 800);
        drop(v);
        assert_eq!(snapshot(), (a1, b1), "frees are not counted");
        // Another thread's allocations stay on that thread's counters.
        std::thread::spawn(|| std::hint::black_box(vec![0u8; 4096]))
            .join()
            .expect("helper thread");
        let (a2, _) = snapshot();
        // Spawning allocates a little on this thread, but not 4 KiB.
        assert!(snapshot().1 - b1 < 4096, "spawn overhead only");
        assert!(a2 >= a1);
    }
}
