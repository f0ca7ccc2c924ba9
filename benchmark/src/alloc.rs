//! Counting global allocator: allocations, bytes requested, live bytes
//! and peak live bytes, process-wide (worker threads included).
//!
//! The counters cost two to four relaxed atomic adds per allocation,
//! inside the timed region, on every commit alike. They are *read*
//! only outside timed regions, through [`live`], [`mark`] and
//! [`Mark::since`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The allocator `lib.rs` installs.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(by: u64) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// atomics that publish no other data and never influence the pointer
// or layout handed back.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        grow(layout.size() as u64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        if new_size >= layout.size() {
            grow((new_size - layout.size()) as u64);
        } else {
            LIVE.fetch_sub((layout.size() - new_size) as u64, Relaxed);
        }
        // SAFETY: same pointer, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counter values at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    allocs: u64,
    bytes: u64,
    baseline: u64,
}

/// What happened on the heap between a [`mark`] and now.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapDelta {
    /// Allocations plus reallocations.
    pub allocs: u64,
    /// Bytes requested by them.
    pub bytes: u64,
    /// Highest live-byte total seen since the mark, over the mark's
    /// baseline.
    pub peak_bytes: u64,
}

/// Bytes live right now. A rep reads this before it sets up and hands
/// it to [`mark`], so that its peak counts the world it built but not
/// what the harness itself holds.
pub fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// Start a measured region: remember the counters and restart the peak
/// from the bytes live right now. The region's peak will be reported
/// over `baseline` live bytes.
pub fn mark(baseline: u64) -> Mark {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    Mark {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        baseline,
    }
}

impl Mark {
    /// End the region started by [`mark`].
    pub fn since(self) -> HeapDelta {
        HeapDelta {
            allocs: ALLOCS.load(Relaxed) - self.allocs,
            bytes: BYTES.load(Relaxed) - self.bytes,
            peak_bytes: PEAK.load(Relaxed).saturating_sub(self.baseline),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_bytes_and_peak() {
        // Other tests allocate concurrently, so assert lower bounds.
        let m = mark(live());
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let d = m.since();
        assert!(d.allocs >= 1);
        assert!(d.bytes >= 1 << 20);
        assert!(d.peak_bytes >= 1 << 20);
        drop(v);
    }
}
