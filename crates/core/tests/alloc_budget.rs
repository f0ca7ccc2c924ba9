//! The steady-state allocation budget of the event loop, held exactly.
//!
//! Wall-clock gates only catch cliffs; heap allocations per dispatched
//! event are a deterministic cost counter, so this one is gated to the
//! count. The world is the benchmark's `bulk1_hack` (802.11n 150 Mbps
//! download, one client, HACK on): after a second of warm-up (handshake,
//! slow start, pools and scratch buffers filling) the event loop should
//! recycle almost everything it touches.
//!
//! One test in this file, on purpose: the counter is process-wide state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hack_core::{HackMode, ScenarioBuilder, World};
use hack_sim::{SimDuration, SimTime};

/// Counts allocations (and reallocations) made by threads that asked to
/// be counted; everything is forwarded to the system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    // `try_with`: the allocator also runs while a thread is torn down.
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state and does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per event the steady state may cost. Measured: 0.0923
/// (9 337 allocations over 101 124 events), against 1.19 before hot-path
/// round 3. What is left is per PPDU, not per packet: the frame vector
/// of each A-MPDU, the medium's reception records, the acknowledged-MSDU
/// list of each Block ACK, the blob copy on each response, calendar
/// buckets re-grown after a resize. The ceiling has room for one more
/// allocation per PPDU (+0.012) and none for one per packet (+0.6).
const CEILING: f64 = 0.11;

/// `(allocations, events)` over simulated seconds 1–3 of the world.
fn steady_state_window() -> (u64, u64) {
    let cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData)
        .duration(SimDuration::from_secs(3))
        .build();
    let mut world = World::builder(cfg).build();
    let step = SimDuration::from_millis(10);
    let mut until = SimTime::ZERO;
    let mut run_to = |world: &mut World, end: SimTime| {
        while until < end {
            until += step;
            assert!(world.run_until(until) || until >= end, "world ended early");
        }
    };
    run_to(&mut world, SimTime::from_secs(1));

    let events_before = world.events_dispatched();
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    run_to(&mut world, SimTime::from_secs(3));
    COUNTED.with(|c| c.set(false));
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let events = world.events_dispatched() - events_before;
    (allocs, events)
}

#[test]
fn steady_state_allocations_per_event_stay_under_budget() {
    let (allocs, events) = steady_state_window();
    assert!(
        events > 50_000,
        "window too quiet to judge: {events} events"
    );
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= CEILING,
        "{allocs} allocations over {events} events = {per_event:.4} per event, \
         over the {CEILING} budget"
    );
    // A count, not a timing: it repeats to the allocation.
    assert_eq!(steady_state_window(), (allocs, events));
    println!("steady state: {allocs} allocations / {events} events = {per_event:.4}");
}
