//! The steady-state allocation budget of the event loop, held exactly.
//!
//! Wall-clock gates only catch cliffs; heap allocations per simulated
//! second are a deterministic cost counter, so this one is gated to the
//! count, on four worlds: the benchmark's `bulk1_hack` (802.11n
//! 150 Mbps download, one client, HACK on), the same download in
//! Opportunistic mode (every held ACK also queued natively, and the
//! twins of ACKs that rode a response withdrawn again), its
//! `sora2_stock` (802.11a, two stock-TCP clients: every frame its own
//! PPDU, collisions), and one shard of a 4-BSS enterprise floor (what
//! `dense16_hack` runs sixteen of). After its warm-up (handshake, slow
//! start, pools, spare lists and the event slab filling) the event loop
//! recycles everything a PPDU exchange touches: reception records,
//! MPDU-length and frame lists, acknowledged-MSDU lists, action lists,
//! blob buffers, calendar buckets.
//!
//! Measured per window: 30, 55, 3 and 6 allocations (15, 27.5, 0.75
//! and 6 per simulated second). None of them is per PPDU. What is left
//! is growth past a previous high-water mark — `ThroughputMeter`'s
//! sample vector (one doubling now and then for as long as a flow
//! delivers), a blob buffer, spare list or host-delivery batch meeting
//! a larger burst than any before — and `BaResolution::dropped`, which
//! is built only when an MSDU exhausts its retries.
//!
//! The budgets are per simulated second of the window, the unit of the
//! repo benchmark's `allocs_per_sim_s`, so they do not move when the
//! event count does. The first, third and fourth allow 101, 118 and 53
//! allocations per window: 10⁻³ of the events each window dispatched
//! before stale timer events left the queue and same-instant host
//! deliveries were batched. The Opportunistic world has the first's
//! budget; it spent 1,811 per window (905.5 per simulated second) while
//! each response that carried a blob collected the ridden idents and
//! the withdrawn twins into fresh lists.
//!
//! One test in this file, on purpose: the counter is process-wide state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hack_core::{shard_configs, BssSpec, HackMode, ScenarioBuilder, ScenarioConfig, World};
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

/// One budgeted world: the window `[from, to)` of `cfg`, and the
/// allocations per simulated second of it that it may cost.
struct Budget {
    name: &'static str,
    cfg: fn() -> ScenarioConfig,
    from: SimTime,
    to: SimTime,
    allocs_per_sim_s: f64,
}

const BUDGETS: [Budget; 4] = [
    Budget {
        name: "802.11n HACK download",
        cfg: || {
            ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData)
                .duration(SimDuration::from_secs(3))
                .build()
        },
        from: SimTime::from_secs(1),
        to: SimTime::from_secs(3),
        allocs_per_sim_s: 50.5,
    },
    Budget {
        name: "802.11n opportunistic HACK download",
        cfg: || {
            ScenarioBuilder::dot11n_download(150, 1, HackMode::Opportunistic)
                .duration(SimDuration::from_secs(3))
                .build()
        },
        from: SimTime::from_secs(1),
        to: SimTime::from_secs(3),
        allocs_per_sim_s: 50.5,
    },
    Budget {
        name: "SoRa, two stock-TCP clients",
        cfg: || {
            ScenarioBuilder::sora_testbed(2, HackMode::Disabled)
                .duration(SimDuration::from_secs(6))
                .build()
        },
        from: SimTime::from_secs(2),
        to: SimTime::from_secs(6),
        allocs_per_sim_s: 29.5,
    },
    Budget {
        name: "one shard of a 4-BSS enterprise floor",
        cfg: || {
            let floor = ScenarioBuilder::dot11n_download(150, 16, HackMode::MoreData)
                .bss(BssSpec::enterprise_floor(4, 4))
                .duration(SimDuration::from_millis(1500))
                .stagger(SimDuration::from_millis(2))
                .seed(7)
                .build();
            shard_configs(&floor).swap_remove(0).0
        },
        from: SimTime::from_millis(500),
        to: SimTime::from_millis(1500),
        allocs_per_sim_s: 53.0,
    },
];

/// `(allocations, events)` over the budget's window of its world.
fn steady_state_window(b: &Budget) -> (u64, u64) {
    let mut world = World::builder((b.cfg)()).build();
    let step = SimDuration::from_millis(10);
    let mut until = SimTime::ZERO;
    let mut run_to = |world: &mut World, end: SimTime| {
        while until < end {
            until += step;
            assert!(world.run_until(until) || until >= end, "world ended early");
        }
    };
    run_to(&mut world, b.from);

    let events_before = world.events_dispatched();
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    run_to(&mut world, b.to);
    COUNTED.with(|c| c.set(false));
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let events = world.events_dispatched() - events_before;
    (allocs, events)
}

#[test]
fn steady_state_allocations_per_event_stay_under_budget() {
    for b in &BUDGETS {
        let (allocs, events) = steady_state_window(b);
        assert!(events > 0, "{}: the window dispatched nothing", b.name);
        let sim_s = (b.to - b.from).as_secs_f64();
        let per_sim_s = allocs as f64 / sim_s;
        println!(
            "{}: {allocs} allocations / {sim_s} sim s = {per_sim_s:.2} per sim s \
             ({events} events)",
            b.name
        );
        assert!(
            per_sim_s <= b.allocs_per_sim_s,
            "{}: {allocs} allocations over {sim_s} sim s = {per_sim_s:.2} per sim s, \
             over the {} budget",
            b.name,
            b.allocs_per_sim_s
        );
        // A count, not a timing: it repeats to the allocation.
        assert_eq!(steady_state_window(b), (allocs, events), "{}", b.name);
    }
}
