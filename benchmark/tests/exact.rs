//! Work counts are exact. This file holds one test on purpose: the
//! counting allocator is process-wide, and a test binary with a single
//! test has no neighbour allocating behind its back.

use std::path::PathBuf;

use hack_benchmark::workloads::{Bulk1Hack, Env, Ops, Workload};

/// Two single-threaded reps of `bulk1_hack` under one seed do the same
/// work: same events, same allocations, same bytes, same outputs — so
/// `events_per_sim_s` and `allocs_per_sim_s` repeat exactly.
#[test]
fn same_slot_reps_of_bulk1_hack_are_exact() {
    let w = Bulk1Hack(Env {
        seed: 1,
        threads: 1,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    });
    let mut ops = Ops::default();
    let (a, b) = (w.rep(0, 0, &mut ops), w.rep(0, 0, &mut ops));
    assert_eq!(ops.failed, 0, "{:?}", ops.failures);
    assert_eq!(a.events, b.events);
    assert_eq!(a.heap.allocs, b.heap.allocs);
    assert_eq!(a.heap.bytes, b.heap.bytes);
    assert_eq!(a.digest, b.digest);
    let other = w.rep(0, 1, &mut ops);
    assert_ne!(a.digest, other.digest, "another slot is another seed");
}
