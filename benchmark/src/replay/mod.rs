//! Layer replays: each drives one layer's public functions from
//! outside, in its steady state, on inputs generated from `--seed`,
//! and checks what came back. A replay whose check fails is a failed
//! operation, not a silently fast one.
//!
//! Calls are timed in batches of [`PER_BATCH`], one span per batch, so
//! that reading the clock stays under 2 % of what is measured
//! (`bench.timer_ns` says what a read costs). A replay's figure is the
//! median over its batches of nanoseconds per call.

pub mod core;
pub mod mac;
pub mod phy;
pub mod rohc;
pub mod sim;
pub mod tcp;

use std::time::Instant;

use crate::spans::{Recorder, SpanId};
use crate::stats::median;
use crate::workloads::Ops;

/// Calls per timed batch.
pub const PER_BATCH: usize = 256;
/// Timed batches per replay.
pub const BATCHES: usize = 64;

/// What every replay is handed.
pub struct Ctx<'a> {
    /// Where spans go.
    pub rec: &'a mut Recorder,
    /// The span the replays hang under.
    pub parent: Option<SpanId>,
    /// `--seed`: every replay input is a function of it.
    pub seed: u64,
    /// Replay checks are operations.
    pub ops: &'a mut Ops,
}

impl Ctx<'_> {
    /// Time [`BATCHES`] batches of [`PER_BATCH`] calls of `op` after one
    /// untimed warm-up batch; the median nanoseconds per call.
    pub fn batches(&mut self, name: &'static str, mut op: impl FnMut()) -> f64 {
        for _ in 0..PER_BATCH {
            op();
        }
        let mut per_call = Vec::with_capacity(BATCHES);
        for b in 0..BATCHES {
            let ((), ns) = self.rec.time(name, self.parent, b as u32, || {
                for _ in 0..PER_BATCH {
                    op();
                }
            });
            per_call.push(ns as f64 / PER_BATCH as f64);
        }
        median(&per_call)
    }

    /// Time `n` single calls of a slow `op` (tens of microseconds and
    /// up), one span each; the median nanoseconds per call.
    pub fn samples<R>(&mut self, name: &'static str, n: u32, mut op: impl FnMut() -> R) -> f64 {
        let per_call: Vec<f64> = (0..n)
            .map(|i| {
                let (r, ns) = self.rec.time(name, self.parent, i, &mut op);
                std::hint::black_box(r);
                ns as f64
            })
            .collect();
        median(&per_call)
    }

    /// Run `f` with every span it records hanging under a new span
    /// called `name`.
    pub fn under<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.rec.open(name, self.parent, 0);
        let outer = self.parent.replace(id);
        let r = f(self);
        self.parent = outer;
        self.rec.close(id);
        r
    }

    /// Count one replay check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.ops.check(ok, || format!("replay check: {what}"));
    }
}

/// Accumulates time spent in one kind of call when the calls come in
/// uneven groups (a TCP round delivers however many segments the window
/// allows): groups are pooled until they hold [`PER_BATCH`] calls, then
/// closed as one batch and one span.
pub struct Pool {
    name: &'static str,
    open_since_ns: u64,
    ns: u64,
    calls: u64,
    batch: u32,
    per_call: Vec<f64>,
    /// Host nanoseconds in every group so far, closed batch or not.
    pub total_ns: u64,
}

impl Pool {
    /// An empty pool whose spans are called `name`.
    pub fn new(name: &'static str) -> Self {
        Pool {
            name,
            open_since_ns: 0,
            ns: 0,
            calls: 0,
            batch: 0,
            per_call: Vec::new(),
            total_ns: 0,
        }
    }

    /// Time `group`, which makes `calls(&result)` calls.
    pub fn time<R>(
        &mut self,
        cx: &mut Ctx<'_>,
        group: impl FnOnce() -> R,
        calls: impl FnOnce(&R) -> usize,
    ) -> R {
        if self.calls == 0 {
            self.open_since_ns = cx.rec.now_ns();
        }
        let t = Instant::now();
        let r = group();
        let ns = t.elapsed().as_nanos() as u64;
        self.ns += ns;
        self.total_ns += ns;
        self.calls += calls(&r) as u64;
        if self.calls >= PER_BATCH as u64 {
            // The span covers only the pooled time, not what ran
            // between the groups.
            cx.rec.add(
                self.name,
                cx.parent,
                self.batch,
                self.open_since_ns,
                self.open_since_ns + self.ns,
            );
            self.per_call.push(self.ns as f64 / self.calls as f64);
            self.batch += 1;
            self.ns = 0;
            self.calls = 0;
        }
        r
    }

    /// Median nanoseconds per call over the closed batches.
    pub fn ns_per_call(&self) -> f64 {
        if self.per_call.is_empty() {
            f64::NAN
        } else {
            median(&self.per_call)
        }
    }
}
