//! `hack-sim`: the event queue, the timer table and the quantile
//! sketch.

use hack_sim::{EventQueue, QuantileSketch, SimRng, SimTime, TimerTable};

use super::{Ctx, PER_BATCH};

/// `EventQueue` in the classic hold model at `depth` pending events:
/// pop the earliest, push one a random increment later. Depth 64 is the
/// single-cell regime, 1024 a dense shard's.
pub fn queue_hold(cx: &mut Ctx<'_>, name: &'static str, depth: usize) -> f64 {
    let mut rng = SimRng::new(cx.seed).fork(0x5117 + depth as u64);
    let steps: Vec<u64> = (0..4096)
        .map(|_| 200 + u64::from(rng.uniform(5000)))
        .collect();
    let mut q = EventQueue::new();
    for i in 0..depth {
        q.push(SimTime::from_nanos(steps[i % steps.len()] * 8), i as u64);
    }
    let (mut last, mut ordered, mut i) = (SimTime::ZERO, true, 0usize);
    let ns = cx.batches(name, || {
        let (t, v) = q.pop().expect("the queue never drains");
        ordered &= t >= last;
        last = t;
        i = (i + 1) % steps.len();
        q.push(t + hack_sim::SimDuration::from_nanos(steps[i]), v);
    });
    cx.check(ordered, "event queue popped out of time order");
    cx.check(q.len() == depth, "event queue lost or gained events");
    ns
}

/// `TimerTable`: arm, cancel, re-arm, a stale fire, a current fire.
pub fn timer_cycle(cx: &mut Ctx<'_>) -> f64 {
    let mut table: TimerTable<u32> = TimerTable::new();
    let (mut key, mut ok, mut cycles) = (cx.seed as u32, true, 0u64);
    let ns = cx.batches("sim.timer_cycle", || {
        key = (key + 1) % 64;
        let stale = table.arm(key);
        table.cancel(key);
        let current = table.arm(key);
        ok &= !table.fire(stale) && table.fire(current);
        cycles += 1;
    });
    cx.check(ok, "a cancelled timer fired or a current one did not");
    cx.check(table.stale_fired() == cycles, "stale fires miscounted");
    ns
}

/// `QuantileSketch::record` on heavy-tailed samples.
pub fn sketch_record(cx: &mut Ctx<'_>) -> f64 {
    let mut rng = SimRng::new(cx.seed).fork(0x5ce7);
    // Flow-completion-time-like nanoseconds over six decades.
    let values: Vec<u64> = (0..PER_BATCH)
        .map(|_| 1_000 + (1e9 * rng.unit().powi(6)) as u64)
        .collect();
    let mut sketch = QuantileSketch::new();
    let mut i = 0;
    let ns = cx.batches("sim.sketch_record", || {
        sketch.record(values[i]);
        i = (i + 1) % PER_BATCH;
    });
    // Every batch records every value once, so the sketch holds the
    // input multiset a whole number of times over.
    let mut sorted = values.clone();
    sorted.sort_unstable();
    let exact = sorted[(PER_BATCH - 1) / 2] as f64;
    let approx = sketch.quantile(0.5).unwrap_or(0) as f64;
    cx.check(
        sketch.count().is_multiple_of(PER_BATCH as u64)
            && sketch.min() == sorted.first().copied()
            && sketch.max() == sorted.last().copied(),
        "sketch count, min or max off",
    );
    cx.check(
        (approx - exact).abs() <= 0.07 * exact,
        "sketch median outside its 6.7 % error bound",
    );
    ns
}
