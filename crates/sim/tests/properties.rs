//! Property-based tests for the simulation kernel's core invariants.

use std::collections::BTreeMap;

use hack_sim::{
    CalendarQueue, EventQueue, HeapEventQueue, QueueKind, Scheduler, SimDuration, SimRng, SimTime,
    TimerTable, TimerToken,
};
use proptest::prelude::*;

/// A queue without removal, as the scheduler was before it could cancel:
/// every event is pushed, a cancel only bumps the event's timer
/// generation, and stale events are dropped when they reach the front.
#[derive(Default)]
struct LazyOracle {
    queue: BTreeMap<(SimTime, u64), (usize, TimerToken<usize>)>,
    timers: TimerTable<usize>,
    tokens: Vec<TimerToken<usize>>,
}

impl LazyOracle {
    /// Push event `id` (ids count up from 0 in push order).
    fn push(&mut self, at: SimTime, id: usize) {
        let token = self.timers.arm(id);
        self.tokens.push(token);
        self.queue.insert((at, id as u64), (id, token));
    }

    fn cancel(&mut self, id: usize) {
        self.timers.cancel(id);
    }

    fn is_live(&self, id: usize) -> bool {
        self.timers.is_current(&self.tokens[id])
    }

    /// The earliest live event, dropping the stale ones in front of it.
    fn peek(&mut self) -> Option<(SimTime, usize)> {
        loop {
            let (&(at, _), &(id, token)) = self.queue.first_key_value()?;
            if self.timers.is_current(&token) {
                return Some((at, id));
            }
            self.queue.pop_first();
        }
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let head = self.peek()?;
        let (_, (_, token)) = self.queue.pop_first().expect("peeked");
        assert!(self.timers.fire(token));
        Some(head)
    }
}

proptest! {
    /// Differential test: the calendar queue and the binary heap pop the
    /// *identical* (time, payload) sequence for any push order —
    /// including same-instant FIFO bursts (the `dup` factor repeats
    /// times so ties are common).
    #[test]
    fn calendar_matches_heap_total_order(
        times in proptest::collection::vec((0u64..200_000, 1usize..5), 1..150),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut idx = 0usize;
        for &(t, dup) in &times {
            for _ in 0..dup {
                cal.push(SimTime::from_nanos(t), idx);
                heap.push(SimTime::from_nanos(t), idx);
                idx += 1;
            }
        }
        loop {
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Same differential test under a scheduler-like workload: pops
    /// interleaved with pushes that are relative to the last popped
    /// time (events never scheduled into the past), crossing many
    /// resize and year boundaries.
    #[test]
    fn calendar_matches_heap_interleaved(
        ops in proptest::collection::vec((0u64..3_000_000, 0u8..4), 1..300),
    ) {
        let mut cal = EventQueue::with_kind(QueueKind::Calendar);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut now = 0u64;
        for (i, &(delay, pops)) in ops.iter().enumerate() {
            cal.push(SimTime::from_nanos(now + delay), i);
            heap.push(SimTime::from_nanos(now + delay), i);
            for _ in 0..pops {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(a, b);
                if let Some((t, _)) = a {
                    now = t.as_nanos();
                }
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// The bucket insert has an append fast path (the new entry sorts
    /// at or after the bucket's back) and a binary-search slow path.
    /// Drive both hard against the heap: bursts of equal timestamps
    /// (every push after the first appends), and runs of strictly
    /// decreasing times packed inside one initial bucket's 1.024 µs
    /// day (every push after the first lands at the front), interleaved
    /// with pops so scans, rewinds and resizes happen in between.
    #[test]
    fn calendar_matches_heap_bursts_and_descending(
        groups in proptest::collection::vec(
            (0u64..50_000, 1u64..60, any::<bool>(), 0usize..40),
            1..40,
        ),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut now = 0u64;
        let mut idx = 0usize;
        for &(delay, n, descending, pops) in &groups {
            let base = now + delay;
            for i in 0..n {
                let t = if descending { base + (n - 1 - i) } else { base };
                cal.push(SimTime::from_nanos(t), idx);
                heap.push(SimTime::from_nanos(t), idx);
                idx += 1;
            }
            for _ in 0..pops {
                prop_assert_eq!(cal.peek_time(), heap.peek_time());
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(a, b);
                if let Some((t, _)) = a {
                    now = t.as_nanos();
                }
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Removal under arbitrary interleavings of push (half of them onto
    /// a handful of instants, so FIFO ties are common), cancel of any
    /// handle ever issued (pending, the head, popped, cancelled, or one
    /// whose slab slot a later push reused), peek and pop. Calendar and
    /// heap agree on every answer and on `dispatched()`; a cancel
    /// succeeds exactly when the event is still pending; and both pop
    /// the `(time, payload)` sequence of a queue without removal whose
    /// cancelled events are dropped at the front by generation tokens.
    #[test]
    fn cancel_agrees_with_heap_and_with_lazy_tokens(
        ops in proptest::collection::vec((0u8..6, 0u64..40_000, any::<usize>()), 1..400),
    ) {
        let mut cal = Scheduler::with_kind(QueueKind::Calendar);
        let mut heap = Scheduler::with_kind(QueueKind::Heap);
        let mut oracle = LazyOracle::default();
        let mut handles = Vec::new();
        for &(op, x, pick) in &ops {
            match op {
                0 | 1 => {
                    let delay = if op == 0 { x % 4 } else { x };
                    let at = cal.now() + SimDuration::from_nanos(delay);
                    let id = handles.len();
                    handles.push((cal.schedule_at(at, id), heap.schedule_at(at, id)));
                    oracle.push(at, id);
                }
                2 | 3 => {
                    // Any handle, or the head's.
                    let id = match (op, oracle.peek()) {
                        (3, Some((_, head))) => head,
                        _ if handles.is_empty() => continue,
                        _ => pick % handles.len(),
                    };
                    let (hc, hh) = handles[id];
                    let live = oracle.is_live(id);
                    let got = cal.cancel(hc);
                    prop_assert_eq!(got, heap.cancel(hh));
                    prop_assert_eq!(got, live.then_some(id));
                    oracle.cancel(id);
                }
                4 => {
                    let t = cal.peek_time();
                    prop_assert_eq!(t, heap.peek_time());
                    prop_assert_eq!(t, oracle.peek().map(|(at, _)| at));
                }
                _ => {
                    let got = cal.pop();
                    prop_assert_eq!(got, heap.pop());
                    prop_assert_eq!(got, oracle.pop());
                }
            }
            prop_assert_eq!(cal.pending(), heap.pending());
        }
        loop {
            let got = cal.pop();
            prop_assert_eq!(got, heap.pop());
            prop_assert_eq!(got, oracle.pop());
            if got.is_none() {
                break;
            }
        }
        prop_assert_eq!(cal.dispatched(), heap.dispatched());
    }

    /// Events always pop in non-decreasing time order regardless of
    /// insertion order.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// Same-time events pop in insertion order (stable FIFO tiebreak).
    #[test]
    fn queue_fifo_on_ties(groups in proptest::collection::vec((0u64..100, 1usize..8), 1..40)) {
        let mut q = EventQueue::new();
        let mut idx = 0usize;
        for &(t, n) in &groups {
            for _ in 0..n {
                q.push(SimTime::from_nanos(t), idx);
                idx += 1;
            }
        }
        // Per firing time, payload indices must be ascending *within the
        // set of payloads inserted at that time*.
        let mut by_time: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
        while let Some((t, p)) = q.pop() {
            by_time.entry(t.as_nanos()).or_default().push(p);
        }
        for seq in by_time.values() {
            prop_assert!(seq.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// The scheduler clock is monotone non-decreasing over any run.
    #[test]
    fn scheduler_clock_monotone(delays in proptest::collection::vec(0u64..10_000, 1..100)) {
        let mut s = Scheduler::new();
        for &d in &delays {
            s.schedule_in(SimDuration::from_nanos(d), ());
        }
        let mut last = SimTime::ZERO;
        while let Some((t, ())) = s.pop() {
            prop_assert!(t >= last);
            prop_assert_eq!(s.now(), t);
            last = t;
        }
    }

    /// A timer token fires iff it is the most recent arming and was not
    /// cancelled, and at most once.
    #[test]
    fn timer_exactly_once(ops in proptest::collection::vec(0u8..3, 1..100)) {
        let mut table: TimerTable<u8> = TimerTable::new();
        let mut outstanding = Vec::new();
        let mut latest: Option<hack_sim::TimerToken<u8>> = None;
        let mut cancelled = true;
        for op in ops {
            match op {
                0 => {
                    let tok = table.arm(0);
                    outstanding.push(tok);
                    latest = Some(tok);
                    cancelled = false;
                }
                1 => {
                    table.cancel(0);
                    cancelled = true;
                }
                _ => {}
            }
        }
        let mut fired = 0;
        for tok in outstanding {
            if table.fire(tok) {
                fired += 1;
                prop_assert_eq!(Some(tok), latest);
            }
        }
        prop_assert_eq!(fired, u32::from(!cancelled && latest.is_some()));
    }

    /// RNG determinism: identical seeds yield identical streams; forks are
    /// reproducible.
    #[test]
    fn rng_deterministic(seed in any::<u64>(), salt in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.uniform(1 << 20), b.uniform(1 << 20));
        }
        let mut fa = SimRng::new(seed).fork(salt);
        let mut fb = SimRng::new(seed).fork(salt);
        prop_assert_eq!(fa.uniform(u32::MAX), fb.uniform(u32::MAX));
    }

    /// for_bits never under-estimates: duration * rate >= bits.
    #[test]
    fn for_bits_is_ceiling(bits in 0u64..1_000_000_000, rate in 1u64..1_000_000_000) {
        let d = SimDuration::for_bits(bits, rate);
        // d >= bits/rate seconds  <=>  d_ns * rate >= bits * 1e9
        prop_assert!((d.as_nanos() as u128) * (rate as u128) >= (bits as u128) * 1_000_000_000);
        // And tight: one ns less would be too short (when d > 0).
        if d.as_nanos() > 0 {
            prop_assert!(((d.as_nanos() - 1) as u128) * (rate as u128) < (bits as u128) * 1_000_000_000);
        }
    }
}
