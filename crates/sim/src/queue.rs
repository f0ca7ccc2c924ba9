//! The pending-event queue at the heart of the discrete-event engine.
//!
//! [`EventQueue`] is a Brown-style calendar queue (the structure NS-2
//! popularized for network simulation): events hash into time-indexed
//! buckets of one "day" each, a "year" spanning all buckets, so push
//! and pop are amortized O(1) in the steady state.
//!
//! Events are ordered by firing time with a monotonically increasing
//! sequence number as a tiebreak, so events scheduled for the same
//! instant fire in **FIFO order**. Deterministic tie-breaking matters:
//! the 802.11 MAC schedules many same-instant events (e.g. several
//! stations' backoff slot boundaries), and run-to-run reproducibility
//! of the whole simulation depends on their dispatch order being a pure
//! function of insertion order.
//!
//! A push returns an [`EventHandle`], and `cancel(handle)` unlinks that
//! event from its bucket: it is never popped and never counted. A
//! removal changes no other entry's sequence number, so the remaining
//! events pop in the order they would have had anyway.
//!
//! A classic binary min-heap stays in this file's tests as the
//! reference: the property tests hold the calendar to the heap's pop
//! order, cancels included.

use crate::time::SimTime;

/// Names one pushed event so it can be cancelled before it fires.
///
/// A handle outlives its event harmlessly: cancelling one whose event
/// was already popped or cancelled does nothing, even after the event's
/// storage slot went to a later push (the slot's sequence number no
/// longer matches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    slot: u32,
    seq: u64,
}

/// "No slot": the end of a bucket's list, or an empty bucket.
const NIL: u32 = u32::MAX;

/// Where a push stores its payload: a vacant slot, or a new one.
fn slot_for<T>(slab: &mut Vec<T>, free: &mut Vec<u32>, value: T) -> u32 {
    match free.pop() {
        Some(i) => {
            slab[i as usize] = value;
            i
        }
        None => {
            slab.push(value);
            u32::try_from(slab.len() - 1).expect("slab index fits u32")
        }
    }
}

/// Smallest bucket count the calendar shrinks to.
const MIN_BUCKETS: usize = 8;
/// Bucket-width ceiling (2^40 ns ≈ 18 min) — keeps the year arithmetic
/// far from overflow even for degenerate schedules.
const MAX_WIDTH_SHIFT: u32 = 40;

/// One slab slot: an event's sort key, its neighbours in its bucket,
/// and its payload (`None` while the slot is on the free list).
#[derive(Debug)]
struct Slot<E> {
    at: SimTime,
    seq: u64,
    prev: u32,
    next: u32,
    payload: Option<E>,
}

/// One day-bucket's sorted list; `tail` is stale while `head` is [`NIL`].
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// An event queue holding payloads of type `E`, ordered by firing time
/// then insertion order.
///
/// A Brown-style calendar queue: buckets of one "day" (`width`) each,
/// the whole array spanning one "year". An event at time `t` lives in
/// bucket `(t / width) % nbuckets`; buckets are kept sorted so pops
/// stream off bucket fronts in (time, seq) order.
///
/// Events are stored once in a slab with a LIFO free list, and a
/// bucket's order is threaded through the slab itself (`prev` and
/// `next` per slot, head and tail per bucket): a bucket owns no heap, so
/// neither a burst landing in one day nor a resize allocates once the
/// slab has grown, and a cancel unlinks its slot in O(1).
///
/// The structure is entirely deterministic — bucket geometry and slab
/// slot reuse are pure functions of the queue's content (no sampling,
/// no randomness, no wall clock), so equal push sequences always
/// produce equal pop sequences, bit for bit.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `nbuckets` (power of two) sorted day-buckets.
    buckets: Vec<Bucket>,
    /// Event storage; bucket lists link its slots.
    slab: Vec<Slot<E>>,
    /// Vacant slab indices, reused LIFO.
    free: Vec<u32>,
    /// Scratch for `resize`: every pending `(at, seq, slot)`.
    order: Vec<(SimTime, u64, u32)>,
    /// log2 of the bucket width in ns (width is a power of two so the
    /// index computation is a shift, not a division).
    width_shift: u32,
    /// Bucket the pop scan is parked on.
    cur_bucket: usize,
    /// Exclusive upper time bound of `cur_bucket`'s current day.
    bucket_top_ns: u64,
    len: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: vec![EMPTY; MIN_BUCKETS],
            slab: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            width_shift: 10, // 1.024 µs days until the first resize
            cur_bucket: 0,
            bucket_top_ns: 1 << 10,
            len: 0,
            next_seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn width_ns(&self) -> u64 {
        1 << self.width_shift
    }

    fn bucket_of(&self, at_ns: u64) -> usize {
        ((at_ns >> self.width_shift) as usize) & (self.buckets.len() - 1)
    }

    /// Park the pop scan on the day containing `at_ns`.
    fn set_scan(&mut self, at_ns: u64) {
        self.cur_bucket = self.bucket_of(at_ns);
        self.bucket_top_ns = (at_ns >> self.width_shift << self.width_shift) + self.width_ns();
    }

    fn key(&self, slot: u32) -> (SimTime, u64) {
        let s = &self.slab[slot as usize];
        (s.at, s.seq)
    }

    /// Link `slot` into its bucket keeping the list sorted by (time,
    /// seq); seqs are unique, so equal-time entries fall behind every
    /// already-present one with a smaller seq — the FIFO tiebreak.
    ///
    /// `seq` only grows and a simulation mostly schedules forward in
    /// time, so an entry often belongs at the back of its bucket (two
    /// inserts in three on the aggregated 802.11n download, where bursts
    /// share an instant; one in ten on an 802.11a cell, where a bucket
    /// usually ends in some far-off timer). That case is an append; only
    /// an earlier entry walks the list (a couple of slots, by the width).
    fn link(&mut self, slot: u32) {
        let key = self.key(slot);
        let b = self.bucket_of(key.0.as_nanos());
        let Bucket { head, tail } = self.buckets[b];
        let (prev, next) = if head == NIL {
            self.buckets[b].head = slot;
            self.buckets[b].tail = slot;
            (NIL, NIL)
        } else if self.key(tail) < key {
            self.slab[tail as usize].next = slot;
            self.buckets[b].tail = slot;
            (tail, NIL)
        } else {
            // The tail sorts after `slot`, so the walk ends before it.
            let mut cur = head;
            while self.key(cur) < key {
                cur = self.slab[cur as usize].next;
            }
            let prev = std::mem::replace(&mut self.slab[cur as usize].prev, slot);
            match prev {
                NIL => self.buckets[b].head = slot,
                _ => self.slab[prev as usize].next = slot,
            }
            (prev, cur)
        };
        let s = &mut self.slab[slot as usize];
        (s.prev, s.next) = (prev, next);
    }

    /// Take `slot` out of its bucket's list, free it and return its
    /// event.
    fn remove(&mut self, slot: u32) -> (SimTime, E) {
        let s = &mut self.slab[slot as usize];
        let payload = s.payload.take().expect("live slab slot");
        let (at, prev, next) = (s.at, s.prev, s.next);
        let b = self.bucket_of(at.as_nanos());
        match prev {
            NIL => self.buckets[b].head = next,
            _ => self.slab[prev as usize].next = next,
        }
        match next {
            NIL => self.buckets[b].tail = prev,
            _ => self.slab[next as usize].prev = prev,
        }
        self.free.push(slot);
        self.len -= 1;
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 2 {
            self.resize(self.buckets.len() / 2);
        }
        (at, payload)
    }

    /// Schedule `payload` to fire at absolute time `at`.
    pub fn push(&mut self, at: SimTime, payload: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let at_ns = at.as_nanos();
        // If the event lands before the day the scan is parked on,
        // rewind the scan so the next pop cannot miss it.
        if self.len == 0 || at_ns < self.bucket_top_ns - self.width_ns() {
            self.set_scan(at_ns);
        }
        let slot = Slot {
            at,
            seq,
            prev: NIL,
            next: NIL,
            payload: Some(payload),
        };
        let slot = slot_for(&mut self.slab, &mut self.free, slot);
        self.link(slot);
        self.len += 1;
        if self.len > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
        EventHandle { slot, seq }
    }

    /// Remove the event `handle` names, returning its payload; `None`
    /// if it already popped or was cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> Option<E> {
        let s = self.slab.get(handle.slot as usize)?;
        if s.seq != handle.seq || s.payload.is_none() {
            return None;
        }
        Some(self.remove(handle.slot).1)
    }

    /// Advance the year scan to the bucket holding the global minimum
    /// and return its index. Amortized O(1): the scan position persists
    /// across calls (peeks and pops share it), so consecutive calls
    /// resume where the last one parked instead of rescanning.
    fn find_min(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        // Fast path: walk day-buckets within the current year. Each
        // bucket head is that bucket's minimum; a head inside the
        // scan's current day is the global minimum.
        for _ in 0..self.buckets.len() {
            let head = self.buckets[self.cur_bucket].head;
            if head != NIL && self.slab[head as usize].at.as_nanos() < self.bucket_top_ns {
                return Some(self.cur_bucket);
            }
            self.cur_bucket = (self.cur_bucket + 1) & (self.buckets.len() - 1);
            self.bucket_top_ns += self.width_ns();
        }
        // Sparse year (a full lap found nothing): jump the scan straight
        // to the earliest event. Direct search over bucket heads.
        let (at, _) = self
            .buckets
            .iter()
            .filter(|b| b.head != NIL)
            .map(|b| self.key(b.head))
            .min()
            .expect("len > 0 but all buckets empty");
        self.set_scan(at.as_nanos());
        Some(self.cur_bucket)
    }

    /// The firing time of the earliest pending event, if any.
    ///
    /// Takes `&mut self`: peeking advances the shared year-scan cursor
    /// (pure acceleration state — the queue's contents and pop order
    /// are unaffected), which is what makes the peek-then-pop pattern
    /// of a simulation main loop amortized O(1) instead of O(nbuckets)
    /// per event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let idx = self.find_min()?;
        Some(self.slab[self.buckets[idx].head as usize].at)
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let idx = self.find_min()?;
        Some(self.remove(self.buckets[idx].head))
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.buckets.fill(EMPTY);
        self.slab.clear();
        self.free.clear();
        self.len = 0;
    }

    /// Re-bucket every pending event into `nbuckets` buckets with a
    /// width derived from the current time span per event. Only list
    /// links move, and `order` and `buckets` keep their memory. Fully
    /// deterministic: geometry depends only on queue content.
    fn resize(&mut self, nbuckets: usize) {
        let mut order = std::mem::take(&mut self.order);
        let live = self.slab.iter().zip(0u32..);
        order.extend(
            live.filter(|(s, _)| s.payload.is_some())
                .map(|(s, i)| (s.at, s.seq, i)),
        );
        // In key order every re-link below is an append.
        order.sort_unstable();
        let min_ns = order.first().map_or(0, |r| r.0.as_nanos());
        let max_ns = order.last().map_or(0, |r| r.0.as_nanos());
        let span_per_event = (max_ns - min_ns) / order.len().max(1) as u64;
        self.width_shift = span_per_event
            .next_power_of_two()
            .trailing_zeros()
            .clamp(1, MAX_WIDTH_SHIFT);
        self.buckets.clear();
        self.buckets.resize(nbuckets, EMPTY);
        self.set_scan(min_ns);
        for (_, _, slot) in order.drain(..) {
            self.link(slot);
        }
        self.order = order;
    }
}

/// A simulation clock plus event queue: the minimal driver loop.
///
/// [`Scheduler::pop`] advances the clock to each event's firing time, which
/// guarantees the global event-ordering invariant: the clock never moves
/// backwards, and every handler observes `now` equal to its event's
/// scheduled time. A [cancelled](Scheduler::cancel) event is never
/// popped, so it is not counted in [`Scheduler::dispatched`].
#[derive(Debug)]
pub struct Scheduler<E> {
    now: SimTime,
    queue: EventQueue<E>,
    dispatched: u64,
    pushes: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Create a scheduler with the clock at t=0 and an empty queue.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            dispatched: 0,
            pushes: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Events scheduled so far, cancelled ones included. Two equal
    /// readings mean nothing was pushed in between.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Schedule an event at an absolute instant.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling into the past would break
    /// causality and silently reorder the run.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventHandle {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at}, now={}",
            self.now
        );
        self.pushes += 1;
        self.queue.push(at, payload)
    }

    /// Schedule an event `delay` from now.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, payload: E) -> EventHandle {
        self.schedule_at(self.now + delay, payload)
    }

    /// Remove a scheduled event before it fires, returning its payload;
    /// `None` (and nothing happens) if it already fired or was
    /// cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> Option<E> {
        self.queue.cancel(handle)
    }

    /// Firing time of the next event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pop the next event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, payload) = self.queue.pop()?;
        debug_assert!(at >= self.now, "event queue returned a past event");
        self.now = at;
        self.dispatched += 1;
        Some((at, payload))
    }
}

/// The classic binary-min-heap event queue, ordered by firing time then
/// insertion order: the queue the calendar replaced, kept as the model
/// the property tests hold [`EventQueue`] to. Payloads sit in a slab
/// beside the heap, so a cancel empties the slot and leaves the heap
/// entry behind as a tombstone.
#[cfg(test)]
mod reference {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::{slot_for, EventHandle};
    use crate::time::SimTime;

    pub struct HeapEventQueue<E> {
        heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
        /// `(seq, payload)` per slot; the payload is `None` once popped
        /// or cancelled.
        slab: Vec<(u64, Option<E>)>,
        free: Vec<u32>,
        len: usize,
        next_seq: u64,
    }

    impl<E> HeapEventQueue<E> {
        pub fn new() -> Self {
            HeapEventQueue {
                heap: BinaryHeap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                len: 0,
                next_seq: 0,
            }
        }

        pub fn len(&self) -> usize {
            self.len
        }

        pub fn push(&mut self, at: SimTime, payload: E) -> EventHandle {
            let seq = self.next_seq;
            self.next_seq += 1;
            let slot = slot_for(&mut self.slab, &mut self.free, (seq, Some(payload)));
            self.heap.push(Reverse((at, seq, slot)));
            self.len += 1;
            EventHandle { slot, seq }
        }

        pub fn cancel(&mut self, handle: EventHandle) -> Option<E> {
            let (seq, payload) = self.slab.get_mut(handle.slot as usize)?;
            if *seq != handle.seq {
                return None;
            }
            let payload = payload.take()?;
            self.free.push(handle.slot);
            self.len -= 1;
            Some(payload)
        }

        /// Drop tombstones off the top; the top, if any, is then live.
        fn skip_tombstones(&mut self) {
            while let Some(&Reverse((_, seq, slot))) = self.heap.peek() {
                match &self.slab[slot as usize] {
                    (s, Some(_)) if *s == seq => return,
                    _ => {
                        self.heap.pop();
                    }
                }
            }
        }

        pub fn peek_time(&mut self) -> Option<SimTime> {
            self.skip_tombstones();
            self.heap.peek().map(|Reverse((at, ..))| *at)
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            self.skip_tombstones();
            let Reverse((at, _, slot)) = self.heap.pop()?;
            let payload = self.slab[slot as usize].1.take().expect("live top");
            self.free.push(slot);
            self.len -= 1;
            Some((at, payload))
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::reference::HeapEventQueue;
    use super::*;
    use crate::time::SimDuration;
    use crate::timer::{TimerTable, TimerToken};
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), "c");
        q.push(SimTime::from_micros(10), "a");
        q.push(SimTime::from_micros(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_tiebreak_interleaved_with_earlier_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        q.push(t, 1);
        q.push(SimTime::from_micros(1), 0);
        q.push(t, 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn cancelled_events_never_pop() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        let head = q.push(t, 1);
        let second = q.push(t, 2);
        q.push(t, 3);
        assert_eq!(q.cancel(head), Some(1));
        assert_eq!(q.cancel(head), None, "cancelled twice");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.cancel(second), None, "already popped");
        // The popped event's slot goes to this push; the old handle must
        // not reach it.
        q.push(t, 4);
        assert_eq!(q.cancel(second), None, "slot reused");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![3, 4]);
    }

    #[test]
    fn scheduler_counts_pushes_and_not_cancelled_events() {
        let mut s = Scheduler::new();
        let gone = s.schedule_in(SimDuration::from_micros(1), 'a');
        s.schedule_in(SimDuration::from_micros(2), 'b');
        assert_eq!(s.cancel(gone), Some('a'));
        assert_eq!((s.pushes(), s.pending()), (2, 1));
        assert_eq!(s.pop(), Some((SimTime::from_micros(2), 'b')));
        assert_eq!((s.pop(), s.dispatched()), (None, 1));
    }

    #[test]
    fn calendar_survives_resize_cycles() {
        let mut q = EventQueue::new();
        // Grow far past the initial geometry, interleaving pops.
        for i in 0..5_000u64 {
            q.push(SimTime::from_nanos(i * 977 % 100_000), i);
            if i % 3 == 0 {
                q.pop();
            }
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut n = 0;
        while let Some((t, v)) = q.pop() {
            assert!(t >= last.0, "time went backwards");
            last = (t, v);
            n += 1;
        }
        assert_eq!(n + 5_000 / 3 + 1, 5_000);
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_sparse_schedule_jumps_years() {
        let mut q = EventQueue::new();
        // Events many "years" apart force the direct-search fallback.
        for i in (0..10u64).rev() {
            q.push(SimTime::from_secs(i * 37), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn calendar_peek_matches_pop() {
        let mut q = EventQueue::new();
        for i in [5u64, 3, 9, 3, 7, 1, 1] {
            q.push(SimTime::from_micros(i), i);
        }
        while !q.is_empty() {
            let peeked = q.peek_time().unwrap();
            let (popped, _) = q.pop().unwrap();
            assert_eq!(peeked, popped);
        }
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn calendar_slab_reuses_slots() {
        let mut q = EventQueue::new();
        // Steady-state push/pop churn must not grow the slab without
        // bound: slots free on pop and are reused by later pushes.
        for round in 0..1_000u64 {
            q.push(SimTime::from_nanos(round * 100), round);
            q.pop();
        }
        assert!(q.is_empty());
        assert!(
            q.slab.len() <= 2,
            "slab grew to {} slots under 1-deep churn",
            q.slab.len()
        );
    }

    #[test]
    fn scheduler_advances_clock() {
        let mut s = Scheduler::new();
        s.schedule_in(SimDuration::from_micros(10), ());
        s.schedule_in(SimDuration::from_micros(5), ());
        assert_eq!(s.peek_time(), Some(SimTime::from_micros(5)));
        s.pop().unwrap();
        assert_eq!(s.now(), SimTime::from_micros(5));
        s.pop().unwrap();
        assert_eq!(s.now(), SimTime::from_micros(10));
        assert!(s.pop().is_none());
        // Clock stays at the last event after the queue drains.
        assert_eq!(s.now(), SimTime::from_micros(10));
        assert_eq!(s.dispatched(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_in(SimDuration::from_micros(10), ());
        s.pop();
        s.schedule_at(SimTime::from_micros(3), ());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// A queue without removal, as the scheduler was before it could
    /// cancel: every event is pushed, a cancel only bumps the event's
    /// timer generation, and stale events are dropped when they reach
    /// the front.
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

        /// The earliest live event, dropping the stale ones in front of
        /// it.
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
        /// Differential test: the calendar queue and the binary heap pop
        /// the *identical* (time, payload) sequence for any push order —
        /// including same-instant FIFO bursts (the `dup` factor repeats
        /// times so ties are common).
        #[test]
        fn calendar_matches_heap_total_order(
            times in proptest::collection::vec((0u64..200_000, 1usize..5), 1..150),
        ) {
            let mut cal = EventQueue::new();
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
            let mut cal = EventQueue::new();
            let mut heap = HeapEventQueue::new();
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
        /// at or after the bucket's back) and a list-walk slow path. Drive
        /// both hard against the heap: bursts of equal timestamps (every
        /// push after the first appends), and runs of strictly decreasing
        /// times packed inside one initial bucket's 1.024 µs day (every
        /// push after the first lands at the front), interleaved with pops
        /// so scans, rewinds and resizes happen in between.
        #[test]
        fn calendar_matches_heap_bursts_and_descending(
            groups in proptest::collection::vec(
                (0u64..50_000, 1u64..60, any::<bool>(), 0usize..40),
                1..40,
            ),
        ) {
            let mut cal = EventQueue::new();
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

        /// Removal under arbitrary interleavings of push (half of them
        /// onto a handful of instants, so FIFO ties are common), cancel of
        /// any handle ever issued (pending, the head, popped, cancelled,
        /// or one whose slab slot a later push reused), peek and pop. The
        /// scheduler and the heap agree on every answer, and the
        /// scheduler's `dispatched()` counts exactly the heap's pops; a
        /// cancel succeeds exactly when the event is still pending; and
        /// both pop the `(time, payload)` sequence of a queue without
        /// removal whose cancelled events are dropped at the front by
        /// generation tokens.
        #[test]
        fn cancel_agrees_with_heap_and_with_lazy_tokens(
            ops in proptest::collection::vec((0u8..6, 0u64..40_000, any::<usize>()), 1..400),
        ) {
            let mut cal = Scheduler::new();
            let mut heap = HeapEventQueue::new();
            let mut heap_pops = 0u64;
            let mut oracle = LazyOracle::default();
            let mut handles = Vec::new();
            for &(op, x, pick) in &ops {
                match op {
                    0 | 1 => {
                        let delay = if op == 0 { x % 4 } else { x };
                        let at = cal.now() + SimDuration::from_nanos(delay);
                        let id = handles.len();
                        handles.push((cal.schedule_at(at, id), heap.push(at, id)));
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
                        let want = heap.pop();
                        heap_pops += u64::from(want.is_some());
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(got, oracle.pop());
                    }
                }
                prop_assert_eq!(cal.pending(), heap.len());
            }
            loop {
                let got = cal.pop();
                let want = heap.pop();
                heap_pops += u64::from(want.is_some());
                prop_assert_eq!(got, want);
                prop_assert_eq!(got, oracle.pop());
                if got.is_none() {
                    break;
                }
            }
            prop_assert_eq!(cal.dispatched(), heap_pops);
        }
    }
}
