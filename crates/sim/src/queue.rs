//! The pending-event queue at the heart of the discrete-event engine.
//!
//! Two implementations live behind the [`EventQueue`] facade:
//!
//! * [`CalendarQueue`] — a Brown-style calendar queue (the structure
//!   NS-2 popularized for network simulation): events hash into
//!   time-indexed buckets of one "day" each, a "year" spanning all
//!   buckets, so push and pop are amortized O(1) in the steady state.
//!   This is the default.
//! * [`HeapEventQueue`] — the classic binary min-heap, kept as the
//!   reference implementation and for differential testing.
//!
//! Both order events by firing time with a monotonically increasing
//! sequence number as a tiebreak so that events scheduled for the same
//! instant fire in **FIFO order**, and both produce the *identical*
//! total order for the same push sequence. Deterministic tie-breaking
//! matters: the 802.11 MAC schedules many same-instant events (e.g.
//! several stations' backoff slot boundaries), and run-to-run
//! reproducibility of the whole simulation depends on their dispatch
//! order being a pure function of insertion order.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Which [`EventQueue`] implementation a scheduler runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Calendar queue — amortized O(1) push/pop (the default).
    #[default]
    Calendar,
    /// Binary min-heap — O(log n) reference implementation.
    Heap,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

// ---------------------------------------------------------------------
// Binary-heap implementation (the reference).
// ---------------------------------------------------------------------

/// The classic binary-min-heap event queue, ordered by firing time then
/// insertion order.
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` to fire at absolute time `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, payload }));
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.payload))
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

// ---------------------------------------------------------------------
// Calendar-queue implementation (the default).
// ---------------------------------------------------------------------

/// Smallest bucket count the calendar shrinks to.
const MIN_BUCKETS: usize = 8;
/// Bucket-width ceiling (2^40 ns ≈ 18 min) — keeps the year arithmetic
/// far from overflow even for degenerate schedules.
const MAX_WIDTH_SHIFT: u32 = 40;

/// "No slot": the end of a bucket's list, or an empty bucket.
const NIL: u32 = u32::MAX;

/// One slab slot: an event's sort key, the slot after it in its bucket,
/// and its payload (`None` while the slot is on the free list).
#[derive(Debug)]
struct Slot<E> {
    at: SimTime,
    seq: u64,
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

/// A Brown-style calendar queue: buckets of one "day" (`width`) each,
/// the whole array spanning one "year". An event at time `t` lives in
/// bucket `(t / width) % nbuckets`; buckets are kept sorted so pops
/// stream off bucket fronts in (time, seq) order.
///
/// Events are stored once in a slab with a LIFO free list, and a
/// bucket's order is threaded through the slab itself (`next` per slot,
/// head and tail per bucket): a bucket owns no heap, so neither a burst
/// landing in one day nor a resize allocates once the slab has grown.
///
/// The structure is entirely deterministic — bucket geometry and slab
/// slot reuse are pure functions of the queue's content (no sampling,
/// no randomness, no wall clock), so equal push sequences always
/// produce equal pop sequences, bit for bit.
#[derive(Debug)]
pub struct CalendarQueue<E> {
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

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
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
        if head == NIL {
            self.buckets[b] = Bucket {
                head: slot,
                tail: slot,
            };
        } else if self.key(tail) < key {
            self.slab[tail as usize].next = slot;
            self.buckets[b].tail = slot;
        } else {
            // The tail sorts after `slot`, so the walk ends before it.
            let (mut prev, mut cur) = (NIL, head);
            while self.key(cur) < key {
                (prev, cur) = (cur, self.slab[cur as usize].next);
            }
            self.slab[slot as usize].next = cur;
            match prev {
                NIL => self.buckets[b].head = slot,
                _ => self.slab[prev as usize].next = slot,
            }
        }
    }

    fn slab_put(&mut self, at: SimTime, seq: u64, payload: E) -> u32 {
        let slot = Slot {
            at,
            seq,
            next: NIL,
            payload: Some(payload),
        };
        match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = slot;
                i
            }
            None => {
                self.slab.push(slot);
                u32::try_from(self.slab.len() - 1).expect("slab index fits u32")
            }
        }
    }

    /// Schedule `payload` to fire at absolute time `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let at_ns = at.as_nanos();
        // If the event lands before the day the scan is parked on,
        // rewind the scan so the next pop cannot miss it.
        if self.len == 0 || at_ns < self.bucket_top_ns - self.width_ns() {
            self.set_scan(at_ns);
        }
        let slot = self.slab_put(at, seq, payload);
        self.link(slot);
        self.len += 1;
        if self.len > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
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
        Some(self.take_front(idx))
    }

    fn take_front(&mut self, bucket: usize) -> (SimTime, E) {
        let idx = self.buckets[bucket].head;
        let slot = &mut self.slab[idx as usize];
        let payload = slot.payload.take().expect("live slab slot");
        let at = slot.at;
        self.buckets[bucket].head = slot.next;
        self.free.push(idx);
        self.len -= 1;
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 2 {
            self.resize(self.buckets.len() / 2);
        }
        (at, payload)
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
            self.slab[slot as usize].next = NIL;
            self.link(slot);
        }
        self.order = order;
    }
}

// ---------------------------------------------------------------------
// The facade.
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Inner<E> {
    Calendar(CalendarQueue<E>),
    Heap(HeapEventQueue<E>),
}

/// An event queue holding payloads of type `E`, ordered by firing time
/// then insertion order. Backed by a [`CalendarQueue`] by default; a
/// [`HeapEventQueue`] can be selected with [`EventQueue::with_kind`]
/// (both yield the identical pop order).
#[derive(Debug)]
pub struct EventQueue<E> {
    inner: Inner<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue on the default (calendar) implementation.
    pub fn new() -> Self {
        Self::with_kind(QueueKind::Calendar)
    }

    /// Create an empty queue on the chosen implementation.
    pub fn with_kind(kind: QueueKind) -> Self {
        EventQueue {
            inner: match kind {
                QueueKind::Calendar => Inner::Calendar(CalendarQueue::new()),
                QueueKind::Heap => Inner::Heap(HeapEventQueue::new()),
            },
        }
    }

    /// Which implementation this queue runs on.
    pub fn kind(&self) -> QueueKind {
        match &self.inner {
            Inner::Calendar(_) => QueueKind::Calendar,
            Inner::Heap(_) => QueueKind::Heap,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Calendar(q) => q.len(),
            Inner::Heap(q) => q.len(),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `payload` to fire at absolute time `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        match &mut self.inner {
            Inner::Calendar(q) => q.push(at, payload),
            Inner::Heap(q) => q.push(at, payload),
        }
    }

    /// The firing time of the earliest pending event, if any.
    ///
    /// `&mut self` because the calendar implementation advances its
    /// scan cursor while peeking (contents are untouched).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.inner {
            Inner::Calendar(q) => q.peek_time(),
            Inner::Heap(q) => q.peek_time(),
        }
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match &mut self.inner {
            Inner::Calendar(q) => q.pop(),
            Inner::Heap(q) => q.pop(),
        }
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        match &mut self.inner {
            Inner::Calendar(q) => q.clear(),
            Inner::Heap(q) => q.clear(),
        }
    }
}

/// A simulation clock plus event queue: the minimal driver loop.
///
/// [`Scheduler::pop`] advances the clock to each event's firing time, which
/// guarantees the global event-ordering invariant: the clock never moves
/// backwards, and every handler observes `now` equal to its event's
/// scheduled time.
#[derive(Debug)]
pub struct Scheduler<E> {
    now: SimTime,
    queue: EventQueue<E>,
    dispatched: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Create a scheduler with the clock at t=0 and an empty queue on the
    /// default (calendar) implementation.
    pub fn new() -> Self {
        Self::with_kind(QueueKind::Calendar)
    }

    /// Create a scheduler on the chosen queue implementation.
    pub fn with_kind(kind: QueueKind) -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::with_kind(kind),
            dispatched: 0,
        }
    }

    /// Which queue implementation this scheduler runs on.
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
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

    /// Schedule an event at an absolute instant.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling into the past would break
    /// causality and silently reorder the run.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at}, now={}",
            self.now
        );
        self.queue.push(at, payload);
    }

    /// Schedule an event `delay` from now.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, payload: E) {
        self.queue.push(self.now + delay, payload);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn both() -> [EventQueue<i32>; 2] {
        [
            EventQueue::with_kind(QueueKind::Calendar),
            EventQueue::with_kind(QueueKind::Heap),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in [
            EventQueue::with_kind(QueueKind::Calendar),
            EventQueue::with_kind(QueueKind::Heap),
        ] {
            q.push(SimTime::from_micros(30), "c");
            q.push(SimTime::from_micros(10), "a");
            q.push(SimTime::from_micros(20), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"]);
        }
    }

    #[test]
    fn same_time_is_fifo() {
        for mut q in both() {
            let t = SimTime::from_micros(5);
            for i in 0..100 {
                q.push(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fifo_tiebreak_interleaved_with_earlier_events() {
        for mut q in both() {
            let t = SimTime::from_micros(5);
            q.push(t, 1);
            q.push(SimTime::from_micros(1), 0);
            q.push(t, 2);
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec![0, 1, 2]);
        }
    }

    #[test]
    fn calendar_survives_resize_cycles() {
        let mut q = CalendarQueue::new();
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
        let mut q = CalendarQueue::new();
        // Events many "years" apart force the direct-search fallback.
        for i in (0..10u64).rev() {
            q.push(SimTime::from_secs(i * 37), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn calendar_peek_matches_pop() {
        let mut q = CalendarQueue::new();
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
        let mut q = CalendarQueue::new();
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
        for mut q in both() {
            q.push(SimTime::ZERO, 1);
            q.push(SimTime::ZERO, 2);
            assert_eq!(q.len(), 2);
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn default_kind_is_calendar() {
        assert_eq!(EventQueue::<()>::new().kind(), QueueKind::Calendar);
        assert_eq!(Scheduler::<()>::new().queue_kind(), QueueKind::Calendar);
    }
}
