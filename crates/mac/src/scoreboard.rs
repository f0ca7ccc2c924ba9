//! Receive-side state per transmitter: the Block ACK scoreboard (what to
//! put in the bitmap), duplicate suppression, and the 802.11n reorder
//! buffer that delivers MSDUs to the upper layer in sequence order.
//!
//! In aggregation mode the buffer holds out-of-order MPDUs until the gap
//! fills, a BAR advances the window, or the 64-deep window overflows —
//! at which point held MSDUs are released (with gaps; TCP above deals
//! with the loss). In single-MPDU (802.11a) mode frames are delivered
//! immediately and only duplicates are suppressed, since the transmitter
//! never reorders.

use hack_phy::StationId;

use crate::frame::{AckBitmap, SeqNum, SEQ_SPACE};

/// How many of the most recently received sequence numbers the
/// duplicate filter remembers.
const SEEN_CAP: usize = 128;
/// Depth of the Block ACK window, and so of the reorder buffer.
const WINDOW: u16 = 64;

/// Per-transmitter receive state.
#[derive(Debug)]
pub struct RxReorder<M> {
    src: StationId,
    /// Deliver strictly in order (802.11n aggregation) or immediately
    /// (802.11a single MPDUs).
    ordered: bool,
    /// Next sequence number owed to the upper layer.
    win_start: SeqNum,
    /// Out-of-order MPDUs held for delivery: slot `seq % 64`. Every
    /// held sequence number lies within 64 of `win_start`, so slots
    /// never collide. Empty until the first out-of-order arrival.
    held: Vec<Option<M>>,
    /// Occupied slots in `held`.
    held_len: usize,
    /// The last [`SEEN_CAP`] distinct sequence numbers received, oldest
    /// first from `seen_head` — the eviction order of the duplicate
    /// filter.
    seen_ring: [u16; SEEN_CAP],
    seen_head: usize,
    seen_len: usize,
    /// Membership bitset over the 12-bit sequence space, mirroring
    /// `seen_ring`: duplicate detection and Block ACK bitmaps read it.
    seen_set: [u64; SEQ_SPACE as usize / 64],
    /// Highest (newest) sequence number ever received.
    highest: Option<SeqNum>,
}

impl<M> RxReorder<M> {
    /// New receive state for frames from `src`. The window starts at
    /// sequence 0 — the implicit Block ACK agreement starting point
    /// (transmitters assign sequence numbers from 0 per destination).
    /// Aligning to the first *received* frame instead would silently
    /// mark a lost first MPDU as delivered.
    pub fn new(src: StationId, ordered: bool) -> Self {
        RxReorder {
            src,
            ordered,
            win_start: SeqNum::new(0),
            held: Vec::new(),
            held_len: 0,
            seen_ring: [0; SEEN_CAP],
            seen_head: 0,
            seen_len: 0,
            seen_set: [0; SEQ_SPACE as usize / 64],
            highest: None,
        }
    }

    /// The transmitter this state tracks.
    pub fn src(&self) -> StationId {
        self.src
    }

    /// Next in-order sequence number owed upward.
    pub fn window_start(&self) -> SeqNum {
        self.win_start
    }

    /// Highest sequence number received so far.
    pub fn highest(&self) -> Option<SeqNum> {
        self.highest
    }

    /// Has `seq` been received before (within the last 128 receptions)?
    pub fn is_duplicate(&self, seq: SeqNum) -> bool {
        let v = usize::from(seq.value());
        (self.seen_set[v / 64] >> (v % 64)) & 1 == 1
    }

    fn note_seen(&mut self, seq: SeqNum) {
        let slot = if self.seen_len == SEEN_CAP {
            // Full: the oldest entry makes room.
            let oldest = usize::from(self.seen_ring[self.seen_head]);
            self.seen_set[oldest / 64] &= !(1 << (oldest % 64));
            let slot = self.seen_head;
            self.seen_head = (self.seen_head + 1) % SEEN_CAP;
            slot
        } else {
            self.seen_len += 1;
            (self.seen_head + self.seen_len - 1) % SEEN_CAP
        };
        self.seen_ring[slot] = seq.value();
        let v = usize::from(seq.value());
        self.seen_set[v / 64] |= 1 << (v % 64);
        let newer = match self.highest {
            None => true,
            Some(h) => seq.is_newer_than(h),
        };
        if newer {
            self.highest = Some(seq);
        }
    }

    /// Offer one decoded MPDU. Every MSDU this releases to the upper
    /// layer (several, when it fills a gap; none, when it is buffered)
    /// is handed to `deliver` in sequence order. Returns whether the
    /// MPDU was new (false = duplicate of something already received).
    pub fn on_mpdu(&mut self, seq: SeqNum, msdu: M, mut deliver: impl FnMut(M)) -> bool {
        if self.is_duplicate(seq) {
            return false;
        }
        self.note_seen(seq);

        if !self.ordered {
            // Immediate delivery, duplicates already filtered.
            if seq == self.win_start || seq.is_newer_than(self.win_start) {
                self.win_start = seq.next();
            }
            deliver(msdu);
            return true;
        }

        // Ordered (Block ACK) path.
        if seq == self.win_start && self.held_len == 0 {
            // The common case: the next frame owed, nothing waiting
            // behind it.
            self.win_start = seq.next();
            deliver(msdu);
            return true;
        }
        let dist = seq.dist_from(self.win_start);
        if dist >= SEQ_SPACE / 2 {
            // Behind the window: old duplicate that fell out of `seen`.
            return false;
        }
        if dist >= WINDOW {
            // Window overflow: slide forward to seq-63, releasing
            // everything that falls out (with gaps).
            let new_start = seq.add(SEQ_SPACE - (WINDOW - 1));
            self.release_before(new_start, &mut deliver);
            self.win_start = new_start;
        }
        self.hold(seq, msdu);
        self.drain_in_order(&mut deliver);
        true
    }

    /// A Block ACK Request names `start`: release everything held below
    /// it (to `deliver`, in order) and advance the window.
    pub fn on_bar(&mut self, start: SeqNum, mut deliver: impl FnMut(M)) {
        if !start.is_newer_than(self.win_start) {
            return;
        }
        self.release_before(start, &mut deliver);
        self.win_start = start;
        self.drain_in_order(&mut deliver);
    }

    fn hold(&mut self, seq: SeqNum, msdu: M) {
        if self.held.is_empty() {
            self.held.resize_with(usize::from(WINDOW), || None);
        }
        // A sequence number can come back after the duplicate filter
        // forgot it while its first copy still waits: the new copy
        // replaces the old one.
        if self.held[usize::from(seq.value() % WINDOW)]
            .replace(msdu)
            .is_none()
        {
            self.held_len += 1;
        }
    }

    fn take_held(&mut self, seq: SeqNum) -> Option<M> {
        let msdu = self.held[usize::from(seq.value() % WINDOW)].take()?;
        self.held_len -= 1;
        Some(msdu)
    }

    /// Release held MSDUs with seq strictly before `bound` (in order).
    fn release_before(&mut self, bound: SeqNum, deliver: &mut impl FnMut(M)) {
        for d in 0..WINDOW {
            if self.held_len == 0 {
                break;
            }
            let seq = self.win_start.add(d);
            if bound.is_newer_than(seq) {
                if let Some(msdu) = self.take_held(seq) {
                    deliver(msdu);
                }
            }
        }
    }

    /// Deliver consecutively from `win_start` while held.
    fn drain_in_order(&mut self, deliver: &mut impl FnMut(M)) {
        while self.held_len > 0 {
            let Some(msdu) = self.take_held(self.win_start) else {
                break;
            };
            deliver(msdu);
            self.win_start = self.win_start.next();
        }
    }

    /// Build the Block ACK bitmap describing the current window: starts
    /// at the oldest unresolved point and marks everything received
    /// within 64 seqs. Window start alone tells the transmitter that all
    /// older seqs were delivered.
    pub fn ba_bitmap(&self) -> AckBitmap {
        let mut bm = AckBitmap::new(self.win_start);
        for d in 0..WINDOW {
            let seq = self.win_start.add(d);
            if self.is_duplicate(seq) {
                bm.set(seq);
            }
        }
        bm
    }
}

/// The scoreboard as it was before the ring and bitset: a `BTreeMap`
/// reorder buffer and a linear-scan `Vec` duplicate filter. Kept as the
/// model the equivalence proptest holds [`RxReorder`] to.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use super::{AckBitmap, SeqNum};

    pub struct RefReorder<M> {
        ordered: bool,
        pub win_start: SeqNum,
        held: BTreeMap<u16, M>,
        seen: Vec<SeqNum>,
        pub highest: Option<SeqNum>,
    }

    impl<M> RefReorder<M> {
        pub fn new(ordered: bool) -> Self {
            RefReorder {
                ordered,
                win_start: SeqNum::new(0),
                held: BTreeMap::new(),
                seen: Vec::new(),
                highest: None,
            }
        }

        fn note_seen(&mut self, seq: SeqNum) {
            if self.seen.len() == 128 {
                self.seen.remove(0);
            }
            self.seen.push(seq);
            let newer = match self.highest {
                None => true,
                Some(h) => seq.is_newer_than(h),
            };
            if newer {
                self.highest = Some(seq);
            }
        }

        pub fn on_mpdu(&mut self, seq: SeqNum, msdu: M) -> (Vec<M>, bool) {
            if self.seen.contains(&seq) {
                return (Vec::new(), false);
            }
            self.note_seen(seq);
            if !self.ordered {
                if seq == self.win_start || seq.is_newer_than(self.win_start) {
                    self.win_start = seq.next();
                }
                return (vec![msdu], true);
            }
            let dist = seq.dist_from(self.win_start);
            if dist >= 2048 {
                return (Vec::new(), false);
            }
            if dist >= 64 {
                let new_start = seq.add(4096 - 63);
                let mut out = self.release_before(new_start);
                self.win_start = new_start;
                self.held.insert(seq.value(), msdu);
                out.extend(self.drain_in_order());
                return (out, true);
            }
            self.held.insert(seq.value(), msdu);
            (self.drain_in_order(), true)
        }

        pub fn on_bar(&mut self, start: SeqNum) -> Vec<M> {
            if !start.is_newer_than(self.win_start) {
                return Vec::new();
            }
            let mut out = self.release_before(start);
            self.win_start = start;
            out.extend(self.drain_in_order());
            out
        }

        fn release_before(&mut self, bound: SeqNum) -> Vec<M> {
            let mut keys: Vec<u16> = self
                .held
                .keys()
                .copied()
                .filter(|&k| bound.is_newer_than(SeqNum::new(k)))
                .collect();
            keys.sort_by_key(|&k| SeqNum::new(k).dist_from(self.win_start));
            keys.into_iter()
                .map(|k| self.held.remove(&k).expect("key present"))
                .collect()
        }

        fn drain_in_order(&mut self) -> Vec<M> {
            let mut out = Vec::new();
            while let Some(msdu) = self.held.remove(&self.win_start.value()) {
                out.push(msdu);
                self.win_start = self.win_start.next();
            }
            out
        }

        pub fn ba_bitmap(&self) -> AckBitmap {
            let mut bm = AckBitmap::new(self.win_start);
            for &s in &self.seen {
                bm.set(s);
            }
            bm
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefReorder;
    use super::*;
    use proptest::prelude::*;

    const AP: StationId = StationId(0);

    fn sb(ordered: bool) -> RxReorder<u32> {
        RxReorder::new(AP, ordered)
    }

    /// Offer one MPDU; what it released and whether it was new.
    fn offer(r: &mut RxReorder<u32>, seq: u16, v: u32) -> (Vec<u32>, bool) {
        let mut out = Vec::new();
        let is_new = r.on_mpdu(SeqNum::new(seq), v, |m| out.push(m));
        (out, is_new)
    }

    fn bar(r: &mut RxReorder<u32>, start: u16) -> Vec<u32> {
        let mut out = Vec::new();
        r.on_bar(SeqNum::new(start), |m| out.push(m));
        out
    }

    #[test]
    fn in_order_delivery() {
        let mut r = sb(true);
        for i in 0..5u16 {
            let (deliver, is_new) = offer(&mut r, i, u32::from(i));
            assert!(is_new);
            assert_eq!(deliver, vec![u32::from(i)]);
        }
        assert_eq!(r.window_start(), SeqNum::new(5));
    }

    #[test]
    fn gap_holds_until_filled() {
        let mut r = sb(true);
        offer(&mut r, 0, 0);
        // 2 arrives before 1: held.
        let (deliver, is_new) = offer(&mut r, 2, 2);
        assert!(is_new);
        assert!(deliver.is_empty());
        // 1 fills the gap: both released in order.
        let (deliver, _) = offer(&mut r, 1, 1);
        assert_eq!(deliver, vec![1, 2]);
        assert_eq!(r.window_start(), SeqNum::new(3));
    }

    #[test]
    fn duplicates_not_redelivered_but_reacked() {
        let mut r = sb(true);
        offer(&mut r, 0, 0);
        let (deliver, is_new) = offer(&mut r, 0, 0);
        assert!(!is_new);
        assert!(deliver.is_empty());
        // The bitmap still covers it via the advanced window start.
        let bm = r.ba_bitmap();
        assert_eq!(bm.start, SeqNum::new(1));
    }

    #[test]
    fn bar_flushes_gap() {
        let mut r = sb(true);
        offer(&mut r, 0, 0);
        offer(&mut r, 2, 2);
        offer(&mut r, 3, 3);
        // Transmitter gave up on seq 1 and BARs at 2: held frames flush.
        assert_eq!(bar(&mut r, 2), vec![2, 3]);
        assert_eq!(r.window_start(), SeqNum::new(4));
    }

    #[test]
    fn bar_behind_window_is_noop() {
        let mut r = sb(true);
        for i in 0..4u16 {
            offer(&mut r, i, u32::from(i));
        }
        assert!(bar(&mut r, 1).is_empty());
        assert_eq!(r.window_start(), SeqNum::new(4));
    }

    #[test]
    fn window_overflow_releases_stale_head() {
        let mut r = sb(true);
        offer(&mut r, 0, 0);
        // Lose seq 1; receive 2..=64 (window start stuck at 1, 63 held).
        for i in 2..=64u16 {
            let (deliver, _) = offer(&mut r, i, u32::from(i));
            assert!(deliver.is_empty(), "seq {i} must be held");
        }
        // Seq 65 is 64 beyond win_start=1: slide to 65-63=2, release 2..,
        // then 65 itself joins in-order drain only after 64.
        let (deliver, is_new) = offer(&mut r, 65, 65);
        assert!(is_new);
        assert_eq!(deliver, (2..=65).collect::<Vec<u32>>());
        assert_eq!(r.window_start(), SeqNum::new(66));
    }

    #[test]
    fn window_starts_at_zero_so_lost_first_mpdu_stays_unacked() {
        // If MPDU 0 of the very first batch is lost and MPDU 1 arrives,
        // the Block ACK must NOT cover seq 0 — the transmitter needs to
        // retransmit it.
        let mut r = sb(true);
        let (deliver, _) = offer(&mut r, 1, 1);
        assert!(deliver.is_empty(), "held until seq 0 arrives");
        let bm = r.ba_bitmap();
        assert_eq!(bm.start, SeqNum::new(0));
        assert!(!bm.contains(SeqNum::new(0)));
        assert!(bm.contains(SeqNum::new(1)));
        // The retransmission completes the pair in order.
        let (deliver, _) = offer(&mut r, 0, 0);
        assert_eq!(deliver, vec![0, 1]);
    }

    #[test]
    fn unordered_mode_delivers_immediately_with_dedup() {
        let mut r = sb(false);
        assert_eq!(offer(&mut r, 0, 0).0.len(), 1);
        // Gap: seq 2 delivered immediately despite missing 1.
        assert_eq!(offer(&mut r, 2, 2).0.len(), 1);
        // Retransmitted dup suppressed.
        let (deliver, is_new) = offer(&mut r, 2, 2);
        assert!(!is_new);
        assert!(deliver.is_empty());
        // Late arrival of 1 still delivered (upper layer reorders).
        assert_eq!(offer(&mut r, 1, 1).0.len(), 1);
    }

    #[test]
    fn ba_bitmap_reflects_window() {
        let mut r = sb(true);
        offer(&mut r, 0, 0);
        offer(&mut r, 2, 2);
        offer(&mut r, 5, 5);
        let bm = r.ba_bitmap();
        assert_eq!(bm.start, SeqNum::new(1));
        assert!(!bm.contains(SeqNum::new(1)));
        assert!(bm.contains(SeqNum::new(2)));
        assert!(bm.contains(SeqNum::new(5)));
        // seq 0 is covered by start > 0, not by a bit.
        assert!(SeqNum::new(1).is_newer_than(SeqNum::new(0)));
    }

    #[test]
    fn seq_wrap_handled() {
        // Walk the window all the way around the 12-bit space and cross
        // the wrap boundary in-order.
        let mut r = sb(true);
        for i in 0..4096u32 {
            let (deliver, _) = offer(&mut r, i as u16, i);
            assert_eq!(deliver.len(), 1, "i={i}");
        }
        assert_eq!(r.window_start(), SeqNum::new(0));
        for i in 0..6u32 {
            let (deliver, _) = offer(&mut r, i as u16, 5000 + i);
            // Seqs 0..6 were seen 4096 frames ago but have fallen out of
            // the dedup history: they deliver again as the new epoch.
            assert_eq!(deliver.len(), 1, "wrap i={i}");
        }
        assert_eq!(r.window_start(), SeqNum::new(6));
        assert_eq!(r.highest(), Some(SeqNum::new(5)));
    }

    #[test]
    fn highest_tracks_newest() {
        let mut r = sb(true);
        offer(&mut r, 10, 10);
        offer(&mut r, 12, 12);
        offer(&mut r, 11, 11);
        assert_eq!(r.highest(), Some(SeqNum::new(12)));
    }

    /// One step of an arbitrary receive stream, relative to a cursor
    /// that walks the sequence space so wrap is reached in a few
    /// hundred steps.
    #[derive(Debug, Clone)]
    enum Step {
        /// The next `n` sequence numbers in order.
        Run(u16),
        /// Skip `n` sequence numbers (loss), then receive one.
        Skip(u16),
        /// Receive the sequence number `back` behind the cursor again
        /// (retransmission, duplicate, or a frame from behind the
        /// window).
        Back(u16),
        /// A Block ACK Request `ahead - 8` from the cursor (negative =
        /// behind).
        Bar(u16),
        /// Leap far ahead (window overflow and 12-bit wrap).
        Leap(u16),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (1u16..70).prop_map(Step::Run),
            (1u16..70).prop_map(Step::Skip),
            (1u16..200).prop_map(Step::Back),
            (0u16..80).prop_map(Step::Bar),
            (64u16..2100).prop_map(Step::Leap),
        ]
    }

    proptest! {
        /// The ring-and-bitset scoreboard is the `BTreeMap` + `Vec`
        /// scoreboard: same deliveries in the same order, same Block ACK
        /// bitmap, window start and highest, after every step of any
        /// stream — loss, duplicates, BARs, window overflow, wrap.
        #[test]
        fn ring_scoreboard_matches_btreemap_model(
            ordered in any::<bool>(),
            steps in proptest::collection::vec(step(), 1..120),
        ) {
            let mut new: RxReorder<u32> = RxReorder::new(AP, ordered);
            let mut old: RefReorder<u32> = RefReorder::new(ordered);
            let mut cursor = SeqNum::new(0);
            let mut tag = 0u32;
            let mut check = |new: &mut RxReorder<u32>,
                             old: &mut RefReorder<u32>,
                             seq: SeqNum|
             -> Result<(), String> {
                tag += 1;
                let (got, is_new) = offer(new, seq.value(), tag);
                let (want, was_new) = old.on_mpdu(seq, tag);
                prop_assert_eq!(got, want, "deliveries for seq {}", seq.value());
                prop_assert_eq!(is_new, was_new, "is_new for seq {}", seq.value());
                Ok(())
            };
            for s in steps {
                match s {
                    Step::Run(n) => {
                        for _ in 0..n {
                            check(&mut new, &mut old, cursor)?;
                            cursor = cursor.next();
                        }
                    }
                    Step::Skip(n) => {
                        cursor = cursor.add(n);
                        check(&mut new, &mut old, cursor)?;
                        cursor = cursor.next();
                    }
                    Step::Back(back) => {
                        check(&mut new, &mut old, cursor.add(SEQ_SPACE - back))?;
                    }
                    Step::Bar(ahead) => {
                        let start = cursor.add(SEQ_SPACE - 8).add(ahead);
                        prop_assert_eq!(bar(&mut new, start.value()), old.on_bar(start));
                    }
                    Step::Leap(n) => {
                        cursor = cursor.add(n);
                    }
                }
                prop_assert_eq!(new.ba_bitmap(), old.ba_bitmap());
                prop_assert_eq!(new.window_start(), old.win_start);
                prop_assert_eq!(new.highest(), old.highest);
            }
        }
    }
}
