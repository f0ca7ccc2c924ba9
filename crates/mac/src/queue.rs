//! Transmit-side per-destination queue: sequence assignment, A-MPDU batch
//! building under the three 802.11n limits (64-frame Block ACK window,
//! 64 KB A-MPDU, TXOP airtime), retransmission bookkeeping, and BAR state.

use std::collections::VecDeque;

use hack_phy::StationId;

use crate::config::MacConfig;
use crate::frame::{ampdu_subframe_len, sizes, AckBitmap, DataMpdu, Frame, Msdu, SeqNum};

/// An MPDU that has been assigned a sequence number.
#[derive(Debug, Clone)]
pub struct Mpdu<M> {
    /// Assigned 12-bit sequence number (kept across retransmissions).
    pub seq: SeqNum,
    /// Transmission attempts so far (0 = never sent).
    pub attempts: u32,
    /// The MSDU payload.
    pub msdu: M,
}

/// Result of resolving an exchange against a Block ACK.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaResolution<M> {
    /// Number of MPDUs newly acknowledged.
    pub acked: u32,
    /// Number of MPDUs that were acknowledged on their first attempt.
    pub acked_first_try: u32,
    /// The MSDUs that were just acknowledged (drivers use these to match
    /// delivered native TCP ACKs against held compressed copies).
    pub acked_msdus: Vec<M>,
    /// MSDUs dropped because their retry budget ran out.
    pub dropped: Vec<M>,
}

impl<M> BaResolution<M> {
    /// Nothing resolved yet; `acked_msdus` is a spare list to fill.
    fn into_list(mut acked_msdus: Vec<M>) -> Self {
        acked_msdus.clear();
        BaResolution {
            acked: 0,
            acked_first_try: 0,
            acked_msdus,
            dropped: Vec::new(),
        }
    }
}

/// Per-destination transmit state.
#[derive(Debug)]
pub struct DestQueue<M> {
    dst: StationId,
    /// MSDUs not yet assigned sequence numbers.
    unsent: VecDeque<M>,
    /// MPDUs needing retransmission, in sequence order.
    retx: VecDeque<Mpdu<M>>,
    /// MPDUs transmitted and awaiting a (Block) ACK.
    awaiting: Vec<Mpdu<M>>,
    next_seq: SeqNum,
    /// A Block ACK Request is owed to this destination (our data batch's
    /// Block ACK never arrived).
    bar_pending: bool,
    /// Set the SYNC bit on the next data batch (BAR retries exhausted).
    sync_next: bool,
    /// Total bytes of MSDU currently queued (unsent + retx).
    queued_msdu_bytes: u64,
}

impl<M: Msdu> DestQueue<M> {
    /// An empty queue toward `dst`.
    pub fn new(dst: StationId) -> Self {
        DestQueue {
            dst,
            unsent: VecDeque::new(),
            retx: VecDeque::new(),
            awaiting: Vec::new(),
            next_seq: SeqNum::new(0),
            bar_pending: false,
            sync_next: false,
            queued_msdu_bytes: 0,
        }
    }

    /// The destination station.
    pub fn dst(&self) -> StationId {
        self.dst
    }

    /// Enqueue a fresh MSDU.
    pub fn enqueue(&mut self, msdu: M) {
        self.queued_msdu_bytes += u64::from(msdu.wire_len());
        self.unsent.push_back(msdu);
    }

    /// MSDUs (new + retransmit) ready to go into a batch.
    pub fn backlog(&self) -> usize {
        self.unsent.len() + self.retx.len()
    }

    /// Frames currently awaiting acknowledgment.
    pub fn awaiting(&self) -> usize {
        self.awaiting.len()
    }

    /// Whether a BAR is owed.
    pub fn bar_pending(&self) -> bool {
        self.bar_pending
    }

    /// Whether the next data batch will carry the SYNC bit.
    pub fn sync_pending(&self) -> bool {
        self.sync_next
    }

    /// Queued MSDU bytes not yet acknowledged-or-dropped (for AP queue
    /// sizing experiments).
    pub fn queued_bytes(&self) -> u64 {
        self.queued_msdu_bytes
    }

    /// There is something to transmit: data or a BAR.
    pub fn has_work(&self) -> bool {
        self.bar_pending || self.backlog() > 0
    }

    /// The start of the Block ACK window: the oldest unresolved sequence
    /// number, or the next to assign when none is outstanding.
    pub fn window_start(&self) -> SeqNum {
        self.retx
            .front()
            .map(|m| m.seq)
            .or_else(|| self.awaiting.first().map(|m| m.seq))
            .unwrap_or(self.next_seq)
    }

    /// Build the next data batch (honouring the frame/byte/airtime limits
    /// and the Block ACK window) into the empty `out`, marking its
    /// members as awaiting. `out` stays empty if there is nothing to send
    /// or a BAR is owed (it must resolve the outstanding window first).
    ///
    /// `src` stamps the transmitter address; the MORE DATA and SYNC bits
    /// are set per `cfg` and queue state.
    pub fn build_batch(&mut self, src: StationId, cfg: &MacConfig, out: &mut Vec<Frame<M>>) {
        debug_assert!(out.is_empty());
        if self.bar_pending {
            return;
        }
        let max_frames = if cfg.aggregation {
            cfg.max_ampdu_frames
        } else {
            1
        };
        let win_start = self.window_start();
        // In aggregation mode everything outstanding must stay within the
        // 64-deep Block ACK window.
        let window_room = if cfg.aggregation {
            64usize.saturating_sub(usize::from(self.next_seq.dist_from(win_start)))
        } else {
            usize::MAX
        };

        // Upper bound on the batch, for at most one growth of the list.
        out.reserve(max_frames.min(self.retx.len() + self.unsent.len().min(window_room)));
        // A-MPDU length so far, kept running: candidate `n` costs one
        // addition to judge, not a re-sum of the `n - 1` before it.
        let mut agg_len = 0u32;
        let mut new_assigned = 0usize;

        while out.len() < max_frames {
            // Candidate: retransmissions first (lowest seq), then new.
            let candidate_len = if let Some(m) = self.retx.front() {
                m.msdu.wire_len() + sizes::DATA_OVERHEAD
            } else if let Some(m) = self.unsent.front() {
                if new_assigned >= window_room {
                    break;
                }
                m.wire_len() + sizes::DATA_OVERHEAD
            } else {
                break;
            };

            // Check the byte and airtime limits with this MPDU included
            // (data PPDU airtime only — the SIFS+BA tail is small and
            // the paper's 4 ms limit is applied to the transmission).
            let with_candidate = agg_len + ampdu_subframe_len(candidate_len);
            let fits = !cfg.aggregation
                || (with_candidate <= cfg.max_ampdu_bytes
                    && cfg.data_rate.ppdu_duration(u64::from(with_candidate))
                        <= cfg.timings.txop_limit);
            if !fits && !out.is_empty() {
                break;
            }
            agg_len = with_candidate;
            // A single MPDU always goes (it can't be split).
            let mut mpdu = if let Some(m) = self.retx.pop_front() {
                m
            } else {
                let msdu = self.unsent.pop_front().expect("checked above");
                let seq = self.next_seq;
                self.next_seq = self.next_seq.next();
                new_assigned += 1;
                Mpdu {
                    seq,
                    attempts: 0,
                    msdu,
                }
            };
            out.push(Frame::Data(DataMpdu {
                src,
                dst: self.dst,
                seq: mpdu.seq,
                retry: mpdu.attempts > 0,
                more_data: false,
                sync: false,
                payload: mpdu.msdu.clone(),
            }));
            mpdu.attempts += 1;
            self.awaiting.push(mpdu);
            if !fits {
                break;
            }
        }

        if out.is_empty() {
            return;
        }

        // Both bits describe the queue *after* the batch left it.
        let more_data = cfg.set_more_data && self.backlog() > 0;
        let sync = cfg.use_sync && self.sync_next;
        self.sync_next = false;
        for f in out.iter_mut() {
            if let Frame::Data(m) = f {
                m.more_data = more_data;
                m.sync = sync;
            }
        }

        // Almost always the batch went onto an empty `awaiting` already
        // in window order. Sequence numbers are unique, so when a sort is
        // needed the unstable (in-place) one is the stable one.
        let window_order = |m: &Mpdu<M>| m.seq.dist_from(win_start);
        if !self.awaiting.is_sorted_by_key(window_order) {
            self.awaiting.sort_unstable_by_key(window_order);
        }
    }

    /// Resolve the awaiting set against a received Block ACK bitmap.
    /// Unacked MPDUs are requeued for retransmission or dropped once
    /// their attempts exceed `retry_limit`. The acknowledged MSDUs are
    /// returned in `acked_msdus` (emptied first; pass a spare list).
    pub fn on_block_ack(
        &mut self,
        bitmap: &AckBitmap,
        retry_limit: u32,
        acked_msdus: Vec<M>,
    ) -> BaResolution<M> {
        self.bar_pending = false;
        let mut res = BaResolution::into_list(acked_msdus);
        res.acked_msdus.reserve(self.awaiting.len());
        // Drained, not taken: `awaiting` keeps its allocation for the
        // next batch.
        for m in self.awaiting.drain(..) {
            let acked = bitmap.contains(m.seq) || bitmap.start.is_newer_than(m.seq);
            if acked {
                res.acked += 1;
                if m.attempts == 1 {
                    res.acked_first_try += 1;
                }
                self.queued_msdu_bytes = self
                    .queued_msdu_bytes
                    .saturating_sub(u64::from(m.msdu.wire_len()));
                res.acked_msdus.push(m.msdu);
            } else if m.attempts > retry_limit {
                self.queued_msdu_bytes = self
                    .queued_msdu_bytes
                    .saturating_sub(u64::from(m.msdu.wire_len()));
                res.dropped.push(m.msdu);
            } else {
                self.retx.push_back(m);
            }
        }
        if self.retx.len() > 1 {
            self.retx.make_contiguous().sort_by_key(|m| m.seq.value());
        }
        res
    }

    /// Resolve a single-MPDU exchange against a plain ACK: the one
    /// awaiting MPDU is acknowledged, and returned in `acked_msdus` as
    /// for [`DestQueue::on_block_ack`].
    pub fn on_ack(&mut self, acked_msdus: Vec<M>) -> BaResolution<M> {
        let mut res = BaResolution::into_list(acked_msdus);
        res.acked_msdus.reserve(self.awaiting.len());
        for m in self.awaiting.drain(..) {
            res.acked += 1;
            if m.attempts == 1 {
                res.acked_first_try += 1;
            }
            self.queued_msdu_bytes = self
                .queued_msdu_bytes
                .saturating_sub(u64::from(m.msdu.wire_len()));
            res.acked_msdus.push(m.msdu);
        }
        res
    }

    /// The exchange got no response. In aggregation mode a BAR becomes
    /// pending (the Block ACK may have been lost, not the data); in
    /// single mode the MPDU goes straight back for retransmission.
    /// Returns any MSDUs dropped over the retry limit (single mode only).
    pub fn on_no_response(&mut self, aggregation: bool, retry_limit: u32) -> Vec<M> {
        if aggregation {
            if !self.awaiting.is_empty() {
                self.bar_pending = true;
            }
            Vec::new()
        } else {
            let mut dropped = Vec::new();
            for m in self.awaiting.drain(..) {
                if m.attempts > retry_limit {
                    self.queued_msdu_bytes = self
                        .queued_msdu_bytes
                        .saturating_sub(u64::from(m.msdu.wire_len()));
                    dropped.push(m.msdu);
                } else {
                    self.retx.push_front(m);
                }
            }
            dropped
        }
    }

    /// Remove the not-yet-sent MSDUs matching `pred` and hand each, in
    /// queue order, to `take` (used by Opportunistic HACK to withdraw
    /// native TCP ACKs that are about to ride a Block ACK instead).
    /// MSDUs already assigned sequence numbers (in flight or queued for
    /// retransmission) are not touched.
    pub fn withdraw_unsent(&mut self, mut pred: impl FnMut(&M) -> bool, mut take: impl FnMut(M)) {
        // Partition in place, order kept on both sides, by rotating the
        // queue once through itself: withdrawing nothing allocates nothing.
        for _ in 0..self.unsent.len() {
            let m = self.unsent.pop_front().expect("counted");
            if pred(&m) {
                self.queued_msdu_bytes = self
                    .queued_msdu_bytes
                    .saturating_sub(u64::from(m.wire_len()));
                take(m);
            } else {
                self.unsent.push_back(m);
            }
        }
    }

    /// BAR retries exhausted: stop soliciting, requeue everything
    /// outstanding for retransmission, and mark SYNC for the next batch.
    pub fn on_bar_exhausted(&mut self) {
        self.bar_pending = false;
        self.sync_next = true;
        let mut outstanding: Vec<Mpdu<M>> = std::mem::take(&mut self.awaiting);
        outstanding.extend(self.retx.drain(..));
        outstanding.sort_by_key(|m| m.seq.value());
        self.retx = outstanding.into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ampdu_wire_len;
    use hack_phy::PhyRate;
    use hack_sim::SimDuration;
    use proptest::prelude::*;

    /// Would an A-MPDU with these MPDU lengths fit in the TXOP? Sums
    /// the whole batch, as `build_batch` did per candidate before it
    /// kept a running length.
    fn within_txop(mpdu_lens: &[u32], rate: PhyRate, txop: SimDuration) -> bool {
        rate.ppdu_duration(u64::from(ampdu_wire_len(mpdu_lens))) <= txop
    }

    /// How many of `msdu_lens` (in queue order, all new) the batch takes,
    /// by the re-summing rule `build_batch` used to apply.
    fn reference_cut(msdu_lens: &[u32], cfg: &MacConfig) -> usize {
        let mut lens: Vec<u32> = Vec::new();
        for &l in msdu_lens {
            if lens.len() >= cfg.max_ampdu_frames {
                break;
            }
            lens.push(l + sizes::DATA_OVERHEAD);
            let fits = ampdu_wire_len(&lens) <= cfg.max_ampdu_bytes
                && within_txop(&lens, cfg.data_rate, cfg.timings.txop_limit);
            if !fits {
                // A lone oversized MPDU still goes; otherwise it waits.
                if lens.len() > 1 {
                    lens.pop();
                }
                break;
            }
        }
        lens.len()
    }

    proptest! {
        /// The running A-MPDU length cuts the batch exactly where
        /// re-summing it per candidate did, under whichever of the
        /// frame, byte and TXOP limits binds.
        #[test]
        fn running_length_cuts_where_the_resum_did(
            msdu_lens in proptest::collection::vec(1u32..2400, 1..90),
            rate in prop_oneof![Just(15u64), Just(30), Just(60), Just(150), Just(300), Just(600)],
            txop_us in 200u64..6_000,
            max_bytes in 1_000u32..65_536,
            max_frames in 1usize..65,
        ) {
            let mut cfg = MacConfig::dot11n(PhyRate::ht(rate));
            cfg.timings.txop_limit = SimDuration::from_micros(txop_us);
            cfg.max_ampdu_bytes = max_bytes;
            cfg.max_ampdu_frames = max_frames;
            let mut q = DestQueue::new(C1);
            for &l in &msdu_lens {
                q.enqueue(Pkt(l));
            }
            let batch = batch(&mut q, &cfg);
            prop_assert_eq!(batch.len(), reference_cut(&msdu_lens, &cfg));
            let lens: Vec<u32> = batch.iter().map(|m| m.wire_len()).collect();
            let offered: Vec<u32> = msdu_lens.iter().map(|l| l + sizes::DATA_OVERHEAD).collect();
            prop_assert_eq!(&lens[..], &offered[..lens.len()]);
            if batch.len() > 1 {
                prop_assert!(ampdu_wire_len(&lens) <= cfg.max_ampdu_bytes);
                prop_assert!(within_txop(&lens, cfg.data_rate, cfg.timings.txop_limit));
            }
            prop_assert_eq!(q.awaiting(), batch.len());
            prop_assert_eq!(q.backlog(), msdu_lens.len() - batch.len());
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Pkt(u32);
    impl Msdu for Pkt {
        fn wire_len(&self) -> u32 {
            self.0
        }
    }

    const AP: StationId = StationId(0);
    const C1: StationId = StationId(1);

    /// The next data batch from the AP, as its data MPDUs.
    fn batch(q: &mut DestQueue<Pkt>, cfg: &MacConfig) -> Vec<DataMpdu<Pkt>> {
        let mut frames = Vec::new();
        q.build_batch(AP, cfg, &mut frames);
        frames
            .into_iter()
            .map(|f| match f {
                Frame::Data(m) => m,
                other => panic!("a data batch holds {other:?}"),
            })
            .collect()
    }

    fn cfg_n() -> MacConfig {
        MacConfig::dot11n(PhyRate::ht(150))
    }

    fn cfg_a() -> MacConfig {
        MacConfig::dot11a(PhyRate::dot11a(54))
    }

    fn fill(q: &mut DestQueue<Pkt>, n: usize, len: u32) {
        for _ in 0..n {
            q.enqueue(Pkt(len));
        }
    }

    #[test]
    fn batch_of_1500b_mpdus_is_42_at_150mbps() {
        // 64 KB is the binding limit at 150 Mbps (airtime ~3.5 ms < 4 ms).
        let mut q = DestQueue::new(C1);
        fill(&mut q, 100, 1500);
        let batch = batch(&mut q, &cfg_n());
        assert_eq!(batch.len(), 42, "the paper's 42-packet batch");
        assert_eq!(q.awaiting(), 42);
        assert_eq!(q.backlog(), 58);
    }

    #[test]
    fn txop_binds_at_low_rates() {
        // At 15 Mbps, 4 ms of airtime holds far fewer than 42 MPDUs:
        // ~15e6*0.004/8 = 7500 bytes ≈ 4 MPDUs.
        let mut cfg = cfg_n();
        cfg.data_rate = PhyRate::ht(15);
        let mut q = DestQueue::new(C1);
        fill(&mut q, 100, 1500);
        let batch = batch(&mut q, &cfg);
        assert!(
            (3..=5).contains(&batch.len()),
            "TXOP-limited batch, got {}",
            batch.len()
        );
        // And the resulting airtime respects the limit.
        let lens: Vec<u32> = batch.iter().map(|m| m.wire_len()).collect();
        assert!(within_txop(&lens, cfg.data_rate, cfg.timings.txop_limit));
    }

    #[test]
    fn frame_limit_binds_for_small_mpdus() {
        // TCP ACKs (40-byte MSDUs): the 64-frame window binds first.
        let mut q = DestQueue::new(C1);
        fill(&mut q, 200, 40);
        let batch = batch(&mut q, &cfg_n());
        assert_eq!(batch.len(), 64);
    }

    #[test]
    fn single_mode_sends_one() {
        let mut q = DestQueue::new(C1);
        fill(&mut q, 5, 1500);
        let batch = batch(&mut q, &cfg_a());
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].seq, SeqNum::new(0));
        assert!(!batch[0].retry);
    }

    #[test]
    fn seq_numbers_ascend_across_batches() {
        let mut q = DestQueue::new(C1);
        fill(&mut q, 100, 1500);
        let cfg = cfg_n();
        let b1 = batch(&mut q, &cfg);
        // Resolve all acked so the window advances.
        let mut bm = AckBitmap::new(b1[0].seq);
        for m in &b1 {
            bm.set(m.seq);
        }
        let res = q.on_block_ack(&bm, cfg.timings.retry_limit, Vec::new());
        assert_eq!(res.acked, 42);
        assert_eq!(res.acked_first_try, 42);
        let b2 = batch(&mut q, &cfg);
        assert_eq!(b2[0].seq, SeqNum::new(42));
    }

    #[test]
    fn block_ack_requeues_missing_for_retransmission() {
        let mut q = DestQueue::new(C1);
        fill(&mut q, 10, 1500);
        let cfg = cfg_n();
        let b1 = batch(&mut q, &cfg);
        assert_eq!(b1.len(), 10);
        // ACK everything except seq 3 and 7.
        let mut bm = AckBitmap::new(SeqNum::new(0));
        for m in &b1 {
            if m.seq != SeqNum::new(3) && m.seq != SeqNum::new(7) {
                bm.set(m.seq);
            }
        }
        let res = q.on_block_ack(&bm, cfg.timings.retry_limit, Vec::new());
        assert_eq!(res.acked, 8);
        assert!(res.dropped.is_empty());
        assert_eq!(q.backlog(), 2);
        // The retransmission batch leads with the missing seqs, retry set.
        let b2 = batch(&mut q, &cfg);
        assert_eq!(b2[0].seq, SeqNum::new(3));
        assert_eq!(b2[1].seq, SeqNum::new(7));
        assert!(b2[0].retry && b2[1].retry);
    }

    #[test]
    fn retry_budget_drops_after_limit() {
        let mut q = DestQueue::new(C1);
        q.enqueue(Pkt(1500));
        let cfg = cfg_n();
        let empty_bm = AckBitmap::new(SeqNum::new(0));
        // Transmit and fail retry_limit times (initial attempt + 6 more
        // stay within the budget of 7 retries).
        for _ in 0..cfg.timings.retry_limit {
            let b = batch(&mut q, &cfg);
            assert_eq!(b.len(), 1);
            let res = q.on_block_ack(&empty_bm, cfg.timings.retry_limit, Vec::new());
            assert_eq!(res.acked, 0);
            assert!(res.dropped.is_empty());
        }
        let b = batch(&mut q, &cfg);
        assert_eq!(b.len(), 1);
        let res = q.on_block_ack(&empty_bm, cfg.timings.retry_limit, Vec::new());
        assert_eq!(res.dropped, vec![Pkt(1500)]);
        assert_eq!(q.backlog(), 0);
        assert!(!q.has_work());
    }

    #[test]
    fn bitmap_start_past_seq_counts_as_acked() {
        // If the receiver's window start moved beyond our seq, it was
        // delivered even though the bit isn't set.
        let mut q = DestQueue::new(C1);
        q.enqueue(Pkt(1500));
        let cfg = cfg_n();
        batch(&mut q, &cfg);
        let bm = AckBitmap::new(SeqNum::new(5));
        let res = q.on_block_ack(&bm, cfg.timings.retry_limit, Vec::new());
        assert_eq!(res.acked, 1);
    }

    #[test]
    fn no_response_in_agg_mode_sets_bar_pending() {
        let mut q = DestQueue::new(C1);
        fill(&mut q, 3, 1500);
        let cfg = cfg_n();
        batch(&mut q, &cfg);
        let dropped = q.on_no_response(true, cfg.timings.retry_limit);
        assert!(dropped.is_empty());
        assert!(q.bar_pending());
        // No data batch while BAR is owed.
        assert!(batch(&mut q, &cfg).is_empty());
        assert!(q.has_work());
    }

    #[test]
    fn no_response_in_single_mode_requeues_immediately() {
        let mut q = DestQueue::new(C1);
        q.enqueue(Pkt(1500));
        let cfg = cfg_a();
        let b1 = batch(&mut q, &cfg);
        let dropped = q.on_no_response(false, cfg.timings.retry_limit);
        assert!(dropped.is_empty());
        assert!(!q.bar_pending());
        let b2 = batch(&mut q, &cfg);
        assert_eq!(b2[0].seq, b1[0].seq);
        assert!(b2[0].retry);
    }

    #[test]
    fn single_mode_drop_after_retry_limit() {
        let mut q = DestQueue::new(C1);
        q.enqueue(Pkt(1500));
        let cfg = cfg_a();
        let lim = cfg.timings.retry_limit;
        for i in 0..lim {
            let b = batch(&mut q, &cfg);
            assert_eq!(b.len(), 1, "attempt {i}");
            let dropped = q.on_no_response(false, lim);
            assert!(dropped.is_empty(), "attempt {i}");
        }
        // One more failed attempt exceeds the budget.
        batch(&mut q, &cfg);
        let dropped = q.on_no_response(false, lim);
        assert_eq!(dropped, vec![Pkt(1500)]);
    }

    #[test]
    fn bar_exhausted_requeues_and_marks_sync() {
        let mut q = DestQueue::new(C1);
        fill(&mut q, 3, 1500);
        let mut cfg = cfg_n();
        cfg.use_sync = true;
        cfg.set_more_data = true;
        batch(&mut q, &cfg);
        q.on_no_response(true, cfg.timings.retry_limit);
        assert!(q.bar_pending());
        q.on_bar_exhausted();
        assert!(!q.bar_pending());
        assert!(q.sync_pending());
        let b = batch(&mut q, &cfg);
        assert_eq!(b.len(), 3);
        assert!(b[0].sync, "SYNC bit rides the next batch");
        assert!(b[0].retry);
        // SYNC is one-shot.
        let mut bm = AckBitmap::new(SeqNum::new(0));
        for m in &b {
            bm.set(m.seq);
        }
        q.on_block_ack(&bm, cfg.timings.retry_limit, Vec::new());
        fill(&mut q, 1, 1500);
        let b2 = batch(&mut q, &cfg);
        assert!(!b2[0].sync);
    }

    #[test]
    fn more_data_set_only_when_backlog_remains() {
        let mut cfg = cfg_n();
        cfg.set_more_data = true;
        let mut q = DestQueue::new(C1);
        fill(&mut q, 43, 1500); // one more than a full batch
        let b1 = batch(&mut q, &cfg);
        assert!(b1.iter().all(|m| m.more_data), "58-frame backlog remains");
        let mut bm = AckBitmap::new(SeqNum::new(0));
        for m in &b1 {
            bm.set(m.seq);
        }
        q.on_block_ack(&bm, cfg.timings.retry_limit, Vec::new());
        let b2 = batch(&mut q, &cfg);
        assert_eq!(b2.len(), 1);
        assert!(!b2[0].more_data, "queue is now empty");
    }

    #[test]
    fn more_data_requires_config() {
        let cfg = cfg_n(); // set_more_data = false (stock AP)
        let mut q = DestQueue::new(C1);
        fill(&mut q, 100, 1500);
        let b = batch(&mut q, &cfg);
        assert!(b.iter().all(|m| !m.more_data));
    }

    #[test]
    fn queued_bytes_tracks_lifecycle() {
        let mut q = DestQueue::new(C1);
        q.enqueue(Pkt(1000));
        q.enqueue(Pkt(500));
        assert_eq!(q.queued_bytes(), 1500);
        let cfg = cfg_n();
        let b = batch(&mut q, &cfg);
        assert_eq!(b.len(), 2);
        assert_eq!(q.queued_bytes(), 1500, "still unacknowledged");
        let mut bm = AckBitmap::new(SeqNum::new(0));
        bm.set(SeqNum::new(0));
        bm.set(SeqNum::new(1));
        q.on_block_ack(&bm, cfg.timings.retry_limit, Vec::new());
        assert_eq!(q.queued_bytes(), 0);
    }
}
