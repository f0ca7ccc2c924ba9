//! Property-based tests for MAC transmit-queue and scoreboard
//! invariants under arbitrary loss patterns.

use hack_mac::{AckBitmap, DestQueue, Frame, MacConfig, Msdu, RxReorder, SeqNum};
use hack_phy::{PhyRate, StationId};
use proptest::prelude::*;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Pkt(u32, u32); // (id, len)
impl Msdu for Pkt {
    fn wire_len(&self) -> u32 {
        self.1
    }
}

const AP: StationId = StationId(0);
const C1: StationId = StationId(1);

proptest! {
    /// Under any per-batch loss pattern, every enqueued MSDU is
    /// eventually either acknowledged or dropped after exceeding the
    /// retry limit — never lost silently, never delivered twice.
    #[test]
    fn queue_conserves_msdus(
        n in 1usize..80,
        loss_seed in any::<u64>(),
        loss_p in 0.0f64..0.9,
    ) {
        let cfg = MacConfig::dot11n(PhyRate::ht(150));
        let mut q = DestQueue::new(C1);
        for i in 0..n {
            q.enqueue(Pkt(i as u32, 1500));
        }
        let mut rng = hack_sim::SimRng::new(loss_seed);
        let mut acked: Vec<u32> = Vec::new();
        let mut dropped: Vec<u32> = Vec::new();
        let mut rounds = 0;
        while q.has_work() && rounds < 10_000 {
            rounds += 1;
            let mut batch = Vec::new();
            q.build_batch(AP, &cfg, &mut batch);
            prop_assert!(!batch.is_empty(), "has_work implies a batch");
            let seqs = batch.iter().map(|f| match f {
                Frame::Data(m) => m.seq,
                other => panic!("a data batch holds {other:?}"),
            });
            let mut bm = AckBitmap::new(seqs.clone().next().expect("non-empty"));
            for seq in seqs {
                if !rng.chance(loss_p) {
                    bm.set(seq);
                }
            }
            let res = q.on_block_ack(&bm, cfg.timings.retry_limit, Vec::new());
            acked.extend(res.acked_msdus.iter().map(|m| m.0));
            dropped.extend(res.dropped.iter().map(|m| m.0));
        }
        prop_assert!(rounds < 10_000, "queue must drain");
        let mut all: Vec<u32> = acked.iter().chain(dropped.iter()).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n as u32).collect::<Vec<_>>(),
            "every MSDU exactly once (acked: {}, dropped: {})", acked.len(), dropped.len());
        prop_assert_eq!(q.queued_bytes(), 0);
    }

    /// The receive reorderer delivers each MSDU at most once and, in
    /// ordered mode with eventual delivery of everything, exactly once
    /// and in order.
    #[test]
    fn reorder_exactly_once_in_order(
        n in 1usize..100,
        shuffle_seed in any::<u64>(),
        dup_every in 2usize..10,
    ) {
        // Generate arrivals the way a real transmitter does: batches of
        // up to 24 in sequence order, each frame lost (deferred to the
        // next batch, retransmission-first) with probability 30 %.
        // Arbitrary permutations are unreachable in a real exchange —
        // the Block ACK window forbids sending seq s+64 while seq s is
        // unresolved — and this construction respects that invariant.
        let mut rng = hack_sim::SimRng::new(shuffle_seed);
        let mut pending: Vec<u16> = (0..n as u16).collect();
        let mut order: Vec<u16> = Vec::with_capacity(n);
        while !pending.is_empty() {
            // The transmitter's window constraint: nothing ≥ 64 beyond
            // the oldest unresolved sequence number may be sent.
            let oldest = pending[0];
            let take = pending
                .iter()
                .take(24)
                .take_while(|&&s| s < oldest + 64)
                .count()
                .max(1);
            let batch: Vec<u16> = pending.drain(..take).collect();
            let mut deferred = Vec::new();
            for s in batch {
                if rng.chance(0.3) {
                    deferred.push(s);
                } else {
                    order.push(s);
                }
            }
            // Retransmissions lead the next batch, in sequence order.
            deferred.append(&mut pending);
            pending = deferred;
        }
        let mut r: RxReorder<u16> = RxReorder::new(AP, true);
        let mut delivered = Vec::new();
        for (k, &s) in order.iter().enumerate() {
            r.on_mpdu(SeqNum::new(s), s, |v| delivered.push(v));
            // Occasionally duplicate a frame (retention/retransmission).
            if k % dup_every == 0 {
                let before = delivered.len();
                let is_new = r.on_mpdu(SeqNum::new(s), s, |v| delivered.push(v));
                prop_assert!(!is_new);
                prop_assert_eq!(delivered.len(), before);
            }
        }
        // With n ≤ 100 and a 64-window, some tail may still be held; a
        // BAR at the end flushes it.
        r.on_bar(SeqNum::new(n as u16), |v| delivered.push(v));
        // Ordered mode may release with gaps only on window overflow; we
        // always delivered everything, so the output is the identity.
        prop_assert_eq!(delivered, (0..n as u16).collect::<Vec<_>>());
    }

    /// Block ACK bitmaps round-trip: the transmitter's resolution agrees
    /// exactly with the receiver's scoreboard.
    #[test]
    fn bitmap_agreement(received in proptest::collection::vec(any::<bool>(), 1..64)) {
        let mut r: RxReorder<u16> = RxReorder::new(AP, true);
        for (i, &ok) in received.iter().enumerate() {
            if ok {
                r.on_mpdu(SeqNum::new(i as u16), i as u16, drop);
            }
        }
        let bm = r.ba_bitmap();
        for (i, &ok) in received.iter().enumerate() {
            let seq = SeqNum::new(i as u16);
            let acked = bm.contains(seq) || bm.start.is_newer_than(seq);
            prop_assert_eq!(acked, ok, "seq {}", i);
        }
    }
}
