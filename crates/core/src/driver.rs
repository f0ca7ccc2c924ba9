//! The TCP/HACK drivers — the paper's core contribution (§3).
//!
//! [`CompressSide`] is the "client driver" of §3.3.1: it decides, for
//! every outgoing TCP ACK, whether to hold it compressed for the next
//! link-layer acknowledgment or to send it natively; it owns the MORE
//! DATA latch, the NIC-descriptor-ready race, and the §3.4 retention /
//! flush / SYNC rules. [`DecompressSide`] is the "AP driver": it
//! extracts blobs from augmented LL ACKs, reconstitutes TCP ACKs, and
//! keeps contexts fresh from the native ACKs it receives.
//!
//! Both sides are sans-IO: methods return [`DriverAction`]s the event
//! loop materializes (enqueue a native packet, install/clear the NIC
//! blob after the DMA latency, arm the explicit-timer flush).
//!
//! The design is symmetric — an AP doing a wireless *upload* from a
//! client runs a `CompressSide` toward that client, and the client runs
//! a `DecompressSide`. Each end of a link runs one of each, serving that
//! link alone: a CID names a context within one ROHC channel (one
//! compressor, one decompressor), so a `DecompressSide` decodes the
//! blobs and sees the natives of exactly one peer.

use hack_inline::BufPool;
use hack_mac::RxDataInfo;
use hack_rohc::{CompressStats, Compressor, DecompressStats, Decompressor, RohcSegment};
use hack_sim::{SimDuration, SimTime};
use hack_tcp::{FiveTuple, Ipv4Packet};
use hack_trace::TraceHandle;
use std::vec::Drain;

use crate::packet::NetPacket;

/// Which HACK variant a station runs (§3.2 "To HACK or not to HACK?").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HackMode {
    /// Stock 802.11: every TCP ACK is a normal transmission.
    Disabled,
    /// Opportunistic: ACKs are enqueued natively *and* staged on the
    /// NIC; whichever path wins the race delivers them.
    Opportunistic,
    /// The MORE DATA design: hold ACKs compressed whenever the peer has
    /// signalled more data is coming; fall back to native otherwise.
    MoreData,
    /// The naive explicit-timer fallback (evaluated as an ablation): hold
    /// every ACK and flush natively after a fixed delay.
    ExplicitTimer(SimDuration),
}

/// What the driver asks the event loop to do.
#[derive(Debug, Clone)]
pub enum DriverAction {
    /// Enqueue this packet on the MAC queue toward the peer as a normal
    /// transmission.
    SendNative(Ipv4Packet),
    /// (Re)build the NIC blob from the driver's held segments after the
    /// DMA latency; `generation` guards against stale installs.
    InstallBlob {
        /// Blob bytes to install once DMA completes.
        bytes: Vec<u8>,
        /// Driver blob generation at scheduling time.
        generation: u64,
    },
    /// Clear the NIC blob slot immediately.
    ClearBlob,
    /// Arm the explicit-timer flush at the given time.
    SetFlushTimer(SimTime),
    /// Disarm a pending explicit-timer flush: the held queue drained via
    /// §3.4 confirmation, so the timer would only fire as a no-op.
    CancelFlushTimer,
}

/// One TCP ACK held compressed on the NIC.
#[derive(Debug, Clone)]
struct HeldAck {
    /// Compressed segment bytes (inline — no per-ACK heap allocation).
    segment: RohcSegment,
    /// The original packet, for native re-enqueue on HACK failure.
    original: Ipv4Packet,
    /// Whether this segment has ridden at least one transmitted LL ACK.
    rode_ll_ack: bool,
    /// When this ACK was staged (staleness accounting).
    held_at: SimTime,
}

/// The ACKs a [`CompressSide`] holds compressed on the NIC, oldest
/// first, and the blob payload they make. Every edit of either is one
/// of five operations — hold, ride, confirm, supersede, drain — and
/// each hands back the entries it concerns. The payload is patched in
/// step with the entries, so a blob build is one memcpy instead of a
/// re-encode of every held ACK.
///
/// Invariants, asserted by [`HeldQueue::audit`]: ridden entries form a
/// prefix (a ride marks everything held; holds append unridden), and
/// the payload is the entries' segments, concatenated.
#[derive(Debug, Default)]
struct HeldQueue {
    entries: Vec<HeldAck>,
    payload: Vec<u8>,
}

impl HeldQueue {
    /// Append `ack`, spilling the oldest entry first when the queue sits
    /// at `cap` (set before the first hold). Hands back the spilled one.
    fn hold(&mut self, ack: HeldAck, cap: usize) -> Option<HeldAck> {
        self.audit();
        let spilled = (self.entries.len() >= cap).then(|| {
            let oldest = self.entries.remove(0);
            self.payload.drain(..oldest.segment.len());
            oldest
        });
        self.payload.extend_from_slice(&ack.segment);
        self.entries.push(ack);
        spilled
    }

    /// The entries that have ridden an LL ACK.
    fn ridden(&self) -> &[HeldAck] {
        &self.entries[..self.entries.partition_point(|h| h.rode_ll_ack)]
    }

    /// The blob rode a response: mark every entry ridden. Hands back the
    /// entries riding for the first time.
    fn ride(&mut self) -> &[HeldAck] {
        self.audit();
        let fresh = self.ridden().len();
        for h in &mut self.entries[fresh..] {
            h.rode_ll_ack = true;
        }
        &self.entries[fresh..]
    }

    /// The peer confirmed the ridden prefix (§3.4): remove it.
    fn confirm(&mut self) -> Drain<'_, HeldAck> {
        self.audit();
        let n = self.ridden().len();
        let bytes: usize = self.entries[..n].iter().map(|h| h.segment.len()).sum();
        self.payload.drain(..bytes);
        self.entries.drain(..n)
    }

    /// A native ACK reached the peer, whose references now stand at its
    /// values: remove every entry sent no later on its five-tuple (the
    /// ident serial compare of the compressor's own confirmation), which
    /// would no longer decode against them.
    fn supersede(&mut self, native: &Ipv4Packet) -> impl Iterator<Item = HeldAck> + '_ {
        self.audit();
        let (ident, tuple) = (native.ident, native.five_tuple());
        let (payload, mut at) = (&mut self.payload, 0);
        self.entries.extract_if(.., move |h| {
            let len = h.segment.len();
            let gone =
                ident.wrapping_sub(h.original.ident) < 0x8000 && h.original.five_tuple() == tuple;
            if gone {
                payload.drain(at..at + len);
            } else {
                at += len;
            }
            gone
        })
    }

    /// Remove every entry.
    fn drain(&mut self) -> Drain<'_, HeldAck> {
        self.audit();
        self.payload.clear();
        self.entries.drain(..)
    }

    /// Staleness watchdog: if the oldest entry has waited longer than
    /// `limit`, restamp every entry with `now` (re-arming), and say so.
    fn restamp_if_stale(&mut self, now: SimTime, limit: Option<SimDuration>) -> bool {
        let oldest = self.entries.first().map(|h| h.held_at);
        let stale = limit
            .zip(oldest)
            .is_some_and(|(l, at)| now.saturating_duration_since(at) > l);
        if stale {
            for h in &mut self.entries {
                h.held_at = now;
            }
        }
        stale
    }

    /// The blob, count byte then payload, written into `bytes` (reserved
    /// like the payload, so pooled buffers do not each outgrow every blob
    /// size in turn).
    fn blob(&self, mut bytes: Vec<u8>) -> Vec<u8> {
        self.audit();
        bytes.reserve(1 + self.payload.capacity());
        bytes.push(u8::try_from(self.entries.len()).expect("≤255 held ACKs"));
        bytes.extend_from_slice(&self.payload);
        bytes
    }

    /// The blob re-encoded from the entries' segments, payload unread.
    fn blob_from_scratch(&self) -> Vec<u8> {
        let mut bytes = vec![u8::try_from(self.entries.len()).expect("≤255 held ACKs")];
        bytes.extend(self.entries.iter().flat_map(|h| h.segment.iter()));
        bytes
    }

    /// The invariants, checked in debug builds only and in place, so
    /// they make no allocation that release builds do not.
    fn audit(&self) {
        if cfg!(debug_assertions) {
            // Ridden entries first: the unridden flags never fall.
            let prefix = self.entries.iter().map(|h| !h.rode_ll_ack).is_sorted();
            let segments = self.entries.iter().flat_map(|h| h.segment.iter());
            assert!(
                prefix && segments.eq(&self.payload),
                "held queue: ridden entries must form a prefix and the payload \
                 must be the segments, concatenated"
            );
        }
    }
}

/// Driver-level statistics (Table 2's ACK accounting).
#[derive(Debug, Default, Clone)]
pub struct CompressSideStats {
    /// TCP ACKs sent natively.
    pub native_acks: u64,
    /// Bytes of natively sent TCP ACKs.
    pub native_ack_bytes: u64,
    /// TCP ACKs delivered compressed on LL ACKs (counted when first
    /// attached, i.e. when they rode an LL ACK).
    pub hacked_acks: u64,
    /// Compressed bytes of those ACKs.
    pub hacked_ack_bytes: u64,
    /// Held ACKs re-enqueued natively after a HACK failure (the ready
    /// race or a flush with unsent segments).
    pub reenqueued: u64,
    /// Held ACKs dropped on flush or spill: ridden ones (cumulative ACKs
    /// cover them) and Opportunistic ones (their native twin is queued).
    pub dropped_on_flush: u64,
    /// Explicit-timer flushes fired.
    pub timer_flushes: u64,
    /// Oldest held ACKs spilled to the native path by the held-queue
    /// cap.
    pub spilled: u64,
    /// Explicit-timer flushes that fired with nothing held (should stay
    /// zero now that confirmation cancels the timer; counted so a
    /// regression is visible).
    pub noop_flushes: u64,
    /// Times the supervisor forced this driver onto the native path.
    pub forced_native: u64,
    /// Held ACKs withdrawn before riding any LL ACK because a native ACK
    /// sent no later on their five-tuple was delivered: neither hacked
    /// nor native, covered by that native.
    pub superseded: u64,
}

/// Health observations the event loop drains from the driver and feeds
/// to the flow's supervisor (compress-side contribution).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DriverHealth {
    /// Held ACKs spilled by the queue cap since the last drain.
    pub spills: u64,
    /// Staleness-limit violations of the oldest held ACK since the last
    /// drain.
    pub stale_holds: u64,
}

/// The compress-side (client) HACK driver toward one peer.
#[derive(Debug)]
pub struct CompressSide {
    mode: HackMode,
    compressor: Compressor,
    /// The MORE DATA latch (§3.2): set while the peer has promised more
    /// data, meaning held ACKs will get a ride.
    latched: bool,
    held: HeldQueue,
    /// Bumped on every rebuild; stale InstallBlob events are ignored.
    generation: u64,
    /// Clear (and flush) after the response that is about to go out.
    clear_after_response: bool,
    /// Whether a flush timer is currently armed (ExplicitTimer mode).
    flush_armed: bool,
    /// Cap on the held queue; pushing past it spills the oldest ACK to
    /// the native path.
    held_cap: usize,
    /// Supervisor override: route everything native without changing
    /// `mode` (the runtime equivalent of [`HackMode::Disabled`]).
    forced_native: bool,
    /// Staleness limit for the oldest held ACK (None = unchecked).
    stale_limit: Option<SimDuration>,
    /// Pending health observations for the supervisor.
    health: DriverHealth,
    /// Scratch-buffer pool for blob bytes: rebuilds draw from here and
    /// the event loop returns displaced NIC blobs via
    /// [`CompressSide::recycle_blob`].
    pool: BufPool,
    /// Action lists handed back through [`CompressSide::recycle`].
    spare_actions: Vec<Vec<DriverAction>>,
    stats: CompressSideStats,
}

/// Spare action lists a [`CompressSide`] keeps: one in use by the event
/// loop while the driver fills the next.
const SPARE_ACTION_LISTS: usize = 2;

/// Default [`CompressSide`] held-queue cap. Generous: §3.4 retention in
/// a healthy exchange holds at most a batch or two (tens of ACKs), and
/// the blob format itself tops out at 255 segments.
pub const DEFAULT_HELD_CAP: usize = 64;

impl CompressSide {
    /// A driver in the given mode.
    pub fn new(mode: HackMode) -> Self {
        CompressSide {
            mode,
            compressor: Compressor::new(),
            latched: false,
            held: HeldQueue::default(),
            generation: 0,
            clear_after_response: false,
            flush_armed: false,
            held_cap: DEFAULT_HELD_CAP,
            forced_native: false,
            stale_limit: None,
            health: DriverHealth::default(),
            pool: BufPool::new(),
            spare_actions: Vec::new(),
            stats: CompressSideStats::default(),
        }
    }

    /// Set the held-queue cap (clamped to the blob format's 255-segment
    /// ceiling; a zero cap is treated as 1), before the first hold: a
    /// hold spills at most one entry.
    pub fn set_held_cap(&mut self, cap: usize) {
        self.held_cap = cap.clamp(1, 255);
    }

    /// Set (or clear) the staleness limit on the oldest held ACK.
    pub fn set_stale_limit(&mut self, limit: Option<SimDuration>) {
        self.stale_limit = limit;
    }

    /// Drain pending health observations (spills, stale holds) for the
    /// supervisor.
    pub fn drain_health(&mut self) -> DriverHealth {
        std::mem::take(&mut self.health)
    }

    /// Supervisor override: route all subsequent ACKs natively without
    /// changing the configured mode. Held ACKs flush as on MORE DATA off,
    /// and any pending explicit flush timer is cancelled.
    pub fn force_native(&mut self, _now: SimTime) -> Vec<DriverAction> {
        if self.forced_native || self.mode == HackMode::Disabled {
            return Vec::new();
        }
        self.forced_native = true;
        self.stats.forced_native += 1;
        self.clear_after_response = false;
        let mut out = self.action_list();
        if self.flush_armed {
            self.flush_armed = false;
            out.push(DriverAction::CancelFlushTimer);
        }
        self.flush(&mut out);
        out
    }

    /// Supervisor override lifted (probation re-entry): resume the
    /// configured HACK mode. The latch re-arms on the next MORE DATA
    /// indication.
    pub fn resume_hack(&mut self) {
        self.forced_native = false;
    }

    /// Supervisor-driven ROHC refresh: drop the flow's compressor
    /// context so the next ACK declines, goes native, and re-seeds.
    pub fn drop_context(&mut self, tuple: &FiveTuple) -> bool {
        self.compressor.drop_context(tuple)
    }

    /// The configured mode.
    pub fn mode(&self) -> HackMode {
        self.mode
    }

    /// Install the structured-event trace handle on the embedded
    /// compressor; `node` is the station this driver runs on.
    pub fn set_trace(&mut self, trace: TraceHandle, node: u32) {
        self.compressor.set_trace(trace, node);
    }

    /// Driver statistics.
    pub fn stats(&self) -> &CompressSideStats {
        &self.stats
    }

    /// Compressor statistics (compression ratio etc.).
    pub fn compressor_stats(&self) -> &CompressStats {
        self.compressor.stats()
    }

    /// Number of ACKs currently held on the NIC.
    pub fn held_count(&self) -> usize {
        self.held.entries.len()
    }

    /// Current blob generation (used by the event loop to validate
    /// InstallBlob events).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn rebuild_blob(&mut self) -> DriverAction {
        self.generation += 1;
        if self.held.entries.is_empty() {
            DriverAction::ClearBlob
        } else {
            DriverAction::InstallBlob {
                bytes: self.held.blob(self.pool.take()),
                generation: self.generation,
            }
        }
    }

    /// The blob re-encoded from every held segment. Verification hook:
    /// the proptests compare it to [`CompressSide::current_blob`].
    pub fn rebuild_blob_from_scratch(&self) -> Vec<u8> {
        self.held.blob_from_scratch()
    }

    /// The incrementally maintained blob, as an install would ship it.
    pub fn current_blob(&self) -> Vec<u8> {
        self.held.blob(Vec::new())
    }

    /// The original packets of the held ACKs, oldest first (a
    /// verification hook too).
    pub fn held_acks(&self) -> impl Iterator<Item = &Ipv4Packet> + '_ {
        self.held.entries.iter().map(|h| &h.original)
    }

    /// Hand back an action list this driver returned, once applied, so
    /// the next call fills it instead of allocating. Optional, like
    /// [`CompressSide::recycle_blob`].
    pub fn recycle(&mut self, mut actions: Vec<DriverAction>) {
        if self.spare_actions.len() < SPARE_ACTION_LISTS && actions.capacity() > 0 {
            actions.clear();
            self.spare_actions.push(actions);
        }
    }

    /// An empty action list, recycled when one is spare.
    fn action_list(&mut self) -> Vec<DriverAction> {
        self.spare_actions.pop().unwrap_or_default()
    }

    /// Return a displaced NIC blob's byte buffer to the scratch pool.
    /// The event loop calls this when an InstallBlob replaces an older
    /// blob or a ClearBlob removes one.
    pub fn recycle_blob(&mut self, bytes: Vec<u8>) {
        self.pool.put(bytes);
    }

    /// Count `pkt` as a native ACK and ask for it to be enqueued.
    fn send_native(&mut self, pkt: Ipv4Packet, out: &mut Vec<DriverAction>) {
        self.stats.native_acks += 1;
        self.stats.native_ack_bytes += u64::from(pkt.wire_len());
        out.push(DriverAction::SendNative(pkt));
    }

    /// An entry left the held queue unconfirmed, spilled or flushed. A
    /// ridden one is covered by later cumulative ACKs (Figure 7), an
    /// Opportunistic one by its queued native twin. Any other never rode
    /// (the ready race, §3.3.1): the driver "re-enqueues the TCP ACKs on
    /// the transmit queue for normal transmission".
    fn retire(&mut self, h: HeldAck, out: &mut Vec<DriverAction>) {
        if h.rode_ll_ack || self.mode == HackMode::Opportunistic {
            self.stats.dropped_on_flush += 1;
        } else {
            self.stats.reenqueued += 1;
            self.compressor.observe_native(&h.original);
            self.send_native(h.original, out);
        }
    }

    /// The local TCP stack produced an ACK toward the peer. Decide its
    /// path.
    pub fn on_ack_out(&mut self, pkt: Ipv4Packet, now: SimTime) -> Vec<DriverAction> {
        self.compressor.set_trace_clock(now.as_nanos());
        let mut out = self.action_list();
        if self.mode == HackMode::Disabled {
            self.send_native(pkt, &mut out);
            return out;
        }
        if !self.forced_native && self.held.restamp_if_stale(now, self.stale_limit) {
            self.health.stale_holds += 1;
        }
        let segment = match self.mode {
            _ if self.forced_native => None,
            HackMode::MoreData if !self.latched => None,
            _ => self.compressor.compress(&pkt),
        };
        let Some(segment) = segment else {
            self.compressor.observe_native(&pkt);
            self.send_native(pkt, &mut out);
            return out;
        };
        // Opportunistic: stage compressed on the NIC *and* enqueue
        // natively; the race decides (§3.2).
        let twin = (self.mode == HackMode::Opportunistic).then(|| pkt.clone());
        let ack = HeldAck {
            segment,
            original: pkt,
            rode_ll_ack: false,
            held_at: now,
        };
        if let Some(oldest) = self.held.hold(ack, self.held_cap) {
            self.stats.spilled += 1;
            self.health.spills += 1;
            self.retire(oldest, &mut out);
        }
        out.push(self.rebuild_blob());
        if let (HackMode::ExplicitTimer(delay), false) = (self.mode, self.flush_armed) {
            self.flush_armed = true;
            out.push(DriverAction::SetFlushTimer(now + delay));
        }
        if let Some(twin) = twin {
            // No `observe_native`: the compressor already advanced past
            // this ACK.
            self.send_native(twin, &mut out);
        }
        out
    }

    /// A data PPDU arrived from the peer (the MAC's `DataReceived`
    /// indication). Updates the latch and applies the §3.4 confirmation
    /// rules.
    pub fn on_data_received(&mut self, info: &RxDataInfo, now: SimTime) -> Vec<DriverAction> {
        self.compressor.set_trace_clock(now.as_nanos());
        let mut out = self.action_list();
        if self.mode == HackMode::Disabled || self.forced_native {
            return out;
        }
        if self.held.restamp_if_stale(now, self.stale_limit) {
            self.health.stale_holds += 1;
        }

        // §3.4 confirmation: receipt of data (not SYNC-marked) confirms
        // that our previous LL ACK — and the blob on it — reached the
        // peer. In single-MPDU mode only a *new* sequence number
        // confirms (Figure 5(b)); a same-seq retransmission means our
        // ACK was lost and the blob must ride again.
        let confirms = !info.sync && (info.is_aggregate || info.advances_seq);
        if confirms && !self.held.ridden().is_empty() {
            for h in self.held.confirm() {
                // Advance the compressor floor: the peer holds this.
                self.compressor.confirm(&h.original);
            }
            out.push(self.rebuild_blob());
            // The confirmation may have drained the queue entirely; a
            // still-armed explicit flush timer would only fire as a
            // no-op, so disarm it.
            if self.flush_armed && self.held.entries.is_empty() {
                self.flush_armed = false;
                out.push(DriverAction::CancelFlushTimer);
            }
        }

        if self.mode == HackMode::MoreData {
            self.latched = info.more_data;
            if !info.more_data {
                // Fig 2 / Fig 7: the response to *this* batch is the last
                // ride; afterwards everything flushes.
                self.clear_after_response = true;
            }
        }
        out
    }

    /// The MAC transmitted a response to the peer; `attached` reports
    /// whether our blob rode on it (the NIC's interrupt status, §3.3.1).
    pub fn on_response_sent(&mut self, attached: bool, _now: SimTime) -> Vec<DriverAction> {
        let mut out = self.action_list();
        if self.mode == HackMode::Disabled || self.forced_native {
            return out;
        }
        if attached {
            for h in self.held.ride() {
                self.stats.hacked_acks += 1;
                self.stats.hacked_ack_bytes += h.segment.len() as u64;
            }
        }
        if self.clear_after_response {
            self.clear_after_response = false;
            self.flush(&mut out);
        }
        out
    }

    /// Some of our natively transmitted ACKs were just acknowledged by
    /// the peer's link layer: advance the compressor floor, and withdraw
    /// every held ACK sent no later on the same five-tuple.
    ///
    /// Non-ACK packets in `pkts` (data MSDUs sharing the same A-MPDU)
    /// are ignored, so callers can pass the delivered batch as-is
    /// without filtering into a fresh allocation first.
    pub fn on_natives_delivered(&mut self, pkts: &[NetPacket]) -> Vec<DriverAction> {
        if self.mode == HackMode::Disabled {
            return Vec::new();
        }
        let before = self.held.entries.len();
        for p in pkts.iter().filter(|p| p.is_pure_tcp_ack()) {
            self.compressor.confirm(p.ip());
            let unridden = self.held.supersede(p.ip()).filter(|h| !h.rode_ll_ack);
            self.stats.superseded += unridden.count() as u64;
        }
        if self.held.entries.len() == before {
            return Vec::new();
        }
        let mut out = self.action_list();
        out.push(self.rebuild_blob());
        out
    }

    /// Opportunistic mode: our blob rode an LL ACK; the native twins of
    /// the ridden ACKs should be withdrawn from the MAC queue. Yields
    /// the idents to withdraw.
    pub fn ridden_idents(&self) -> impl Iterator<Item = u16> + '_ {
        self.held.ridden().iter().map(|h| h.original.ident)
    }

    /// The explicit flush timer fired.
    pub fn on_flush_timer(&mut self, now: SimTime) -> Vec<DriverAction> {
        self.compressor.set_trace_clock(now.as_nanos());
        self.flush_armed = false;
        if self.held.entries.is_empty() {
            // Should no longer happen — confirmation drains emit
            // `CancelFlushTimer` — but count it so a regression to the
            // old silent-no-op behavior is visible.
            self.stats.noop_flushes += 1;
            return Vec::new();
        }
        self.stats.timer_flushes += 1;
        let mut out = self.action_list();
        self.flush(&mut out);
        out
    }

    /// Empty the held queue, retiring every entry, and clear the NIC
    /// slot.
    fn flush(&mut self, out: &mut Vec<DriverAction>) {
        let mut held = std::mem::take(&mut self.held);
        for h in held.drain() {
            self.retire(h, out);
        }
        self.held = held;
        out.push(self.rebuild_blob());
        self.latched = false;
    }
}

/// The decompress-side HACK driver: the AP's end of a download, the
/// client's end of an upload.
#[derive(Debug, Default)]
pub struct DecompressSide {
    decompressor: Decompressor,
    /// TCP ACKs reconstituted from blobs and forwarded upstream.
    pub forwarded: u64,
}

impl DecompressSide {
    /// A fresh decompress side.
    pub fn new() -> Self {
        DecompressSide::default()
    }

    /// Install the structured-event trace handle on the embedded
    /// decompressor; `node` is the station this driver runs on.
    pub fn set_trace(&mut self, trace: TraceHandle, node: u32) {
        self.decompressor.set_trace(trace, node);
    }

    /// Decompressor statistics.
    pub fn stats(&self) -> &DecompressStats {
        self.decompressor.stats()
    }

    /// Supervisor-driven ROHC refresh: drop the flow's decompressor
    /// context; the next native ACK from the flow re-seeds it.
    pub fn drop_context(&mut self, tuple: &FiveTuple) -> bool {
        self.decompressor.drop_context(tuple)
    }

    /// A native TCP ACK arrived from the peer: refresh contexts.
    pub fn on_native_ack(&mut self, pkt: &Ipv4Packet, now: SimTime) {
        self.decompressor.set_trace_clock(now.as_nanos());
        self.decompressor.observe_native(pkt);
    }

    /// An augmented LL ACK carried this blob: reconstitute the TCP ACKs
    /// to forward upstream, each handed to `forward` as it decodes
    /// straight out of the borrowed blob slice. Duplicates and CRC
    /// failures are absorbed (counted in stats).
    pub fn on_blob_with(&mut self, blob: &[u8], now: SimTime, mut forward: impl FnMut(Ipv4Packet)) {
        self.decompressor.set_trace_clock(now.as_nanos());
        for item in self.decompressor.decode(blob) {
            if let hack_rohc::BlobItem::Packet(p) = item {
                self.forwarded += 1;
                forward(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_tcp::{flags as tf, Ipv4Addr, TcpOption, TcpSegment, TcpSeq, Transport};

    fn ack(ackno: u32, ident: u16) -> Ipv4Packet {
        Ipv4Packet {
            src: Ipv4Addr::new(192, 168, 0, 2),
            dst: Ipv4Addr::new(10, 0, 0, 1),
            ident,
            ttl: 64,
            transport: Transport::Tcp(TcpSegment {
                src_port: 40000,
                dst_port: 5001,
                seq: TcpSeq(1),
                ack: TcpSeq(ackno),
                flags: tf::ACK,
                window: 1024,
                options: vec![TcpOption::Timestamps { tsval: 5, tsecr: 2 }].into(),
                payload_len: 0,
            }),
        }
    }

    fn info(more_data: bool, sync: bool) -> RxDataInfo {
        RxDataInfo {
            from: hack_phy::StationId(0),
            mpdus_ok: 2,
            more_data,
            sync,
            advances_seq: true,
            is_aggregate: true,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn decode(ap: &mut DecompressSide, blob: &[u8], now: SimTime) -> Vec<Ipv4Packet> {
        let mut pkts = Vec::new();
        ap.on_blob_with(blob, now, |p| pkts.push(p));
        pkts
    }

    #[test]
    fn disabled_mode_is_always_native() {
        let mut d = CompressSide::new(HackMode::Disabled);
        let acts = d.on_ack_out(ack(1000, 1), t(1));
        assert!(matches!(acts[0], DriverAction::SendNative(_)));
        assert_eq!(d.stats().native_acks, 1);
        // Latch inputs are ignored.
        d.on_data_received(&info(true, false), t(1));
        let acts = d.on_ack_out(ack(2000, 2), t(2));
        assert!(matches!(acts[0], DriverAction::SendNative(_)));
    }

    #[test]
    fn more_data_unlatched_sends_native() {
        let mut d = CompressSide::new(HackMode::MoreData);
        let acts = d.on_ack_out(ack(1000, 1), t(1));
        assert!(matches!(acts[0], DriverAction::SendNative(_)));
        assert_eq!(d.held_count(), 0);
    }

    #[test]
    fn more_data_latched_holds_compressed() {
        let mut d = CompressSide::new(HackMode::MoreData);
        // Seed the context with a native ACK first.
        d.on_ack_out(ack(1000, 1), t(1));
        // Peer promises more data.
        d.on_data_received(&info(true, false), t(2));
        assert!(d.latched);
        let acts = d.on_ack_out(ack(2000, 2), t(2));
        assert!(
            matches!(acts[0], DriverAction::InstallBlob { .. }),
            "{acts:?}"
        );
        assert_eq!(d.held_count(), 1);
        // Another ACK extends the blob.
        let acts = d.on_ack_out(ack(3000, 3), t(2));
        assert!(matches!(acts[0], DriverAction::InstallBlob { .. }));
        assert_eq!(d.held_count(), 2);
    }

    #[test]
    fn uncompressible_ack_goes_native_even_when_latched() {
        let mut d = CompressSide::new(HackMode::MoreData);
        d.on_data_received(&info(true, false), t(1));
        // No context yet: the first ACK cannot compress.
        let acts = d.on_ack_out(ack(1000, 1), t(1));
        assert!(matches!(acts[0], DriverAction::SendNative(_)));
        // But it seeded the context, so the next one compresses.
        let acts = d.on_ack_out(ack(2000, 2), t(2));
        assert!(matches!(acts[0], DriverAction::InstallBlob { .. }));
    }

    #[test]
    fn response_ride_marks_and_confirmation_clears() {
        let mut d = CompressSide::new(HackMode::MoreData);
        d.on_ack_out(ack(1000, 1), t(1));
        d.on_data_received(&info(true, false), t(2));
        d.on_ack_out(ack(2000, 2), t(2));
        // Blob rides a Block ACK.
        d.on_response_sent(true, t(3));
        assert_eq!(d.stats().hacked_acks, 1);
        assert_eq!(d.held_count(), 1, "retained until confirmed");
        // Next data arrival (no SYNC) confirms: held cleared.
        let acts = d.on_data_received(&info(true, false), t(4));
        assert_eq!(d.held_count(), 0);
        assert!(matches!(acts[0], DriverAction::ClearBlob));
    }

    #[test]
    fn sync_bit_preserves_held_state() {
        let mut d = CompressSide::new(HackMode::MoreData);
        d.on_ack_out(ack(1000, 1), t(1));
        d.on_data_received(&info(true, false), t(2));
        d.on_ack_out(ack(2000, 2), t(2));
        d.on_response_sent(true, t(3));
        // SYNC-marked batch: the peer never got our Block ACK (Fig 8).
        let acts = d.on_data_received(&info(true, true), t(4));
        assert_eq!(d.held_count(), 1, "SYNC forbids discarding");
        assert!(acts.is_empty());
        // The blob rides again on the next response.
        d.on_response_sent(true, t(5));
        // A clean batch finally confirms.
        d.on_data_received(&info(true, false), t(6));
        assert_eq!(d.held_count(), 0);
    }

    #[test]
    fn no_more_data_flushes_after_response() {
        let mut d = CompressSide::new(HackMode::MoreData);
        d.on_ack_out(ack(1000, 1), t(1));
        d.on_data_received(&info(true, false), t(2));
        d.on_ack_out(ack(2000, 2), t(2));
        // Final batch: MORE DATA off.
        d.on_data_received(&info(false, false), t(3));
        assert!(!d.latched);
        // The response still carries the blob (Fig 2's last ride)…
        let acts = d.on_response_sent(true, t(3));
        // …and afterwards held state clears; the ridden ACK is dropped
        // (cumulative ACKs cover it), nothing re-enqueues.
        assert_eq!(d.held_count(), 0);
        assert!(acts.iter().any(|a| matches!(a, DriverAction::ClearBlob)));
        assert!(!acts
            .iter()
            .any(|a| matches!(a, DriverAction::SendNative(_))));
        assert_eq!(d.stats().dropped_on_flush, 1);
        // Subsequent ACKs go native again.
        let acts = d.on_ack_out(ack(3000, 3), t(4));
        assert!(matches!(acts[0], DriverAction::SendNative(_)));
    }

    #[test]
    fn ready_race_reenqueues_unsent_acks() {
        let mut d = CompressSide::new(HackMode::MoreData);
        d.on_ack_out(ack(1000, 1), t(1));
        d.on_data_received(&info(true, false), t(2));
        d.on_ack_out(ack(2000, 2), t(2));
        // Data arrives without MORE DATA and the response goes out
        // *before* the blob was DMA'd: attached = false.
        d.on_data_received(&info(false, false), t(3));
        let acts = d.on_response_sent(false, t(3));
        // The held ACK never rode: it must be re-enqueued natively.
        let natives: Vec<_> = acts
            .iter()
            .filter(|a| matches!(a, DriverAction::SendNative(_)))
            .collect();
        assert_eq!(natives.len(), 1);
        assert_eq!(d.stats().reenqueued, 1);
        assert_eq!(d.held_count(), 0);
    }

    #[test]
    fn explicit_timer_flushes_natively() {
        let mut d = CompressSide::new(HackMode::ExplicitTimer(SimDuration::from_millis(10)));
        d.on_ack_out(ack(1000, 1), t(1)); // native (seeds context)
        let acts = d.on_ack_out(ack(2000, 2), t(2));
        assert!(matches!(acts[0], DriverAction::InstallBlob { .. }));
        assert!(acts
            .iter()
            .any(|a| matches!(a, DriverAction::SetFlushTimer(at) if *at == t(12))));
        // Timer fires with the ACK never having ridden: re-enqueue.
        let acts = d.on_flush_timer(t(12));
        assert!(acts
            .iter()
            .any(|a| matches!(a, DriverAction::SendNative(_))));
        assert_eq!(d.stats().timer_flushes, 1);
        assert_eq!(d.held_count(), 0);
    }

    #[test]
    fn opportunistic_dual_path_and_withdrawal() {
        let mut d = CompressSide::new(HackMode::Opportunistic);
        d.on_ack_out(ack(1000, 1), t(1)); // native only (no context yet)
        let acts = d.on_ack_out(ack(2000, 2), t(2));
        // Both a blob install and a native enqueue.
        assert!(acts
            .iter()
            .any(|a| matches!(a, DriverAction::InstallBlob { .. })));
        assert!(acts
            .iter()
            .any(|a| matches!(a, DriverAction::SendNative(_))));
        assert_eq!(d.held_count(), 1);
        // Blob rides an LL ACK: the native twin's ident is reported for
        // withdrawal from the MAC queue.
        d.on_response_sent(true, t(3));
        assert_eq!(d.ridden_idents().collect::<Vec<_>>(), [2]);
        // Natives delivered first instead: held copy dropped.
        let mut d2 = CompressSide::new(HackMode::Opportunistic);
        d2.on_ack_out(ack(1000, 1), t(1));
        d2.on_ack_out(ack(2000, 2), t(2));
        let acts = d2.on_natives_delivered(&[NetPacket(ack(2000, 2))]);
        assert_eq!(d2.held_count(), 0);
        assert!(matches!(acts[0], DriverAction::ClearBlob));
    }

    #[test]
    fn delivered_native_withdraws_older_holds() {
        let mut d = CompressSide::new(HackMode::Opportunistic);
        d.on_ack_out(ack(1000, 1), t(1)); // native only (no context yet)
        for i in 2..5u16 {
            d.on_ack_out(ack(1000 * u32::from(i), i), t(2));
        }
        d.on_response_sent(true, t(3)); // 2, 3 and 4 ride
        d.on_ack_out(ack(5000, 5), t(4));
        d.on_ack_out(ack(6000, 6), t(4));
        // Native 5 is delivered: every held ACK sent no later goes, the
        // ridden ones and the unridden one alike; 6 stays.
        let acts = d.on_natives_delivered(&[NetPacket(ack(5000, 5))]);
        assert!(matches!(acts[..], [DriverAction::InstallBlob { .. }]));
        assert_eq!(d.held_acks().map(|p| p.ident).collect::<Vec<_>>(), [6]);
        assert_eq!(d.stats().superseded, 1, "only 5 never rode");
        // A native of another five-tuple withdraws nothing.
        let mut other = ack(9000, 9);
        other.src = Ipv4Addr::new(192, 168, 0, 3);
        assert!(d.on_natives_delivered(&[NetPacket(other)]).is_empty());
        assert_eq!(d.held_count(), 1);
    }

    #[test]
    fn forced_opportunistic_flush_sends_no_ack_twice() {
        let mut d = CompressSide::new(HackMode::Opportunistic);
        let mut natives = Vec::new();
        let mut sent = |acts: Vec<DriverAction>| {
            natives.extend(acts.into_iter().filter_map(|a| match a {
                DriverAction::SendNative(p) => Some(p.ident),
                _ => None,
            }))
        };
        sent(d.on_ack_out(ack(1000, 1), t(1)));
        for i in 2..5u16 {
            sent(d.on_ack_out(ack(1000 * u32::from(i), i), t(2)));
        }
        assert_eq!(d.held_count(), 3, "held unridden, twins queued");
        sent(d.force_native(t(3)));
        assert_eq!(d.held_count(), 0);
        assert_eq!(d.stats().reenqueued, 0);
        assert_eq!(d.stats().dropped_on_flush, 3);
        assert_eq!(natives, [1, 2, 3, 4], "each ACK leaves natively once");
    }

    #[test]
    fn held_cap_spills_oldest_to_native() {
        let mut d = CompressSide::new(HackMode::MoreData);
        d.set_held_cap(3);
        d.on_ack_out(ack(1000, 1), t(1)); // seeds the context natively
        d.on_data_received(&info(true, false), t(1));
        for i in 0..3u16 {
            d.on_ack_out(ack(2000 + u32::from(i) * 1000, 2 + i), t(2));
        }
        assert_eq!(d.held_count(), 3);
        // The 4th held ACK spills the oldest (ackno 2000, never rode) to
        // the native path.
        let acts = d.on_ack_out(ack(5000, 5), t(3));
        assert_eq!(d.held_count(), 3);
        let natives: Vec<_> = acts
            .iter()
            .filter_map(|a| match a {
                DriverAction::SendNative(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(natives.len(), 1);
        assert_eq!(natives[0].ident, 2, "oldest-first spill");
        assert_eq!(d.stats().spilled, 1);
        assert_eq!(d.stats().reenqueued, 1);
        let health = d.drain_health();
        assert_eq!(health.spills, 1);
        assert_eq!(d.drain_health(), DriverHealth::default(), "drain resets");
        // A ridden oldest is dropped instead (cumulative ACKs cover it).
        d.on_response_sent(true, t(4));
        let acts = d.on_ack_out(ack(6000, 6), t(5));
        assert!(!acts
            .iter()
            .any(|a| matches!(a, DriverAction::SendNative(_))));
        assert_eq!(d.stats().spilled, 2);
        assert_eq!(d.stats().dropped_on_flush, 1);
    }

    #[test]
    fn held_queue_is_bounded_under_dead_peer() {
        // Regression: before the cap, a peer that died mid-burst grew
        // `held` without bound (and past 255 the blob build panicked).
        let mut d = CompressSide::new(HackMode::MoreData);
        d.on_ack_out(ack(1000, 1), t(1));
        d.on_data_received(&info(true, false), t(1));
        for i in 0..1000u32 {
            d.on_ack_out(ack(2000 + i * 10, (i % 60000) as u16 + 2), t(2));
        }
        assert!(d.held_count() <= DEFAULT_HELD_CAP);
        assert_eq!(d.stats().spilled as usize, 1000 - DEFAULT_HELD_CAP);
    }

    #[test]
    fn confirmation_drain_cancels_flush_timer() {
        // Satellite: previously the timer stayed armed after a §3.4
        // confirmation drained `held` and fired as a silent no-op.
        let mut d = CompressSide::new(HackMode::ExplicitTimer(SimDuration::from_millis(10)));
        d.on_ack_out(ack(1000, 1), t(1)); // native (seeds context)
        let acts = d.on_ack_out(ack(2000, 2), t(2));
        assert!(acts
            .iter()
            .any(|a| matches!(a, DriverAction::SetFlushTimer(_))));
        // The blob rides, then data confirms: held drains fully.
        d.on_response_sent(true, t(3));
        let acts = d.on_data_received(&info(true, false), t(4));
        assert_eq!(d.held_count(), 0);
        assert!(
            acts.iter()
                .any(|a| matches!(a, DriverAction::CancelFlushTimer)),
            "drained queue must disarm the pending flush: {acts:?}"
        );
        // If the timer fired anyway it would be a counted no-op.
        assert_eq!(d.stats().noop_flushes, 0);
        d.on_flush_timer(t(12));
        assert_eq!(d.stats().noop_flushes, 1);
        assert_eq!(d.stats().timer_flushes, 0);
    }

    #[test]
    fn partial_drain_keeps_flush_timer() {
        let mut d = CompressSide::new(HackMode::ExplicitTimer(SimDuration::from_millis(10)));
        d.on_ack_out(ack(1000, 1), t(1));
        d.on_ack_out(ack(2000, 2), t(2));
        d.on_response_sent(true, t(3)); // rides
        d.on_ack_out(ack(3000, 3), t(4)); // new, unridden
        let acts = d.on_data_received(&info(true, false), t(5));
        assert_eq!(d.held_count(), 1, "only the ridden ACK drains");
        assert!(!acts
            .iter()
            .any(|a| matches!(a, DriverAction::CancelFlushTimer)));
        // The timer still fires for the survivor.
        let acts = d.on_flush_timer(t(12));
        assert!(acts
            .iter()
            .any(|a| matches!(a, DriverAction::SendNative(_))));
        assert_eq!(d.stats().timer_flushes, 1);
    }

    #[test]
    fn forced_native_flushes_and_bypasses_hack() {
        let mut d = CompressSide::new(HackMode::MoreData);
        d.on_ack_out(ack(1000, 1), t(1));
        d.on_data_received(&info(true, false), t(2));
        d.on_ack_out(ack(2000, 2), t(2));
        assert_eq!(d.held_count(), 1);
        let acts = d.force_native(t(3));
        assert!(d.forced_native);
        assert_eq!(d.held_count(), 0);
        // The unridden held ACK re-enqueues natively and the NIC slot
        // clears.
        assert!(acts
            .iter()
            .any(|a| matches!(a, DriverAction::SendNative(_))));
        assert!(acts.iter().any(|a| matches!(a, DriverAction::ClearBlob)));
        assert_eq!(d.stats().forced_native, 1);
        // While forced, everything is native regardless of the latch.
        d.on_data_received(&info(true, false), t(4));
        assert!(!d.latched, "latch input ignored while forced");
        let acts = d.on_ack_out(ack(3000, 3), t(4));
        assert!(matches!(acts[0], DriverAction::SendNative(_)));
        // Idempotent.
        assert!(d.force_native(t(5)).is_empty());
        // Resume: the next MORE DATA indication re-latches and holds
        // again.
        d.resume_hack();
        d.on_data_received(&info(true, false), t(6));
        let acts = d.on_ack_out(ack(4000, 4), t(6));
        assert!(matches!(acts[0], DriverAction::InstallBlob { .. }));
    }

    #[test]
    fn forced_native_cancels_pending_flush_timer() {
        let mut d = CompressSide::new(HackMode::ExplicitTimer(SimDuration::from_millis(10)));
        d.on_ack_out(ack(1000, 1), t(1));
        d.on_ack_out(ack(2000, 2), t(2));
        let acts = d.force_native(t(3));
        assert!(acts
            .iter()
            .any(|a| matches!(a, DriverAction::CancelFlushTimer)));
        assert!(acts
            .iter()
            .any(|a| matches!(a, DriverAction::SendNative(_))));
    }

    #[test]
    fn stale_hold_reports_health() {
        let mut d = CompressSide::new(HackMode::MoreData);
        d.set_stale_limit(Some(SimDuration::from_millis(5)));
        d.on_ack_out(ack(1000, 1), t(1));
        d.on_data_received(&info(true, false), t(1));
        d.on_ack_out(ack(2000, 2), t(1));
        assert_eq!(d.drain_health(), DriverHealth::default());
        // 10 ms later the held ACK is stale; the watchdog reports once
        // and re-arms.
        d.on_ack_out(ack(3000, 3), t(11));
        assert_eq!(d.drain_health().stale_holds, 1);
        d.on_ack_out(ack(4000, 4), t(12));
        assert_eq!(
            d.drain_health(),
            DriverHealth::default(),
            "re-armed, not spamming"
        );
    }

    #[test]
    fn roundtrip_through_decompress_side() {
        let mut c = CompressSide::new(HackMode::MoreData);
        let mut ap = DecompressSide::new();
        // Native ACK seeds both ends.
        let first = ack(1000, 1);
        c.on_ack_out(first.clone(), t(1));
        ap.on_native_ack(&first, t(1));
        // Latch, hold, ride.
        c.on_data_received(&info(true, false), t(2));
        let acts = c.on_ack_out(ack(2000, 2), t(2));
        let DriverAction::InstallBlob { bytes, .. } = &acts[0] else {
            panic!("expected blob install, got {acts:?}");
        };
        let pkts = decode(&mut ap, bytes, t(3));
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0], ack(2000, 2), "byte-exact reconstitution");
        assert_eq!(ap.forwarded, 1);
    }

    #[test]
    fn decompress_side_absorbs_duplicate_blobs() {
        let mut c = CompressSide::new(HackMode::MoreData);
        let mut ap = DecompressSide::new();
        let first = ack(1000, 1);
        c.on_ack_out(first.clone(), t(1));
        ap.on_native_ack(&first, t(1));
        c.on_data_received(&info(true, false), t(2));
        let acts = c.on_ack_out(ack(2000, 2), t(2));
        let DriverAction::InstallBlob { bytes, .. } = &acts[0] else {
            panic!()
        };
        assert_eq!(decode(&mut ap, bytes, t(3)).len(), 1);
        // Retained blob arrives again (our BA was retransmitted).
        assert_eq!(decode(&mut ap, bytes, t(4)).len(), 0);
        assert_eq!(ap.stats().duplicates, 1);
    }
}
