//! The sans-IO 802.11 station state machine.
//!
//! One [`Station`] is a complete EDCA/DCF MAC: it contends for the
//! medium, transmits single MPDUs or A-MPDUs, answers with ACKs / Block
//! ACKs after SIFS, solicits lost Block ACKs with BARs, retransmits,
//! reorders and deduplicates receptions, and maintains the HACK blob
//! slot that lets the driver above ride compressed TCP ACKs on outgoing
//! link-layer acknowledgments.
//!
//! Every handler takes `now` and returns [`Action`]s; the event loop in
//! `hack-core` owns the clock, timers and medium. Invariants:
//!
//! * at most one of {armed `TxStart`, in-flight PPDU, awaited response}
//!   exists at a time — the MAC runs one exchange at a time;
//! * SIFS responses bypass contention and may even be emitted while the
//!   medium is busy (as real responders do — the resulting collision is
//!   the medium's to adjudicate);
//! * receptions are processed *before* channel-idle edges at the same
//!   instant (the event loop guarantees this), so NAV is always set
//!   before contention resumes.

use hack_phy::StationId;
use hack_sim::{SimDuration, SimRng, SimTime};
use hack_trace::{trace_ev, Event, TraceHandle};

use crate::actions::{Action, RespKind, RxDataInfo, TimerKind, TxDescriptor};
use crate::backoff::Contention;
use crate::config::MacConfig;
use crate::frame::{ampdu_subframe_len, Frame, FrameKind, HackBlob, Msdu, SeqNum};
use crate::queue::DestQueue;
use crate::scoreboard::RxReorder;
use crate::stats::{MacStats, TrafficClass};

/// What our in-flight (or awaited) transmission was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxKind {
    /// A data batch of `n` MPDUs (aggregated iff `n > 1` or config says).
    Data {
        /// MPDUs in the batch.
        n: usize,
        /// Whether it went out as an A-MPDU expecting a Block ACK.
        aggregated: bool,
    },
    /// A Block ACK Request.
    Bar,
}

#[derive(Debug, Clone, Copy)]
struct Exchange {
    dst: StationId,
    kind: TxKind,
    /// When the PPDU ended (for LL-ACK-overhead accounting).
    ended_at: Option<SimTime>,
}

#[derive(Debug, Clone, Copy)]
struct RespPlan {
    to: StationId,
    kind: RespKind,
}

/// Everything a station keeps about one peer. Station ids are small
/// dense integers, so the table is indexed by the peer's id directly.
#[derive(Debug)]
struct Peer<M> {
    /// Index of the transmit queue toward the peer in `queues`.
    queue: Option<usize>,
    /// Receive-side reorder/scoreboard state for frames from the peer.
    reorder: Option<Box<RxReorder<M>>>,
    /// The compressed-TCP-ACK frame the driver has made "ready" for the
    /// peer (§3.3.1, Figure 3).
    blob: Option<HackBlob>,
    /// Association-time negotiation outcome: whether HACK engaged on
    /// the link. `None` = never associated (pre-negotiation links behave
    /// as HACK-capable for back-compat with direct driver wiring).
    hack_negotiated: Option<bool>,
}

impl<M> Default for Peer<M> {
    fn default() -> Self {
        Peer {
            queue: None,
            reorder: None,
            blob: None,
            hack_negotiated: None,
        }
    }
}

/// Spare lists of each kind a station keeps for reuse. The event loop
/// applies actions re-entrantly (an applied action can call back into the
/// same station), so several can be out at a time; the nesting is shallow.
const SPARE_LISTS: usize = 4;

/// Keep the emptied `list` for reuse unless enough are spare already.
fn keep_spare<T>(spares: &mut Vec<Vec<T>>, mut list: Vec<T>) {
    if spares.len() < SPARE_LISTS && list.capacity() > 0 {
        list.clear();
        spares.push(list);
    }
}

/// A complete 802.11 station MAC.
#[derive(Debug)]
pub struct Station<M: Msdu> {
    id: StationId,
    cfg: MacConfig,
    rng: SimRng,

    // ---- transmit pipeline ----
    /// Transmit queues in creation order (the round-robin order).
    queues: Vec<DestQueue<M>>,
    peers: Vec<Peer<M>>,
    rr_cursor: usize,
    contention: Contention,
    /// When the current head-of-line work became pending.
    work_since: Option<SimTime>,
    /// Armed TxStart target, if contending.
    tx_at: Option<SimTime>,
    /// Our non-response PPDU currently on the air.
    in_flight: Option<Exchange>,
    /// Exchange awaiting its ACK / Block ACK.
    wait_response: Option<Exchange>,

    // ---- receive / respond ----
    pending_response: Option<RespPlan>,
    response_in_flight: bool,

    // ---- carrier state ----
    phys_busy: bool,
    idle_since: SimTime,
    nav_until: SimTime,

    /// Action lists handed back through [`Station::recycle`].
    spare_actions: Vec<Vec<Action<M>>>,
    /// The emptied PPDUs this station received, and its own that nobody
    /// decoded: its next data PPDU, BAR or response is built in one.
    spare_frames: Vec<Vec<Frame<M>>>,
    /// Acknowledged-MSDU lists of applied responses.
    spare_msdus: Vec<Vec<M>>,
    /// Buffers of blobs this station sent, for the next response's copy.
    spare_blobs: Vec<Vec<u8>>,

    stats: MacStats,
    trace: TraceHandle,
}

impl<M: Msdu> Station<M> {
    /// A new station with the given identity and configuration. `rng`
    /// drives backoff draws and must be forked per station for
    /// determinism.
    pub fn new(id: StationId, cfg: MacConfig, rng: SimRng) -> Self {
        Station {
            id,
            contention: Contention::new(cfg.timings),
            cfg,
            rng,
            queues: Vec::new(),
            peers: Vec::new(),
            rr_cursor: 0,
            work_since: None,
            tx_at: None,
            in_flight: None,
            wait_response: None,
            pending_response: None,
            response_in_flight: false,
            phys_busy: false,
            idle_since: SimTime::ZERO,
            nav_until: SimTime::ZERO,
            spare_actions: Vec::new(),
            spare_frames: Vec::new(),
            spare_msdus: Vec::new(),
            spare_blobs: Vec::new(),
            stats: MacStats::default(),
            trace: TraceHandle::off(),
        }
    }

    /// Build this station's association request (client side of the
    /// handshake), advertising the configured capability bits.
    pub fn assoc_request(&self) -> crate::capability::AssocRequest {
        crate::capability::AssocRequest {
            from: self.id,
            caps: crate::capability::CapabilityInfo::hack(self.cfg.hack_capable),
        }
    }

    /// AP side: admit an associating client and answer with the
    /// negotiated outcome (HACK engages only if both ends advertise the
    /// bit).
    pub fn on_assoc_request(
        &mut self,
        req: &crate::capability::AssocRequest,
    ) -> crate::capability::AssocResponse {
        let negotiated = self.cfg.hack_capable && req.caps.hack_capable();
        self.peer_mut(req.from).hack_negotiated = Some(negotiated);
        crate::capability::AssocResponse {
            from: self.id,
            caps: crate::capability::CapabilityInfo::hack(self.cfg.hack_capable),
            hack_negotiated: negotiated,
        }
    }

    /// Client side: record the AP's association response.
    pub fn on_assoc_response(&mut self, resp: &crate::capability::AssocResponse) {
        self.peer_mut(resp.from).hack_negotiated = Some(resp.hack_negotiated);
    }

    /// The negotiated HACK outcome toward `peer`: `Some(true)` =
    /// negotiated, `Some(false)` = peer (or we) lacked the bit, `None` =
    /// no association has happened.
    pub fn hack_negotiated(&self, peer: StationId) -> Option<bool> {
        self.peer(peer).and_then(|p| p.hack_negotiated)
    }

    /// The peer whose ACK / Block ACK this station is currently waiting
    /// on, if any (the supervisor's LL-ACK-timeout attribution).
    pub fn awaiting_response_from(&self) -> Option<StationId> {
        self.wait_response.as_ref().map(|ex| ex.dst)
    }

    /// Install the structured-event trace handle (off by default).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// This station's address.
    pub fn id(&self) -> StationId {
        self.id
    }

    /// The station's configuration.
    pub fn config(&self) -> &MacConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MacStats {
        &self.stats
    }

    /// MSDUs queued toward `dst` (new + retransmit backlog).
    pub fn backlog(&self, dst: StationId) -> usize {
        self.queue_index(dst)
            .map_or(0, |i| self.queues[i].backlog())
    }

    /// Total backlog across destinations.
    pub fn total_backlog(&self) -> usize {
        self.queues.iter().map(DestQueue::backlog).sum()
    }

    /// Install (replace) the HACK blob for `peer`: the driver's
    /// "TCP/HACK ready" flag plus descriptor contents (§3.3.1, Figure 3).
    /// The blob will be attached to every LL ACK sent to `peer` until
    /// replaced or cleared. Returns the displaced blob, if any, so the
    /// driver can recycle its byte buffer.
    pub fn set_hack_blob(&mut self, peer: StationId, blob: HackBlob) -> Option<HackBlob> {
        self.peer_mut(peer).blob.replace(blob)
    }

    /// Clear `peer`'s HACK slot (driver confirmed delivery or gave up).
    /// Returns the removed blob, if any, for buffer recycling.
    pub fn clear_hack_blob(&mut self, peer: StationId) -> Option<HackBlob> {
        self.peers.get_mut(peer.0 as usize)?.blob.take()
    }

    /// The blob currently installed for `peer`, if any.
    pub fn hack_blob(&self, peer: StationId) -> Option<&HackBlob> {
        self.peer(peer)?.blob.as_ref()
    }

    /// Hand back an action list this station returned, once applied, so
    /// the next handler fills it instead of allocating. Optional: a
    /// caller that never recycles gets a fresh list per call.
    pub fn recycle(&mut self, actions: Vec<Action<M>>) {
        keep_spare(&mut self.spare_actions, actions);
    }

    /// Hand back the frames of a PPDU of this station's that no addressee
    /// took (collided, lost, only overheard). Optional, as `recycle`.
    pub fn recycle_frames(&mut self, frames: Vec<Frame<M>>) {
        keep_spare(&mut self.spare_frames, frames);
    }

    /// Hand back an applied [`Action::ResponseReceived`]'s `acked_msdus`.
    pub fn recycle_msdus(&mut self, msdus: Vec<M>) {
        keep_spare(&mut self.spare_msdus, msdus);
    }

    /// Hand back a blob this station sent, once its receiver decoded it.
    pub fn recycle_blob(&mut self, blob: HackBlob) {
        keep_spare(&mut self.spare_blobs, blob.bytes);
    }

    /// An empty action list, recycled when one is spare.
    fn action_list(&mut self) -> Vec<Action<M>> {
        self.spare_actions.pop().unwrap_or_default()
    }

    fn peer(&self, id: StationId) -> Option<&Peer<M>> {
        self.peers.get(id.0 as usize)
    }

    fn peer_mut(&mut self, id: StationId) -> &mut Peer<M> {
        let i = id.0 as usize;
        if i >= self.peers.len() {
            self.peers.resize_with(i + 1, Peer::default);
        }
        &mut self.peers[i]
    }

    fn queue_index(&self, dst: StationId) -> Option<usize> {
        self.peer(dst)?.queue
    }

    fn queue_mut(&mut self, dst: StationId) -> &mut DestQueue<M> {
        let idx = match self.queue_index(dst) {
            Some(idx) => idx,
            None => {
                self.queues.push(DestQueue::new(dst));
                let idx = self.queues.len() - 1;
                self.peer_mut(dst).queue = Some(idx);
                idx
            }
        };
        &mut self.queues[idx]
    }

    fn reorder_mut(&mut self, src: StationId) -> &mut RxReorder<M> {
        let ordered = self.cfg.aggregation;
        self.peer_mut(src)
            .reorder
            .get_or_insert_with(|| Box::new(RxReorder::new(src, ordered)))
    }

    fn has_work(&self) -> bool {
        self.queues.iter().any(DestQueue::has_work)
    }

    /// Remove the not-yet-transmitted MSDUs toward `dst` matching `pred`
    /// and hand each, in queue order, to `take` (Opportunistic HACK's
    /// queue grab, §3.2, drops them).
    pub fn withdraw_unsent(
        &mut self,
        dst: StationId,
        pred: impl FnMut(&M) -> bool,
        take: impl FnMut(M),
    ) {
        if let Some(i) = self.queue_index(dst) {
            self.queues[i].withdraw_unsent(pred, take);
        }
    }

    /// Tear down the per-association state toward `peer` for an AP
    /// handoff: the negotiated capability record and any installed HACK
    /// blob are dropped, and every not-yet-transmitted MSDU toward
    /// `peer` is withdrawn and returned so the caller can re-route it
    /// through the new association. Frames already in flight (or in the
    /// retransmit window) are left to finish over the air — packets
    /// committed to the old path drain through it, they are not
    /// silently dropped.
    pub fn disassociate(&mut self, peer: StationId) -> Vec<M> {
        if let Some(p) = self.peers.get_mut(peer.0 as usize) {
            p.hack_negotiated = None;
            p.blob = None;
        }
        let mut withdrawn = Vec::new();
        self.withdraw_unsent(peer, |_| true, |m| withdrawn.push(m));
        withdrawn
    }

    /// Whether [`Station::enqueue`] would only append: the station holds
    /// an armed `TxStart`, a PPDU on the air, an awaited or pending
    /// response, a response on the air, or a busy medium. These are the
    /// guards under which contention does not start, read without the
    /// clock, so an enqueue then returns no action and changes nothing
    /// but the queue (and `work_since`, if unset).
    pub fn enqueue_is_silent(&self) -> bool {
        self.tx_at.is_some()
            || self.in_flight.is_some()
            || self.wait_response.is_some()
            || self.pending_response.is_some()
            || self.response_in_flight
            || self.phys_busy
    }

    /// Enqueue an MSDU for transmission to `dst`.
    pub fn enqueue(&mut self, dst: StationId, msdu: M, now: SimTime) -> Vec<Action<M>> {
        self.queue_mut(dst).enqueue(msdu);
        if self.work_since.is_none() {
            self.work_since = Some(now);
        }
        let mut actions = self.action_list();
        self.maybe_contend(now, &mut actions);
        actions
    }

    // ------------------------------------------------------------------
    // Carrier events
    // ------------------------------------------------------------------

    /// The medium went busy at `now` (some station began transmitting;
    /// includes our own transmissions).
    pub fn on_channel_busy(&mut self, now: SimTime) -> Vec<Action<M>> {
        self.phys_busy = true;
        let mut actions = self.action_list();
        if let Some(tx_at) = self.tx_at {
            if tx_at > now {
                // Freeze the countdown; we lost this round.
                self.contention.pause(now);
                self.tx_at = None;
                actions.push(Action::CancelTimer {
                    kind: TimerKind::TxStart,
                });
            }
            // tx_at == now: our slot boundary coincides with the other
            // station's start — both transmit (that *is* a collision).
        }
        if self.wait_response.is_some() {
            // PHY-RXSTART while awaiting a response: a real MAC holds its
            // ACK timeout once it detects the response's preamble (the
            // timeout only bounds the *start* of the response, not its
            // full airtime — a Block ACK at a low basic rate, possibly
            // HACK-extended, can far outlast SIFS+slot+preamble). Extend
            // the deadline past any plausible response airtime; if the
            // frame turns out not to be our response, the pushed-out
            // timeout still fires and recovery proceeds.
            actions.push(Action::SetTimer {
                kind: TimerKind::AckTimeout,
                at: now + SimDuration::from_millis(1),
            });
        }
        actions
    }

    /// The medium went idle at `now`.
    pub fn on_channel_idle(&mut self, now: SimTime) -> Vec<Action<M>> {
        self.phys_busy = false;
        self.idle_since = now;
        let mut actions = self.action_list();
        self.maybe_contend(now, &mut actions);
        actions
    }

    // ------------------------------------------------------------------
    // Reception
    // ------------------------------------------------------------------

    /// A PPDU ended at `now` and this station decoded `frames` from it
    /// (non-empty). `aggregated` says whether the PPDU was an A-MPDU
    /// (expects a Block ACK) or a single MPDU (expects an ACK).
    pub fn on_rx_ppdu(
        &mut self,
        mut frames: Vec<Frame<M>>,
        aggregated: bool,
        now: SimTime,
    ) -> Vec<Action<M>> {
        debug_assert!(!frames.is_empty());
        let src = frames[0].src();
        let for_me = frames[0].dst() == self.id;
        debug_assert!(
            frames
                .iter()
                .all(|f| f.src() == src && (f.dst() == self.id) == for_me),
            "one PPDU, one transmitter, one receiver"
        );

        if !for_me {
            return self.on_overheard(frames.iter().map(Frame::kind), aggregated, now);
        }
        self.contention.clear_eifs();
        let mut actions = self.action_list();
        // One action per delivered MSDU plus the indication and timer.
        actions.reserve(frames.len() + 2);

        // Control frames first, in order; then the data MPDUs as one
        // batch.
        let mut data_mpdus = 0usize;
        for frame in &mut frames {
            match frame {
                Frame::Data(_) => data_mpdus += 1,
                Frame::Ack { hack, .. } => {
                    self.on_response(src, None, hack.take(), now, &mut actions);
                }
                Frame::BlockAck { bitmap, hack, .. } => {
                    self.on_response(src, Some(*bitmap), hack.take(), now, &mut actions);
                }
                Frame::BlockAckReq { start, .. } => {
                    self.on_bar(src, *start, now, &mut actions);
                }
            }
        }
        if data_mpdus > 0 {
            self.on_data(src, &mut frames, data_mpdus, aggregated, now, &mut actions);
        }
        keep_spare(&mut self.spare_frames, frames);
        actions
    }

    /// A PPDU addressed to another station ended at `now` and this
    /// station decoded frames of the given kinds from it (at least one,
    /// in PPDU order). Only the kinds matter to a bystander — virtual
    /// carrier sense — so the frames themselves stay with the event
    /// loop. `aggregated` as for [`Station::on_rx_ppdu`].
    pub fn on_overheard(
        &mut self,
        decoded: impl IntoIterator<Item = FrameKind>,
        aggregated: bool,
        now: SimTime,
    ) -> Vec<Action<M>> {
        self.contention.clear_eifs();
        let mut actions = self.action_list();
        let mut decoded = decoded.into_iter();
        let Some(first) = decoded.next() else {
            debug_assert!(false, "overheard PPDU with nothing decoded");
            return actions;
        };
        // Virtual carrier sense: data and BAR frames reserve the medium
        // for their SIFS + response tail.
        let reserves = |k: FrameKind| matches!(k, FrameKind::Data | FrameKind::BlockAckReq);
        if !(reserves(first) || decoded.any(reserves)) {
            return actions;
        }
        let resp_bytes = if aggregated || first == FrameKind::BlockAckReq {
            crate::frame::sizes::BLOCK_ACK
        } else {
            crate::frame::sizes::ACK
        };
        let resp_air = self
            .cfg
            .data_rate
            .basic_response_rate()
            .ppdu_duration(u64::from(resp_bytes));
        let until = now + self.cfg.timings.sifs + resp_air + SimDuration::from_micros(8);
        if until > self.nav_until {
            self.nav_until = until;
            actions.push(Action::SetTimer {
                kind: TimerKind::NavExpire,
                at: until,
            });
            if let Some(tx_at) = self.tx_at {
                if tx_at > now {
                    self.contention.pause(now);
                    self.tx_at = None;
                    actions.push(Action::CancelTimer {
                        kind: TimerKind::TxStart,
                    });
                }
            }
        }
        actions
    }

    /// Energy was detected but nothing decoded (collision or deep fade):
    /// the station must use EIFS before its next contention round.
    pub fn on_rx_garbage(&mut self, _now: SimTime) -> Vec<Action<M>> {
        self.stats.rx_garbage.incr();
        self.contention.set_eifs();
        Vec::new()
    }

    /// One or more MPDUs arrived with flipped bits and failed the FCS
    /// check. The frame bodies are discarded; like any undecodable
    /// reception, the station defers EIFS before its next contention
    /// round (802.11-2016 §10.3.2.3.7).
    pub fn on_rx_corrupt(&mut self, from: StationId, mpdus: u32, now: SimTime) -> Vec<Action<M>> {
        self.stats.rx_fcs_bad.add(u64::from(mpdus));
        trace_ev!(
            self.trace,
            now.as_nanos(),
            self.id.0,
            Event::MacFrameCorrupted {
                from: from.0,
                mpdus
            }
        );
        self.contention.set_eifs();
        Vec::new()
    }

    fn on_data(
        &mut self,
        src: StationId,
        frames: &mut Vec<Frame<M>>,
        mpdus_ok: usize,
        aggregated: bool,
        now: SimTime,
        actions: &mut Vec<Action<M>>,
    ) {
        let reorder = self.reorder_mut(src);
        let prev_highest = reorder.highest();

        let (mut more_data, mut sync, mut advances_seq) = (false, false, false);
        for f in frames.drain(..) {
            let Frame::Data(f) = f else { continue };
            more_data |= f.more_data;
            sync |= f.sync;
            advances_seq |= match prev_highest {
                None => true,
                Some(h) => f.seq.is_newer_than(h),
            };
            reorder.on_mpdu(f.seq, f.payload, |msdu| {
                actions.push(Action::Deliver { src, msdu });
            });
        }

        actions.push(Action::DataReceived(RxDataInfo {
            from: src,
            mpdus_ok,
            more_data,
            sync,
            advances_seq,
            is_aggregate: aggregated,
        }));

        // Queue the SIFS response. A newer data PPDU supersedes any
        // response still pending (its sender will time out and recover).
        self.pending_response = Some(RespPlan {
            to: src,
            kind: if aggregated {
                RespKind::BlockAck
            } else {
                RespKind::Ack
            },
        });
        actions.push(Action::SetTimer {
            kind: TimerKind::SendResponse,
            at: now + self.cfg.timings.sifs + self.cfg.response_extra_delay,
        });
    }

    fn on_bar(
        &mut self,
        src: StationId,
        start: SeqNum,
        now: SimTime,
        actions: &mut Vec<Action<M>>,
    ) {
        self.reorder_mut(src).on_bar(start, |msdu| {
            actions.push(Action::Deliver { src, msdu });
        });
        actions.push(Action::BarReceived { from: src, start });
        self.pending_response = Some(RespPlan {
            to: src,
            kind: RespKind::BlockAck,
        });
        actions.push(Action::SetTimer {
            kind: TimerKind::SendResponse,
            at: now + self.cfg.timings.sifs + self.cfg.response_extra_delay,
        });
    }

    fn on_response(
        &mut self,
        src: StationId,
        bitmap: Option<crate::frame::AckBitmap>,
        blob: Option<HackBlob>,
        now: SimTime,
        actions: &mut Vec<Action<M>>,
    ) {
        let expected = self.wait_response.is_some_and(|ex| ex.dst == src);
        let retry_limit = self.cfg.timings.retry_limit;

        // Account LL ACK latency beyond SIFS for responses we awaited.
        if expected {
            let ex = self.wait_response.take().expect("checked");
            if let Some(ended) = ex.ended_at {
                // Response ended at `now`; its nominal end would have been
                // ended + SIFS + airtime. Overhead = actual − nominal,
                // clamped at zero.
                let nominal = ended + self.cfg.timings.sifs;
                let actual_start_offset = now.saturating_duration_since(nominal);
                // Subtract the response airtime we cannot observe
                // directly here; response_extra_delay is the true knob,
                // use it when configured on the peer — we instead record
                // the measured slack which includes it.
                let resp_air = self
                    .cfg
                    .data_rate
                    .basic_response_rate()
                    .ppdu_duration(u64::from(crate::frame::sizes::BLOCK_ACK));
                self.stats
                    .ll_ack_overhead
                    .add(actual_start_offset.saturating_sub(resp_air));
            }
            actions.push(Action::CancelTimer {
                kind: TimerKind::AckTimeout,
            });
            self.contention.on_success();
        }

        // Resolve the queue regardless of whether we were still waiting —
        // a late Block ACK is still valid feedback.
        let block = bitmap.is_some();
        let res = {
            let acked_msdus = self.spare_msdus.pop().unwrap_or_default();
            let q = self.queue_mut(src);
            match bitmap {
                Some(bm) => q.on_block_ack(&bm, retry_limit, acked_msdus),
                None => q.on_ack(acked_msdus),
            }
        };
        trace_ev!(
            self.trace,
            now.as_nanos(),
            self.id.0,
            Event::MacLlAck {
                peer: src.0,
                block,
                acked: res.acked,
            }
        );
        self.stats
            .mpdus_first_try
            .add(u64::from(res.acked_first_try));
        self.stats
            .mpdus_retried
            .add(u64::from(res.acked - res.acked_first_try));
        for msdu in res.dropped {
            self.stats.mpdus_dropped.incr();
            actions.push(Action::MsduDropped { dst: src, msdu });
        }
        actions.push(Action::ResponseReceived {
            from: src,
            blob,
            acked: res.acked,
            acked_msdus: res.acked_msdus,
        });

        if expected {
            self.work_since = self.has_work().then_some(now);
            self.maybe_contend(now, actions);
        }
    }

    // ------------------------------------------------------------------
    // Our transmissions
    // ------------------------------------------------------------------

    /// Our PPDU (data, BAR, or response) finished its airtime at `now`.
    pub fn on_tx_end(&mut self, now: SimTime) -> Vec<Action<M>> {
        let mut actions = self.action_list();
        if self.response_in_flight {
            self.response_in_flight = false;
            self.maybe_contend(now, &mut actions);
            return actions;
        }
        let mut ex = self
            .in_flight
            .take()
            .expect("on_tx_end with nothing in flight");
        ex.ended_at = Some(now);
        self.wait_response = Some(ex);
        actions.push(Action::SetTimer {
            kind: TimerKind::AckTimeout,
            at: now + self.cfg.ack_timeout(),
        });
        actions
    }

    /// Timer dispatch.
    pub fn on_timer(&mut self, kind: TimerKind, now: SimTime) -> Vec<Action<M>> {
        let mut actions = self.action_list();
        match kind {
            TimerKind::TxStart => self.on_tx_start(now, &mut actions),
            TimerKind::AckTimeout => self.on_ack_timeout(now, &mut actions),
            TimerKind::SendResponse => self.on_send_response(now, &mut actions),
            TimerKind::NavExpire => self.maybe_contend(now, &mut actions),
        }
        actions
    }

    fn on_tx_start(&mut self, now: SimTime, actions: &mut Vec<Action<M>>) {
        debug_assert_eq!(self.tx_at, Some(now), "stale TxStart must be filtered");
        self.tx_at = None;
        self.contention.consume();

        // Round-robin over destinations with work.
        let n = self.queues.len();
        let mut picked = None;
        for step in 0..n {
            let idx = (self.rr_cursor + step) % n;
            if self.queues[idx].has_work() {
                picked = Some(idx);
                self.rr_cursor = (idx + 1) % n;
                break;
            }
        }
        let Some(idx) = picked else {
            self.work_since = None;
            return;
        };

        let wait = self
            .work_since
            .map(|w| now.saturating_duration_since(w))
            .unwrap_or(SimDuration::ZERO);

        let dst = self.queues[idx].dst();
        if self.queues[idx].bar_pending() {
            // Solicit the missing Block ACK.
            let start = self.queues[idx].window_start();
            let frame = Frame::BlockAckReq {
                src: self.id,
                dst,
                start,
            };
            let rate = self.cfg.data_rate.basic_response_rate();
            let duration = rate.ppdu_duration(u64::from(frame.wire_len()));
            self.in_flight = Some(Exchange {
                dst,
                kind: TxKind::Bar,
                ended_at: None,
            });
            self.stats.tx_attempts.incr();
            self.stats.bars_sent.incr();
            self.stats.acquire_wait_data.add(wait);
            self.stats.airtime_data.add(duration);
            trace_ev!(
                self.trace,
                now.as_nanos(),
                self.id.0,
                Event::MacBar { peer: dst.0 }
            );
            let mut frames = self.spare_frames.pop().unwrap_or_default();
            frames.push(frame);
            actions.push(Action::StartTx(TxDescriptor {
                frames,
                rate,
                duration,
                is_response: false,
                aggregated: false,
            }));
            return;
        }

        let mut frames = self.spare_frames.pop().unwrap_or_default();
        self.queues[idx].build_batch(self.id, &self.cfg, &mut frames);
        if frames.is_empty() {
            keep_spare(&mut self.spare_frames, frames);
            self.work_since = self.has_work().then_some(now);
            self.maybe_contend(now, actions);
            return;
        }

        let aggregated = self.cfg.aggregation;
        let is_ack = |f: &Frame<M>| matches!(f, Frame::Data(m) if m.payload.is_transport_ack());
        let class = if frames.iter().all(is_ack) {
            TrafficClass::TransportAck
        } else {
            TrafficClass::Data
        };
        let psdu_len = if aggregated {
            frames
                .iter()
                .map(|f| u64::from(ampdu_subframe_len(f.wire_len())))
                .sum()
        } else {
            u64::from(frames[0].wire_len())
        };
        let duration = self.cfg.data_rate.ppdu_duration(psdu_len);
        let n_mpdus = frames.len();

        self.in_flight = Some(Exchange {
            dst,
            kind: TxKind::Data {
                n: n_mpdus,
                aggregated,
            },
            ended_at: None,
        });
        trace_ev!(
            self.trace,
            now.as_nanos(),
            self.id.0,
            Event::MacAmpdu {
                dst: dst.0,
                mpdus: n_mpdus as u32,
                bytes: psdu_len,
            }
        );
        self.stats.tx_attempts.incr();
        match class {
            TrafficClass::Data => {
                self.stats.acquire_wait_data.add(wait);
                self.stats.airtime_data.add(duration);
            }
            TrafficClass::TransportAck => {
                self.stats.acquire_wait_ack.add(wait);
                self.stats.airtime_ack.add(duration);
            }
        }
        actions.push(Action::StartTx(TxDescriptor {
            frames,
            rate: self.cfg.data_rate,
            duration,
            is_response: false,
            aggregated,
        }));
    }

    fn on_ack_timeout(&mut self, now: SimTime, actions: &mut Vec<Action<M>>) {
        let Some(ex) = self.wait_response.take() else {
            return;
        };
        self.stats.ack_timeouts.incr();
        let within_budget = self.contention.on_failure();
        let aggregation = self.cfg.aggregation;
        let retry_limit = self.cfg.timings.retry_limit;

        match ex.kind {
            TxKind::Data { n, .. } => {
                let dropped = {
                    let q = self.queue_mut(ex.dst);
                    q.on_no_response(aggregation, retry_limit)
                };
                trace_ev!(
                    self.trace,
                    now.as_nanos(),
                    self.id.0,
                    Event::MacRetry {
                        dst: ex.dst.0,
                        mpdus: n as u32,
                    }
                );
                if !dropped.is_empty() {
                    trace_ev!(
                        self.trace,
                        now.as_nanos(),
                        self.id.0,
                        Event::MacDrop {
                            dst: ex.dst.0,
                            mpdus: dropped.len() as u32,
                        }
                    );
                }
                for msdu in dropped {
                    self.stats.mpdus_dropped.incr();
                    actions.push(Action::MsduDropped { dst: ex.dst, msdu });
                }
            }
            TxKind::Bar => {
                if !within_budget {
                    self.stats.bars_exhausted.incr();
                    self.queue_mut(ex.dst).on_bar_exhausted();
                    self.contention.on_abandon();
                    actions.push(Action::BarExhausted { dst: ex.dst });
                }
                // Within budget: bar_pending remains set; we re-contend
                // and send another BAR.
            }
        }

        self.work_since = self.has_work().then_some(now);
        self.maybe_contend(now, actions);
    }

    fn on_send_response(&mut self, now: SimTime, actions: &mut Vec<Action<M>>) {
        let Some(plan) = self.pending_response.take() else {
            return;
        };
        // Attach the HACK blob installed for this peer, if any. The blob
        // is *retained* (copied): the driver clears it only on the §3.4
        // confirmation signals. A peer that associated *without*
        // negotiating HACK never gets a blob — its NIC cannot parse an
        // augmented LL ACK (a peer with no association record is treated
        // as capable, for direct driver wiring).
        let capable = self.hack_negotiated(plan.to) != Some(false);
        let installed = self.peers.get(plan.to.0 as usize);
        let installed = installed.and_then(|p| p.blob.as_ref());
        let blob = installed.filter(|_| capable).map(|installed| {
            let mut bytes = self.spare_blobs.pop().unwrap_or_default();
            bytes.extend_from_slice(&installed.bytes);
            HackBlob { bytes }
        });
        let attached = blob.is_some();
        let blob_wire = blob.as_ref().map_or(0, HackBlob::wire_len);

        let frame = match plan.kind {
            RespKind::Ack => Frame::Ack {
                src: self.id,
                dst: plan.to,
                hack: blob,
            },
            RespKind::BlockAck => {
                let bitmap = self
                    .peer(plan.to)
                    .and_then(|p| p.reorder.as_ref())
                    .map(|r| r.ba_bitmap())
                    .unwrap_or_else(|| crate::frame::AckBitmap::new(SeqNum::new(0)));
                Frame::BlockAck {
                    src: self.id,
                    dst: plan.to,
                    bitmap,
                    hack: blob,
                }
            }
        };
        let rate = self.cfg.data_rate.basic_response_rate();
        let duration = rate.ppdu_duration(u64::from(frame.wire_len()));
        self.response_in_flight = true;
        self.stats.responses_sent.incr();
        if attached {
            trace_ev!(
                self.trace,
                now.as_nanos(),
                self.id.0,
                Event::MacBlobAttach {
                    peer: plan.to.0,
                    bytes: blob_wire,
                }
            );
            self.stats.responses_with_blob.incr();
            // Extra airtime caused by the blob (Table 3's "ROHC" column):
            // the difference against the same response without the blob.
            let plain = rate.ppdu_duration(u64::from(frame.wire_len() - blob_wire));
            self.stats.airtime_blob.add(duration - plain);
            if duration - plain <= self.cfg.timings.aifs() {
                self.stats.blob_within_aifs.incr();
            } else {
                self.stats.blob_beyond_aifs.incr();
            }
        }
        self.stats.airtime_response.add(duration);
        actions.push(Action::ResponseSent {
            to: plan.to,
            kind: plan.kind,
            attached_blob: attached,
        });
        let mut frames = self.spare_frames.pop().unwrap_or_default();
        frames.push(frame);
        actions.push(Action::StartTx(TxDescriptor {
            frames,
            rate,
            duration,
            is_response: true,
            aggregated: false,
        }));
    }

    // ------------------------------------------------------------------
    // Contention driver
    // ------------------------------------------------------------------

    fn maybe_contend(&mut self, now: SimTime, actions: &mut Vec<Action<M>>) {
        if self.enqueue_is_silent() || now < self.nav_until {
            return;
        }
        if !self.has_work() {
            self.work_since = None;
            return;
        }
        let work_since = *self.work_since.get_or_insert(now);
        let idle_since = self.idle_since.max(self.nav_until);
        let tx_at = self
            .contention
            .start_countdown(idle_since, work_since, &mut self.rng);
        trace_ev!(
            self.trace,
            now.as_nanos(),
            self.id.0,
            Event::MacBackoff {
                slots: self.contention.remaining().unwrap_or(0),
                cw: self.contention.cw(),
            }
        );
        // The countdown can resolve into the past when the medium has
        // long been idle; clamp to now.
        let tx_at = tx_at.max(now);
        self.tx_at = Some(tx_at);
        actions.push(Action::SetTimer {
            kind: TimerKind::TxStart,
            at: tx_at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_phy::PhyRate;

    const PEER: StationId = StationId(1);

    #[derive(Debug, Clone)]
    struct Pkt;

    impl Msdu for Pkt {
        fn wire_len(&self) -> u32 {
            1500
        }
        fn is_transport_ack(&self) -> bool {
            false
        }
    }

    fn station() -> Station<Pkt> {
        let cfg = MacConfig::dot11n(PhyRate::ht(150));
        Station::new(StationId(0), cfg, SimRng::new(3))
    }

    /// Every field of `s` but the transmit queues, the peer table (which
    /// indexes them) and `work_since`.
    fn rest(s: &Station<Pkt>) -> String {
        format!(
            "{:?}",
            (
                (s.rr_cursor, &s.contention, s.tx_at, s.in_flight),
                (s.wait_response, s.pending_response, s.response_in_flight),
                (s.phys_busy, s.idle_since, s.nav_until, &s.rng, &s.stats),
                (s.spare_actions.len(), s.spare_frames.len()),
                (s.spare_msdus.len(), s.spare_blobs.len()),
            )
        )
    }

    /// In each of the six states `enqueue_is_silent` names, an enqueue
    /// returns no action and changes only the queue, plus `work_since`
    /// when it was unset: onto a new queue and onto one that already
    /// holds packets. An idle station arms `TxStart` instead.
    #[test]
    fn enqueue_into_a_holding_station_only_appends() {
        let ex = Exchange {
            dst: PEER,
            kind: TxKind::Bar,
            ended_at: None,
        };
        type Hold = fn(&mut Station<Pkt>, Exchange);
        let holds: [(&str, Hold); 6] = [
            ("armed TxStart", |s, _| {
                s.tx_at = Some(SimTime::from_millis(9))
            }),
            ("PPDU on the air", |s, ex| s.in_flight = Some(ex)),
            ("awaited response", |s, ex| s.wait_response = Some(ex)),
            ("pending response", |s, _| {
                s.pending_response = Some(RespPlan {
                    to: PEER,
                    kind: RespKind::Ack,
                });
            }),
            ("response on the air", |s, _| s.response_in_flight = true),
            ("busy medium", |s, _| s.phys_busy = true),
        ];
        let (t0, t1) = (SimTime::from_millis(1), SimTime::from_millis(2));
        for (name, hold) in holds {
            for queued in [0, 3] {
                let mut s = station();
                hold(&mut s, ex);
                assert!(s.enqueue_is_silent(), "{name}");
                for _ in 0..queued {
                    let acts = s.enqueue(PEER, Pkt, t0);
                    assert!(acts.is_empty(), "{name}");
                }
                let (before, since) = (rest(&s), s.work_since);
                let acts = s.enqueue(PEER, Pkt, t1);
                assert!(acts.is_empty(), "{name}: {acts:?}");
                s.recycle(acts);
                assert_eq!(s.backlog(PEER), queued + 1, "{name}");
                assert_eq!(s.work_since, since.or(Some(t1)), "{name}");
                assert_eq!(rest(&s), before, "{name}: more than the queue changed");
            }
        }

        let mut s = station();
        assert!(!s.enqueue_is_silent());
        let acts = s.enqueue(PEER, Pkt, t1);
        assert!(
            matches!(
                acts[..],
                [Action::SetTimer {
                    kind: TimerKind::TxStart,
                    ..
                }]
            ),
            "{acts:?}"
        );
        assert!(s.enqueue_is_silent(), "an armed TxStart holds");
    }
}
