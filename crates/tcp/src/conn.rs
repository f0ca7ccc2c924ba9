//! A sans-IO TCP connection endpoint: handshake, pluggable congestion
//! control, RTO retransmission, delayed ACKs, timestamps and SACK
//! generation.
//!
//! Payload bytes are synthetic (only lengths travel), which means
//! retransmission needs no send buffer — a segment is regenerated from
//! sequence arithmetic. Everything else is real TCP: the ACK clock, the
//! congestion window, duplicate-ACK fast retransmit, NewReno partial-ACK
//! recovery, and RFC 6298 timeouts. These dynamics are precisely what
//! the HACK paper's cross-layer pathologies (§3.2, §3.4) interact with,
//! so they are modelled faithfully.
//!
//! Congestion control is a [`CongestionControl`] trait object selected
//! by [`TcpConfig::cc`]. The connection feeds it a per-segment
//! delivery-rate sampler (the BBR draft's `delivered`/`delivered_time`
//! algorithm) and honours its optional pacing rate through a
//! deterministic sim-time pacer: segment release times are computed
//! with integer arithmetic from the rate, so identical seeds still
//! yield identical traces.

use std::collections::VecDeque;

use hack_sim::{SimDuration, SimTime};

use crate::cc::{AckContext, CcKind, CcSnapshot, CongestionControl, RateSample};
use crate::rto::RtoEstimator;
use crate::seq::TcpSeq;
use crate::wire::{flags, FiveTuple, Ipv4Packet, TcpOption, TcpOptions, TcpSegment, Transport};

/// Endpoint configuration.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment).
    pub mss: u32,
    /// Generate one ACK per two in-order segments (RFC 1122 delayed ACK).
    pub delayed_ack: bool,
    /// Delayed-ACK timer.
    pub delack_timeout: SimDuration,
    /// Initial congestion window in segments.
    pub init_cwnd_segs: u32,
    /// Receive window in bytes (advertised, scaled).
    pub rcv_window: u32,
    /// Window-scale shift we advertise.
    pub wscale: u8,
    /// Negotiate and use RFC 7323 timestamps.
    pub use_timestamps: bool,
    /// Generate SACK blocks for out-of-order data.
    pub use_sack: bool,
    /// Minimum retransmission timeout.
    pub min_rto: SimDuration,
    /// Maximum retransmission timeout.
    pub max_rto: SimDuration,
    /// Congestion-control algorithm.
    pub cc: CcKind,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            delayed_ack: true,
            delack_timeout: SimDuration::from_millis(40),
            init_cwnd_segs: 3,
            rcv_window: 1 << 20,
            wscale: 6,
            use_timestamps: true,
            use_sack: true,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            cc: CcKind::Reno,
        }
    }
}

/// Connection lifecycle states (no FIN teardown: experiment flows run to
/// a byte budget or the end of the simulation, as iperf does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Passive open, awaiting SYN.
    Listen,
    /// Active open, SYN sent.
    SynSent,
    /// SYN received, SYN-ACK sent.
    SynReceived,
    /// Data may flow.
    Established,
}

/// Endpoint statistics.
#[derive(Debug, Default, Clone)]
pub struct TcpStats {
    /// Data segments transmitted (including retransmissions).
    pub data_segments_sent: u64,
    /// Retransmitted data segments.
    pub retransmits: u64,
    /// Fast retransmits triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Pure ACK segments transmitted.
    pub acks_sent: u64,
    /// Duplicate ACKs received.
    pub dupacks_received: u64,
    /// Payload bytes delivered in order to the application.
    pub bytes_delivered: u64,
    /// Payload bytes cumulatively acknowledged by the peer.
    pub bytes_acked: u64,
    /// RTT measurements taken by the delivery-rate sampler (Karn-safe:
    /// retransmitted segments never contribute).
    pub rtt_samples: u64,
    /// Sum of those RTT samples in microseconds; the mean RTT is
    /// `rtt_sum_us / rtt_samples`.
    pub rtt_sum_us: u64,
}

/// One sent segment's sampler bookkeeping (the BBR draft's per-packet
/// `P.*` snapshot), kept until the segment is cumulatively ACKed.
#[derive(Debug, Clone, Copy)]
struct SegRecord {
    /// One past the segment's last sequence number.
    end: TcpSeq,
    /// When this segment was (first) sent.
    sent_at: SimTime,
    /// Connection `delivered` at send time.
    delivered_at_send: u64,
    /// Connection `delivered_time` at send time.
    delivered_time_at_send: SimTime,
    /// Connection `first_sent_time` at send time.
    first_sent_at: SimTime,
    /// Retransmitted since: excluded from rate/RTT sampling (Karn).
    retransmitted: bool,
}

/// How much the application wants to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendBudget {
    /// Nothing (pure receiver).
    None,
    /// A fixed transfer size in bytes.
    Bytes(u64),
    /// Saturating sender (iperf-style).
    Unlimited,
}

/// A TCP endpoint.
#[derive(Debug)]
pub struct Connection {
    cfg: TcpConfig,
    state: TcpState,
    tuple: FiveTuple,
    ident: u16,

    // ---- send side ----
    iss: TcpSeq,
    snd_una: TcpSeq,
    snd_nxt: TcpSeq,
    /// Highest sequence ever sent (for go-back-N after RTO).
    snd_max: TcpSeq,
    /// Peer's advertised window (scaled to bytes).
    snd_wnd: u64,
    /// Largest window the peer has ever advertised (cwnd-cap input).
    max_peer_wnd: u64,
    peer_wscale: u8,
    peer_mss: u32,
    cc: Box<dyn CongestionControl + Send>,
    rto: RtoEstimator,
    rto_deadline: Option<SimTime>,
    dupacks: u32,
    /// NewReno recovery point (valid while in recovery).
    recover: TcpSeq,
    /// Peer-reported SACK ranges above snd_una: sorted, disjoint. Used
    /// for SACK-enhanced recovery (retransmit holes, not just snd_una).
    sacked: Vec<(TcpSeq, TcpSeq)>,
    /// Highest sequence retransmitted during the current recovery epoch
    /// (so each hole is retransmitted once per epoch).
    rtx_next: TcpSeq,
    budget: SendBudget,
    /// Consecutive established-state RTOs with no intervening forward
    /// ACK progress — the supervisor's ACK-clock-stall signal.
    rto_streak: u32,

    // ---- delivery-rate sampler (BBR draft, per-segment) ----
    /// Total payload bytes cumulatively delivered (`C.delivered`).
    delivered: u64,
    /// When `delivered` last advanced (`C.delivered_time`).
    delivered_time: SimTime,
    /// Send time anchoring the current sampling epoch
    /// (`C.first_sent_time`).
    first_sent_time: SimTime,
    /// Per-segment send records awaiting cumulative acknowledgment.
    seg_records: VecDeque<SegRecord>,
    /// Most recent delivery-rate sample.
    last_sample: Option<RateSample>,

    // ---- pacer ----
    /// Earliest time the pacer releases the next segment.
    pace_next: SimTime,
    /// Armed when pacing (not window/data) is what blocked `poll_send`.
    pace_deadline: Option<SimTime>,
    /// Last traced controller snapshot (change detection).
    last_cc_snap: Option<CcSnapshot>,

    // ---- receive side ----
    rcv_nxt: TcpSeq,
    /// Out-of-order ranges: (start, end) sorted, non-overlapping.
    ooo: Vec<(TcpSeq, TcpSeq)>,
    delack_segments: u32,
    delack_deadline: Option<SimTime>,
    ts_recent: u32,
    peer_ts: bool,
    peer_sack: bool,

    /// An emptied output vector handed back through
    /// [`Connection::recycle`]; the next entry point fills it instead of
    /// allocating.
    spare_out: Vec<Ipv4Packet>,

    stats: TcpStats,
    trace: hack_trace::TraceHandle,
    trace_node: u32,
}

fn now_ms(now: SimTime) -> u32 {
    (now.as_nanos() / 1_000_000) as u32
}

impl Connection {
    /// An active opener: returns the endpoint and the SYN to transmit.
    pub fn client(
        cfg: TcpConfig,
        tuple: FiveTuple,
        iss: u32,
        now: SimTime,
    ) -> (Self, Vec<Ipv4Packet>) {
        let mut c = Connection::new(cfg, tuple, iss);
        c.state = TcpState::SynSent;
        let syn = c.make_syn(false, now);
        c.snd_nxt = c.iss + 1;
        c.snd_max = c.snd_nxt;
        c.rto_deadline = Some(now + c.rto.rto());
        (c, vec![syn])
    }

    /// A passive opener (listening server side of one connection).
    pub fn server(cfg: TcpConfig, tuple: FiveTuple, iss: u32) -> Self {
        let mut c = Connection::new(cfg, tuple, iss);
        c.state = TcpState::Listen;
        c
    }

    fn new(cfg: TcpConfig, tuple: FiveTuple, iss: u32) -> Self {
        let iss = TcpSeq(iss);
        Connection {
            cc: cfg.cc.build(cfg.mss, cfg.init_cwnd_segs),
            rto: RtoEstimator::new(cfg.min_rto, cfg.max_rto),
            cfg,
            state: TcpState::Listen,
            tuple,
            ident: 1,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_max: iss,
            snd_wnd: 65_535,
            max_peer_wnd: 0,
            peer_wscale: 0,
            peer_mss: 536,
            rto_deadline: None,
            dupacks: 0,
            recover: iss,
            sacked: Vec::new(),
            rtx_next: iss,
            budget: SendBudget::None,
            rto_streak: 0,
            delivered: 0,
            delivered_time: SimTime::ZERO,
            first_sent_time: SimTime::ZERO,
            seg_records: VecDeque::new(),
            last_sample: None,
            pace_next: SimTime::ZERO,
            pace_deadline: None,
            last_cc_snap: None,
            rcv_nxt: TcpSeq(0),
            ooo: Vec::new(),
            delack_segments: 0,
            delack_deadline: None,
            ts_recent: 0,
            peer_ts: false,
            peer_sack: false,
            spare_out: Vec::new(),
            stats: TcpStats::default(),
            trace: hack_trace::TraceHandle::off(),
            trace_node: u32::MAX,
        }
    }

    /// Install the structured-event trace handle; `node` identifies this
    /// endpoint in the trace (station id for wireless hosts, `u32::MAX`
    /// for wired ones).
    pub fn set_trace(&mut self, trace: hack_trace::TraceHandle, node: u32) {
        self.trace = trace;
        self.trace_node = node;
    }

    /// Emit a cwnd/ssthresh sample if congestion state moved since
    /// `prev = (cwnd, ssthresh)`, plus a `CcStateChange` when a
    /// rate-based controller's reportable state moved.
    fn trace_cc(&mut self, prev: (u64, u64), now: SimTime) {
        if !self.trace.enabled() {
            return;
        }
        let cur = (self.cc.cwnd(), self.cc.ssthresh());
        if cur != prev {
            self.trace.emit(
                now.as_nanos(),
                self.trace_node,
                hack_trace::Event::TcpCwnd {
                    cwnd: cur.0,
                    ssthresh: cur.1,
                },
            );
        }
        if let Some(snap) = self.cc.snapshot() {
            if self.last_cc_snap != Some(snap) {
                self.last_cc_snap = Some(snap);
                self.trace.emit(
                    now.as_nanos(),
                    self.trace_node,
                    hack_trace::Event::CcStateChange {
                        state: snap.state,
                        pacing: snap.pacing_rate,
                        bw: snap.bw,
                    },
                );
            }
        }
    }

    // ---- accessors -----------------------------------------------------

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// The connection's 5-tuple (local perspective).
    pub fn tuple(&self) -> FiveTuple {
        self.tuple
    }

    /// Statistics.
    pub fn stats(&self) -> &TcpStats {
        &self.stats
    }

    /// Consecutive established-state RTOs since the last forward ACK
    /// progress (0 while the ACK clock is ticking).
    pub fn rto_streak(&self) -> u32 {
        self.rto_streak
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }

    /// The congestion controller (read-only).
    pub fn congestion_control(&self) -> &dyn CongestionControl {
        self.cc.as_ref()
    }

    /// Total payload bytes the delivery-rate sampler has counted as
    /// delivered (monotone non-decreasing).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Most recent delivery-rate sample, if the sampler has produced
    /// one.
    pub fn last_rate_sample(&self) -> Option<RateSample> {
        self.last_sample
    }

    /// Bytes in flight.
    pub fn flight(&self) -> u64 {
        u64::from(self.snd_max - self.snd_una)
    }

    /// Payload bytes cumulatively acknowledged by the peer.
    pub fn bytes_acked(&self) -> u64 {
        self.stats.bytes_acked
    }

    /// Payload bytes delivered in order to the local application.
    pub fn bytes_delivered(&self) -> u64 {
        self.stats.bytes_delivered
    }

    /// True when a byte-budgeted transfer has been fully sent *and*
    /// acknowledged.
    pub fn send_complete(&self) -> bool {
        match self.budget {
            SendBudget::Bytes(total) => self.stats.bytes_acked >= total,
            SendBudget::None => true,
            SendBudget::Unlimited => false,
        }
    }

    /// Set the application send budget (call before or after the
    /// handshake; data flows once established and window permits).
    pub fn set_budget(&mut self, budget: SendBudget) {
        self.budget = budget;
    }

    /// Grow the send budget by `extra` bytes on an established
    /// connection — the persistent-connection path for short-flow
    /// workloads: the next application "request" rides the same
    /// connection (and ROHC context) instead of a fresh handshake.
    ///
    /// The budget becomes cumulative [`SendBudget::Bytes`]: a `None`
    /// budget is re-anchored at the bytes already sent, `Unlimited`
    /// is left alone (there is nothing to extend). Returns the new
    /// cumulative byte total (0 when unlimited). Call `poll_send`
    /// afterwards to start the new data moving.
    pub fn extend_budget(&mut self, extra: u64) -> u64 {
        let sent = u64::from(self.snd_nxt - self.iss).saturating_sub(1);
        match self.budget {
            SendBudget::Bytes(total) => {
                let new = total.saturating_add(extra);
                self.budget = SendBudget::Bytes(new);
                new
            }
            SendBudget::None => {
                let new = sent.saturating_add(extra);
                self.budget = SendBudget::Bytes(new);
                new
            }
            SendBudget::Unlimited => 0,
        }
    }

    /// Pin the RTO's exponential backoff at no more than `shift`
    /// doublings for the duration of a link blackout with a known,
    /// bounded cause (an AP handoff). Without the clamp, every timeout
    /// during the blackout doubles the RTO, so the first retransmission
    /// after re-association can be tens of seconds out; with it, the
    /// flow probes again promptly once the new association is up.
    pub fn clamp_rto_backoff(&mut self, shift: u32) {
        self.rto.clamp_backoff(shift);
    }

    /// Release the handoff RTO clamp; Karn backoff resumes normally.
    pub fn unclamp_rto_backoff(&mut self) {
        self.rto.unclamp_backoff();
    }

    /// Hand back a vector an entry point of this connection returned,
    /// once its packets have been routed. Optional: without it every
    /// call that emits packets allocates its own vector.
    pub fn recycle(&mut self, mut out: Vec<Ipv4Packet>) {
        if out.capacity() > self.spare_out.capacity() {
            out.clear();
            self.spare_out = out;
        }
    }

    /// Earliest pending timer deadline, if any.
    pub fn next_timer(&self) -> Option<SimTime> {
        [self.rto_deadline, self.delack_deadline, self.pace_deadline]
            .into_iter()
            .flatten()
            .min()
    }

    // ---- delivery-rate sampler -----------------------------------------

    /// Record the peer's advertised window and refresh the controller's
    /// cwnd cap when it grows: cwnd beyond ~2× the largest window the
    /// peer has ever offered can never convert into flight, so letting
    /// it grow further is pure state inflation.
    fn note_peer_wnd(&mut self, wnd: u64) {
        self.snd_wnd = wnd;
        if wnd > self.max_peer_wnd {
            self.max_peer_wnd = wnd;
            let cap = (2 * wnd).max(4 * u64::from(self.cfg.mss));
            self.cc.set_cwnd_cap(cap);
        }
    }

    /// Bookkeep a freshly sent (never-before-transmitted) segment.
    fn note_sent(&mut self, seq: TcpSeq, len: u32, now: SimTime) {
        if self.snd_una == self.snd_max {
            // Pipe was empty: restart the delivery-rate clock so idle
            // gaps never count as sampling interval.
            self.first_sent_time = now;
            self.delivered_time = now;
        }
        self.seg_records.push_back(SegRecord {
            end: seq + len,
            sent_at: now,
            delivered_at_send: self.delivered,
            delivered_time_at_send: self.delivered_time,
            first_sent_at: self.first_sent_time,
            retransmitted: false,
        });
    }

    /// Mark sampler records overlapping `[start, end)` as retransmitted
    /// (Karn: an eventual ACK can't be attributed to one transmission).
    fn mark_retransmitted(&mut self, start: TcpSeq, end: TcpSeq) {
        // Records only store their end; original sends and
        // retransmissions share the same MSS split, so a record is
        // covered exactly when its end falls in (start, end].
        for r in &mut self.seg_records {
            if r.end.gt(start) && r.end.le(end) {
                r.retransmitted = true;
            }
        }
    }

    /// Advance the sampler for a cumulative ACK up to `ack` covering
    /// `acked` new bytes; returns a delivery-rate sample when one can
    /// be taken.
    ///
    /// The interval is `max(send_elapsed, ack_elapsed)` per the BBR
    /// delivery-rate draft: when HACK (or any ACK compression) releases
    /// a burst of held ACKs at one instant, `ack_elapsed` collapses but
    /// `send_elapsed` still spans the real transmission times, so the
    /// bandwidth estimate cannot inflate above the send rate.
    fn sample_on_ack(&mut self, ack: TcpSeq, acked: u64, now: SimTime) -> Option<RateSample> {
        self.delivered += acked;
        self.delivered_time = now;
        let mut best: Option<SegRecord> = None;
        while let Some(front) = self.seg_records.front() {
            if !front.end.le(ack) {
                break;
            }
            let r = self.seg_records.pop_front().expect("front exists");
            if !r.retransmitted {
                // Keep the newest fully-ACKed, never-retransmitted
                // record as the sampled segment P.
                best = Some(r);
            }
        }
        let p = best?;
        self.first_sent_time = p.sent_at;
        let send_elapsed = p.sent_at.saturating_duration_since(p.first_sent_at);
        let ack_elapsed = now.saturating_duration_since(p.delivered_time_at_send);
        let interval = send_elapsed.max(ack_elapsed);
        if interval.is_zero() {
            return None;
        }
        let rtt = now.saturating_duration_since(p.sent_at);
        let sample = RateSample {
            delivered: self.delivered - p.delivered_at_send,
            interval,
            rtt,
        };
        self.stats.rtt_samples += 1;
        self.stats.rtt_sum_us += rtt.as_micros();
        self.last_sample = Some(sample);
        Some(sample)
    }

    // ---- segment construction ------------------------------------------

    fn base_options(&self, now: SimTime) -> TcpOptions {
        let mut options = TcpOptions::new();
        if self.cfg.use_timestamps && self.peer_ts {
            options.push(TcpOption::Timestamps {
                tsval: now_ms(now),
                tsecr: self.ts_recent,
            });
        }
        options
    }

    fn window_field(&self) -> u16 {
        let scaled = u64::from(self.cfg.rcv_window) >> self.cfg.wscale;
        u16::try_from(scaled).unwrap_or(u16::MAX)
    }

    fn wrap(&mut self, seg: TcpSegment) -> Ipv4Packet {
        let ident = self.ident;
        self.ident = self.ident.wrapping_add(1);
        Ipv4Packet {
            src: self.tuple.src_ip,
            dst: self.tuple.dst_ip,
            ident,
            ttl: 64,
            transport: Transport::Tcp(seg),
        }
    }

    fn make_syn(&mut self, is_synack: bool, now: SimTime) -> Ipv4Packet {
        let mut options = TcpOptions::new();
        options.push(TcpOption::Mss(
            u16::try_from(self.cfg.mss).unwrap_or(u16::MAX),
        ));
        options.push(TcpOption::WindowScale(self.cfg.wscale));
        if self.cfg.use_sack {
            options.push(TcpOption::SackPermitted);
        }
        if self.cfg.use_timestamps {
            options.push(TcpOption::Timestamps {
                tsval: now_ms(now),
                tsecr: if is_synack { self.ts_recent } else { 0 },
            });
        }
        let seg = TcpSegment {
            src_port: self.tuple.src_port,
            dst_port: self.tuple.dst_port,
            seq: self.iss,
            ack: if is_synack { self.rcv_nxt } else { TcpSeq(0) },
            flags: if is_synack {
                flags::SYN | flags::ACK
            } else {
                flags::SYN
            },
            window: self.window_field(),
            options,
            payload_len: 0,
        };
        self.wrap(seg)
    }

    fn make_ack(&mut self, now: SimTime) -> Ipv4Packet {
        let mut options = self.base_options(now);
        if self.cfg.use_sack && self.peer_sack && !self.ooo.is_empty() {
            options.push(TcpOption::Sack(self.ooo.iter().take(3).copied().collect()));
        }
        self.stats.acks_sent += 1;
        self.delack_segments = 0;
        self.delack_deadline = None;
        let seg = TcpSegment {
            src_port: self.tuple.src_port,
            dst_port: self.tuple.dst_port,
            seq: self.snd_nxt,
            ack: self.rcv_nxt,
            flags: flags::ACK,
            window: self.window_field(),
            options,
            payload_len: 0,
        };
        self.wrap(seg)
    }

    fn make_data(&mut self, seq: TcpSeq, len: u32, now: SimTime) -> Ipv4Packet {
        let options = self.base_options(now);
        self.stats.data_segments_sent += 1;
        if seq.lt(self.snd_max) {
            self.stats.retransmits += 1;
            self.mark_retransmitted(seq, seq + len);
        } else {
            self.note_sent(seq, len, now);
        }
        let seg = TcpSegment {
            src_port: self.tuple.src_port,
            dst_port: self.tuple.dst_port,
            seq,
            ack: self.rcv_nxt,
            flags: flags::ACK | flags::PSH,
            window: self.window_field(),
            options,
            payload_len: len,
        };
        self.wrap(seg)
    }

    // ---- sending -------------------------------------------------------

    /// Total payload bytes the application still wants beyond snd_nxt.
    fn unsent_bytes(&self) -> u64 {
        let sent = u64::from(self.snd_nxt - self.iss).saturating_sub(1); // SYN consumed 1
        match self.budget {
            SendBudget::None => 0,
            SendBudget::Unlimited => u64::MAX,
            SendBudget::Bytes(total) => total.saturating_sub(sent),
        }
    }

    /// Emit as much data as cwnd, the peer window, and the app budget
    /// allow. Also used to (re)send after RTO go-back.
    pub fn poll_send(&mut self, now: SimTime) -> Vec<Ipv4Packet> {
        let mut out = std::mem::take(&mut self.spare_out);
        self.send_into(now, &mut out);
        out
    }

    fn send_into(&mut self, now: SimTime, out: &mut Vec<Ipv4Packet>) {
        if self.state != TcpState::Established {
            return;
        }
        self.pace_deadline = None;
        let already = out.len();
        loop {
            let window = self.cc.cwnd().min(self.snd_wnd);
            let in_flight = u64::from(self.snd_nxt - self.snd_una);
            if in_flight >= window {
                break;
            }
            let room = window - in_flight;
            // Bytes between snd_nxt and snd_max are retransmittable
            // without consulting the app budget.
            let retransmittable = u64::from(self.snd_max - self.snd_nxt);
            let available = if retransmittable > 0 {
                retransmittable
            } else {
                self.unsent_bytes()
            };
            if available == 0 {
                break;
            }
            let len = available
                .min(room)
                .min(u64::from(self.cfg.mss.min(self.peer_mss))) as u32;
            if len == 0 {
                break;
            }
            // Deterministic pacer: when the controller asks for a rate,
            // no segment is released before its scheduled slot. The
            // slot arithmetic is integer-exact, so pacing preserves
            // trace determinism.
            if let Some(rate) = self.cc.pacing_rate() {
                if rate > 0 {
                    if now < self.pace_next {
                        self.pace_deadline = Some(self.pace_next);
                        break;
                    }
                    let gap_ns = (u128::from(len) * 1_000_000_000).div_ceil(u128::from(rate));
                    let gap = SimDuration::from_nanos(u64::try_from(gap_ns).unwrap_or(u64::MAX));
                    self.pace_next = self.pace_next.max(now).saturating_add(gap);
                }
            }
            let seq = self.snd_nxt;
            out.push(self.make_data(seq, len, now));
            self.snd_nxt += len;
            if self.snd_nxt.gt(self.snd_max) {
                self.snd_max = self.snd_nxt;
            }
        }
        if out.len() > already && self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto.rto());
        }
    }

    // ---- receiving -----------------------------------------------------

    /// Process one inbound packet; returns packets to transmit.
    pub fn on_packet(&mut self, pkt: &Ipv4Packet, now: SimTime) -> Vec<Ipv4Packet> {
        let Transport::Tcp(seg) = &pkt.transport else {
            return Vec::new();
        };
        // Sanity: addressed to us on the right ports.
        debug_assert_eq!(pkt.dst, self.tuple.src_ip);
        debug_assert_eq!(seg.dst_port, self.tuple.src_port);

        let mut out = std::mem::take(&mut self.spare_out);
        match self.state {
            TcpState::Listen => self.on_listen(seg, now, &mut out),
            TcpState::SynSent => self.on_syn_sent(seg, now, &mut out),
            TcpState::SynReceived => self.on_syn_received(seg, now, &mut out),
            TcpState::Established => self.on_established(seg, now, &mut out),
        }
        out
    }

    fn learn_peer_options(&mut self, seg: &TcpSegment) {
        for opt in &seg.options {
            match opt {
                TcpOption::Mss(m) => self.peer_mss = u32::from(*m),
                TcpOption::WindowScale(s) => self.peer_wscale = *s,
                TcpOption::SackPermitted => self.peer_sack = true,
                TcpOption::Timestamps { tsval, .. } => {
                    self.peer_ts = true;
                    self.ts_recent = *tsval;
                }
                TcpOption::Sack(_) => {}
            }
        }
    }

    fn on_listen(&mut self, seg: &TcpSegment, now: SimTime, out: &mut Vec<Ipv4Packet>) {
        if seg.flags & flags::SYN == 0 {
            return;
        }
        self.learn_peer_options(seg);
        self.rcv_nxt = seg.seq + 1;
        self.state = TcpState::SynReceived;
        let synack = self.make_syn(true, now);
        self.snd_nxt = self.iss + 1;
        self.snd_max = self.snd_nxt;
        self.rto_deadline = Some(now + self.rto.rto());
        out.push(synack);
    }

    fn on_syn_sent(&mut self, seg: &TcpSegment, now: SimTime, out: &mut Vec<Ipv4Packet>) {
        if seg.flags & (flags::SYN | flags::ACK) != (flags::SYN | flags::ACK) {
            return;
        }
        if seg.ack != self.snd_nxt {
            return;
        }
        self.learn_peer_options(seg);
        self.rcv_nxt = seg.seq + 1;
        self.snd_una = seg.ack;
        self.note_peer_wnd(u64::from(seg.window) << self.peer_wscale);
        self.state = TcpState::Established;
        self.rto_deadline = None;
        let ack = self.make_ack(now);
        out.push(ack);
        self.send_into(now, out);
    }

    fn on_syn_received(&mut self, seg: &TcpSegment, now: SimTime, out: &mut Vec<Ipv4Packet>) {
        if seg.flags & flags::ACK == 0 || seg.ack != self.snd_nxt {
            return;
        }
        self.snd_una = seg.ack;
        self.note_peer_wnd(u64::from(seg.window) << self.peer_wscale);
        self.state = TcpState::Established;
        self.rto_deadline = None;
        if let Some((tsval, _)) = seg.timestamps() {
            self.ts_recent = tsval;
        }
        // The handshake ACK may carry data (rare here); process it.
        if seg.payload_len > 0 {
            self.on_established(seg, now, out);
        } else {
            self.send_into(now, out);
        }
    }

    fn on_established(&mut self, seg: &TcpSegment, now: SimTime, out: &mut Vec<Ipv4Packet>) {
        // ---- sender-side ACK processing ----
        if seg.flags & flags::ACK != 0 {
            self.process_ack(seg, now, out);
        }

        // ---- receiver-side data processing ----
        if seg.payload_len > 0 {
            self.process_data(seg, now, out);
        }
    }

    /// Fold the segment's SACK blocks into the scoreboard (sorted,
    /// merged, clipped below snd_una).
    fn note_sack(&mut self, seg: &TcpSegment) {
        let Some(blocks) = seg.sack_blocks() else {
            return;
        };
        for &(s, e) in blocks {
            if e.le(self.snd_una) || s.ge(e) || e.gt(self.snd_max) {
                continue;
            }
            let s = if s.lt(self.snd_una) { self.snd_una } else { s };
            self.sacked.push((s, e));
        }
        merge_ranges(&mut self.sacked, self.snd_una);
    }

    /// Drop scoreboard state at or below the new cumulative ACK.
    fn trim_sack(&mut self) {
        let una = self.snd_una;
        self.sacked.retain(|&(_, e)| e.gt(una));
        for r in &mut self.sacked {
            if r.0.lt(una) {
                r.0 = una;
            }
        }
    }

    /// The first unSACKed hole at or after `from` (below `bound`):
    /// `(start, len)` bounded by one MSS and the next SACKed range.
    /// `bound` is the recovery point — data sent after recovery began is
    /// not "missing", merely not yet acknowledged (RFC 6675's HighData).
    fn next_hole(&self, from: TcpSeq, bound: TcpSeq) -> Option<(TcpSeq, u32)> {
        // A hole only *qualifies* below the start of the highest SACKed
        // range: data between the advertised SACK frontier and the
        // recovery point is merely not-yet-reported, not lost (the
        // RFC 6675 IsLost idea). Each duplicate ACK advances the
        // frontier, releasing the next holes.
        let frontier = self.sacked.last().map(|&(s, _)| s)?;
        let bound = if frontier.lt(bound) { frontier } else { bound };
        let mut start = if from.lt(self.snd_una) {
            self.snd_una
        } else {
            from
        };
        loop {
            if start.ge(bound) {
                return None;
            }
            // Inside a SACKed range? Skip past it.
            match self
                .sacked
                .iter()
                .find(|&&(s, e)| start.ge(s) && start.lt(e))
            {
                Some(&(_, e)) => start = e,
                None => break,
            }
        }
        // Hole extends to the next SACKed range start or the bound.
        let end = self
            .sacked
            .iter()
            .map(|&(s, _)| s)
            .filter(|s| s.gt(start))
            .min_by_key(|s| s.dist_from(start))
            .unwrap_or(bound);
        let len = (end - start).min(self.cfg.mss);
        (len > 0).then_some((start, len))
    }

    /// During SACK recovery, retransmit the next not-yet-retransmitted
    /// hole if one exists; otherwise fall through to new data.
    fn sack_retransmit(&mut self, now: SimTime, out: &mut Vec<Ipv4Packet>) {
        if self.sacked.is_empty() {
            // Plain NewReno behaviour: nothing beyond the fast
            // retransmit of snd_una (done at recovery entry).
            return;
        }
        if let Some((seq, len)) = self.next_hole(self.rtx_next, self.recover) {
            let pkt = self.make_data(seq, len, now);
            out.push(pkt);
            self.rtx_next = seq + len;
        }
    }

    fn process_ack(&mut self, seg: &TcpSegment, now: SimTime, out: &mut Vec<Ipv4Packet>) {
        let ack = seg.ack;
        let new_wnd = u64::from(seg.window) << self.peer_wscale;
        self.note_sack(seg);

        if ack.gt(self.snd_una) && ack.le(self.snd_max) {
            let acked = u64::from(ack - self.snd_una);
            self.snd_una = ack;
            self.rto_streak = 0;
            if self.snd_nxt.lt(self.snd_una) {
                self.snd_nxt = self.snd_una;
            }
            self.stats.bytes_acked += acked;
            self.note_peer_wnd(new_wnd);
            self.trim_sack();

            // RTT sample from the timestamp echo (feeds the RTO
            // estimator; the sampler's per-segment RTT feeds the
            // congestion controller and stats, never the RTO).
            if let Some((_, tsecr)) = seg.timestamps() {
                if tsecr != 0 {
                    let rtt_ms = now_ms(now).wrapping_sub(tsecr);
                    if rtt_ms < 60_000 {
                        self.rto
                            .on_measurement(SimDuration::from_millis(u64::from(rtt_ms)));
                    }
                }
            }

            let sample = self.sample_on_ack(ack, acked, now);

            let cc_prev = (self.cc.cwnd(), self.cc.ssthresh());
            if self.cc.in_recovery() {
                if ack.ge(self.recover) {
                    self.cc.on_full_ack(now);
                    self.dupacks = 0;
                    self.sacked.clear();
                } else {
                    // Partial ACK: retransmit the next hole. With SACK
                    // information the hole is located precisely; plain
                    // NewReno resends from the new snd_una.
                    self.cc.on_partial_ack(acked);
                    if self.rtx_next.lt(self.snd_una) {
                        self.rtx_next = self.snd_una;
                    }
                    if self.sacked.is_empty() {
                        let len = self.cfg.mss.min(
                            u32::try_from(u64::from(self.snd_max - self.snd_una))
                                .unwrap_or(u32::MAX),
                        );
                        if len > 0 {
                            let seq = self.snd_una;
                            let pkt = self.make_data(seq, len, now);
                            out.push(pkt);
                        }
                    } else {
                        self.sack_retransmit(now, out);
                    }
                }
            } else {
                self.dupacks = 0;
                let ctx = AckContext {
                    now,
                    acked_bytes: acked,
                    flight: self.flight(),
                    srtt: self.rto.srtt(),
                    sample,
                };
                self.cc.on_ack(&ctx);
            }
            self.trace_cc(cc_prev, now);

            // Re-arm or clear the RTO.
            self.rto_deadline = if self.snd_una.lt(self.snd_max) {
                Some(now + self.rto.rto())
            } else {
                None
            };
        } else if ack == self.snd_una
            && seg.payload_len == 0
            && self.snd_una.lt(self.snd_max)
            && new_wnd == self.snd_wnd
        {
            // Duplicate ACK.
            self.stats.dupacks_received += 1;
            self.dupacks += 1;
            let cc_prev = (self.cc.cwnd(), self.cc.ssthresh());
            if self.cc.in_recovery() {
                self.cc.on_recovery_dupack();
                // SACK recovery: keep filling holes as the window
                // inflates, one hole per duplicate ACK.
                self.sack_retransmit(now, out);
            } else if self.dupacks == 3 {
                self.recover = self.snd_max;
                self.cc.on_triple_dupack(self.flight(), now);
                self.stats.fast_retransmits += 1;
                let len = self
                    .cfg
                    .mss
                    .min(u32::try_from(u64::from(self.snd_max - self.snd_una)).unwrap_or(u32::MAX));
                let seq = self.snd_una;
                if self.trace.enabled() {
                    self.trace.emit(
                        now.as_nanos(),
                        self.trace_node,
                        hack_trace::Event::TcpFastRetransmit {
                            seq: u64::from(seq.0),
                        },
                    );
                }
                let pkt = self.make_data(seq, len, now);
                out.push(pkt);
                self.rtx_next = seq + len;
            }
            self.trace_cc(cc_prev, now);
        } else {
            // Window update or stale ACK.
            self.note_peer_wnd(new_wnd);
        }

        self.send_into(now, out);
    }

    fn process_data(&mut self, seg: &TcpSegment, now: SimTime, out: &mut Vec<Ipv4Packet>) {
        let start = seg.seq;
        let end = seg.seq + seg.payload_len;

        if end.le(self.rcv_nxt) {
            // Entirely old: re-ACK immediately (the peer is retransmitting).
            let ack = self.make_ack(now);
            out.push(ack);
            return;
        }

        // Timestamp bookkeeping (simplified RFC 7323: track the newest
        // tsval from an acceptable segment).
        if let Some((tsval, _)) = seg.timestamps() {
            if start.le(self.rcv_nxt) {
                self.ts_recent = tsval;
            }
        }

        if start.le(self.rcv_nxt) {
            // In-order (possibly with some overlap): advance rcv_nxt.
            let advance_to = end;
            let delivered = u64::from(advance_to - self.rcv_nxt);
            self.rcv_nxt = advance_to;
            self.stats.bytes_delivered += delivered;
            // Pull any contiguous out-of-order ranges.
            self.drain_ooo();

            if !self.ooo.is_empty() {
                // Still a hole above us: ACK immediately (dup-ack burst
                // drives the peer's recovery).
                let ack = self.make_ack(now);
                out.push(ack);
            } else if self.cfg.delayed_ack {
                self.delack_segments += 1;
                if self.delack_segments >= 2 {
                    let ack = self.make_ack(now);
                    out.push(ack);
                } else {
                    self.delack_deadline = Some(now + self.cfg.delack_timeout);
                }
            } else {
                let ack = self.make_ack(now);
                out.push(ack);
            }
        } else {
            // Out of order: store and ACK immediately (duplicate ACK).
            self.insert_ooo(start, end);
            let ack = self.make_ack(now);
            out.push(ack);
        }
    }

    fn insert_ooo(&mut self, start: TcpSeq, end: TcpSeq) {
        self.ooo.push((start, end));
        merge_ranges(&mut self.ooo, self.rcv_nxt);
    }

    fn drain_ooo(&mut self) {
        // The ranges `rcv_nxt` reaches are a prefix, each carrying it on.
        let mut reached = 0;
        while let Some(&(s, e)) = self.ooo.get(reached) {
            if s.gt(self.rcv_nxt) {
                break;
            }
            reached += 1;
            if e.gt(self.rcv_nxt) {
                let delivered = u64::from(e - self.rcv_nxt);
                self.rcv_nxt = e;
                self.stats.bytes_delivered += delivered;
            }
        }
        self.ooo.drain(..reached);
    }

    // ---- timers ----------------------------------------------------------

    /// Fire any timers whose deadline is ≤ `now`.
    pub fn on_timer(&mut self, now: SimTime) -> Vec<Ipv4Packet> {
        let mut out = std::mem::take(&mut self.spare_out);

        if let Some(dl) = self.delack_deadline {
            if dl <= now && self.delack_segments > 0 {
                if self.trace.enabled() {
                    self.trace.emit(
                        now.as_nanos(),
                        self.trace_node,
                        hack_trace::Event::TcpDelayedAck {
                            ack: u64::from(self.rcv_nxt.0),
                        },
                    );
                }
                out.push(self.make_ack(now));
            }
        }

        if let Some(dl) = self.rto_deadline {
            if dl <= now {
                match self.state {
                    TcpState::SynSent => {
                        self.stats.timeouts += 1;
                        self.rto.on_timeout();
                        let syn = self.make_syn(false, now);
                        out.push(syn);
                        self.rto_deadline = Some(now + self.rto.rto());
                    }
                    TcpState::SynReceived => {
                        self.stats.timeouts += 1;
                        self.rto.on_timeout();
                        let synack = self.make_syn(true, now);
                        out.push(synack);
                        self.rto_deadline = Some(now + self.rto.rto());
                    }
                    TcpState::Established => {
                        if self.snd_una.lt(self.snd_max) {
                            self.stats.timeouts += 1;
                            self.rto_streak += 1;
                            self.rto.on_timeout();
                            let cc_prev = (self.cc.cwnd(), self.cc.ssthresh());
                            self.cc.on_timeout(self.flight(), now);
                            if self.trace.enabled() {
                                self.trace.emit(
                                    now.as_nanos(),
                                    self.trace_node,
                                    hack_trace::Event::TcpRto {
                                        seq: u64::from(self.snd_una.0),
                                    },
                                );
                            }
                            self.trace_cc(cc_prev, now);
                            self.dupacks = 0;
                            self.sacked.clear();
                            self.rtx_next = self.snd_una;
                            // The whole flight will be resent: none of
                            // its records may produce rate/RTT samples.
                            for r in &mut self.seg_records {
                                r.retransmitted = true;
                            }
                            // Go-back: rewind snd_nxt and resend from una.
                            self.snd_nxt = self.snd_una;
                            self.rto_deadline = Some(now + self.rto.rto());
                            self.send_into(now, &mut out);
                        } else {
                            self.rto_deadline = None;
                        }
                    }
                    TcpState::Listen => {
                        self.rto_deadline = None;
                    }
                }
            }
        }

        if let Some(dl) = self.pace_deadline {
            if dl <= now {
                // The pacer's slot arrived: release what it allows
                // (the send path clears and possibly re-arms the deadline).
                self.send_into(now, &mut out);
            }
        }

        out
    }
}

/// Sort `ranges` by distance of their start from `base` and merge the
/// overlapping and adjacent ones, in place (a scoreboard is short and
/// almost always sorted already, so the sort is an allocation-free scan).
fn merge_ranges(ranges: &mut Vec<(TcpSeq, TcpSeq)>, base: TcpSeq) {
    ranges.sort_by_key(|&(s, _)| s.dist_from(base));
    let mut kept = 0;
    for i in 0..ranges.len() {
        let (s, e) = ranges[i];
        if kept > 0 && s.le(ranges[kept - 1].1) {
            if e.gt(ranges[kept - 1].1) {
                ranges[kept - 1].1 = e;
            }
        } else {
            ranges[kept] = (s, e);
            kept += 1;
        }
    }
    ranges.truncate(kept);
}

#[cfg(test)]
/// `note_sack` and `insert_ooo` as they merged before they shared the
/// in-place [`merge_ranges`]: sort, then rebuild into a fresh vector.
/// Kept as the model the equivalence proptest holds the in-place merge to.
mod reference {
    use super::TcpSeq;

    pub fn merge_ranges(mut ranges: Vec<(TcpSeq, TcpSeq)>, base: TcpSeq) -> Vec<(TcpSeq, TcpSeq)> {
        ranges.sort_by_key(|&(s, _)| s.dist_from(base));
        let mut merged: Vec<(TcpSeq, TcpSeq)> = Vec::with_capacity(ranges.len());
        for &(s, e) in &ranges {
            if let Some(last) = merged.last_mut() {
                if s.le(last.1) {
                    if e.gt(last.1) {
                        last.1 = e;
                    }
                    continue;
                }
            }
            merged.push((s, e));
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Ipv4Addr;
    use proptest::prelude::*;

    proptest! {
        /// The in-place merge is the sort-and-rebuild merge after every
        /// block of any sequence — overlapping, adjacent, nested,
        /// duplicate and out-of-order blocks, with `base` (the `snd_una`
        /// or `rcv_nxt` the ranges are ordered from) anywhere in the
        /// sequence space, including just short of the wrap.
        #[test]
        fn in_place_merge_matches_sort_and_rebuild(
            base in prop_oneof![any::<u32>(), (u32::MAX - 60_000)..=u32::MAX],
            blocks in proptest::collection::vec((0u32..50_000, 1u32..6_000), 1..40),
        ) {
            let base = TcpSeq(base);
            let (mut new, mut old) = (Vec::new(), Vec::new());
            for (off, len) in blocks {
                let block = (base + off, base + off + len);
                new.push(block);
                merge_ranges(&mut new, base);
                old.push(block);
                old = reference::merge_ranges(old, base);
                prop_assert_eq!(&new, &old, "after {:?}", block);
            }
        }
    }

    fn tuple() -> FiveTuple {
        FiveTuple {
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 5001,
            dst_port: 80,
            protocol: 6,
        }
    }

    /// Build a connected (client, server) pair by running the handshake.
    fn connected(
        client_cfg: TcpConfig,
        server_cfg: TcpConfig,
        now: SimTime,
    ) -> (Connection, Connection) {
        let (mut c, syns) = Connection::client(client_cfg, tuple(), 1000, now);
        let mut s = Connection::server(server_cfg, tuple().reversed(), 9000);
        let synack = s.on_packet(&syns[0], now);
        assert_eq!(synack.len(), 1);
        let acks = c.on_packet(&synack[0], now);
        assert!(!acks.is_empty());
        let more = s.on_packet(&acks[0], now);
        assert_eq!(c.state(), TcpState::Established);
        assert_eq!(s.state(), TcpState::Established);
        assert!(more.is_empty(), "no data budget yet");
        (c, s)
    }

    fn seg(p: &Ipv4Packet) -> &TcpSegment {
        match &p.transport {
            Transport::Tcp(t) => t,
            Transport::Udp { .. } => panic!("not tcp"),
        }
    }

    /// Deliver `pkts` to `dst`, returning its responses.
    fn deliver(dst: &mut Connection, pkts: &[Ipv4Packet], now: SimTime) -> Vec<Ipv4Packet> {
        let mut out = Vec::new();
        for p in pkts {
            out.extend(dst.on_packet(p, now));
        }
        out
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let t0 = SimTime::from_millis(10);
        let (_c, _s) = connected(TcpConfig::default(), TcpConfig::default(), t0);
    }

    #[test]
    fn handshake_negotiates_options() {
        let t0 = SimTime::from_millis(10);
        let (mut c, _s) = connected(TcpConfig::default(), TcpConfig::default(), t0);
        c.set_budget(SendBudget::Unlimited);
        let data = c.poll_send(t0);
        assert!(!data.is_empty());
        // Timestamps negotiated => data carries the option.
        assert!(seg(&data[0]).timestamps().is_some());
    }

    #[test]
    fn extend_budget_restarts_completed_transfer() {
        let t0 = SimTime::from_millis(10);
        let (mut c, mut s) = connected(TcpConfig::default(), TcpConfig::default(), t0);
        c.set_budget(SendBudget::Bytes(1000));

        // Drive the 1000-byte transfer to completion.
        let mut now = t0;
        let mut pending = c.poll_send(now);
        while !pending.is_empty() {
            now += SimDuration::from_millis(1);
            let acks = deliver(&mut s, &pending, now);
            pending = deliver(&mut c, &acks, now);
            pending.extend(c.poll_send(now));
            if let Some(dl) = s.next_timer().filter(|&dl| dl <= now) {
                pending.extend(s.on_timer(dl));
            }
        }
        // Flush the server's delayed ACK if the last segment is parked
        // behind it.
        while !c.send_complete() {
            let dl = s.next_timer().expect("delayed ACK pending");
            now = dl;
            let acks = s.on_timer(now);
            assert!(acks.iter().all(|p| seg(p).payload_len == 0));
            deliver(&mut c, &acks, now);
        }
        assert_eq!(c.bytes_acked(), 1000);

        // Same connection, next "request": the budget grows in place
        // and poll_send starts the new data without a handshake.
        assert_eq!(c.extend_budget(2000), 3000);
        assert!(!c.send_complete());
        let more = c.poll_send(now);
        assert!(!more.is_empty(), "extended budget emits data");
        assert!(seg(&more[0]).payload_len > 0);
    }

    #[test]
    fn extend_budget_anchors_none_and_ignores_unlimited() {
        let t0 = SimTime::from_millis(10);
        let (mut c, _s) = connected(TcpConfig::default(), TcpConfig::default(), t0);
        // `None` budget: nothing sent yet, so the new budget is just
        // the extension.
        assert_eq!(c.extend_budget(500), 500);
        assert_eq!(c.unsent_bytes(), 500);
        // Unlimited is left alone.
        c.set_budget(SendBudget::Unlimited);
        assert_eq!(c.extend_budget(500), 0);
        assert!(!c.send_complete());
    }

    #[test]
    fn initial_window_limits_burst() {
        let t0 = SimTime::from_millis(10);
        let (mut c, _s) = connected(TcpConfig::default(), TcpConfig::default(), t0);
        c.set_budget(SendBudget::Unlimited);
        let data = c.poll_send(t0);
        assert_eq!(data.len(), 3, "IW = 3 segments");
        assert!(data.iter().all(|p| seg(p).payload_len == 1460));
    }

    #[test]
    fn repeated_rtos_rearm_deadline_and_keep_retransmitting() {
        // A black-holed peer: nothing the sender transmits is ever
        // ACKed. Every RTO must re-arm `rto_deadline` (go-back-N keeps
        // retrying), with Karn backoff doubling the gap each round.
        let t0 = SimTime::from_millis(10);
        let (mut c, _s) = connected(TcpConfig::default(), TcpConfig::default(), t0);
        c.set_budget(SendBudget::Unlimited);
        let data = c.poll_send(t0);
        assert!(!data.is_empty());
        let first_seq = seg(&data[0]).seq;

        let mut gaps = Vec::new();
        let mut now = t0;
        for i in 1..=7 {
            let dl = c
                .next_timer()
                .unwrap_or_else(|| panic!("deadline re-armed before RTO #{i}"));
            assert!(dl > now, "RTO #{i} deadline is in the future");
            gaps.push(dl - now);
            now = dl;
            let rtx = c.on_timer(now);
            assert!(
                rtx.iter()
                    .any(|p| seg(p).seq == first_seq && seg(p).payload_len > 0),
                "RTO #{i} retransmits from snd_una"
            );
        }
        assert!(c.stats().timeouts >= 6, "{} timeouts", c.stats().timeouts);
        assert!(
            c.stats().retransmits >= 6,
            "{} retransmits",
            c.stats().retransmits
        );
        // Karn backoff: each successive deadline gap doubles until the
        // 60 s max_rto clamps it — after the doubling, so the capped gap
        // pins at exactly max_rto rather than freezing below it.
        let max_rto = SimDuration::from_secs(60);
        for (k, w) in gaps.windows(2).enumerate() {
            assert_eq!(
                w[1],
                (w[0] * 2).min(max_rto),
                "gap #{k} → #{} should double (or clamp at max_rto)",
                k + 1
            );
        }
        assert_eq!(*gaps.last().unwrap(), max_rto, "backoff reached the clamp");
    }

    #[test]
    fn bulk_transfer_completes_over_ideal_wire() {
        let t0 = SimTime::from_millis(10);
        let (mut c, mut s) = connected(TcpConfig::default(), TcpConfig::default(), t0);
        let total: u64 = 1_000_000;
        c.set_budget(SendBudget::Bytes(total));
        let mut in_flight = c.poll_send(t0);
        let mut now = t0;
        let mut rounds = 0;
        while !c.send_complete() && rounds < 10_000 {
            now += SimDuration::from_millis(1);
            let acks = deliver(&mut s, &in_flight, now);
            let mut next = deliver(&mut c, &acks, now);
            // Flush any delayed-ack timers so the test terminates.
            if next.is_empty() {
                if let Some(dl) = s.next_timer() {
                    now = now.max(dl);
                    let late_acks = s.on_timer(now);
                    next = deliver(&mut c, &late_acks, now);
                }
            }
            in_flight = next;
            rounds += 1;
        }
        assert!(c.send_complete(), "transfer stalled");
        assert_eq!(s.bytes_delivered(), total);
        assert_eq!(c.bytes_acked(), total);
        assert_eq!(c.stats().retransmits, 0);
        assert_eq!(c.stats().timeouts, 0);
    }

    #[test]
    fn delayed_ack_coalesces_pairs() {
        let t0 = SimTime::from_millis(10);
        let (mut c, mut s) = connected(TcpConfig::default(), TcpConfig::default(), t0);
        c.set_budget(SendBudget::Unlimited);
        let data = c.poll_send(t0); // 3 segments
        let acks = deliver(&mut s, &data, t0);
        // Segments 1+2 coalesce into one ACK; segment 3 waits for the
        // delack timer.
        assert_eq!(acks.len(), 1);
        assert_eq!(seg(&acks[0]).ack, seg(&data[1]).seq + 1460);
        // Timer flushes the third.
        let dl = s.next_timer().expect("delack armed");
        let late = s.on_timer(dl);
        assert_eq!(late.len(), 1);
        assert_eq!(seg(&late[0]).ack, seg(&data[2]).seq + 1460);
    }

    #[test]
    fn no_delayed_ack_acks_every_segment() {
        let t0 = SimTime::from_millis(10);
        let ccfg = TcpConfig::default();
        let scfg = TcpConfig {
            delayed_ack: false,
            ..TcpConfig::default()
        };
        let (mut c, mut s) = connected(ccfg, scfg, t0);
        c.set_budget(SendBudget::Unlimited);
        let data = c.poll_send(t0);
        let acks = deliver(&mut s, &data, t0);
        assert_eq!(acks.len(), 3);
    }

    #[test]
    fn out_of_order_triggers_dupacks_and_sack() {
        let t0 = SimTime::from_millis(10);
        let (mut c, mut s) = connected(TcpConfig::default(), TcpConfig::default(), t0);
        c.set_budget(SendBudget::Unlimited);
        let data = c.poll_send(t0); // 3 segments
                                    // Deliver 0 then 2 (1 lost): the gap forces an immediate dup ACK
                                    // with a SACK block.
        let a0 = deliver(&mut s, &data[0..1], t0);
        assert!(a0.is_empty(), "first in-order segment is delack'd");
        let a2 = deliver(&mut s, &data[2..3], t0);
        assert_eq!(a2.len(), 1);
        let sseg = seg(&a2[0]);
        assert_eq!(sseg.ack, seg(&data[1]).seq, "acks up to the hole");
        let blocks = sseg.sack_blocks().expect("SACK present");
        assert_eq!(blocks[0].0, seg(&data[2]).seq);
        assert_eq!(blocks[0].1, seg(&data[2]).seq + 1460);
    }

    #[test]
    fn triple_dupack_fast_retransmit_and_recovery() {
        let t0 = SimTime::from_millis(10);
        let scfg = TcpConfig {
            delayed_ack: false,
            ..TcpConfig::default()
        };
        let (mut c, mut s) = connected(TcpConfig::default(), scfg, t0);
        c.set_budget(SendBudget::Unlimited);
        // Grow the window a bit first.
        let mut now = t0;
        let mut data = c.poll_send(now);
        for _ in 0..3 {
            now += SimDuration::from_millis(2);
            let acks = deliver(&mut s, &data, now);
            data = deliver(&mut c, &acks, now);
        }
        assert!(
            data.len() >= 6,
            "window should have grown, got {}",
            data.len()
        );

        // Lose the first segment of the burst; deliver the rest.
        now += SimDuration::from_millis(2);
        let lost_seq = seg(&data[0]).seq;
        let acks = deliver(&mut s, &data[1..], now);
        assert!(acks.len() >= 3, "every OOO segment elicits a dup ack");
        assert!(acks.iter().all(|a| seg(a).ack == lost_seq));

        let cwnd_before = c.cwnd();
        let resp = deliver(&mut c, &acks, now);
        assert_eq!(c.stats().fast_retransmits, 1);
        // ssthresh halves (cwnd itself may re-inflate by one MSS per
        // further dup ACK, per NewReno).
        assert!(c.cc.ssthresh() <= cwnd_before / 2 + 1460);
        assert!(c.cc.in_recovery());
        // The fast retransmission of the lost segment leads the response.
        assert!(resp
            .iter()
            .any(|p| seg(p).seq == lost_seq && seg(p).payload_len > 0));

        // Delivering the retransmission heals the receiver and the
        // cumulative ACK jumps past the whole burst.
        now += SimDuration::from_millis(2);
        let rtx: Vec<Ipv4Packet> = resp
            .iter()
            .filter(|p| seg(p).seq == lost_seq)
            .cloned()
            .collect();
        let heal = deliver(&mut s, &rtx, now);
        assert!(!heal.is_empty());
        assert!(seg(&heal[0]).ack.gt(lost_seq + 1460));
        deliver(&mut c, &heal, now);
        assert!(!c.cc.in_recovery(), "full ACK exits recovery");
    }

    #[test]
    fn rto_fires_and_goes_back_n() {
        let t0 = SimTime::from_millis(10);
        let (mut c, _s) = connected(TcpConfig::default(), TcpConfig::default(), t0);
        c.set_budget(SendBudget::Unlimited);
        let data = c.poll_send(t0);
        assert!(!data.is_empty());
        let dl = c.next_timer().expect("RTO armed");
        let out = c.on_timer(dl);
        assert_eq!(c.stats().timeouts, 1);
        // One segment retransmitted from snd_una (cwnd collapsed to 1).
        assert_eq!(out.len(), 1);
        assert_eq!(seg(&out[0]).seq, seg(&data[0]).seq);
        assert_eq!(c.stats().retransmits, 1);
        assert_eq!(c.cwnd(), 1460);
        // RTO re-armed with backoff.
        let dl2 = c.next_timer().unwrap();
        assert!(dl2 > dl);
    }

    #[test]
    fn syn_retransmits_on_timeout() {
        let t0 = SimTime::from_millis(10);
        let (mut c, _syn) = Connection::client(TcpConfig::default(), tuple(), 1, t0);
        let dl = c.next_timer().unwrap();
        assert_eq!(dl, t0 + SimDuration::from_secs(1));
        let out = c.on_timer(dl);
        assert_eq!(out.len(), 1);
        assert!(seg(&out[0]).flags & flags::SYN != 0);
        assert_eq!(c.stats().timeouts, 1);
    }

    #[test]
    fn old_data_is_reacked_immediately() {
        let t0 = SimTime::from_millis(10);
        let scfg = TcpConfig {
            delayed_ack: false,
            ..TcpConfig::default()
        };
        let (mut c, mut s) = connected(TcpConfig::default(), scfg, t0);
        c.set_budget(SendBudget::Unlimited);
        let data = c.poll_send(t0);
        deliver(&mut s, &data, t0);
        // Duplicate delivery of segment 0: immediate re-ACK, no
        // double-count of delivered bytes.
        let before = s.bytes_delivered();
        let re = deliver(&mut s, &data[0..1], t0);
        assert_eq!(re.len(), 1);
        assert_eq!(s.bytes_delivered(), before);
    }

    #[test]
    fn receiver_window_caps_sender() {
        let t0 = SimTime::from_millis(10);
        let scfg = TcpConfig {
            rcv_window: 4 * 1460,
            wscale: 0,
            ..TcpConfig::default()
        };
        let (mut c, _s) = connected(TcpConfig::default(), scfg, t0);
        c.set_budget(SendBudget::Unlimited);
        // Even with repeated polling, flight never exceeds rwnd.
        let mut sent = 0;
        for _ in 0..10 {
            sent += c.poll_send(t0).len();
        }
        assert!(sent <= 4, "rwnd must cap the burst, sent {sent}");
    }

    #[test]
    fn byte_budget_stops_sender() {
        let t0 = SimTime::from_millis(10);
        let (mut c, mut s) = connected(TcpConfig::default(), TcpConfig::default(), t0);
        c.set_budget(SendBudget::Bytes(3000));
        let data = c.poll_send(t0);
        let total: u32 = data.iter().map(|p| seg(p).payload_len).sum();
        assert_eq!(total, 3000, "exactly the budget, split into segments");
        let mut now = t0;
        let acks = deliver(&mut s, &data, now);
        now += SimDuration::from_millis(1);
        deliver(&mut c, &acks, now);
        // Flush delack for the odd segment.
        if let Some(dl) = s.next_timer() {
            let late = s.on_timer(dl);
            deliver(&mut c, &late, dl);
        }
        assert!(c.send_complete());
        assert_eq!(s.bytes_delivered(), 3000);
    }

    #[test]
    fn sack_recovery_fills_multiple_holes_without_timeout() {
        // Lose several non-contiguous segments from one window: SACK
        // recovery must retransmit each hole exactly once, driven by
        // duplicate ACKs, with no RTO.
        let t0 = SimTime::from_millis(10);
        let scfg = TcpConfig {
            delayed_ack: false,
            ..TcpConfig::default()
        };
        let (mut c, mut s) = connected(TcpConfig::default(), scfg, t0);
        c.set_budget(SendBudget::Unlimited);
        // Grow the window so one burst has ≥ 8 segments.
        let mut now = t0;
        let mut data = c.poll_send(now);
        for _ in 0..4 {
            now += SimDuration::from_millis(2);
            let acks = deliver(&mut s, &data, now);
            data = deliver(&mut c, &acks, now);
        }
        assert!(data.len() >= 10, "window too small: {}", data.len());

        // Drop segments 0, 3 and 6; deliver the rest.
        let lost: Vec<usize> = vec![0, 3, 6];
        let delivered: Vec<Ipv4Packet> = data
            .iter()
            .enumerate()
            .filter(|(i, _)| !lost.contains(i))
            .map(|(_, p)| p.clone())
            .collect();
        now += SimDuration::from_millis(2);
        let acks = deliver(&mut s, &delivered, now);
        assert!(acks.len() >= 3);

        // Feed the dup-ACK burst to the sender; collect retransmissions.
        let resp = deliver(&mut c, &acks, now);
        let rtx_seqs: Vec<TcpSeq> = resp
            .iter()
            .filter(|p| {
                let t = seg(p);
                t.payload_len > 0 && t.seq.lt(seg(&data[9]).seq)
            })
            .map(|p| seg(p).seq)
            .collect();
        // All three holes retransmitted from the dup-ACK burst alone.
        for &i in &lost {
            assert!(
                rtx_seqs.contains(&seg(&data[i]).seq),
                "hole {i} ({}) not retransmitted; got {rtx_seqs:?}",
                seg(&data[i]).seq
            );
        }
        // No hole retransmitted twice.
        let mut uniq = rtx_seqs.clone();
        uniq.sort_by_key(|s| s.0);
        uniq.dedup();
        assert_eq!(uniq.len(), rtx_seqs.len(), "duplicate retransmissions");

        // Deliver the retransmissions: the receiver heals completely and
        // the sender exits recovery with zero timeouts.
        now += SimDuration::from_millis(2);
        let heal_acks = deliver(&mut s, &resp, now);
        deliver(&mut c, &heal_acks, now);
        assert_eq!(c.stats().timeouts, 0);
        assert!(!c.cc.in_recovery());
        assert_eq!(s.bytes_delivered() % 1460, 0, "receiver must be gap-free");
    }

    #[test]
    fn sack_scoreboard_merges_and_trims() {
        let t0 = SimTime::from_millis(10);
        let (mut c, mut s) = connected(TcpConfig::default(), TcpConfig::default(), t0);
        c.set_budget(SendBudget::Unlimited);
        let data = c.poll_send(t0);
        deliver(&mut s, &data[2..3], t0); // out of order: SACK block
        let base = seg(&data[0]).seq;
        // Forge overlapping SACK blocks in one ACK (server → client
        // direction, so swap the addressing of the data packet).
        let make_reply = |ackno: TcpSeq, options: Vec<TcpOption>| {
            let d = seg(&data[0]).clone();
            Ipv4Packet {
                src: data[0].dst,
                dst: data[0].src,
                ident: 99,
                ttl: 64,
                transport: Transport::Tcp(TcpSegment {
                    src_port: d.dst_port,
                    dst_port: d.src_port,
                    seq: TcpSeq(0),
                    ack: ackno,
                    flags: flags::ACK,
                    window: 1024,
                    options: options.into(),
                    payload_len: 0,
                }),
            }
        };
        let fake = make_reply(
            base,
            vec![TcpOption::Sack(
                [(base + 1460, base + 2920), (base + 2000, base + 4380)]
                    .into_iter()
                    .collect(),
            )],
        );
        c.on_packet(&fake, t0);
        // Merged into one contiguous range.
        assert_eq!(c.sacked.len(), 1);
        assert_eq!(c.sacked[0], (base + 1460, base + 4380));
        // A cumulative ACK past the range clears it.
        let cum = make_reply(base + 4380, vec![]);
        c.on_packet(&cum, t0);
        assert!(c.sacked.is_empty());
    }

    #[test]
    fn dupacks_with_window_change_are_not_counted() {
        let t0 = SimTime::from_millis(10);
        let (mut c, mut s) = connected(TcpConfig::default(), TcpConfig::default(), t0);
        c.set_budget(SendBudget::Unlimited);
        let data = c.poll_send(t0);
        let acks = deliver(&mut s, &data[0..2], t0);
        assert_eq!(acks.len(), 1);
        // Forge three copies of the same ACK but with different windows:
        // they must not trigger fast retransmit.
        for w in [100u16, 200, 300] {
            let mut fake = acks[0].clone();
            if let Transport::Tcp(t) = &mut fake.transport {
                t.window = w;
            }
            deliver(&mut c, &[fake], t0);
        }
        assert_eq!(c.stats().fast_retransmits, 0);
    }
}
