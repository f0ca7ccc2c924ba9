//! The whole-network event loop: stations, medium, wired backhaul, TCP
//! endpoints, and the HACK drivers, wired together.
//!
//! ## Event ordering contract
//!
//! * When a PPDU ends, receptions are dispatched **before** channel-idle
//!   edges, so NAV is always set before anyone resumes contention, and
//!   the transmitter's `on_tx_end` runs last.
//! * A station beginning a transmission notifies every other station's
//!   carrier sense synchronously — a `TxStart` timer armed for the same
//!   instant still fires (both stations transmit: that *is* a
//!   collision).
//! * Host-stack traversals (MAC → TCP and TCP → MAC) cost
//!   `stack_delay`; blob installs cost `dma_delay`. Both exceed SIFS,
//!   which is why TCP ACKs must ride a *later* frame's LL ACK (§2.2).
//! * No dispatched event is stale. Re-arming or cancelling a MAC, TCP,
//!   flush or probe timer takes its pending event out of the queue, and
//!   a blob rebuild or clear takes out the pending install for the same
//!   (station, peer). Each removed event would only have found a stale
//!   token or generation, so the events left keep their order.
//! * Host deliveries pushed back to back, for one station at one
//!   instant, travel as one `HostRx` batch (`host_rx`). Its packets
//!   are handled in push order, and the run can end between two of
//!   them, exactly where it would have ended between two events.
//!
//! ## Module map
//!
//! `World` is the loop: this file keeps the per-event path — dispatch,
//! MAC/driver action application, packet routing — in one module (one
//! codegen unit). Everything else lives with the state it mutates, in
//! a private submodule that also holds that concern's `impl World`
//! glue: `topology`, `flows`, `roam`, `health`, `collect`, `host_rx`.

mod collect;
mod flows;
mod health;
mod host_rx;
mod roam;
mod topology;

use hack_mac::{Action, Frame, FrameKind, HackBlob, Station, TimerKind, TxDescriptor};
use hack_phy::{Medium, MpduStatus, PpduMeta, StationId, TxId};
use hack_sim::{FastMap, Scheduler, SimRng, SimTime, ThroughputMeter, TimerTable, TimerToken};
use hack_tcp::{Connection, Ipv4Addr, Ipv4Packet, Transport};
use hack_trace::TraceHandle;

use self::flows::{ClassAcc, Endpoint, FlowRt};
use self::host_rx::HostRxBatches;
use self::roam::RoamRuntime;
use self::topology::{Layout, SERVER_IP};
use crate::driver::{CompressSide, DecompressSide, DriverAction, HackMode};
use crate::packet::NetPacket;
use crate::scenario::{ChannelChange, RunResult, ScenarioConfig};
use crate::supervisor::{FlowSupervisor, HealthSignal, SupervisorConfig};
use crate::traffic::{TrafficClass, TrafficModel};
use crate::wired::WiredLink;

enum Event {
    FlowStart(usize),
    MacTimer(StationId, TimerKind, TimerToken<(u32, TimerKind)>),
    /// The PPDU `TxId` that the given station put on the air ends.
    TxEnd(TxId, StationId),
    /// Batch `batch` of `host_rx` surfaces at `station`'s host stack.
    HostRx {
        station: StationId,
        batch: u32,
    },
    WiredDeliver {
        /// Which cell's backhaul delivered the packet.
        cell: usize,
        to_ap: bool,
        pkt: Ipv4Packet,
    },
    TcpTimer(usize, TimerToken<u32>),
    InstallBlob {
        station: StationId,
        peer: StationId,
        bytes: Vec<u8>,
        generation: u64,
    },
    HackFlush(StationId, StationId, TimerToken<(u32, u32)>),
    /// Apply scheduled channel dynamics entry `i` (index into
    /// `cfg.dynamics`).
    ChannelDynamics(usize),
    /// A flow supervisor's probation probe timer fired.
    SupProbe(usize, TimerToken<u32>),
    /// Advance waypoint trajectories and evaluate the SNR roam trigger
    /// (roam-active worlds only).
    MobilityTick,
    /// Execute roam-schedule entry `i` (index into `cfg.roam.schedule`).
    RoamCmd(usize),
    /// A roaming flow's association machine timer fired (scan end or
    /// retry backoff); stale tokens are dropped.
    RoamStep {
        flow: usize,
        token: u32,
    },
    /// A short-flow think gap elapsed: begin the flow's next transfer
    /// (reusing the connection or opening a fresh one per its model).
    FlowRestart(usize),
    /// Emit the next paced UDP datagram for a CBR/on-off flow; stale
    /// tokens (from a superseded on-period) are dropped.
    PaceTick {
        flow: usize,
        token: u32,
    },
    /// Flip an on/off source between its on and off periods.
    PaceToggle(usize),
}

/// What a bystander needs to know of one frame of a PPDU addressed to
/// another station.
#[derive(Clone, Copy)]
struct OverheardFrame {
    kind: FrameKind,
    /// Size in bits of the HACK blob the frame carries (0 without one):
    /// the range of the draw that picks which bit an FCS-escaping
    /// corruption flips.
    blob_bits: u32,
}

impl OverheardFrame {
    fn of(f: &Frame<NetPacket>) -> Self {
        let blob = match f {
            Frame::Ack { hack, .. } | Frame::BlockAck { hack, .. } => hack.as_ref(),
            _ => None,
        };
        OverheardFrame {
            kind: f.kind(),
            blob_bits: blob.map_or(0, |b| b.bytes.len() as u32 * 8),
        }
    }
}

/// Flip one deterministic-RNG-chosen bit in the frame's HACK blob
/// extension, modelling a corruption the FCS check cannot see. Frames
/// without a blob pass through unchanged (the flip hit padding).
fn corrupt_frame(f: &mut Frame<NetPacket>, rng: &mut SimRng) {
    let blob = match f {
        Frame::Ack { hack, .. } | Frame::BlockAck { hack, .. } => hack.as_mut(),
        _ => None,
    };
    if let Some(b) = blob {
        if !b.bytes.is_empty() {
            let bit = rng.uniform(b.bytes.len() as u32 * 8);
            b.bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
    }
}

/// The assembled simulation.
pub struct World {
    cfg: ScenarioConfig,
    layout: Layout,
    sched: Scheduler<Event>,
    mac_timers: TimerTable<(u32, TimerKind)>,
    tcp_timers: TimerTable<u32>,
    flush_timers: TimerTable<(u32, u32)>,
    sup_timers: TimerTable<u32>,
    /// The pending blob install of each (station, peer) pair, so a
    /// rebuild or clear can take the one it supersedes out of the queue
    /// (the tokens go unused: the driver's generation guards installs).
    installs: TimerTable<(u32, u32)>,
    /// Packets on their way up a host stack, batched per instant.
    host_rx: HostRxBatches,
    /// One supervisor per flow; empty when supervision is off.
    supervisors: Vec<FlowSupervisor>,
    medium: Medium,
    stations: Vec<Station<NetPacket>>,
    /// Compress-side drivers, two per flow: `[flow][0]` runs on the
    /// client toward the AP serving it, `[flow][1]` on that AP toward
    /// the client. They follow the flow across handoffs (see
    /// [`World::driver_slot`]).
    compress: Vec<[CompressSide; 2]>,
    decompress: Vec<DecompressSide>,
    /// The PPDU each station has on the air (a station transmits one at
    /// a time): its frames and whether it is an A-MPDU. Indexed by
    /// station id, grown on first use.
    tx_payloads: Vec<Option<(Vec<Frame<NetPacket>>, bool)>>,
    /// One backhaul per cell (legacy worlds: exactly one).
    wired: Vec<WiredLink>,
    endpoints: Vec<Endpoint>,
    /// Client IP → flow index. A packet's endpoint is then one of the
    /// flow's two or four, found by comparing five-tuples.
    ip_to_flow: FastMap<Ipv4Addr, usize>,
    meters: Vec<ThroughputMeter>,
    flow_start_at: Vec<SimTime>,
    /// Per-flow traffic runtime (model, endpoint range, restart/pacing
    /// state). Indexed by flow.
    flows: Vec<FlowRt>,
    /// Per-class accumulators, indexed by [`TrafficClass::code`].
    classes: Vec<ClassAcc>,
    rng: SimRng,
    end: SimTime,
    ap_queue_drops: u64,
    udp_ident: u16,
    completion: Option<SimTime>,
    /// Mobility/handoff machinery (`None` unless `cfg.roam.is_active()`).
    roam: Option<RoamRuntime>,
    /// Scratch for the idle-edge sweep in `on_tx_end` (avoids a per-PPDU
    /// allocation).
    idle_buf: Vec<StationId>,
    /// Scratch for `on_tx_end`: what bystanders need to know of each
    /// frame of the ending PPDU, once its addressee owns the frames.
    overheard_buf: Vec<OverheardFrame>,
    /// Per-event-kind `(name, count, ns)` accumulated by `run_until`.
    #[cfg(feature = "evprof")]
    evprof: [(&'static str, u64, u64); 16],
    trace: TraceHandle,
}

/// Step-by-step assembly of a [`World`] — the one way to build and run
/// a single world.
///
/// ```no_run
/// use hack_core::{HackMode, ScenarioBuilder, SupervisorConfig, World};
///
/// let cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData).build();
/// let result = World::builder(cfg)
///     .supervisor(SupervisorConfig::default())
///     .build()
///     .run();
/// # let _ = result;
/// ```
#[derive(Debug)]
pub struct WorldBuilder {
    cfg: ScenarioConfig,
    trace: TraceHandle,
}

impl WorldBuilder {
    /// Attach a structured-event trace sink, wired through every layer
    /// (PHY medium, MAC stations, TCP endpoints, ROHC drivers).
    pub fn trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Enable the per-flow HACK supervisor (overrides
    /// `cfg.supervisor`).
    pub fn supervisor(mut self, sup: SupervisorConfig) -> Self {
        self.cfg.supervisor = Some(sup);
        self
    }

    /// Assemble the network.
    #[must_use]
    pub fn build(self) -> World {
        World::assemble(self.cfg, self.trace)
    }

    /// Convenience: assemble and run to completion.
    pub fn run(self) -> RunResult {
        self.build().run()
    }
}

impl World {
    /// Start building the network described by `cfg`.
    pub fn builder(cfg: ScenarioConfig) -> WorldBuilder {
        WorldBuilder {
            cfg,
            trace: TraceHandle::off(),
        }
    }

    /// The one construction path, behind [`WorldBuilder::build`].
    fn assemble(cfg: ScenarioConfig, trace: TraceHandle) -> Self {
        let layout = Layout::from_cfg(&cfg);
        let n = layout.n_flows();
        assert!(n >= 1, "need at least one client");
        assert_eq!(
            cfg.n_clients, n,
            "n_clients must equal the BSS client total \
             (ScenarioBuilder::bss keeps them in sync)"
        );
        let rng = SimRng::new(cfg.seed);
        let (medium, stations) = topology::build_air(&cfg, &layout, &rng, &trace);

        // --- HACK drivers and their supervisors ---
        let decompress = (0..stations.len() as u32)
            .map(|sid| {
                let mut d = DecompressSide::new();
                d.set_trace(trace.clone(), sid);
                d
            })
            .collect();
        let supervised = cfg.supervisor.is_some()
            && cfg.hack_mode != HackMode::Disabled
            && (0..n).any(|i| cfg.model_of(i).is_tcp());
        let compress_side = |sid: StationId| {
            let mut cs = CompressSide::new(cfg.hack_mode);
            cs.set_trace(trace.clone(), sid.0);
            cs.set_held_cap(cfg.held_cap);
            if supervised {
                cs.set_stale_limit(Some(health::HELD_STALE_LIMIT));
            }
            cs
        };
        // The client compresses toward its AP (downloads) and the AP
        // toward each client (uploads) — symmetric design.
        let compress = (0..n)
            .map(|i| {
                [
                    compress_side(layout.client(i)),
                    compress_side(layout.ap_of_flow(i)),
                ]
            })
            .collect();
        let supervisors = match cfg.supervisor {
            Some(sup_cfg) if supervised => (0..n).map(|_| FlowSupervisor::new(sup_cfg)).collect(),
            _ => Vec::new(),
        };

        let (endpoints, flows) = flows::build(&cfg, &layout, &rng, &trace);
        let base_start = SimTime::from_millis(10);
        let roam = cfg.roam.is_active().then(|| {
            let home_cells = (0..n).map(|f| layout.cell_of_flow(f)).collect();
            RoamRuntime::new(&cfg.roam, home_cells, rng.fork(0x0A11))
        });
        let mut world = World {
            sched: Scheduler::new(),
            mac_timers: TimerTable::new(),
            tcp_timers: TimerTable::new(),
            flush_timers: TimerTable::new(),
            sup_timers: TimerTable::new(),
            installs: TimerTable::new(),
            host_rx: HostRxBatches::default(),
            supervisors,
            medium,
            stations,
            compress,
            decompress,
            tx_payloads: Vec::new(),
            wired: (0..layout.cells.len())
                .map(|_| WiredLink::paper_backhaul())
                .collect(),
            endpoints,
            ip_to_flow: (0..n).map(|f| (layout.client_ip(f), f)).collect(),
            meters: (0..n).map(|_| ThroughputMeter::new()).collect(),
            flow_start_at: (0..n as u64)
                .map(|i| base_start + cfg.stagger * i)
                .collect(),
            flows,
            classes: vec![ClassAcc::default(); TrafficClass::ALL.len()],
            rng: rng.fork(0xF00D),
            end: SimTime::ZERO + cfg.duration,
            ap_queue_drops: 0,
            udp_ident: 0,
            completion: None,
            roam,
            idle_buf: Vec::new(),
            overheard_buf: Vec::new(),
            #[cfg(feature = "evprof")]
            evprof: [("", 0, 0); 16],
            trace,
            layout,
            cfg,
        };

        // --- initial events: roam script, flow starts, channel script ---
        if world.roam.is_some() {
            let roam = &world.cfg.roam;
            for (i, e) in roam.schedule.iter().enumerate() {
                world
                    .sched
                    .schedule_at(SimTime::ZERO + e.at, Event::RoamCmd(i));
            }
            let moving = roam.paths.iter().any(|p| !p.waypoints.is_empty());
            if moving || roam.trigger.is_some() {
                let at = SimTime::ZERO + roam.mobility_tick;
                world.sched.schedule_at(at, Event::MobilityTick);
            }
        }
        for (i, &at) in world.flow_start_at.iter().enumerate() {
            world.sched.schedule_at(at, Event::FlowStart(i));
        }
        for (i, e) in world.cfg.dynamics.iter().enumerate() {
            world
                .sched
                .schedule_at(SimTime::ZERO + e.at, Event::ChannelDynamics(i));
        }
        // Association-time capability negotiation, out of band: it
        // models a handshake completed before t = 0, so it burns no air
        // time, no randomness, and (for all-capable cells) no trace
        // events — existing same-seed digests are untouched.
        for i in 0..n {
            let ap = world.layout.ap_of_flow(i);
            let client = world.layout.client(i);
            if roam::negotiate_hack(&mut world.stations, client, ap) == Some(false) {
                // Permanent clean fallback on this link: the MAC already
                // gates blobs, but force the drivers native too so ACKs
                // are never held against a peer that cannot decode them.
                world.force_flow_native(i, ap, SimTime::ZERO);
                if !world.supervisors.is_empty() {
                    let acts = world.supervisors[i].mark_peer_incapable();
                    world.apply_supervisor(i, acts, SimTime::ZERO);
                }
            }
        }
        world
    }

    /// Run to completion and collect results.
    pub fn run(mut self) -> RunResult {
        let end = self.end;
        self.run_until(end);
        self.finish()
    }

    /// Advance the world through every event scheduled at or before
    /// `until` (clamped to the configured end). Returns `false` once the
    /// world has nothing left to do — queue drained past the end, or all
    /// byte-budgeted flows completed — and `true` while more work
    /// remains. The one dispatch loop: [`World::run`] is
    /// `run_until(end)` followed by [`World::finish`].
    pub fn run_until(&mut self, until: SimTime) -> bool {
        let until = until.min(self.end);
        while let Some(at) = self.sched.peek_time() {
            if at > self.end {
                return false;
            }
            if at > until {
                return true;
            }
            let (now, ev) = self.sched.pop().expect("peeked");
            #[cfg(feature = "evprof")]
            let ((kind, name), t0) = (ev.kind(), std::time::Instant::now());
            self.handle(ev, now);
            #[cfg(feature = "evprof")]
            {
                let (_, n, ns) = self.evprof[kind];
                self.evprof[kind] = (name, n + 1, ns + t0.elapsed().as_nanos() as u64);
            }
            if self.completion.is_some() {
                return false;
            }
        }
        false
    }

    /// The configured end of the run.
    pub fn end_time(&self) -> SimTime {
        self.end
    }

    /// Discrete events dispatched so far (monotonic across
    /// [`World::run_until`] calls).
    pub fn events_dispatched(&self) -> u64 {
        self.sched.dispatched()
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event, now: SimTime) {
        match ev {
            Event::FlowStart(flow) => self.start_flow(flow, now),
            Event::MacTimer(sid, kind, token) => {
                if current(self.mac_timers.fire(token)) {
                    // A live AckTimeout token means the response really
                    // never arrived (arrival cancels the timer) — the
                    // supervisor's LL-ACK-loss signal. Capture the peer
                    // before on_timer clears the exchange.
                    let timed_out_peer = (!self.supervisors.is_empty()
                        && kind == TimerKind::AckTimeout)
                        .then(|| self.stations[sid.0 as usize].awaiting_response_from())
                        .flatten();
                    let acts = self.stations[sid.0 as usize].on_timer(kind, now);
                    self.apply(sid, acts, now);
                    if let Some(peer) = timed_out_peer {
                        if let Some(flow) = self.sup_flow(sid, peer) {
                            self.sup_signal(flow, HealthSignal::LlAckTimeout, now);
                        }
                    }
                }
            }
            Event::TxEnd(id, src) => self.on_tx_end(id, src, now),
            Event::HostRx { station, batch } => {
                let mut pkts = self.host_rx.take(batch);
                for (pkt, native) in pkts.drain(..) {
                    self.on_host_rx(station, pkt, native, now);
                    // The packet that completes the run ends it, as it
                    // would between two events.
                    if self.completion.is_some() {
                        break;
                    }
                }
                self.host_rx.put_back(batch, pkts);
            }
            Event::WiredDeliver { cell, to_ap, pkt } => {
                if to_ap {
                    let ap = self.layout.cells[cell].ap;
                    self.ap_downstream(ap, pkt, now);
                } else {
                    let ep = self.ep_for(&pkt);
                    self.deliver_to_endpoint(pkt, ep, now);
                }
            }
            Event::TcpTimer(ep, token) => {
                if current(self.tcp_timers.fire(token)) {
                    self.endpoints[ep].timer_at = None;
                    let outputs = {
                        let conn = self.endpoints[ep]
                            .conn
                            .as_mut()
                            .expect("timer on live conn");
                        conn.on_timer(now)
                    };
                    self.check_rto_stall(ep, now);
                    self.route_out(ep, outputs, now);
                    self.record_delivery(ep, now);
                    self.check_estimator(ep, now);
                    self.resched_tcp(ep, now);
                }
            }
            Event::InstallBlob {
                station,
                peer,
                bytes,
                generation,
            } => {
                // No driver for this pair: the flow moved to a new AP
                // while the install waited out the DMA delay.
                let Some((flow, side)) = self.driver_slot(station, peer) else {
                    return;
                };
                let side = &mut self.compress[flow][side];
                if current(side.generation() == generation) {
                    hack_trace::trace_ev!(
                        self.trace,
                        now.as_nanos(),
                        station.0,
                        hack_trace::Event::MacBlobInstall {
                            peer: peer.0,
                            bytes: bytes.len() as u32
                        }
                    );
                    let displaced =
                        self.stations[station.0 as usize].set_hack_blob(peer, HackBlob { bytes });
                    if let Some(old) = displaced {
                        side.recycle_blob(old.bytes);
                    }
                } else {
                    // Guard only: a rebuild or clear takes every install
                    // it supersedes out of the queue.
                    side.recycle_blob(bytes);
                }
            }
            Event::HackFlush(station, peer, token) => {
                if current(self.flush_timers.fire(token)) {
                    // The flow may have moved to a new AP mid-roam; the
                    // force-native flush already emptied the hold queue.
                    if let Some((flow, side)) = self.driver_slot(station, peer) {
                        let dacts = self.compress[flow][side].on_flush_timer(now);
                        self.apply_driver(station, peer, dacts, now);
                    }
                }
            }
            Event::ChannelDynamics(index) => self.apply_dynamics(index, now),
            Event::SupProbe(flow, token) => {
                if current(self.sup_timers.fire(token)) {
                    let acts = self.supervisors[flow].on_probe_timer(now);
                    self.apply_supervisor(flow, acts, now);
                }
            }
            Event::MobilityTick => self.on_mobility_tick(now),
            Event::RoamCmd(i) => {
                let e = self.cfg.roam.schedule[i];
                self.start_roam(e.flow, e.target_bss, now);
            }
            Event::RoamStep { flow, token } => self.on_roam_step(flow, token, now),
            Event::FlowRestart(flow) => self.on_flow_restart(flow, now),
            Event::PaceTick { flow, token } => self.on_pace_tick(flow, token, now),
            Event::PaceToggle(flow) => self.on_pace_toggle(flow, now),
        }
    }

    /// Apply one scheduled mid-run channel change to the medium.
    fn apply_dynamics(&mut self, index: usize, now: SimTime) {
        match self.cfg.dynamics[index].change {
            ChannelChange::SnrOffsetDb(db) => self.medium.set_snr_offset_db(db),
            ChannelChange::ClientLoss { client, per } => {
                self.medium
                    .set_station_loss(self.layout.client(client), per, now);
            }
            ChannelChange::MoveClient { client, x, y } => {
                self.medium.place_station(self.layout.client(client), x, y);
                // A scripted move is as real as a waypoint one: if it
                // drags the client across the roam threshold, the roam
                // path must fire, not just the Gilbert–Elliott reset.
                if self.cfg.roam.trigger.is_some() {
                    self.maybe_roam_on_snr(client, now);
                }
            }
        }
        hack_trace::trace_ev!(
            self.trace,
            now.as_nanos(),
            self.layout.cells[0].ap.0,
            hack_trace::Event::SimChannelUpdate {
                index: index as u32
            }
        );
    }

    fn on_tx_end(&mut self, id: TxId, src: StationId, now: SimTime) {
        let (mut frames, aggregated) = self.tx_payloads[src.0 as usize].take().expect("tx payload");
        let outcome = self.medium.end_tx(id, now, &mut self.rng);
        let addressee = frames.first().map(Frame::dst);

        // 1) Receptions (before idle edges: NAV first). The addressee
        // takes the frames themselves — every MPDU it decodes is moved
        // to it, never copied. Everyone else who detects the PPDU is a
        // bystander, and a bystander's MAC only looks at frame kinds, so
        // those are noted up front and the frames are never cloned.
        let mut overheard = std::mem::take(&mut self.overheard_buf);
        overheard.clear();
        if outcome
            .receptions
            .iter()
            .any(|r| r.detected && Some(r.station) != addressee)
        {
            overheard.extend(frames.iter().map(OverheardFrame::of));
        }
        let status_of =
            |mpdus: &[MpduStatus], i: usize| mpdus.get(i).copied().unwrap_or(MpduStatus::Lost);
        for rec in &outcome.receptions {
            let sid = rec.station;
            if !rec.detected {
                let acts = self.stations[sid.0 as usize].on_rx_garbage(now);
                self.apply(sid, acts, now);
                continue;
            }
            let for_me = Some(sid) == addressee;
            let mut fcs_bad = 0u32;
            let mut decoded = 0usize;
            if for_me {
                // Keep what decoded, in place.
                let rng = &mut self.rng;
                let mut i = 0;
                frames.retain_mut(|f| {
                    let status = status_of(&rec.mpdus, i);
                    i += 1;
                    match status {
                        MpduStatus::Ok => true,
                        MpduStatus::Lost => false,
                        MpduStatus::Corrupt { fcs_ok: false } => {
                            fcs_bad += 1;
                            false
                        }
                        // The flip escaped the FCS region: deliver the
                        // frame with one bit flipped in its blob
                        // extension (or unchanged when there is no blob
                        // — the flip landed in padding).
                        MpduStatus::Corrupt { fcs_ok: true } => {
                            corrupt_frame(f, rng);
                            true
                        }
                    }
                });
                decoded = frames.len();
            } else {
                for (i, f) in overheard.iter().enumerate() {
                    match status_of(&rec.mpdus, i) {
                        MpduStatus::Ok => decoded += 1,
                        MpduStatus::Lost => {}
                        MpduStatus::Corrupt { fcs_ok: false } => fcs_bad += 1,
                        MpduStatus::Corrupt { fcs_ok: true } => {
                            // A bystander never reads the blob, but which
                            // of its bits flipped was still drawn.
                            if f.blob_bits > 0 {
                                let _ = self.rng.uniform(f.blob_bits);
                            }
                            decoded += 1;
                        }
                    }
                }
            }
            if fcs_bad > 0 {
                let acts = self.stations[sid.0 as usize].on_rx_corrupt(src, fcs_bad, now);
                self.apply(sid, acts, now);
                if !self.supervisors.is_empty() {
                    if let Some(flow) = self.sup_flow(sid, src) {
                        self.sup_signal(flow, HealthSignal::FcsBad, now);
                    }
                }
            }
            if decoded > 0 {
                let station = &mut self.stations[sid.0 as usize];
                let acts = if for_me {
                    station.on_rx_ppdu(std::mem::take(&mut frames), aggregated, now)
                } else {
                    let kinds = overheard
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| {
                            matches!(
                                status_of(&rec.mpdus, i),
                                MpduStatus::Ok | MpduStatus::Corrupt { fcs_ok: true }
                            )
                        })
                        .map(|(_, f)| f.kind);
                    station.on_overheard(kinds, aggregated, now)
                };
                self.apply(sid, acts, now);
            } else if fcs_bad == 0 {
                let acts = self.stations[sid.0 as usize].on_rx_garbage(now);
                self.apply(sid, acts, now);
            }
        }
        self.overheard_buf = overheard;
        // The spent lists go back to where the next PPDU is built: the
        // frame list, if no addressee took it, to the transmitter.
        self.medium.recycle(outcome);
        self.stations[src.0 as usize].recycle_frames(frames);

        // 2) Idle edges for everyone who heard this PPDU and whose own
        // domain is now quiet. The idle set is snapshotted before the
        // sweep — a station resuming transmission mid-sweep does not
        // suppress later stations' edges (they learn via the synchronous
        // carrier-sense notification in `start_tx` instead), matching
        // the historical once-per-PPDU busy check on legacy worlds.
        let d = self.medium.domain_of(src);
        let mut idle = std::mem::take(&mut self.idle_buf);
        idle.clear();
        idle.extend(
            self.medium
                .listeners(d)
                .iter()
                .copied()
                .filter(|&s| !self.medium.busy_for(s)),
        );
        for &sid in &idle {
            let acts = self.stations[sid.0 as usize].on_channel_idle(now);
            self.apply(sid, acts, now);
        }
        self.idle_buf = idle;

        // 3) Transmitter bookkeeping.
        let acts = self.stations[src.0 as usize].on_tx_end(now);
        self.apply(src, acts, now);
    }

    /// Materialize MAC actions for station `sid`.
    fn apply(&mut self, sid: StationId, mut actions: Vec<Action<NetPacket>>, now: SimTime) {
        for act in actions.drain(..) {
            match act {
                Action::StartTx(desc) => self.start_tx(sid, desc, now),
                Action::SetTimer { kind, at } => {
                    let key = (sid.0, kind);
                    self.mac_timers
                        .schedule(&mut self.sched, key, at.max(now), |token| {
                            Event::MacTimer(sid, kind, token)
                        });
                }
                Action::CancelTimer { kind } => {
                    self.mac_timers.unschedule(&mut self.sched, (sid.0, kind));
                }
                Action::Deliver { src: _, msdu } => {
                    let at = now + self.cfg.stack_delay;
                    self.host_rx.push(&mut self.sched, sid, at, msdu.0, true);
                }
                Action::DataReceived(info) => {
                    if let Some((flow, side)) = self.driver_slot(sid, info.from) {
                        let dacts = self.compress[flow][side].on_data_received(&info, now);
                        self.apply_driver(sid, info.from, dacts, now);
                        self.drain_driver_health(sid, info.from, now);
                    }
                }
                Action::ResponseSent {
                    to,
                    kind: _,
                    attached_blob,
                } => {
                    if let Some((flow, side)) = self.driver_slot(sid, to) {
                        let side = &mut self.compress[flow][side];
                        let dacts = side.on_response_sent(attached_blob, now);
                        // Opportunistic: withdraw native twins that rode.
                        if side.mode() == HackMode::Opportunistic && attached_blob {
                            let idents = side.ridden_idents();
                            if !idents.is_empty() {
                                self.stations[sid.0 as usize].withdraw_unsent(to, |m| {
                                    m.is_pure_tcp_ack() && idents.contains(&m.ip().ident)
                                });
                            }
                        }
                        self.apply_driver(sid, to, dacts, now);
                    }
                }
                Action::ResponseReceived {
                    from,
                    blob,
                    acked: _,
                    acked_msdus,
                } => {
                    let sup_flow = if self.supervisors.is_empty() {
                        None
                    } else {
                        self.sup_flow(sid, from)
                    };
                    let had_blob = blob.is_some();
                    if let Some(blob) = blob {
                        // The supervisor's post-mortem needs the counters
                        // from before the decode.
                        let before =
                            sup_flow.map(|_| self.decompress[sid.0 as usize].stats().clone());
                        // Zero-copy decode: ACKs are scheduled as they
                        // decompress straight out of the blob bytes — no
                        // intermediate packet Vec.
                        let side = &mut self.decompress[sid.0 as usize];
                        let (sched, host_rx) = (&mut self.sched, &mut self.host_rx);
                        let at = now + self.cfg.stack_delay;
                        side.on_blob_with(&blob.bytes, now, |pkt| {
                            host_rx.push(sched, sid, at, pkt, false);
                        });
                        // The sender's next blob is copied into this one.
                        self.stations[from.0 as usize].recycle_blob(blob);
                        if let (Some(flow), Some(before)) = (sup_flow, before) {
                            let after = self.decompress[sid.0 as usize].stats();
                            for (sig, times) in health::signals(&before, after) {
                                for _ in 0..times {
                                    self.sup_signal(flow, sig, now);
                                }
                            }
                        }
                    }
                    if let Some(flow) = sup_flow {
                        if !had_blob {
                            // Plain LL ACK exchange completed fine.
                            self.sup_signal(flow, HealthSignal::LlAckOk, now);
                        }
                    }
                    // Delivered natives advance the compressor floor (and
                    // in Opportunistic mode cancel held twins).
                    if let Some((flow, side)) = self.driver_slot(sid, from) {
                        // The driver ignores non-ACK MSDUs itself, so the
                        // batch passes through without a filtered clone.
                        if acked_msdus.iter().any(|m| m.is_pure_tcp_ack()) {
                            let dacts =
                                self.compress[flow][side].on_natives_delivered(&acked_msdus);
                            self.apply_driver(sid, from, dacts, now);
                        }
                    }
                    self.stations[sid.0 as usize].recycle_msdus(acked_msdus);
                    self.refill_udp(sid, from, now);
                }
                Action::MsduDropped { dst, .. } => self.refill_udp(sid, dst, now),
                Action::BarReceived { .. } | Action::BarExhausted { .. } => {}
            }
        }
        self.stations[sid.0 as usize].recycle(actions);
    }

    fn start_tx(&mut self, sid: StationId, desc: TxDescriptor<NetPacket>, now: SimTime) {
        let mut mpdu_lens = self.medium.spare_lens();
        mpdu_lens.extend(desc.frames.iter().map(Frame::wire_len));
        let dst = desc.frames.first().map(Frame::dst);
        let control =
            desc.is_response || matches!(desc.frames.first(), Some(Frame::BlockAckReq { .. }));
        let meta = PpduMeta {
            src: sid,
            dst,
            rate: desc.rate,
            mpdu_lens,
            control,
            duration: desc.duration,
        };
        let id = self.medium.begin_tx(meta, now);
        let slot = sid.0 as usize;
        if slot >= self.tx_payloads.len() {
            self.tx_payloads.resize_with(slot + 1, || None);
        }
        self.tx_payloads[slot] = Some((desc.frames, desc.aggregated));
        self.sched
            .schedule_at(now + desc.duration, Event::TxEnd(id, sid));
        // Carrier sense: everyone in an interfering domain hears the
        // medium go busy (every station, on legacy single-domain worlds).
        let d = self.medium.domain_of(sid);
        for i in 0..self.medium.listeners(d).len() {
            let other = self.medium.listeners(d)[i];
            if other != sid {
                let acts = self.stations[other.0 as usize].on_channel_busy(now);
                self.apply(other, acts, now);
            }
        }
    }

    /// Force both of `flow`'s compress sides — its client toward `ap`,
    /// and `ap` toward the client — onto the native path, and carry out
    /// what they ask for on the way.
    fn force_flow_native(&mut self, flow: usize, ap: StationId, now: SimTime) {
        let client = self.layout.client(flow);
        for (side, (sid, peer)) in [(client, ap), (ap, client)].into_iter().enumerate() {
            let dacts = self.compress[flow][side].force_native(now);
            self.apply_driver(sid, peer, dacts, now);
        }
    }

    fn apply_driver(
        &mut self,
        sid: StationId,
        peer: StationId,
        mut dacts: Vec<DriverAction>,
        now: SimTime,
    ) {
        for d in dacts.drain(..) {
            match d {
                DriverAction::SendNative(pkt) => {
                    let acts = self.stations[sid.0 as usize].enqueue(peer, NetPacket(pkt), now);
                    self.apply(sid, acts, now);
                }
                DriverAction::InstallBlob { bytes, generation } => {
                    self.cancel_install(sid, peer);
                    let at = now + self.cfg.dma_delay;
                    let key = (sid.0, peer.0);
                    self.installs
                        .schedule(&mut self.sched, key, at, |_| Event::InstallBlob {
                            station: sid,
                            peer,
                            bytes,
                            generation,
                        });
                }
                DriverAction::ClearBlob => {
                    self.cancel_install(sid, peer);
                    let removed = self.stations[sid.0 as usize].clear_hack_blob(peer);
                    if let Some(old) = removed {
                        if let Some((flow, side)) = self.driver_slot(sid, peer) {
                            self.compress[flow][side].recycle_blob(old.bytes);
                        }
                    }
                }
                DriverAction::SetFlushTimer(at) => {
                    self.flush_timers.schedule(
                        &mut self.sched,
                        (sid.0, peer.0),
                        at.max(now),
                        |token| Event::HackFlush(sid, peer, token),
                    );
                }
                DriverAction::CancelFlushTimer => {
                    self.flush_timers
                        .unschedule(&mut self.sched, (sid.0, peer.0));
                }
            }
        }
        if let Some((flow, side)) = self.driver_slot(sid, peer) {
            self.compress[flow][side].recycle(dacts);
        }
    }

    /// Take `sid`'s pending blob install toward `peer`, which a rebuild
    /// or clear for the same pair supersedes, out of the queue. Its bytes
    /// go back to the driver's pool now rather than when it would have
    /// fired.
    fn cancel_install(&mut self, sid: StationId, peer: StationId) {
        let pending = self.installs.unschedule(&mut self.sched, (sid.0, peer.0));
        if let Some(Event::InstallBlob { bytes, .. }) = pending {
            if let Some((flow, side)) = self.driver_slot(sid, peer) {
                self.compress[flow][side].recycle_blob(bytes);
            }
        }
    }

    // ------------------------------------------------------------------
    // Host / routing
    // ------------------------------------------------------------------

    /// A packet surfaced at a wireless node's host stack.
    fn on_host_rx(&mut self, station: StationId, pkt: Ipv4Packet, native: bool, now: SimTime) {
        let ep = self.ep_for(&pkt);
        if self.layout.is_ap(station) {
            // Native pure ACKs refresh this AP's contexts, whether it
            // bridges them upstream or hosts the server itself.
            if native {
                if let Transport::Tcp(t) = &pkt.transport {
                    if t.is_pure_ack() {
                        self.decompress[station.0 as usize].on_native_ack(&pkt, now);
                    }
                }
            }
            let local = ep.is_some_and(|e| self.endpoints[e].station == Some(station));
            if !local {
                // Bridge upstream.
                self.wire(self.layout.cell(station), false, pkt, now);
                return;
            }
        }
        self.deliver_to_endpoint(pkt, ep, now);
    }

    /// The endpoint `pkt` is addressed to: the one of its flow's whose
    /// local five-tuple mirrors the packet's.
    fn ep_for(&self, pkt: &Ipv4Packet) -> Option<usize> {
        if !matches!(pkt.transport, Transport::Tcp(_)) {
            return None; // UDP-class flows have no endpoints
        }
        let client_ip = if pkt.src == SERVER_IP {
            pkt.dst
        } else {
            pkt.src
        };
        let flow = self.flow_of_client_ip(client_ip)?;
        let local = pkt.five_tuple().reversed();
        self.flows[flow]
            .ep_range()
            .find(|&e| self.endpoints[e].tuple == local)
    }

    /// Hand `pkt` to its destination endpoint `ep` (server or local
    /// stack), as [`World::ep_for`] found it.
    fn deliver_to_endpoint(&mut self, pkt: Ipv4Packet, ep: Option<usize>, now: SimTime) {
        if let Transport::Udp { payload_len, .. } = pkt.transport {
            // UDP sink: record goodput (and pacing latency) directly.
            if let Some(flow) = self.flow_of_client_ip(pkt.dst) {
                self.meters[flow].record(now, u64::from(payload_len));
                self.note_pace_delivery(flow, pkt.ident, now);
            }
            return;
        }
        let Some(ep) = ep else {
            return; // e.g. stray retransmission after teardown
        };
        let Some(conn) = self.endpoints[ep].conn.as_mut() else {
            return; // packet for a flow that has not started
        };
        let outputs = conn.on_packet(&pkt, now);
        self.route_out(ep, outputs, now);
        self.record_delivery(ep, now);
        self.check_estimator(ep, now);
        self.resched_tcp(ep, now);
        let flow = self.endpoints[ep].flow;
        self.check_completion(flow, now);
        self.check_short_progress(flow, now);
    }

    /// Send an endpoint's outbound packets toward the peer.
    fn route_out(&mut self, ep: usize, mut pkts: Vec<Ipv4Packet>, now: SimTime) {
        let station = self.endpoints[ep].station;
        let flow = self.endpoints[ep].flow;
        let cell = self.cur_cell_of_flow(flow);
        for pkt in pkts.drain(..) {
            match station {
                None => {
                    // Wired server → the flow's AP, over that cell's
                    // backhaul.
                    self.wire(cell, true, pkt, now);
                }
                Some(sid) if self.layout.is_ap(sid) => {
                    // Server on the AP: straight into the downstream path.
                    self.ap_downstream(sid, pkt, now);
                }
                Some(sid) => {
                    // Client → its AP over the air; pure ACKs go through
                    // the HACK driver. Mid-handoff the radio is off the
                    // serving channel — packets park until re-association.
                    if self.flow_in_blackout(flow) {
                        self.park(flow, true, pkt);
                    } else {
                        let ap = self.cur_ap_of_flow(flow);
                        self.wireless_out(sid, ap, pkt, now);
                    }
                }
            }
        }
        if let Some(conn) = self.endpoints[ep].conn.as_mut() {
            conn.recycle(pkts);
        }
    }

    /// Transmit from a wireless node, routing pure TCP ACKs through the
    /// node's compress-side driver.
    fn wireless_out(&mut self, sid: StationId, peer: StationId, pkt: Ipv4Packet, now: SimTime) {
        let is_ack = matches!(&pkt.transport, Transport::Tcp(t) if t.is_pure_ack());
        let driver = if is_ack {
            self.driver_slot(sid, peer)
        } else {
            None
        };
        if let Some((flow, side)) = driver {
            let dacts = self.compress[flow][side].on_ack_out(pkt, now);
            self.apply_driver(sid, peer, dacts, now);
            self.drain_driver_health(sid, peer, now);
        } else {
            let acts = self.stations[sid.0 as usize].enqueue(peer, NetPacket(pkt), now);
            self.apply(sid, acts, now);
        }
    }

    /// An AP forwards a packet toward its wireless client (tail-drop
    /// queue for data; ACKs ride the HACK driver).
    fn ap_downstream(&mut self, ap: StationId, pkt: Ipv4Packet, now: SimTime) {
        let Some(flow) = self.flow_of_client_ip(pkt.dst) else {
            return;
        };
        if self.flow_in_blackout(flow) {
            self.park(flow, false, pkt);
            return;
        }
        let client = self.layout.client(flow);
        let is_ack = matches!(&pkt.transport, Transport::Tcp(t) if t.is_pure_ack());
        if is_ack {
            self.wireless_out(ap, client, pkt, now);
            return;
        }
        if self.stations[ap.0 as usize].backlog(client) >= self.cfg.ap_queue_cap {
            self.ap_queue_drops += 1;
            return;
        }
        let acts = self.stations[ap.0 as usize].enqueue(client, NetPacket(pkt), now);
        self.apply(ap, acts, now);
    }

    /// One hop over `cell`'s wired backhaul, toward its AP or away
    /// from it.
    fn wire(&mut self, cell: usize, to_ap: bool, pkt: Ipv4Packet, now: SimTime) {
        let arrive = self.wired[cell].send(to_ap, &pkt, now);
        self.sched
            .schedule_at(arrive, Event::WiredDeliver { cell, to_ap, pkt });
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// Where in `compress` the driver that `sid` runs toward `peer`
    /// lives, as `(flow, side)`: a client toward the AP serving it right
    /// now (side 0), or that AP toward the client (side 1). Any other
    /// pair has no driver — in particular an association a handoff has
    /// since left, which events scheduled before the roam still name.
    fn driver_slot(&self, sid: StationId, peer: StationId) -> Option<(usize, usize)> {
        if let Some(flow) = self.layout.flow_of_client(sid) {
            (self.cur_ap_of_flow(flow) == peer).then_some((flow, 0))
        } else {
            let flow = self.layout.flow_of_client(peer)?;
            (self.cur_ap_of_flow(flow) == sid).then_some((flow, 1))
        }
    }

    fn flow_of_client_ip(&self, ip: Ipv4Addr) -> Option<usize> {
        self.ip_to_flow.get(&ip).copied()
    }

    /// The cell currently serving `flow` (roam-aware).
    fn cur_cell_of_flow(&self, flow: usize) -> usize {
        match &self.roam {
            Some(r) => r.cur_cell(flow),
            None => self.layout.cell_of_flow(flow),
        }
    }

    /// The AP currently serving `flow` (roam-aware).
    fn cur_ap_of_flow(&self, flow: usize) -> StationId {
        self.layout.cells[self.cur_cell_of_flow(flow)].ap
    }

    /// Is `flow` between associations (scanning or reassociating)?
    fn flow_in_blackout(&self, flow: usize) -> bool {
        self.roam.as_ref().is_some_and(|r| r.in_blackout(flow))
    }

    /// Every ROHC party holding `flow`'s contexts — both of its compress
    /// sides and the decompressors of `stations` — forgets the flow, in
    /// both orientations (downloads ACK on the client tuple, uploads on
    /// its reverse), so the next native ACK re-seeds from scratch.
    fn drop_flow_contexts(&mut self, flow: usize, stations: &[StationId]) {
        let client = Some(self.layout.client(flow));
        for ep in self.flows[flow].ep_range() {
            if self.endpoints[ep].station != client {
                continue;
            }
            let fwd = self.endpoints[ep].tuple;
            let rev = fwd.reversed();
            for side in &mut self.compress[flow] {
                side.drop_context(&fwd);
                side.drop_context(&rev);
            }
            for sid in stations {
                self.decompress[sid.0 as usize].drop_context(&fwd);
                self.decompress[sid.0 as usize].drop_context(&rev);
            }
        }
    }

    /// `ap`'s queue toward `client` drained a little: refill it if a
    /// backlog-fed UDP source feeds it (paced sources keep their own
    /// clock).
    fn refill_udp(&mut self, ap: StationId, client: StationId, now: SimTime) {
        if self.layout.is_ap(ap) {
            if let Some(flow) = self.layout.flow_of_client(client) {
                if matches!(self.flows[flow].model, TrafficModel::UdpDownload) {
                    self.top_up_udp(flow, now);
                }
            }
        }
    }

    fn record_delivery(&mut self, ep: usize, now: SimTime) {
        let e = &mut self.endpoints[ep];
        let Some(conn) = &e.conn else { return };
        if e.is_sender {
            return;
        }
        let delivered = conn.bytes_delivered();
        if delivered > e.delivered_recorded {
            let delta = delivered - e.delivered_recorded;
            e.delivered_recorded = delivered;
            let flow = e.flow;
            self.meters[flow].record(now, delta);
        }
    }

    fn resched_tcp(&mut self, ep: usize, now: SimTime) {
        let next = self.endpoints[ep]
            .conn
            .as_ref()
            .and_then(Connection::next_timer);
        match next {
            Some(at) => {
                let at = at.max(now);
                // Same deadline as the armed event: keep it (its token is
                // still the latest) instead of flooding the queue with a
                // stale-token event per delivered segment.
                if self.endpoints[ep].timer_at == Some(at) {
                    return;
                }
                self.endpoints[ep].timer_at = Some(at);
                self.tcp_timers
                    .schedule(&mut self.sched, ep as u32, at, |token| {
                        Event::TcpTimer(ep, token)
                    });
            }
            None => {
                self.endpoints[ep].timer_at = None;
                self.tcp_timers.unschedule(&mut self.sched, ep as u32);
            }
        }
    }
}

/// The law "no dispatched event is stale": every event a cancel could
/// have removed arrives with a current token or generation. Release
/// builds keep the guard; debug builds (every test) also assert it.
fn current(live: bool) -> bool {
    debug_assert!(live, "a stale event reached the dispatcher");
    live
}
