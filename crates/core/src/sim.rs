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

use std::collections::VecDeque;

use hack_mac::{
    Action, AssocMachine, AssocState, AssocStep, Frame, FrameKind, HackBlob, MacConfig, Station,
    TimerKind, TxDescriptor,
};
use hack_phy::{
    BssPlacement, Channel, InterferenceGraph, LossModel, Medium, MpduStatus, PhyRate, PpduMeta,
    RoamMonitor, StationId, Trajectory, TxId,
};
use hack_rohc::DecompressStats;
use hack_sim::{
    FastMap, QuantileSketch, Scheduler, SimDuration, SimRng, SimTime, ThroughputMeter, TimerTable,
    TimerToken,
};
use hack_tcp::{Connection, FiveTuple, Ipv4Addr, Ipv4Packet, SendBudget, TcpConfig, Transport};
use hack_trace::TraceHandle;

use crate::driver::{CompressSide, DecompressSide, DriverAction, HackMode};
use crate::packet::NetPacket;
use crate::scenario::{ChannelChange, ClassReport, LossConfig, RunResult, ScenarioConfig, Standard};
use crate::supervisor::{FlowSupervisor, HealthSignal, SupervisorAction, SupervisorConfig};
use crate::traffic::{ShortFlowConfig, TrafficClass, TrafficModel};
use crate::wired::WiredLink;

const AP: StationId = StationId(0);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// Held-ACK age past which the compress side raises a staleness health
/// signal (supervised runs only). Generous against ordinary flush-timer
/// latency — only a wedged HACK path trips it.
const HELD_STALE_LIMIT: SimDuration = SimDuration::from_millis(50);

fn client_sid(i: usize) -> StationId {
    StationId(1 + i as u32)
}

fn client_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(192, 168, 0, 10 + i as u8)
}

/// One BSS in the world: its AP station and the contiguous block of
/// flows it serves.
struct Cell {
    ap: StationId,
    /// Global flow index of the cell's first client.
    flow_base: usize,
}

/// Station numbering and addressing for the world.
///
/// Legacy single-BSS worlds (`cfg.bss` empty) keep the historical plan —
/// AP = station 0, client *i* = station 1+i, 192.168.0.x addressing — so
/// every pre-dense digest is preserved bit for bit. Dense worlds get one
/// cell per [`BssSpec`](crate::BssSpec) with stations blocked per cell
/// (AP₀, its clients, AP₁, its clients, …) and 10.1.x.y addressing. Flow
/// indices stay global (0..total clients) in cell order, so per-flow
/// config vectors keep their meaning.
struct Layout {
    cells: Vec<Cell>,
    /// flow → (cell index, client station).
    flows: Vec<(usize, StationId)>,
    /// station id → cell index.
    cell_of: Vec<usize>,
    legacy: bool,
}

impl Layout {
    fn from_cfg(cfg: &ScenarioConfig) -> Layout {
        if cfg.bss.is_empty() {
            let n = cfg.n_clients;
            Layout {
                cells: vec![Cell {
                    ap: AP,
                    flow_base: 0,
                }],
                flows: (0..n).map(|i| (0, client_sid(i))).collect(),
                cell_of: vec![0; n + 1],
                legacy: true,
            }
        } else {
            let mut cells = Vec::with_capacity(cfg.bss.len());
            let mut flows = Vec::new();
            let mut cell_of = Vec::new();
            let mut next = 0u32;
            for (b, spec) in cfg.bss.iter().enumerate() {
                let ap = StationId(next);
                cell_of.push(b);
                next += 1;
                let flow_base = flows.len();
                for _ in 0..spec.n_clients {
                    flows.push((b, StationId(next)));
                    cell_of.push(b);
                    next += 1;
                }
                cells.push(Cell { ap, flow_base });
            }
            Layout {
                cells,
                flows,
                cell_of,
                legacy: false,
            }
        }
    }

    fn n_flows(&self) -> usize {
        self.flows.len()
    }

    fn station_ids(&self) -> Vec<StationId> {
        (0..self.cell_of.len() as u32).map(StationId).collect()
    }

    /// Interference domain per station: its cell index.
    fn domains(&self) -> Vec<u32> {
        self.cell_of.iter().map(|&c| c as u32).collect()
    }

    fn client(&self, flow: usize) -> StationId {
        self.flows[flow].1
    }

    fn cell_of_flow(&self, flow: usize) -> usize {
        self.flows[flow].0
    }

    fn ap_of_flow(&self, flow: usize) -> StationId {
        self.cells[self.flows[flow].0].ap
    }

    fn cell(&self, sid: StationId) -> usize {
        self.cell_of[sid.0 as usize]
    }

    fn is_ap(&self, sid: StationId) -> bool {
        self.cells[self.cell(sid)].ap == sid
    }

    fn flow_of_client(&self, sid: StationId) -> Option<usize> {
        if (sid.0 as usize) >= self.cell_of.len() {
            return None;
        }
        let c = &self.cells[self.cell(sid)];
        (c.ap != sid).then(|| c.flow_base + (sid.0 - c.ap.0 - 1) as usize)
    }

    /// IP address of flow `f`'s client. Legacy worlds keep the
    /// historical 192.168.0.x plan; dense worlds use 10.1.x.y, good for
    /// ~64k flows.
    fn client_ip(&self, flow: usize) -> Ipv4Addr {
        if self.legacy {
            client_ip(flow)
        } else {
            Ipv4Addr::new(10, 1, (flow / 250) as u8, ((flow % 250) + 2) as u8)
        }
    }
}

/// One TCP endpoint living somewhere in the network.
struct Endpoint {
    conn: Option<Connection>,
    /// `None` = behind the wired backhaul; `Some(sid)` = on a wireless
    /// station (client, or the AP when `server_at_ap`).
    station: Option<StationId>,
    tuple: FiveTuple,
    flow: usize,
    /// Role: the flow's data sender?
    is_sender: bool,
    budget: SendBudget,
    tcp_cfg: TcpConfig,
    iss: u32,
    delivered_recorded: u64,
    /// TCP timeouts already reported to the supervisor.
    timeouts_seen: u64,
    /// Deadline of the currently armed retransmit-timer event, so a
    /// resched to the *same* instant skips the cancel-and-rearm (every
    /// delivered segment reschedules; the deadline rarely moves).
    timer_at: Option<SimTime>,
    /// Estimator-divergence window (supervised senders only): window
    /// start plus the sampler-delivered and cumulative-acked byte
    /// counters at that instant.
    est_win: Option<(SimTime, u64, u64)>,
    /// Consecutive divergent windows seen so far.
    est_bad_windows: u32,
}

impl Endpoint {
    fn new(
        tuple: FiveTuple,
        station: Option<StationId>,
        flow: usize,
        is_sender: bool,
        budget: SendBudget,
        tcp_cfg: TcpConfig,
        iss: u32,
    ) -> Endpoint {
        Endpoint {
            conn: None,
            station,
            tuple,
            flow,
            is_sender,
            budget,
            tcp_cfg,
            iss,
            delivered_recorded: 0,
            timeouts_seen: 0,
            timer_at: None,
            est_win: None,
            est_bad_windows: 0,
        }
    }
}

enum Event {
    FlowStart(usize),
    MacTimer(StationId, TimerKind, TimerToken<(u32, TimerKind)>),
    /// The PPDU `TxId` that the given station put on the air ends.
    TxEnd(TxId, StationId),
    HostRx {
        station: StationId,
        pkt: Ipv4Packet,
        native: bool,
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

#[cfg(feature = "evprof")]
impl Event {
    const KIND_NAMES: [&'static str; 16] = [
        "FlowStart",
        "MacTimer",
        "TxEnd",
        "HostRx",
        "WiredDeliver",
        "TcpTimer",
        "InstallBlob",
        "HackFlush",
        "ChannelDynamics",
        "SupProbe",
        "MobilityTick",
        "RoamCmd",
        "RoamStep",
        "FlowRestart",
        "PaceTick",
        "PaceToggle",
    ];

    fn kind_index(&self) -> usize {
        match self {
            Event::FlowStart(_) => 0,
            Event::MacTimer(..) => 1,
            Event::TxEnd(..) => 2,
            Event::HostRx { .. } => 3,
            Event::WiredDeliver { .. } => 4,
            Event::TcpTimer(..) => 5,
            Event::InstallBlob { .. } => 6,
            Event::HackFlush(..) => 7,
            Event::ChannelDynamics(_) => 8,
            Event::SupProbe(..) => 9,
            Event::MobilityTick => 10,
            Event::RoamCmd(_) => 11,
            Event::RoamStep { .. } => 12,
            Event::FlowRestart(_) => 13,
            Event::PaceTick { .. } => 14,
            Event::PaceToggle(_) => 15,
        }
    }
}

/// Mid-run state of one short-flow ([`TrafficModel::ShortFlows`]) flow.
struct ShortState {
    cfg: ShortFlowConfig,
    /// Cumulative receiver-delivered byte count that ends the current
    /// transfer (each new transfer adds its drawn size).
    target: u64,
    /// Is a transfer in flight right now (vs. sitting in a think gap)?
    in_transfer: bool,
    /// Start instant of the in-flight transfer, for FCT.
    started: SimTime,
    /// Connection generation (no-reuse mode re-keys ports and ISS per
    /// transfer so every generation is a distinct five-tuple).
    generation: u32,
}

/// Mid-run state of one paced-UDP (CBR / on-off) flow.
struct PaceState {
    /// Inter-packet gap at the configured rate.
    interval: SimDuration,
    payload: u32,
    /// Currently in an on-period? (CBR sources are always on.)
    on: bool,
    /// Per-flow IP ident counter — doubles as the packet sequence
    /// number for one-way latency bookkeeping.
    ident: u16,
    /// Stale-token guard for [`Event::PaceTick`]: bumped at each
    /// on-period start so a superseded tick chain dies quietly.
    tick_token: u32,
    /// Send timestamps of in-flight datagrams, keyed by ident.
    sent_at: FastMap<u16, SimTime>,
    /// Send order, so lost datagrams age out of `sent_at` (bounded).
    order: VecDeque<u16>,
    /// Previous delivered datagram's one-way latency (ns), for jitter.
    last_latency: Option<u64>,
}

impl PaceState {
    fn new(payload_bytes: u32, rate_kbps: u64, on: bool) -> PaceState {
        // payload_bytes * 8 bits at rate_kbps kilobits/s, in ns.
        let ns = (u64::from(payload_bytes) * 8_000_000 / rate_kbps.max(1)).max(1);
        PaceState {
            interval: SimDuration::from_nanos(ns),
            // Clamp to one MTU-sized MSDU payload.
            payload: payload_bytes.clamp(1, 1472),
            on,
            ident: 0,
            tick_token: 0,
            sent_at: FastMap::default(),
            order: VecDeque::new(),
            last_latency: None,
        }
    }
}

/// Per-flow runtime state: which traffic model drives the flow, where
/// its endpoints live in `World::endpoints`, and the model-specific
/// machinery (short-flow restarts, UDP pacing).
struct FlowRt {
    model: TrafficModel,
    /// First index of this flow's endpoints in `World::endpoints`.
    ep_base: usize,
    /// Endpoint count: 2 (bulk/short), 4 (bidirectional), 0 (UDP-class).
    ep_count: usize,
    /// Completion instant, for byte-budgeted (bulk/bidirectional) flows
    /// that have delivered `cfg.transfer_bytes` on every receiver.
    done_at: Option<SimTime>,
    /// Per-flow traffic randomness, forked off the world seed (only for
    /// models that draw: short flows and on/off sources).
    rng: Option<SimRng>,
    short: Option<ShortState>,
    pace: Option<PaceState>,
}

impl FlowRt {
    fn ep_range(&self) -> std::ops::Range<usize> {
        self.ep_base..self.ep_base + self.ep_count
    }
}

/// Per-world roaming state. Present only when `cfg.roam.is_active()`, so
/// roam-free worlds allocate nothing, draw nothing, and keep their
/// same-seed trace digests bit for bit.
struct RoamRuntime {
    /// flow → cell currently serving it (starts at the layout cell).
    cur_cell: Vec<usize>,
    /// Association machine per flow, instantiated on its first roam.
    machines: Vec<Option<AssocMachine>>,
    /// SNR roam monitor per flow (present when a trigger is configured).
    monitors: Vec<Option<RoamMonitor>>,
    /// Waypoint trajectory per flow's client, if one was scheduled.
    trajectories: Vec<Option<Trajectory>>,
    /// Packets parked while their flow is between associations:
    /// `(upstream, packet)` where upstream = client → AP.
    parked: Vec<Vec<(bool, Ipv4Packet)>>,
    /// Stale-token guard for [`Event::RoamStep`].
    step_token: Vec<u32>,
    /// Association-attempt randomness, forked off the world seed so
    /// roam-free draws are untouched.
    rng: SimRng,
    /// Completed re-associations (including give-up returns).
    roams: u64,
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
    /// Per-class flow-completion-time sketch (ns samples), indexed by
    /// [`TrafficClass::code`].
    class_fct: Vec<QuantileSketch>,
    /// Per-class one-way datagram latency sketch (paced-UDP classes).
    class_latency: Vec<QuantileSketch>,
    /// Per-class latency-delta (jitter) sketch (paced-UDP classes).
    class_jitter: Vec<QuantileSketch>,
    /// Completed transfers per class (short flows count every transfer).
    class_transfers: Vec<u64>,
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
    /// The MPDU-length vector of the last PPDU the medium finished,
    /// reused for the next one to start.
    lens_buf: Vec<u32>,
    /// Per-event-kind `(count, ns)` accumulated by `run_until`.
    #[cfg(feature = "evprof")]
    evprof: [(u64, u64); 16],
    trace: TraceHandle,
}

/// Step-by-step assembly of a [`World`] — the single construction path
/// behind every entry point.
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
///
/// The legacy entry points ([`World::new`], free [`run`] and
/// [`run_traced`]) are thin delegations to this builder.
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

    /// Build the network described by `cfg` without tracing.
    ///
    /// Thin shim over [`World::builder`] (use that in new code).
    pub fn new(cfg: ScenarioConfig) -> Self {
        World::builder(cfg).build()
    }

    /// The one true construction path (every public entry point funnels
    /// here through [`WorldBuilder::build`]).
    fn assemble(cfg: ScenarioConfig, trace: TraceHandle) -> Self {
        let layout = Layout::from_cfg(&cfg);
        let n = layout.n_flows();
        assert!(n >= 1, "need at least one client");
        if !cfg.bss.is_empty() {
            assert_eq!(
                cfg.n_clients, n,
                "n_clients must equal the BSS client total \
                 (ScenarioBuilder::bss keeps them in sync)"
            );
        }
        let rng = SimRng::new(cfg.seed);

        // --- PHY rate and MAC configs ---
        let (_rate, base_mac): (PhyRate, MacConfig) = match cfg.standard {
            Standard::Dot11a { rate_mbps } => {
                let r = PhyRate::dot11a(rate_mbps);
                (r, MacConfig::dot11a(r))
            }
            Standard::Dot11n { rate_mbps } => {
                let r = PhyRate::ht(rate_mbps);
                (r, MacConfig::dot11n(r))
            }
        };
        let hack_on = cfg.hack_mode != HackMode::Disabled;
        let mut mac_cfg = base_mac;
        if hack_on && cfg.hack_mode != HackMode::Opportunistic {
            // MORE DATA marking and SYNC are the MAC-visible HACK bits;
            // Opportunistic deliberately runs without them (§3.2).
            mac_cfg = mac_cfg.with_hack_bits();
        }
        if hack_on {
            // SYNC-based retention is part of every HACK build (unless
            // ablated away to demonstrate why §3.4 needs it).
            mac_cfg.use_sync = !cfg.disable_sync;
        }
        if cfg.sora_quirks {
            mac_cfg = mac_cfg.with_sora_quirks();
        }
        if let Some(txop) = cfg.txop_limit {
            mac_cfg.timings.txop_limit = txop;
        }
        if let Some(limit) = cfg.retry_limit {
            mac_cfg.timings.retry_limit = limit;
        }

        // --- stations & medium ---
        let station_ids: Vec<StationId> = layout.station_ids();
        let mut channel = Channel::indoor();
        let mut place_rng = rng.fork(0xC1AC);
        if cfg.bss.is_empty() {
            // Legacy single cell: the historical placement draw order,
            // untouched so same-seed digests stay pinned.
            channel.place(AP, 0.0, 0.0);
            for i in 0..n {
                let (x, y) = match cfg.loss {
                    LossConfig::SnrDistance(d) => (d, 0.0),
                    _ => place_rng.point_in_disc(10.0),
                };
                channel.place(client_sid(i), x, y);
            }
        } else {
            // Dense: APs at their declared spots, clients scattered (or
            // at the SNR sweep distance) around their own AP, drawn in
            // global flow order.
            for (b, spec) in cfg.bss.iter().enumerate() {
                channel.place(layout.cells[b].ap, spec.x, spec.y);
            }
            for f in 0..n {
                let spec = &cfg.bss[layout.cell_of_flow(f)];
                let (dx, dy) = match cfg.loss {
                    LossConfig::SnrDistance(d) => (d, 0.0),
                    _ => place_rng.point_in_disc(10.0),
                };
                channel.place(layout.client(f), spec.x + dx, spec.y + dy);
            }
        }
        let loss = match &cfg.loss {
            LossConfig::Ideal => LossModel::Ideal,
            LossConfig::PerClient(per) => {
                LossModel::fixed(per.iter().enumerate().map(|(i, &p)| (layout.client(i), p)))
            }
            LossConfig::SnrDistance(_) => LossModel::Snr,
            LossConfig::Burst(params) => LossModel::Burst(*params),
        };
        let mut medium = if cfg.bss.is_empty() {
            Medium::new(station_ids.clone(), loss, Some(channel))
        } else {
            let aps: Vec<BssPlacement> = cfg
                .bss
                .iter()
                .map(|b| BssPlacement {
                    x: b.x,
                    y: b.y,
                    channel: b.channel,
                })
                .collect();
            let graph = InterferenceGraph::derive(&aps, &cfg.interference);
            Medium::with_domains(
                station_ids.clone(),
                layout.domains(),
                graph,
                loss,
                Some(channel),
            )
        };
        medium.set_corruption(cfg.corrupt);
        medium.set_trace(trace.clone());

        let stations: Vec<Station<NetPacket>> = station_ids
            .iter()
            .map(|&sid| {
                let mut sc = mac_cfg.clone();
                if let Some(i) = layout.flow_of_client(sid) {
                    // Per-client capability: a stock (non-HACK) client
                    // advertises no HACK bit at association.
                    sc.hack_capable = cfg.client_hack_capable.get(i).copied().unwrap_or(true);
                } else if let Some(&cap) = cfg.roam.ap_hack_capable.get(layout.cell(sid)) {
                    // Per-AP capability (roam worlds): a flow can legally
                    // hand off to an AP that cannot decode HACK blobs.
                    sc.hack_capable = cap;
                }
                let mut s = Station::new(sid, sc, rng.fork(u64::from(sid.0) + 1));
                s.set_trace(trace.clone());
                s
            })
            .collect();

        // --- HACK drivers ---
        let mut compress = Vec::with_capacity(n);
        let decompress: Vec<DecompressSide> = station_ids
            .iter()
            .map(|&sid| {
                let mut d = DecompressSide::new();
                d.set_trace(trace.clone(), sid.0);
                d
            })
            .collect();
        let supervised = cfg.supervisor.is_some()
            && hack_on
            && (0..n).any(|i| cfg.model_of(i).is_tcp());
        for i in 0..n {
            let c = layout.client(i);
            let ap = layout.ap_of_flow(i);
            // Client compresses toward its AP (downloads)…
            let mut cs = CompressSide::new(cfg.hack_mode);
            cs.set_trace(trace.clone(), c.0);
            cs.set_held_cap(cfg.held_cap);
            if supervised {
                cs.set_stale_limit(Some(HELD_STALE_LIMIT));
            }
            let client_side = cs;
            // …and the AP toward each client (uploads) — symmetric design.
            let mut cs = CompressSide::new(cfg.hack_mode);
            cs.set_trace(trace.clone(), ap.0);
            cs.set_held_cap(cfg.held_cap);
            if supervised {
                cs.set_stale_limit(Some(HELD_STALE_LIMIT));
            }
            compress.push([client_side, cs]);
        }
        let supervisors: Vec<FlowSupervisor> = if supervised {
            let sup_cfg = cfg.supervisor.expect("checked");
            (0..n).map(|_| FlowSupervisor::new(sup_cfg)).collect()
        } else {
            Vec::new()
        };

        // --- endpoints ---
        let mut endpoints = Vec::new();
        let mut meters = Vec::new();
        let mut flow_start_at = Vec::new();
        let base_start = SimTime::from_millis(10);
        let tcp_cfg = TcpConfig {
            delayed_ack: cfg.delayed_ack,
            rcv_window: cfg.rcv_window,
            cc: cfg.cc,
            ..TcpConfig::default()
        };
        // One client/server endpoint pair per TCP direction. `upload`
        // marks the wireless client (always the TCP initiator) as the
        // data sender for the pair.
        #[allow(clippy::too_many_arguments)]
        fn push_pair(
            endpoints: &mut Vec<Endpoint>,
            trace: &TraceHandle,
            tcp_cfg: &TcpConfig,
            layout: &Layout,
            server_at_ap: bool,
            i: usize,
            tuple: FiveTuple,
            upload: bool,
            client_budget: SendBudget,
            server_budget: SendBudget,
            client_iss: u32,
            server_iss: u32,
        ) {
            // Wireless-client endpoint (always the TCP initiator).
            let ep_client = Endpoint::new(
                tuple,
                Some(layout.client(i)),
                i,
                upload,
                client_budget,
                tcp_cfg.clone(),
                client_iss,
            );
            // Server endpoint (wired, or on the flow's AP itself).
            let mut server_conn = Connection::server(tcp_cfg.clone(), tuple.reversed(), server_iss);
            server_conn.set_budget(server_budget);
            server_conn.set_trace(
                trace.clone(),
                if server_at_ap {
                    layout.ap_of_flow(i).0
                } else {
                    u32::MAX
                },
            );
            let mut ep_server = Endpoint::new(
                tuple.reversed(),
                server_at_ap.then(|| layout.ap_of_flow(i)),
                i,
                !upload,
                SendBudget::None, // already set on conn
                tcp_cfg.clone(),
                0,
            );
            ep_server.conn = Some(server_conn);
            endpoints.push(ep_client);
            endpoints.push(ep_server);
        }
        let mut flows_rt: Vec<FlowRt> = Vec::with_capacity(n);
        for i in 0..n {
            let model = cfg.model_of(i);
            let ep_base = endpoints.len();
            let budget = match cfg.transfer_bytes {
                Some(b) => SendBudget::Bytes(b),
                None => SendBudget::Unlimited,
            };
            let primary = FiveTuple {
                src_ip: layout.client_ip(i),
                dst_ip: SERVER_IP,
                src_port: 40_000 + i as u16,
                dst_port: 5_001 + i as u16,
                protocol: 6,
            };
            match model {
                TrafficModel::BulkDownload | TrafficModel::BulkUpload => {
                    let upload = matches!(model, TrafficModel::BulkUpload);
                    push_pair(
                        &mut endpoints,
                        &trace,
                        &tcp_cfg,
                        &layout,
                        cfg.server_at_ap,
                        i,
                        primary,
                        upload,
                        if upload { budget } else { SendBudget::None },
                        if upload { SendBudget::None } else { budget },
                        10_000 + i as u32 * 101,
                        90_000 + i as u32 * 103,
                    );
                }
                TrafficModel::ShortFlows(_) => {
                    // Server is the responder/sender; its budget is armed
                    // per transfer at flow (re)start.
                    push_pair(
                        &mut endpoints,
                        &trace,
                        &tcp_cfg,
                        &layout,
                        cfg.server_at_ap,
                        i,
                        primary,
                        false,
                        SendBudget::None,
                        SendBudget::None,
                        10_000 + i as u32 * 101,
                        90_000 + i as u32 * 103,
                    );
                }
                TrafficModel::Bidirectional => {
                    // Download direction on the historical tuple plan…
                    push_pair(
                        &mut endpoints,
                        &trace,
                        &tcp_cfg,
                        &layout,
                        cfg.server_at_ap,
                        i,
                        primary,
                        false,
                        SendBudget::None,
                        budget,
                        10_000 + i as u32 * 101,
                        90_000 + i as u32 * 103,
                    );
                    // …plus a second pair where the client is the data
                    // sender, so both ends hold and compress ACKs.
                    let up_tuple = FiveTuple {
                        src_ip: layout.client_ip(i),
                        dst_ip: SERVER_IP,
                        src_port: 50_000 + i as u16,
                        dst_port: 6_001 + i as u16,
                        protocol: 6,
                    };
                    push_pair(
                        &mut endpoints,
                        &trace,
                        &tcp_cfg,
                        &layout,
                        cfg.server_at_ap,
                        i,
                        up_tuple,
                        true,
                        budget,
                        SendBudget::None,
                        20_000 + i as u32 * 101,
                        80_000 + i as u32 * 103,
                    );
                }
                TrafficModel::UdpDownload | TrafficModel::Cbr(_) | TrafficModel::OnOff(_) => {}
            }
            meters.push(ThroughputMeter::new());
            flow_start_at.push(base_start + cfg.stagger * i as u64);
            let needs_rng =
                matches!(model, TrafficModel::ShortFlows(_) | TrafficModel::OnOff(_));
            flows_rt.push(FlowRt {
                model,
                ep_base,
                ep_count: endpoints.len() - ep_base,
                done_at: None,
                rng: needs_rng.then(|| rng.fork(0x7AFF_0000 + i as u64)),
                short: match model {
                    TrafficModel::ShortFlows(c) => Some(ShortState {
                        cfg: c,
                        target: 0,
                        in_transfer: false,
                        started: SimTime::ZERO,
                        generation: 0,
                    }),
                    _ => None,
                },
                pace: match model {
                    TrafficModel::Cbr(c) => Some(PaceState::new(c.payload_bytes, c.rate_kbps, true)),
                    TrafficModel::OnOff(o) => {
                        Some(PaceState::new(o.payload_bytes, o.rate_kbps, false))
                    }
                    _ => None,
                },
            });
        }

        let end = SimTime::ZERO + cfg.duration;
        let ip_to_flow = (0..n).map(|f| (layout.client_ip(f), f)).collect();
        let wired = (0..layout.cells.len())
            .map(|_| WiredLink::paper_backhaul())
            .collect();
        let mut world = World {
            sched: Scheduler::with_kind(cfg.queue),
            mac_timers: TimerTable::new(),
            tcp_timers: TimerTable::new(),
            flush_timers: TimerTable::new(),
            sup_timers: TimerTable::new(),
            supervisors,
            medium,
            stations,
            compress,
            decompress,
            tx_payloads: Vec::new(),
            wired,
            endpoints,
            ip_to_flow,
            meters,
            flow_start_at: flow_start_at.clone(),
            flows: flows_rt,
            class_fct: vec![QuantileSketch::default(); TrafficClass::ALL.len()],
            class_latency: vec![QuantileSketch::default(); TrafficClass::ALL.len()],
            class_jitter: vec![QuantileSketch::default(); TrafficClass::ALL.len()],
            class_transfers: vec![0; TrafficClass::ALL.len()],
            rng: rng.fork(0xF00D),
            end,
            ap_queue_drops: 0,
            udp_ident: 0,
            completion: None,
            roam: None,
            idle_buf: Vec::new(),
            overheard_buf: Vec::new(),
            lens_buf: Vec::new(),
            #[cfg(feature = "evprof")]
            evprof: [(0, 0); 16],
            trace,
            layout,
            cfg,
        };
        if world.cfg.roam.is_active() {
            let trigger = world.cfg.roam.trigger;
            let mut trajectories: Vec<Option<Trajectory>> = vec![None; n];
            for p in &world.cfg.roam.paths {
                if p.client < n {
                    trajectories[p.client] = Some(Trajectory::new(p.waypoints.clone()));
                }
            }
            world.roam = Some(RoamRuntime {
                cur_cell: (0..n).map(|f| world.layout.cell_of_flow(f)).collect(),
                machines: vec![None; n],
                monitors: (0..n)
                    .map(|_| trigger.map(|t| RoamMonitor::new(t, SimTime::ZERO)))
                    .collect(),
                trajectories,
                parked: vec![Vec::new(); n],
                step_token: vec![0; n],
                rng: rng.fork(0x0A11),
                roams: 0,
            });
            for i in 0..world.cfg.roam.schedule.len() {
                let at = SimTime::ZERO + world.cfg.roam.schedule[i].at;
                world.sched.schedule_at(at, Event::RoamCmd(i));
            }
            let moving = world.cfg.roam.paths.iter().any(|p| !p.waypoints.is_empty());
            if moving || trigger.is_some() {
                let at = SimTime::ZERO + world.cfg.roam.mobility_tick;
                world.sched.schedule_at(at, Event::MobilityTick);
            }
        }
        for (i, &at) in flow_start_at.iter().enumerate() {
            world.sched.schedule_at(at, Event::FlowStart(i));
        }
        for i in 0..world.cfg.dynamics.len() {
            let at = SimTime::ZERO + world.cfg.dynamics[i].at;
            world.sched.schedule_at(at, Event::ChannelDynamics(i));
        }
        // Association-time capability negotiation, out of band: it
        // models a handshake completed before t = 0, so it burns no air
        // time, no randomness, and (for all-capable cells) no trace
        // events — existing same-seed digests are untouched.
        for i in 0..n {
            let c = world.layout.client(i);
            let ap = world.layout.ap_of_flow(i);
            let req = world.stations[c.0 as usize].assoc_request();
            let resp = world.stations[ap.0 as usize].on_assoc_request(&req);
            world.stations[c.0 as usize].on_assoc_response(&resp);
            if world.stations[c.0 as usize].hack_negotiated(ap) == Some(false) {
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
        self.collect()
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
            let (kind, t0) = (ev.kind_index(), std::time::Instant::now());
            self.handle(ev, now);
            #[cfg(feature = "evprof")]
            {
                self.evprof[kind].0 += 1;
                self.evprof[kind].1 += t0.elapsed().as_nanos() as u64;
            }
            if self.completion.is_some() {
                return false;
            }
        }
        false
    }

    /// Collect results after driving the world with [`World::run_until`].
    pub fn finish(self) -> RunResult {
        self.collect()
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
                if self.mac_timers.fire(token) {
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
            Event::HostRx {
                station,
                pkt,
                native,
            } => self.on_host_rx(station, pkt, native, now),
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
                if self.tcp_timers.fire(token) {
                    self.endpoints[ep].timer_at = None;
                    let outputs = {
                        let conn = self.endpoints[ep]
                            .conn
                            .as_mut()
                            .expect("timer on live conn");
                        conn.on_timer(now)
                    };
                    // RTO stall: repeated established-state timeouts with
                    // no ACK progress mean the ACK clock itself died.
                    let mut stall_flow = None;
                    if !self.supervisors.is_empty() {
                        let e = &mut self.endpoints[ep];
                        if let Some(conn) = &e.conn {
                            let timeouts = conn.stats().timeouts;
                            if timeouts > e.timeouts_seen {
                                e.timeouts_seen = timeouts;
                                if conn.rto_streak() >= 2 {
                                    stall_flow = Some(e.flow);
                                }
                            }
                        }
                    }
                    if let Some(flow) = stall_flow {
                        self.sup_signal(flow, HealthSignal::RtoStall, now);
                    }
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
                if side.generation() == generation {
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
                    // Stale install (a newer rebuild superseded it while
                    // this one waited out the DMA delay): recycle the
                    // bytes instead of dropping them.
                    side.recycle_blob(bytes);
                }
            }
            Event::HackFlush(station, peer, token) => {
                if self.flush_timers.fire(token) {
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
                if self.sup_timers.fire(token) {
                    let acts = self.supervisors[flow].on_probe_timer(now);
                    self.apply_supervisor(flow, acts, now);
                }
            }
            Event::MobilityTick => self.on_mobility_tick(now),
            Event::RoamCmd(i) => {
                let (flow, target) = {
                    let e = &self.cfg.roam.schedule[i];
                    (e.flow, e.target_bss)
                };
                self.start_roam(flow, target, now);
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
            AP.0,
            hack_trace::Event::SimChannelUpdate {
                index: index as u32
            }
        );
    }

    // ------------------------------------------------------------------
    // Roaming
    // ------------------------------------------------------------------

    /// The cell currently serving `flow` (roam-aware).
    fn cur_cell_of_flow(&self, flow: usize) -> usize {
        match &self.roam {
            Some(r) => r.cur_cell[flow],
            None => self.layout.cell_of_flow(flow),
        }
    }

    /// The AP currently serving `flow` (roam-aware).
    fn cur_ap_of_flow(&self, flow: usize) -> StationId {
        self.layout.cells[self.cur_cell_of_flow(flow)].ap
    }

    /// Is `flow` between associations (scanning or reassociating)?
    fn flow_in_blackout(&self, flow: usize) -> bool {
        self.roam
            .as_ref()
            .is_some_and(|r| r.machines[flow].as_ref().is_some_and(AssocMachine::roaming))
    }

    /// Hold a packet for a flow in handoff blackout; re-injected through
    /// the new association, tail-dropped past the cap (TCP retransmits).
    fn park(&mut self, flow: usize, upstream: bool, pkt: Ipv4Packet) {
        let cap = self.cfg.roam.park_cap;
        let r = self.roam.as_mut().expect("blackout implies runtime");
        if r.parked[flow].len() >= cap {
            self.ap_queue_drops += 1;
            return;
        }
        r.parked[flow].push((upstream, pkt));
    }

    /// Advance every scheduled trajectory and re-evaluate the SNR roam
    /// trigger. Self-rescheduling while any client is still moving or a
    /// trigger is configured.
    fn on_mobility_tick(&mut self, now: SimTime) {
        let t = SimDuration::from_nanos(now.as_nanos());
        let n = self.layout.n_flows();
        let mut still_moving = false;
        for flow in 0..n {
            let pos = {
                let Some(traj) = self
                    .roam
                    .as_ref()
                    .and_then(|r| r.trajectories[flow].as_ref())
                else {
                    continue;
                };
                if traj.end().is_some_and(|e| e > t) {
                    still_moving = true;
                }
                traj.position_at(t)
            };
            if let Some((x, y)) = pos {
                self.medium.place_station(self.layout.client(flow), x, y);
            }
        }
        if self.cfg.roam.trigger.is_some() {
            for flow in 0..n {
                self.maybe_roam_on_snr(flow, now);
            }
            // Triggered roams stay possible as long as the clock runs.
            still_moving = true;
        }
        if still_moving {
            let at = now + self.cfg.roam.mobility_tick;
            if at <= self.end {
                self.sched.schedule_at(at, Event::MobilityTick);
            }
        }
    }

    /// Evaluate the SNR roam trigger for `flow` (mobility ticks and
    /// mid-run `MoveClient` dynamics both land here).
    fn maybe_roam_on_snr(&mut self, flow: usize, now: SimTime) {
        if flow >= self.layout.n_flows() || self.flow_in_blackout(flow) {
            return;
        }
        let target = {
            let Some(r) = self.roam.as_ref() else { return };
            let Some(mon) = r.monitors[flow].as_ref() else {
                return;
            };
            let client = self.layout.client(flow);
            let cur = r.cur_cell[flow];
            let serving = self.medium.snr_db(self.layout.cells[cur].ap, client);
            let candidates: Vec<(usize, f64)> = (0..self.layout.cells.len())
                .filter(|&c| c != cur)
                .map(|c| (c, self.medium.snr_db(self.layout.cells[c].ap, client)))
                .collect();
            mon.evaluate(serving, &candidates, now)
        };
        if let Some(target) = target {
            self.start_roam(flow, target, now);
        }
    }

    /// Begin a handoff: flush and tear down the old association, enter
    /// the blackout, and hand control to the association machine.
    fn start_roam(&mut self, flow: usize, target: usize, now: SimTime) {
        if self.roam.is_none() || flow >= self.layout.n_flows() || target >= self.layout.cells.len()
        {
            return;
        }
        let from_cell = self.cur_cell_of_flow(flow);
        if self.flow_in_blackout(flow) || target == from_cell {
            return;
        }
        let client = self.layout.client(flow);
        let old_ap = self.layout.cells[from_cell].ap;
        hack_trace::trace_ev!(
            self.trace,
            now.as_nanos(),
            client.0,
            hack_trace::Event::MacRoamTriggered {
                flow: flow as u32,
                from_cell: from_cell as u32,
                to_cell: target as u32
            }
        );
        // 1) Flush held ACKs on both driver sides before the link dies:
        //    unridden holds are released as native sends (parked below,
        //    re-injected post-roam) — never silently dropped, and holds
        //    that already rode a response were delivered, so no ACK is
        //    ever delivered twice either.
        self.force_flow_native(flow, old_ap, now);
        // 2) The old association's ROHC contexts die with it: decoding
        //    against a stale context across a handoff is never legal, so
        //    every party forgets the flow and the first post-roam native
        //    ACK re-seeds from scratch.
        let new_ap = self.layout.cells[target].ap;
        for fwd in self.client_tuples(flow) {
            let rev = fwd.reversed();
            for side in &mut self.compress[flow] {
                side.drop_context(&fwd);
                side.drop_context(&rev);
            }
            for sid in [client.0 as usize, old_ap.0 as usize, new_ap.0 as usize] {
                self.decompress[sid].drop_context(&fwd);
                self.decompress[sid].drop_context(&rev);
            }
        }
        // 3) MAC teardown: negotiated capability and blob state toward
        //    the old peer go away; unsent MSDUs are parked for the new
        //    association. Frames already committed to the air finish
        //    through the old path.
        let up = self.stations[client.0 as usize].disassociate(old_ap);
        let down = self.stations[old_ap.0 as usize].disassociate(client);
        for m in up {
            self.park(flow, true, m.0);
        }
        for m in down {
            self.park(flow, false, m.0);
        }
        hack_trace::trace_ev!(
            self.trace,
            now.as_nanos(),
            client.0,
            hack_trace::Event::MacDisassociated {
                flow: flow as u32,
                ap: old_ap.0
            }
        );
        // 4) Supervisor blackout + RTO clamp: HACK drops to native for
        //    the handoff, probes are suppressed, and Karn doubling is
        //    pinned so the transport neither probes a dead link nor
        //    backs off into next week while the link is simply absent.
        if flow < self.supervisors.len() {
            let acts = self.supervisors[flow].on_handoff(now);
            self.apply_supervisor(flow, acts, now);
            hack_trace::trace_ev!(
                self.trace,
                now.as_nanos(),
                client.0,
                hack_trace::Event::SupHandoffBlackout {
                    flow: flow as u32,
                    to_cell: target as u32
                }
            );
        }
        let shift = self.cfg.roam.rto_clamp_shift;
        for ep in self.flows[flow].ep_range() {
            if let Some(conn) = self.endpoints.get_mut(ep).and_then(|e| e.conn.as_mut()) {
                conn.clamp_rto_backoff(shift);
            }
        }
        // 5) The association machine takes over.
        let assoc_cfg = self.cfg.roam.assoc;
        let step = {
            let r = self.roam.as_mut().expect("checked");
            let m = r.machines[flow].get_or_insert_with(|| AssocMachine::new(assoc_cfg, from_cell));
            m.start_roam(target, now)
        };
        if let Some(step) = step {
            self.exec_assoc_step(flow, step, now);
        }
    }

    /// A [`Event::RoamStep`] timer fired: advance the flow's association
    /// machine past its current wait.
    fn on_roam_step(&mut self, flow: usize, token: u32, now: SimTime) {
        let step = {
            let Some(r) = self.roam.as_mut() else { return };
            if r.step_token[flow] != token {
                return;
            }
            let Some(m) = r.machines[flow].as_mut() else {
                return;
            };
            match m.state() {
                AssocState::Associated => return,
                AssocState::Scanning => m.on_scan_done(),
                AssocState::Reassociating => m.on_retry_timer(),
            }
        };
        self.exec_assoc_step(flow, step, now);
    }

    /// Carry out association-machine steps until the machine wants to
    /// wait or settles back into `Associated`.
    fn exec_assoc_step(&mut self, flow: usize, mut step: AssocStep, now: SimTime) {
        loop {
            match step {
                AssocStep::Wait(at) => {
                    let r = self.roam.as_mut().expect("roaming");
                    r.step_token[flow] = r.step_token[flow].wrapping_add(1);
                    let token = r.step_token[flow];
                    self.sched
                        .schedule_at(at.max(now), Event::RoamStep { flow, token });
                    return;
                }
                AssocStep::Attempt { cell, .. } => {
                    let p = self.cfg.roam.assoc_fail_prob;
                    let ok = p <= 0.0 || !self.roam.as_mut().expect("roaming").rng.chance(p);
                    let next = self.roam.as_mut().expect("roaming").machines[flow]
                        .as_mut()
                        .expect("roaming")
                        .on_assoc_result(ok, now);
                    match next {
                        None => {
                            self.complete_reassociation(flow, cell, now);
                            return;
                        }
                        Some(s) => step = s,
                    }
                }
                AssocStep::GiveUp { back_to } => {
                    self.roam.as_mut().expect("roaming").machines[flow]
                        .as_mut()
                        .expect("roaming")
                        .on_gave_up();
                    self.complete_reassociation(flow, back_to, now);
                    return;
                }
            }
        }
    }

    /// Finish a handoff onto `cell`: re-key the drivers, renegotiate the
    /// HACK capability with the new AP, lift the blackout, and re-inject
    /// parked traffic.
    fn complete_reassociation(&mut self, flow: usize, cell: usize, now: SimTime) {
        let client = self.layout.client(flow);
        let old_cell = self.cur_cell_of_flow(flow);
        let old_ap = self.layout.cells[old_cell].ap;
        let new_ap = self.layout.cells[cell].ap;
        // Driver state follows the association: the flow's compress
        // sides answer to the new AP once `cur_cell` moves below. Stats
        // survive the move; the ROHC contexts were already dropped at
        // disassociation.
        if new_ap != old_ap {
            self.compress[flow][1].set_trace(self.trace.clone(), new_ap.0);
        }
        // Retune the radio: the client joins the new cell's interference
        // domain (channel) — without this, the new AP's frames would
        // never reach it.
        self.medium.retune_station(client, cell as u32);
        // Fresh capability handshake, in band with the re-association:
        // HACK may legally flip off (incapable AP) and back on here.
        let req = self.stations[client.0 as usize].assoc_request();
        let resp = self.stations[new_ap.0 as usize].on_assoc_request(&req);
        self.stations[client.0 as usize].on_assoc_response(&resp);
        let negotiated = self.stations[client.0 as usize].hack_negotiated(new_ap) == Some(true);
        {
            let r = self.roam.as_mut().expect("roaming");
            r.cur_cell[flow] = cell;
            r.roams += 1;
            if let Some(mon) = r.monitors[flow].as_mut() {
                mon.on_associated(now);
            }
        }
        hack_trace::trace_ev!(
            self.trace,
            now.as_nanos(),
            client.0,
            hack_trace::Event::MacReassociated {
                flow: flow as u32,
                ap: new_ap.0,
                hack: negotiated
            }
        );
        if !negotiated {
            // Incapable new AP: the drivers must never hold an ACK
            // against a peer that cannot decode it.
            self.force_flow_native(flow, new_ap, now);
        }
        if flow < self.supervisors.len() {
            let acts = self.supervisors[flow].on_reassociated(negotiated, now);
            self.apply_supervisor(flow, acts, now);
        }
        for ep in self.flows[flow].ep_range() {
            if let Some(conn) = self.endpoints.get_mut(ep).and_then(|e| e.conn.as_mut()) {
                conn.unclamp_rto_backoff();
            }
        }
        // Lift the blackout: parked traffic flows through the new
        // association (ACKs back through the re-keyed drivers).
        let parked = std::mem::take(&mut self.roam.as_mut().expect("roaming").parked[flow]);
        for (upstream, pkt) in parked {
            if upstream {
                self.wireless_out(client, new_ap, pkt, now);
            } else {
                self.ap_downstream(new_ap, pkt, now);
            }
        }
    }

    fn start_flow(&mut self, flow: usize, now: SimTime) {
        hack_trace::trace_ev!(
            self.trace,
            now.as_nanos(),
            self.layout.client(flow).0,
            hack_trace::Event::SimFlowStart { flow: flow as u32 }
        );
        match self.flows[flow].model {
            TrafficModel::UdpDownload => self.top_up_udp(flow, now),
            TrafficModel::Cbr(_) => self.pace_on(flow, now),
            TrafficModel::OnOff(_) => self.on_pace_toggle(flow, now),
            TrafficModel::ShortFlows(_) => self.start_short_transfer(flow, true, now),
            TrafficModel::BulkDownload | TrafficModel::BulkUpload => {
                self.open_initiator(self.flows[flow].ep_base, now);
            }
            TrafficModel::Bidirectional => {
                let base = self.flows[flow].ep_base;
                self.open_initiator(base, now);
                self.open_initiator(base + 2, now);
            }
        }
    }

    /// Open the client-side (initiator) connection at endpoint `ep` and
    /// route its SYN.
    fn open_initiator(&mut self, ep: usize, now: SimTime) {
        let flow = self.endpoints[ep].flow;
        let (conn, pkts) = Connection::client(
            self.endpoints[ep].tcp_cfg.clone(),
            self.endpoints[ep].tuple,
            self.endpoints[ep].iss,
            now,
        );
        let mut conn = conn;
        conn.set_budget(self.endpoints[ep].budget);
        conn.set_trace(self.trace.clone(), self.layout.client(flow).0);
        self.endpoints[ep].conn = Some(conn);
        self.route_out(ep, pkts, now);
        self.resched_tcp(ep, now);
    }

    // ------------------------------------------------------------------
    // Short-flow lifecycle
    // ------------------------------------------------------------------

    /// Begin a short-flow transfer. `first` opens the initial
    /// connection; later transfers either reuse it (persistent mode) or
    /// re-key onto a fresh five-tuple.
    fn start_short_transfer(&mut self, flow: usize, first: bool, now: SimTime) {
        let base = self.flows[flow].ep_base;
        let server = base + 1;
        let (size, reuse) = {
            let f = &mut self.flows[flow];
            let cfg = f.short.as_ref().expect("short state").cfg;
            let rng = f.rng.as_mut().expect("short flows draw");
            (cfg.sizes.sample(rng), cfg.reuse)
        };
        if first {
            // Arm the server with the first response, then open the
            // client connection whose SYN starts the exchange.
            {
                let conn = self.endpoints[server].conn.as_mut().expect("server conn");
                conn.set_budget(SendBudget::Bytes(size));
            }
            let st = self.flows[flow].short.as_mut().expect("short state");
            st.target = size;
            st.in_transfer = true;
            st.started = now;
            self.open_initiator(base, now);
        } else if reuse {
            // Persistent connection: extend the server's cumulative
            // budget and kick its send path.
            let (total, outputs) = {
                let conn = self.endpoints[server].conn.as_mut().expect("server conn");
                let total = conn.extend_budget(size);
                (total, conn.poll_send(now))
            };
            let st = self.flows[flow].short.as_mut().expect("short state");
            st.target = total;
            st.in_transfer = true;
            st.started = now;
            self.route_out(server, outputs, now);
            self.resched_tcp(server, now);
        } else {
            self.reopen_short(flow, size, now);
        }
        // A degenerate (zero-byte) target is satisfied the moment it is
        // armed: no packet will ever arrive to drive the progress check,
        // so run it eagerly or the flow wedges with `in_transfer` set.
        self.check_short_progress(flow, now);
    }

    /// Re-key a short flow onto a fresh five-tuple (no-reuse mode): the
    /// previous connection pair, its timers, its routing entries, and
    /// its ROHC contexts all go away; the next transfer starts with a
    /// brand-new handshake and fresh ISNs.
    fn reopen_short(&mut self, flow: usize, size: u64, now: SimTime) {
        let base = self.flows[flow].ep_base;
        let server = base + 1;
        let client_sid = self.layout.client(flow);
        let cur_ap = self.cur_ap_of_flow(flow);
        let old = self.endpoints[base].tuple;
        let old_rev = old.reversed();
        for ep in [base, server] {
            self.endpoints[ep].timer_at = None;
            self.tcp_timers.cancel(ep as u32);
        }
        for side in &mut self.compress[flow] {
            side.drop_context(&old);
            side.drop_context(&old_rev);
        }
        for sid in [client_sid.0 as usize, cur_ap.0 as usize] {
            self.decompress[sid].drop_context(&old);
            self.decompress[sid].drop_context(&old_rev);
        }
        let generation = {
            let st = self.flows[flow].short.as_mut().expect("short state");
            st.generation += 1;
            st.generation
        };
        // Same client IP and server port (they identify the flow); a
        // per-generation source port keeps every five-tuple distinct.
        let tuple = FiveTuple {
            src_port: 40_000u16
                .wrapping_add(flow as u16)
                .wrapping_add((generation as u16).wrapping_mul(613)),
            ..old
        };
        let iss_c = (10_000 + flow as u32 * 101).wrapping_add(generation.wrapping_mul(1009));
        let iss_s = (90_000 + flow as u32 * 103).wrapping_add(generation.wrapping_mul(1013));
        {
            let e = &mut self.endpoints[base];
            e.tuple = tuple;
            e.iss = iss_c;
            e.conn = None;
            e.delivered_recorded = 0;
            e.timeouts_seen = 0;
            e.est_win = None;
            e.est_bad_windows = 0;
        }
        let mut server_conn =
            Connection::server(self.endpoints[server].tcp_cfg.clone(), tuple.reversed(), iss_s);
        server_conn.set_budget(SendBudget::Bytes(size));
        server_conn.set_trace(
            self.trace.clone(),
            if self.cfg.server_at_ap {
                cur_ap.0
            } else {
                u32::MAX
            },
        );
        {
            let e = &mut self.endpoints[server];
            e.tuple = tuple.reversed();
            e.conn = Some(server_conn);
            e.delivered_recorded = 0;
            e.timeouts_seen = 0;
        }
        {
            let st = self.flows[flow].short.as_mut().expect("short state");
            st.target = size;
            st.in_transfer = true;
            st.started = now;
        }
        self.open_initiator(base, now);
    }

    /// A short flow's receiver made progress: when the in-flight
    /// transfer has fully arrived, log its FCT and schedule the next
    /// one after a think gap.
    fn check_short_progress(&mut self, flow: usize, now: SimTime) {
        let base = self.flows[flow].ep_base;
        let delivered = self.endpoints[base]
            .conn
            .as_ref()
            .map_or(0, |c| c.bytes_delivered());
        let fct_ns = {
            let st = match self.flows[flow].short.as_mut() {
                Some(s) => s,
                None => return,
            };
            if !st.in_transfer || delivered < st.target {
                return;
            }
            st.in_transfer = false;
            now.saturating_duration_since(st.started).as_nanos()
        };
        let class = self.flows[flow].model.class().code() as usize;
        self.class_fct[class].record(fct_ns);
        self.class_transfers[class] += 1;
        let gap = {
            let f = &mut self.flows[flow];
            let st = f.short.as_ref().expect("short state");
            let rng = f.rng.as_mut().expect("short flows draw");
            st.cfg.think.sample(rng)
        };
        let at = now + gap;
        if at <= self.end {
            self.sched.schedule_at(at, Event::FlowRestart(flow));
        }
    }

    /// A short flow's think gap elapsed: begin the next transfer.
    fn on_flow_restart(&mut self, flow: usize, now: SimTime) {
        let idle = self.flows[flow]
            .short
            .as_ref()
            .is_some_and(|st| !st.in_transfer);
        if idle {
            self.start_short_transfer(flow, false, now);
        }
    }

    // ------------------------------------------------------------------
    // Paced UDP (CBR / on-off) sources
    // ------------------------------------------------------------------

    /// Begin (or resume) a paced on-period: bump the tick token and emit
    /// the first datagram immediately.
    fn pace_on(&mut self, flow: usize, now: SimTime) {
        let token = {
            let pace = self.flows[flow].pace.as_mut().expect("paced flow");
            pace.on = true;
            pace.tick_token = pace.tick_token.wrapping_add(1);
            pace.tick_token
        };
        self.on_pace_tick(flow, token, now);
    }

    /// Emit one paced datagram and schedule the next tick.
    fn on_pace_tick(&mut self, flow: usize, token: u32, now: SimTime) {
        let (ident, payload, interval) = {
            let Some(pace) = self.flows[flow].pace.as_mut() else {
                return;
            };
            if pace.tick_token != token || !pace.on {
                return;
            }
            pace.ident = pace.ident.wrapping_add(1);
            pace.sent_at.insert(pace.ident, now);
            pace.order.push_back(pace.ident);
            // Bound the in-flight table: datagrams lost in the air never
            // come back for their timestamp.
            if pace.order.len() > 4096 {
                if let Some(oldest) = pace.order.pop_front() {
                    pace.sent_at.remove(&oldest);
                }
            }
            (pace.ident, pace.payload, pace.interval)
        };
        let pkt = Ipv4Packet {
            src: SERVER_IP,
            dst: self.layout.client_ip(flow),
            ident,
            ttl: 64,
            transport: Transport::Udp {
                src_port: 5_002,
                dst_port: 41_000 + flow as u16,
                payload_len: payload,
            },
        };
        let cell = self.cur_cell_of_flow(flow);
        let arrive = self.wired[cell].send(true, &pkt, now);
        self.sched.schedule_at(
            arrive,
            Event::WiredDeliver {
                cell,
                to_ap: true,
                pkt,
            },
        );
        let next = now + interval;
        if next <= self.end {
            self.sched.schedule_at(next, Event::PaceTick { flow, token });
        }
    }

    /// Flip an on/off source between its periods (also primes the first
    /// on-period at flow start).
    fn on_pace_toggle(&mut self, flow: usize, now: SimTime) {
        let TrafficModel::OnOff(o) = self.flows[flow].model else {
            return;
        };
        let (turn_on, dur) = {
            let f = &mut self.flows[flow];
            let rng = f.rng.as_mut().expect("on/off draws");
            let pace = f.pace.as_mut().expect("paced flow");
            if pace.on {
                pace.on = false;
                (false, o.off.sample(rng))
            } else {
                (true, o.on.sample(rng))
            }
        };
        if turn_on {
            self.pace_on(flow, now);
        }
        let at = now + dur;
        if at <= self.end {
            self.sched.schedule_at(at, Event::PaceToggle(flow));
        }
    }

    /// One paced datagram arrived at its client: account one-way latency
    /// and jitter into the flow's class sketches.
    fn note_pace_delivery(&mut self, flow: usize, ident: u16, now: SimTime) {
        let class = self.flows[flow].model.class().code() as usize;
        let Some(pace) = self.flows[flow].pace.as_mut() else {
            return;
        };
        let Some(sent) = pace.sent_at.remove(&ident) else {
            return;
        };
        let lat = now.saturating_duration_since(sent).as_nanos();
        let jitter = pace.last_latency.map(|p| p.abs_diff(lat));
        pace.last_latency = Some(lat);
        self.class_latency[class].record(lat);
        if let Some(j) = jitter {
            self.class_jitter[class].record(j);
        }
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
        self.lens_buf = outcome.meta.mpdu_lens;

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
                    let token = self.mac_timers.arm((sid.0, kind));
                    self.sched
                        .schedule_at(at.max(now), Event::MacTimer(sid, kind, token));
                }
                Action::CancelTimer { kind } => {
                    self.mac_timers.cancel((sid.0, kind));
                }
                Action::Deliver { src: _, msdu } => {
                    self.sched.schedule_at(
                        now + self.cfg.stack_delay,
                        Event::HostRx {
                            station: sid,
                            pkt: msdu.0,
                            native: true,
                        },
                    );
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
                        let sched = &mut self.sched;
                        let stack_delay = self.cfg.stack_delay;
                        side.on_blob_with(&blob.bytes, now, |pkt| {
                            sched.schedule_at(
                                now + stack_delay,
                                Event::HostRx {
                                    station: sid,
                                    pkt,
                                    native: false,
                                },
                            );
                        });
                        if let (Some(flow), Some(before)) = (sup_flow, before) {
                            // Blob post-mortem for the supervisor: CRC
                            // hits, context damage, and clean decodes.
                            let after = self.decompress[sid.0 as usize].stats();
                            let crc = after.crc_failures - before.crc_failures;
                            let repair = (after.no_context + after.malformed)
                                - (before.no_context + before.malformed);
                            let decoded = after.decompressed - before.decompressed;
                            for _ in 0..crc {
                                self.sup_signal(flow, HealthSignal::RohcCrcFailure, now);
                            }
                            for _ in 0..repair {
                                self.sup_signal(flow, HealthSignal::RohcContextRepair, now);
                            }
                            for _ in 0..decoded {
                                self.sup_signal(flow, HealthSignal::BlobDecoded, now);
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
                    // UDP source refill (backlog-fed flows only — paced
                    // sources keep their own clock).
                    if self.layout.is_ap(sid) {
                        if let Some(flow) = self.flow_of_client(from) {
                            if matches!(self.flows[flow].model, TrafficModel::UdpDownload) {
                                self.top_up_udp(flow, now);
                            }
                        }
                    }
                }
                Action::BarReceived { .. } => {}
                Action::MsduDropped { dst, .. } => {
                    if self.layout.is_ap(sid) {
                        if let Some(flow) = self.flow_of_client(dst) {
                            if matches!(self.flows[flow].model, TrafficModel::UdpDownload) {
                                self.top_up_udp(flow, now);
                            }
                        }
                    }
                }
                Action::BarExhausted { .. } => {}
            }
        }
        self.stations[sid.0 as usize].recycle(actions);
    }

    fn start_tx(&mut self, sid: StationId, desc: TxDescriptor<NetPacket>, now: SimTime) {
        let mut mpdu_lens = std::mem::take(&mut self.lens_buf);
        mpdu_lens.clear();
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
                    self.sched.schedule_at(
                        now + self.cfg.dma_delay,
                        Event::InstallBlob {
                            station: sid,
                            peer,
                            bytes,
                            generation,
                        },
                    );
                }
                DriverAction::ClearBlob => {
                    let removed = self.stations[sid.0 as usize].clear_hack_blob(peer);
                    if let Some(old) = removed {
                        if let Some((flow, side)) = self.driver_slot(sid, peer) {
                            self.compress[flow][side].recycle_blob(old.bytes);
                        }
                    }
                }
                DriverAction::SetFlushTimer(at) => {
                    let token = self.flush_timers.arm((sid.0, peer.0));
                    self.sched
                        .schedule_at(at.max(now), Event::HackFlush(sid, peer, token));
                }
                DriverAction::CancelFlushTimer => {
                    // The scheduled HackFlush event still fires but its
                    // token is now stale and it is dropped silently.
                    self.flush_timers.cancel((sid.0, peer.0));
                }
            }
        }
        if let Some((flow, side)) = self.driver_slot(sid, peer) {
            self.compress[flow][side].recycle(dacts);
        }
    }

    // ------------------------------------------------------------------
    // Supervisor
    // ------------------------------------------------------------------

    /// The flow a (station, peer) pair belongs to: whichever end is a
    /// client identifies it.
    fn sup_flow(&self, a: StationId, b: StationId) -> Option<usize> {
        self.flow_of_client(a).or_else(|| self.flow_of_client(b))
    }

    /// Feed one health observation to a flow's supervisor and carry out
    /// whatever it asks for.
    fn sup_signal(&mut self, flow: usize, sig: HealthSignal, now: SimTime) {
        if flow >= self.supervisors.len() {
            return;
        }
        let acts = self.supervisors[flow].on_signal(sig, now);
        if !acts.is_empty() {
            self.apply_supervisor(flow, acts, now);
        }
    }

    /// Report any health incidents the compress side recorded since the
    /// last drain (held-queue spills, stale holds).
    fn drain_driver_health(&mut self, sid: StationId, peer: StationId, now: SimTime) {
        if self.supervisors.is_empty() {
            return;
        }
        let Some(flow) = self.sup_flow(sid, peer) else {
            return;
        };
        let Some((f, side)) = self.driver_slot(sid, peer) else {
            return;
        };
        let health = self.compress[f][side].drain_health();
        for _ in 0..health.spills {
            self.sup_signal(flow, HealthSignal::HeldSpill, now);
        }
        for _ in 0..health.stale_holds {
            self.sup_signal(flow, HealthSignal::HeldAckStale, now);
        }
    }

    /// Materialize supervisor actions for one flow: force/resume the
    /// native path on both compress sides, refresh ROHC contexts, arm
    /// probe timers, and emit the transition trace events.
    fn apply_supervisor(&mut self, flow: usize, actions: Vec<SupervisorAction>, now: SimTime) {
        let client = self.layout.client(flow);
        let ap = self.cur_ap_of_flow(flow);
        for act in actions {
            match act {
                SupervisorAction::ForceNative => self.force_flow_native(flow, ap, now),
                SupervisorAction::ReenableHack => {
                    for side in &mut self.compress[flow] {
                        side.resume_hack();
                    }
                }
                SupervisorAction::RefreshContexts => {
                    // Drop the flow's contexts on all four ROHC parties
                    // (both orientations — downloads ACK on the client
                    // tuple, uploads on its reverse) so the next native
                    // ACK re-seeds them from scratch.
                    for fwd in self.client_tuples(flow) {
                        let rev = fwd.reversed();
                        for side in &mut self.compress[flow] {
                            side.drop_context(&fwd);
                            side.drop_context(&rev);
                        }
                        for sid in [client.0 as usize, ap.0 as usize] {
                            self.decompress[sid].drop_context(&fwd);
                            self.decompress[sid].drop_context(&rev);
                        }
                    }
                }
                SupervisorAction::ScheduleProbe(at) => {
                    let token = self.sup_timers.arm(flow as u32);
                    self.sched
                        .schedule_at(at.max(now), Event::SupProbe(flow, token));
                }
                SupervisorAction::NoteDegraded { score } => {
                    hack_trace::trace_ev!(
                        self.trace,
                        now.as_nanos(),
                        client.0,
                        hack_trace::Event::SupFlowDegraded {
                            flow: flow as u32,
                            score
                        }
                    );
                }
                SupervisorAction::NoteFallback { reason, backoff } => {
                    hack_trace::trace_ev!(
                        self.trace,
                        now.as_nanos(),
                        client.0,
                        hack_trace::Event::SupFallback {
                            flow: flow as u32,
                            reason,
                            backoff_us: backoff.as_micros()
                        }
                    );
                }
                SupervisorAction::NoteProbation { attempt } => {
                    hack_trace::trace_ev!(
                        self.trace,
                        now.as_nanos(),
                        client.0,
                        hack_trace::Event::SupProbation {
                            flow: flow as u32,
                            attempt
                        }
                    );
                }
                SupervisorAction::NoteRecovered { from } => {
                    hack_trace::trace_ev!(
                        self.trace,
                        now.as_nanos(),
                        client.0,
                        hack_trace::Event::SupRecovered {
                            flow: flow as u32,
                            from
                        }
                    );
                }
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
                let cell = self.layout.cell(station);
                let arrive = self.wired[cell].send(false, &pkt, now);
                self.sched.schedule_at(
                    arrive,
                    Event::WiredDeliver {
                        cell,
                        to_ap: false,
                        pkt,
                    },
                );
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
                    let arrive = self.wired[cell].send(true, &pkt, now);
                    self.sched.schedule_at(
                        arrive,
                        Event::WiredDeliver {
                            cell,
                            to_ap: true,
                            pkt,
                        },
                    );
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

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn flow_of_client(&self, sid: StationId) -> Option<usize> {
        self.layout.flow_of_client(sid)
    }

    /// Where in `compress` the driver that `sid` runs toward `peer`
    /// lives, as `(flow, side)`: a client toward the AP serving it right
    /// now (side 0), or that AP toward the client (side 1). Any other
    /// pair has no driver — in particular an association a handoff has
    /// since left, which events scheduled before the roam still name.
    fn driver_slot(&self, sid: StationId, peer: StationId) -> Option<(usize, usize)> {
        if let Some(flow) = self.flow_of_client(sid) {
            (self.cur_ap_of_flow(flow) == peer).then_some((flow, 0))
        } else {
            let flow = self.flow_of_client(peer)?;
            (self.cur_ap_of_flow(flow) == sid).then_some((flow, 1))
        }
    }

    fn flow_of_client_ip(&self, ip: Ipv4Addr) -> Option<usize> {
        self.ip_to_flow.get(&ip).copied()
    }

    /// Five-tuples of `flow`'s client-side endpoints (the TCP
    /// initiators), one per direction pair. Empty for UDP-class flows.
    fn client_tuples(&self, flow: usize) -> Vec<FiveTuple> {
        let client = self.layout.client(flow);
        self.flows[flow]
            .ep_range()
            .filter(|&e| self.endpoints[e].station == Some(client))
            .map(|e| self.endpoints[e].tuple)
            .collect()
    }

    fn top_up_udp(&mut self, flow: usize, now: SimTime) {
        let client = self.layout.client(flow);
        let ap = self.cur_ap_of_flow(flow);
        while self.stations[ap.0 as usize].backlog(client) < self.cfg.ap_queue_cap {
            self.udp_ident = self.udp_ident.wrapping_add(1);
            let pkt = Ipv4Packet {
                src: SERVER_IP,
                dst: self.layout.client_ip(flow),
                ident: self.udp_ident,
                ttl: 64,
                transport: Transport::Udp {
                    src_port: 5001,
                    dst_port: 40_000 + flow as u16,
                    payload_len: 1472,
                },
            };
            let acts = self.stations[ap.0 as usize].enqueue(client, NetPacket(pkt), now);
            self.apply(ap, acts, now);
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

    /// Window length for the estimator-divergence check.
    const EST_WINDOW: SimDuration = SimDuration::from_millis(250);
    /// Minimum per-window byte volume before divergence is judged.
    const EST_MIN_BYTES: u64 = 64 * 1024;
    /// Ratio between acked and sampler-delivered bytes that counts as
    /// divergent (either direction).
    const EST_RATIO: u64 = 4;
    /// Consecutive divergent windows before the supervisor hears it.
    const EST_STRIKES: u32 = 2;

    /// The congestion controller's delivery-rate sampler and the ACK
    /// clock must agree about how many bytes the network delivered.
    /// Sustained disagreement means the estimator feeding cwnd decisions
    /// has come unglued — surfaced as a health signal, and required to
    /// stay silent across the ordinary fault matrix.
    fn check_estimator(&mut self, ep: usize, now: SimTime) {
        if self.supervisors.is_empty() || !self.endpoints[ep].is_sender {
            return;
        }
        let (delivered, acked) = {
            let Some(conn) = self.endpoints[ep].conn.as_ref() else {
                return;
            };
            (conn.delivered(), conn.bytes_acked())
        };
        let e = &mut self.endpoints[ep];
        let Some((start, d0, a0)) = e.est_win else {
            e.est_win = Some((now, delivered, acked));
            return;
        };
        if now < start + Self::EST_WINDOW {
            return;
        }
        let d_delta = delivered.saturating_sub(d0);
        let a_delta = acked.saturating_sub(a0);
        e.est_win = Some((now, delivered, acked));
        let divergent = (a_delta >= Self::EST_MIN_BYTES
            && d_delta.saturating_mul(Self::EST_RATIO) < a_delta)
            || (d_delta >= Self::EST_MIN_BYTES
                && a_delta.saturating_mul(Self::EST_RATIO) < d_delta);
        if divergent {
            e.est_bad_windows += 1;
            if e.est_bad_windows >= Self::EST_STRIKES {
                e.est_bad_windows = 0;
                let flow = e.flow;
                self.sup_signal(flow, HealthSignal::EstimatorDivergence, now);
            }
        } else {
            e.est_bad_windows = 0;
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
                let token = self.tcp_timers.arm(ep as u32);
                self.sched.schedule_at(at, Event::TcpTimer(ep, token));
            }
            None => {
                self.endpoints[ep].timer_at = None;
                self.tcp_timers.cancel(ep as u32);
            }
        }
    }

    /// Is this model's transfer bounded by `cfg.transfer_bytes`?
    fn budgeted(model: TrafficModel) -> bool {
        matches!(
            model,
            TrafficModel::BulkDownload | TrafficModel::BulkUpload | TrafficModel::Bidirectional
        )
    }

    fn check_completion(&mut self, flow: usize, now: SimTime) {
        let Some(target) = self.cfg.transfer_bytes else {
            return;
        };
        if Self::budgeted(self.flows[flow].model) && self.flows[flow].done_at.is_none() {
            let range = self.flows[flow].ep_range();
            let done = range.filter(|&e| !self.endpoints[e].is_sender).all(|e| {
                self.endpoints[e]
                    .conn
                    .as_ref()
                    .is_some_and(|c| c.bytes_delivered() >= target)
            });
            if done {
                self.flows[flow].done_at = Some(now);
                let fct = now.saturating_duration_since(self.flow_start_at[flow]);
                let class = self.flows[flow].model.class().code() as usize;
                self.class_fct[class].record(fct.as_nanos());
                self.class_transfers[class] += 1;
            }
        }
        // The run ends early only when every flow is byte-budgeted and
        // every one has finished (the historical all-bulk semantics).
        let all_done = self
            .flows
            .iter()
            .all(|f| Self::budgeted(f.model) && f.done_at.is_some());
        if all_done {
            self.completion = Some(now);
        }
    }

    fn collect(self) -> RunResult {
        #[cfg(feature = "evprof")]
        for (i, (n, ns)) in self.evprof.iter().enumerate() {
            if *n > 0 {
                eprintln!(
                    "evprof {:<16} {:>9} events  {:>8.1} ns/event  {:>7.1} ms total",
                    Event::KIND_NAMES[i],
                    n,
                    *ns as f64 / *n as f64,
                    *ns as f64 / 1e6,
                );
            }
        }
        let n = self.layout.n_flows();
        let last_start = self
            .flow_start_at
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO);
        let measure_from = last_start + self.cfg.warmup;
        let end = self.completion.unwrap_or(self.end);
        let first_start = self.flow_start_at.first().copied().unwrap_or(SimTime::ZERO);

        let flow_goodput_mbps: Vec<f64> = self
            .meters
            .iter()
            .map(|m| m.mbps_between(measure_from, end))
            .collect();
        let flow_goodput_full_mbps: Vec<f64> = self
            .meters
            .iter()
            .map(|m| m.mbps_between(first_start, end))
            .collect();
        // Final-window goodput: the stall detector. Short enough to
        // catch a flow that died mid-run, long enough to span several
        // RTTs even on short runs.
        let final_window = SimDuration::from_millis(500).min(self.cfg.duration / 2);
        let final_from = end.saturating_duration_since(first_start).min(final_window);
        let final_from = end - final_from;
        let flow_goodput_final_mbps: Vec<f64> = self
            .meters
            .iter()
            .map(|m| m.mbps_between(final_from, end))
            .collect();

        let mac: Vec<_> = self.stations.iter().map(|s| s.stats().clone()).collect();
        let mut driver = Vec::new();
        let mut driver_ap = Vec::new();
        let mut compressor = Vec::new();
        for i in 0..n {
            // Roam-aware: the flow's driver is keyed to whichever AP it
            // ended the run associated with.
            let [client_side, ap_side] = &self.compress[i];
            driver.push(client_side.stats().clone());
            compressor.push(client_side.compressor_stats().clone());
            // The AP-side driver of the same association — the holder of
            // upload/bidirectional reverse-path ACKs.
            driver_ap.push(ap_side.stats().clone());
        }
        let within: u64 = mac.iter().map(|m| m.blob_within_aifs.get()).sum();
        let beyond: u64 = mac.iter().map(|m| m.blob_beyond_aifs.get()).sum();
        let blob_within_aifs = if within + beyond == 0 {
            1.0
        } else {
            within as f64 / (within + beyond) as f64
        };

        let mut sender_tcp = Vec::new();
        let mut receiver_tcp = Vec::new();
        if !self.endpoints.is_empty() {
            // Per-flow primary-direction TCP stats: the first sender /
            // receiver endpoint of the flow's range (defaults for
            // endpoint-less UDP-class flows in mixed worlds).
            for flow in 0..n {
                let stats_of = |sender: bool| {
                    self.flows[flow]
                        .ep_range()
                        .find(|&e| self.endpoints[e].is_sender == sender)
                        .and_then(|e| self.endpoints[e].conn.as_ref())
                        .map(|c| c.stats().clone())
                        .unwrap_or_default()
                };
                sender_tcp.push(stats_of(true));
                receiver_tcp.push(stats_of(false));
            }
        }

        let mut classes = Vec::new();
        for class in TrafficClass::ALL {
            let idx: Vec<usize> = (0..n)
                .filter(|&i| self.flows[i].model.class() == class)
                .collect();
            if idx.is_empty() {
                continue;
            }
            let c = class.code() as usize;
            classes.push(ClassReport {
                class,
                flows: idx.len(),
                transfers: self.class_transfers[c],
                goodput_mbps: idx.iter().map(|&i| flow_goodput_mbps[i]).sum(),
                fct: self.class_fct[c].clone(),
                latency: self.class_latency[c].clone(),
                jitter: self.class_jitter[c].clone(),
            });
        }
        let flow_completion: Vec<Option<SimTime>> =
            self.flows.iter().map(|f| f.done_at).collect();

        RunResult {
            events_dispatched: self.sched.dispatched(),
            aggregate_goodput_mbps: flow_goodput_mbps.iter().sum(),
            flow_goodput_mbps,
            flow_goodput_full_mbps,
            flow_completion,
            classes,
            mac,
            driver,
            driver_ap,
            compressor,
            decompressor: {
                // Aggregate across every AP's decompressor (the single
                // AP's stats, verbatim, on legacy worlds).
                let mut dec = DecompressStats::default();
                for c in &self.layout.cells {
                    dec.merge(self.decompress[c.ap.0 as usize].stats());
                }
                dec
            },
            ppdus: self.medium.completed(),
            collisions: self.medium.collisions(),
            ap_queue_drops: self.ap_queue_drops,
            sender_tcp,
            receiver_tcp,
            blob_within_aifs,
            supervisor: self
                .supervisors
                .iter()
                .map(FlowSupervisor::report)
                .collect(),
            flow_goodput_final_mbps,
            roams: self.roam.as_ref().map_or(0, |r| r.roams),
        }
    }
}

/// Run one scenario to completion.
///
/// Thin shim over [`World::builder`]`(cfg).run()` (use that in new
/// code).
pub fn run(cfg: ScenarioConfig) -> RunResult {
    World::builder(cfg).run()
}

/// Run one scenario to completion with a structured-event trace sink
/// attached to every layer.
///
/// Thin shim over [`World::builder`]`(cfg).trace(trace).run()` (use
/// that in new code).
pub fn run_traced(cfg: ScenarioConfig, trace: TraceHandle) -> RunResult {
    World::builder(cfg).trace(trace).run()
}
