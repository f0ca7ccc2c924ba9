//! Scenario configuration and results — the experiment-facing API.

use hack_mac::{AssocConfig, MacStats};
use hack_phy::{CorruptModel, GeParams, InterferenceConfig, RoamTrigger, Waypoint};
use hack_rohc::{CompressStats, DecompressStats};
use hack_sim::{QuantileSketch, SimDuration, SimTime};
use hack_tcp::{CcKind, TcpStats};

use crate::driver::{CompressSideStats, HackMode, DEFAULT_HELD_CAP};
use crate::supervisor::{SupervisorConfig, SupervisorReport};
use crate::traffic::{TrafficClass, TrafficModel};

/// Which 802.11 flavour the cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Standard {
    /// 802.11a DCF, single MPDUs + ACKs.
    Dot11a {
        /// PHY rate in Mbps (6–54).
        rate_mbps: u64,
    },
    /// 802.11n EDCA with A-MPDU aggregation + Block ACKs.
    Dot11n {
        /// PHY rate in Mbps (HT40/SGI grid).
        rate_mbps: u64,
    },
}

/// Stochastic loss environment.
#[derive(Debug, Clone, PartialEq)]
pub enum LossConfig {
    /// Lossless links (collisions still occur).
    Ideal,
    /// Fixed per-client MPDU loss probability, indexed by client.
    PerClient(Vec<f64>),
    /// SNR-driven loss with every client at the given distance from the
    /// AP (the Figure 11 sweep).
    SnrDistance(f64),
    /// Gilbert–Elliott bursty loss, identical parameters on every link
    /// (fading clusters losses; same mean rate as an i.i.d. model with
    /// [`GeParams::expected_loss`]).
    Burst(GeParams),
}

/// One BSS in a dense multi-BSS deployment: where its AP sits, which
/// channel it runs, and how many clients associate with it.
///
/// An empty `ScenarioConfig::bss` means the legacy single-cell world
/// (one implicit AP, `n_clients` clients) — byte-identical to every
/// pre-dense run. A non-empty list replaces it: the world gets one AP
/// per spec, stations are numbered AP₀, its clients, AP₁, its clients, …
/// and the interference graph is derived from the placements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BssSpec {
    /// AP x coordinate (m).
    pub x: f64,
    /// AP y coordinate (m).
    pub y: f64,
    /// 2.4 GHz channel number (1–11; |Δ| ≥ 5 means orthogonal).
    pub channel: u8,
    /// Number of clients in this BSS.
    pub n_clients: usize,
}

impl BssSpec {
    /// Enterprise-floor preset: a √n×√n grid of APs at 25 m spacing with
    /// a proper 1/6/11 reuse-3 channel plan. Co-channel APs end up ≥
    /// 35 m apart (diagonal), past the default 30 m co-channel range,
    /// and 1/6/11 are mutually orthogonal — so the derived interference
    /// graph has **zero** edges and every BSS shards independently.
    pub fn enterprise_floor(n_bss: usize, clients_per_bss: usize) -> Vec<BssSpec> {
        let cols = (n_bss as f64).sqrt().ceil().max(1.0) as usize;
        (0..n_bss)
            .map(|i| {
                let (row, col) = (i / cols, i % cols);
                BssSpec {
                    x: col as f64 * 25.0,
                    y: row as f64 * 25.0,
                    // (col + 2·row) mod 3 colours every orthogonal
                    // neighbour pair differently; the surviving
                    // co-channel pairs sit on the long diagonal.
                    channel: [1, 6, 11][(col + 2 * row) % 3],
                    n_clients: clients_per_bss,
                }
            })
            .collect()
    }

    /// Apartment-block preset: APs along a corridor at 8 m spacing,
    /// channels alternating 1/6. Next-nearest neighbours share a channel
    /// 16 m apart — inside the default 30 m co-channel range — so each
    /// channel's APs chain into one interference component: the derived
    /// graph has two multi-BSS shards (odd and even units).
    pub fn apartment_block(n_bss: usize, clients_per_bss: usize) -> Vec<BssSpec> {
        (0..n_bss)
            .map(|i| BssSpec {
                x: i as f64 * 8.0,
                y: 0.0,
                channel: if i % 2 == 0 { 1 } else { 6 },
                n_clients: clients_per_bss,
            })
            .collect()
    }
}

/// One scheduled mid-run change to the channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelEvent {
    /// When the change takes effect, measured from simulation start.
    pub at: SimDuration,
    /// What changes.
    pub change: ChannelChange,
}

/// The kinds of mid-run channel dynamics a scenario can schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelChange {
    /// Set the global SNR offset in dB (a cell-wide fade or recovery;
    /// only meaningful under [`LossConfig::SnrDistance`]).
    SnrOffsetDb(f64),
    /// Set one client's fixed per-MPDU loss rate (loss-rate step).
    ClientLoss {
        /// Client index (0-based).
        client: usize,
        /// New per-MPDU loss probability.
        per: f64,
    },
    /// Move one client to new coordinates in metres (station mobility;
    /// only meaningful when a propagation channel is modelled).
    MoveClient {
        /// Client index (0-based).
        client: usize,
        /// New x coordinate (m).
        x: f64,
        /// New y coordinate (m).
        y: f64,
    },
}

/// One scheduled roam: hand `flow`'s client off to the AP of
/// `target_bss` starting at `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoamEvent {
    /// Flow (= client) index, in global numbering.
    pub flow: usize,
    /// When the roam triggers, measured from simulation start.
    pub at: SimDuration,
    /// Target BSS index in `ScenarioConfig::bss`.
    pub target_bss: usize,
}

/// A waypoint trajectory for one client; the mobility tick samples it
/// and drives `place_station`, and (with a [`RoamTrigger`] configured)
/// moves can trip SNR-based roams.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientPath {
    /// Client index (0-based, global numbering).
    pub client: usize,
    /// The path; see [`hack_phy::mobility::Trajectory`].
    pub waypoints: Vec<Waypoint>,
}

/// Station mobility and AP-roaming configuration. The default is
/// entirely inert: no schedule, no trigger, no paths — and an inert
/// roam config adds **zero** events, RNG draws, or trace records, so
/// every roam-free scenario keeps its byte-identical trace digest.
#[derive(Debug, Clone, PartialEq)]
pub struct RoamConfig {
    /// Scheduled roams, applied in `at` order. Requires a multi-BSS
    /// layout (`bss` non-empty) — the legacy single-cell world has
    /// nowhere to roam to.
    pub schedule: Vec<RoamEvent>,
    /// SNR/hysteresis roam trigger, evaluated after every station move
    /// (scheduled dynamics or waypoint ticks). `None` = never.
    pub trigger: Option<RoamTrigger>,
    /// Waypoint trajectories driving client positions.
    pub paths: Vec<ClientPath>,
    /// Sampling period for waypoint paths (and trigger evaluation along
    /// them).
    pub mobility_tick: SimDuration,
    /// Per-BSS HACK capability of the APs, indexed like `bss`; missing
    /// entries default to capable. A roam onto an incapable AP
    /// renegotiates HACK *off* for the flow until it roams again.
    pub ap_hack_capable: Vec<bool>,
    /// Association state-machine timing (scan delay, retry backoff,
    /// retry budget).
    pub assoc: AssocConfig,
    /// Probability an association attempt fails (drawn from the
    /// dedicated roam RNG fork; exercises the retry/give-up path).
    pub assoc_fail_prob: f64,
    /// RTO backoff clamp pinned on the flow's endpoints for the
    /// blackout's duration: at most this many doublings.
    pub rto_clamp_shift: u32,
    /// Per-flow bound on packets parked during a blackout; beyond it
    /// a newly arriving packet is tail-dropped (counted as an AP queue
    /// drop).
    pub park_cap: usize,
}

impl Default for RoamConfig {
    fn default() -> Self {
        RoamConfig {
            schedule: Vec::new(),
            trigger: None,
            paths: Vec::new(),
            mobility_tick: SimDuration::from_millis(100),
            ap_hack_capable: Vec::new(),
            assoc: AssocConfig::default(),
            assoc_fail_prob: 0.0,
            rto_clamp_shift: 1,
            park_cap: 126,
        }
    }
}

impl RoamConfig {
    /// Whether this config can cause any roaming or mobility at all.
    /// Inactive configs must leave runs byte-identical to pre-roam
    /// builds.
    pub fn is_active(&self) -> bool {
        !self.schedule.is_empty() || self.trigger.is_some() || !self.paths.is_empty()
    }
}

/// Full description of one simulation run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// MAC/PHY flavour and rate.
    pub standard: Standard,
    /// Number of wireless clients.
    pub n_clients: usize,
    /// HACK variant at every compress side.
    pub hack_mode: HackMode,
    /// Default traffic model for every flow (see `traffic_mix` for
    /// per-flow overrides).
    pub traffic: TrafficModel,
    /// Per-flow traffic-model overrides, indexed by flow; flows past
    /// the end of the list (and an empty list — the default) use
    /// `traffic`. This is what makes mixed workloads first-class: a
    /// cell can run bulk HACK flows next to VoIP CBR and short flows.
    pub traffic_mix: Vec<TrafficModel>,
    /// TCP delayed ACK at receivers.
    pub delayed_ack: bool,
    /// TCP sender lives on the AP itself (the SoRa testbed) instead of
    /// behind the wired backhaul (the §4.3 simulations).
    pub server_at_ap: bool,
    /// Per-client AP transmit-queue capacity in packets (§4.3 sizes this
    /// at 126 = three 42-packet batches).
    pub ap_queue_cap: usize,
    /// Loss environment.
    pub loss: LossConfig,
    /// Corrupted-delivery fault injection (`None` = plain drops).
    pub corrupt: Option<CorruptModel>,
    /// Scheduled mid-run channel dynamics, applied in `at` order.
    pub dynamics: Vec<ChannelEvent>,
    /// Host network-stack turnaround (data in → ACK out). Must exceed
    /// SIFS — that gap is the premise of the whole design (§2.2).
    pub stack_delay: SimDuration,
    /// Driver→NIC DMA latency for compressed-ACK descriptors (§3.3.1).
    pub dma_delay: SimDuration,
    /// Wall-clock length of the run.
    pub duration: SimDuration,
    /// Per-flow transfer size; `None` = saturating flow for the whole
    /// run.
    pub transfer_bytes: Option<u64>,
    /// Gap between successive clients' flow starts (mitigates phase
    /// effects, §4.3).
    pub stagger: SimDuration,
    /// Steady-state measurement starts this long after the *last* flow
    /// start.
    pub warmup: SimDuration,
    /// RNG seed (equal seeds ⇒ identical runs).
    pub seed: u64,
    /// Apply the SoRa radio quirks (late LL ACKs + stretched timeout).
    pub sora_quirks: bool,
    /// Receiver-advertised TCP window in bytes. The testbed-era default
    /// (128 KB) keeps a single flow from bloating the AP queue past the
    /// minimum RTO; the ns-3 experiments use a 1 MB window with the
    /// 126-packet AP queue doing the limiting.
    pub rcv_window: u32,
    /// Disable the §3.4 SYNC-bit retention machinery (ablation only).
    pub disable_sync: bool,
    /// Override the TXOP limit (ablation; `None` = the standard 4 ms).
    pub txop_limit: Option<SimDuration>,
    /// Override the MAC retry limit (ablation; `None` = the standard 7).
    pub retry_limit: Option<u32>,
    /// Per-flow HACK supervisor (health monitoring + graceful fallback
    /// to native ACKs). `None` disables supervision entirely — the
    /// pre-supervisor behaviour, byte-identical traces included.
    pub supervisor: Option<SupervisorConfig>,
    /// Per-client HACK capability advertised at association time,
    /// indexed by client; missing entries default to capable. An
    /// incapable client negotiates HACK off with the AP and its flow
    /// runs native ACKs permanently.
    pub client_hack_capable: Vec<bool>,
    /// Bound on each compress side's held-ACK queue; the oldest held
    /// ACK spills to the native path when a new hold would exceed it.
    pub held_cap: usize,
    /// Congestion-control algorithm at every TCP sender.
    pub cc: CcKind,
    /// Dense multi-BSS layout; empty = the legacy single-cell world
    /// (one implicit AP serving `n_clients` clients).
    pub bss: Vec<BssSpec>,
    /// Ranges deciding when two BSSs interfere (ignored when `bss` is
    /// empty).
    pub interference: InterferenceConfig,
    /// Station mobility and AP roaming (default: inert).
    pub roam: RoamConfig,
}

/// Which 802.11 flavour a [`ScenarioBuilder`] targets; the PHY rate is
/// set separately via [`ScenarioBuilder::rate_mbps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StandardKind {
    /// 802.11a DCF, single MPDUs + ACKs.
    Dot11a,
    /// 802.11n EDCA with A-MPDU aggregation + Block ACKs.
    Dot11n,
}

/// Typed step-by-step construction of a [`ScenarioConfig`].
///
/// This is the supported way to build scenarios:
///
/// ```
/// use hack_core::{HackMode, ScenarioConfig, StandardKind};
///
/// let cfg = ScenarioConfig::builder()
///     .standard(StandardKind::Dot11n)
///     .rate_mbps(150)
///     .clients(4)
///     .hack(HackMode::MoreData)
///     .build();
/// assert_eq!(cfg.n_clients, 4);
/// ```
///
/// Every setter has the §4.3 802.11n download defaults, so only the
/// fields a scenario cares about need spelling out.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    kind: StandardKind,
    rate_mbps: u64,
    cfg: ScenarioConfig,
}

impl ScenarioBuilder {
    /// Builder preset: the paper's §4.3 802.11n download setup (wired
    /// server, 126-packet per-client AP queue). The returned builder
    /// can be refined further before `build()`.
    pub fn dot11n_download(rate_mbps: u64, n_clients: usize, hack_mode: HackMode) -> Self {
        ScenarioConfig::builder()
            .standard(StandardKind::Dot11n)
            .rate_mbps(rate_mbps)
            .clients(n_clients)
            .hack(hack_mode)
    }

    /// Builder preset: the SoRa testbed setup (§4.1–4.2) — 802.11a at
    /// 54 Mbps, sender on the AP, SoRa's late LL ACKs, client 1
    /// lossier than client 2, 128 KB receive window. The returned
    /// builder can be refined further before `build()`.
    pub fn sora_testbed(n_clients: usize, hack_mode: HackMode) -> Self {
        let per: Vec<f64> = (0..n_clients)
            .map(|i| if i == 0 { 0.025 } else { 0.02 })
            .collect();
        ScenarioConfig::builder()
            .standard(StandardKind::Dot11a)
            .rate_mbps(54)
            .clients(n_clients)
            .hack(hack_mode)
            .server_at_ap(true)
            // The testbed's sender runs on the AP with an ordinary driver
            // queue ("Linux drivers usually use buffer sizes of 1000
            // packets", §4.3) — flows end up receive-window-limited, not
            // tail-drop-limited.
            .ap_queue_cap(1000)
            .loss(LossConfig::PerClient(per))
            .stagger(SimDuration::from_millis(200))
            .sora_quirks(true)
            .rcv_window(128 * 1024)
    }

    /// 802.11 flavour (default: [`StandardKind::Dot11n`]).
    pub fn standard(mut self, kind: StandardKind) -> Self {
        self.kind = kind;
        self
    }

    /// PHY rate in Mbps (default: 150).
    pub fn rate_mbps(mut self, rate: u64) -> Self {
        self.rate_mbps = rate;
        self
    }

    /// Number of wireless clients (default: 1).
    pub fn clients(mut self, n: usize) -> Self {
        self.cfg.n_clients = n;
        self
    }

    /// HACK variant at every compress side (default: disabled).
    pub fn hack(mut self, mode: HackMode) -> Self {
        self.cfg.hack_mode = mode;
        self
    }

    /// Default traffic model for every flow (default: bulk TCP
    /// download).
    pub fn traffic(mut self, traffic: TrafficModel) -> Self {
        self.cfg.traffic = traffic;
        self
    }

    /// Per-flow traffic-model overrides, indexed by flow; flows past
    /// the end of the list fall back to the default model (default:
    /// empty — every flow runs the default).
    pub fn traffic_mix(mut self, mix: Vec<TrafficModel>) -> Self {
        self.cfg.traffic_mix = mix;
        self
    }

    /// TCP delayed ACK at receivers (default: on).
    pub fn delayed_ack(mut self, on: bool) -> Self {
        self.cfg.delayed_ack = on;
        self
    }

    /// Put the TCP sender on the AP itself instead of behind the wired
    /// backhaul (default: behind the backhaul).
    pub fn server_at_ap(mut self, on: bool) -> Self {
        self.cfg.server_at_ap = on;
        self
    }

    /// Per-client AP transmit-queue capacity in packets (default: 126).
    pub fn ap_queue_cap(mut self, cap: usize) -> Self {
        self.cfg.ap_queue_cap = cap;
        self
    }

    /// Loss environment (default: ideal links).
    pub fn loss(mut self, loss: LossConfig) -> Self {
        self.cfg.loss = loss;
        self
    }

    /// Corrupted-delivery fault injection (default: plain drops).
    pub fn corrupt(mut self, model: CorruptModel) -> Self {
        self.cfg.corrupt = Some(model);
        self
    }

    /// Scheduled mid-run channel dynamics (default: none).
    pub fn dynamics(mut self, dynamics: Vec<ChannelEvent>) -> Self {
        self.cfg.dynamics = dynamics;
        self
    }

    /// Host network-stack turnaround (default: 30 µs).
    pub fn stack_delay(mut self, d: SimDuration) -> Self {
        self.cfg.stack_delay = d;
        self
    }

    /// Driver→NIC DMA latency (default: 15 µs).
    pub fn dma_delay(mut self, d: SimDuration) -> Self {
        self.cfg.dma_delay = d;
        self
    }

    /// Wall-clock length of the run (default: 10 s).
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.cfg.duration = d;
        self
    }

    /// Fixed per-flow transfer size (default: saturating flows).
    pub fn transfer_bytes(mut self, bytes: u64) -> Self {
        self.cfg.transfer_bytes = Some(bytes);
        self
    }

    /// Gap between successive clients' flow starts (default: 500 ms).
    pub fn stagger(mut self, d: SimDuration) -> Self {
        self.cfg.stagger = d;
        self
    }

    /// Steady-state warmup after the last flow start (default: 1 s).
    pub fn warmup(mut self, d: SimDuration) -> Self {
        self.cfg.warmup = d;
        self
    }

    /// RNG seed (default: 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Apply the SoRa radio quirks (default: off).
    pub fn sora_quirks(mut self, on: bool) -> Self {
        self.cfg.sora_quirks = on;
        self
    }

    /// Receiver-advertised TCP window in bytes (default: 1 MB).
    pub fn rcv_window(mut self, bytes: u32) -> Self {
        self.cfg.rcv_window = bytes;
        self
    }

    /// Disable the §3.4 SYNC-bit retention machinery (ablation only).
    pub fn disable_sync(mut self, off: bool) -> Self {
        self.cfg.disable_sync = off;
        self
    }

    /// Override the TXOP limit (default: the standard 4 ms).
    pub fn txop_limit(mut self, d: SimDuration) -> Self {
        self.cfg.txop_limit = Some(d);
        self
    }

    /// Override the MAC retry limit (default: the standard 7).
    pub fn retry_limit(mut self, limit: u32) -> Self {
        self.cfg.retry_limit = Some(limit);
        self
    }

    /// Enable the per-flow HACK supervisor (default: unsupervised).
    pub fn supervisor(mut self, cfg: SupervisorConfig) -> Self {
        self.cfg.supervisor = Some(cfg);
        self
    }

    /// Per-client HACK capability advertised at association (default:
    /// all capable).
    pub fn client_hack_capable(mut self, capable: Vec<bool>) -> Self {
        self.cfg.client_hack_capable = capable;
        self
    }

    /// Bound on each compress side's held-ACK queue (default:
    /// [`DEFAULT_HELD_CAP`]).
    pub fn held_cap(mut self, cap: usize) -> Self {
        self.cfg.held_cap = cap;
        self
    }

    /// Congestion-control algorithm at every TCP sender (default:
    /// NewReno, the paper's sender).
    pub fn cc(mut self, cc: CcKind) -> Self {
        self.cfg.cc = cc;
        self
    }

    /// Dense multi-BSS layout (default: empty = the legacy single-cell
    /// world). Also sets `n_clients` to the total across all BSSs, so
    /// per-flow vectors (losses, capabilities) keep their meaning.
    pub fn bss(mut self, bss: Vec<BssSpec>) -> Self {
        self.cfg.n_clients = bss.iter().map(|b| b.n_clients).sum();
        self.cfg.bss = bss;
        self
    }

    /// Interference ranges for the dense layout (default:
    /// [`InterferenceConfig::default`]).
    pub fn interference(mut self, cfg: InterferenceConfig) -> Self {
        self.cfg.interference = cfg;
        self
    }

    /// Station mobility and AP roaming (default: inert — no schedule,
    /// trigger, or paths).
    pub fn roam(mut self, roam: RoamConfig) -> Self {
        self.cfg.roam = roam;
        self
    }

    /// Resolve the builder into a [`ScenarioConfig`].
    #[must_use]
    pub fn build(self) -> ScenarioConfig {
        let mut cfg = self.cfg;
        cfg.standard = match self.kind {
            StandardKind::Dot11a => Standard::Dot11a {
                rate_mbps: self.rate_mbps,
            },
            StandardKind::Dot11n => Standard::Dot11n {
                rate_mbps: self.rate_mbps,
            },
        };
        cfg
    }
}

impl ScenarioConfig {
    /// Start building a scenario from the §4.3 802.11n download
    /// defaults (wired server, ideal links, 126-packet AP queue,
    /// 150 Mbps, one client, HACK disabled).
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            kind: StandardKind::Dot11n,
            rate_mbps: 150,
            cfg: ScenarioConfig {
                standard: Standard::Dot11n { rate_mbps: 150 },
                n_clients: 1,
                hack_mode: HackMode::Disabled,
                traffic: TrafficModel::BulkDownload,
                traffic_mix: Vec::new(),
                delayed_ack: true,
                server_at_ap: false,
                ap_queue_cap: 126,
                loss: LossConfig::Ideal,
                corrupt: None,
                dynamics: Vec::new(),
                stack_delay: SimDuration::from_micros(30),
                dma_delay: SimDuration::from_micros(15),
                duration: SimDuration::from_secs(10),
                transfer_bytes: None,
                stagger: SimDuration::from_millis(500),
                warmup: SimDuration::from_secs(1),
                seed: 1,
                sora_quirks: false,
                rcv_window: 1 << 20,
                disable_sync: false,
                txop_limit: None,
                retry_limit: None,
                supervisor: None,
                client_hack_capable: Vec::new(),
                held_cap: DEFAULT_HELD_CAP,
                cc: CcKind::Reno,
                bss: Vec::new(),
                interference: InterferenceConfig::default(),
                roam: RoamConfig::default(),
            },
        }
    }

    /// The traffic model of flow `flow`: its `traffic_mix` override if
    /// one exists, else the scenario default.
    pub fn model_of(&self, flow: usize) -> TrafficModel {
        self.traffic_mix.get(flow).copied().unwrap_or(self.traffic)
    }
}

/// Per-traffic-class metrics: flow-completion-time, latency, and
/// jitter percentiles from streaming [`QuantileSketch`]es, plus the
/// class's share of goodput. One entry per class with ≥ 1 flow,
/// ordered by class code.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// The flow class.
    pub class: TrafficClass,
    /// Number of flows in the class.
    pub flows: usize,
    /// Completed transfers across the class's flows (short flows
    /// complete many; a bulk flow with a byte budget completes once).
    pub transfers: u64,
    /// Aggregate steady-state goodput of the class (Mbps).
    pub goodput_mbps: f64,
    /// Flow/transfer completion times (ns). For short flows, one
    /// sample per transfer; for byte-budgeted bulk flows, one per
    /// flow.
    pub fct: QuantileSketch,
    /// Per-packet one-way latency (ns) — paced UDP classes only.
    pub latency: QuantileSketch,
    /// Per-packet latency jitter (|Δ latency|, ns) — paced UDP
    /// classes only.
    pub jitter: QuantileSketch,
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-flow goodput (Mbps) over the steady-state window.
    pub flow_goodput_mbps: Vec<f64>,
    /// Aggregate steady-state goodput (Mbps).
    pub aggregate_goodput_mbps: f64,
    /// Per-flow goodput (Mbps) over the whole run including slow start
    /// (what Figure 11 averages).
    pub flow_goodput_full_mbps: Vec<f64>,
    /// Per-flow completion time: when the flow's byte budget (or its
    /// short-flow transfer sequence's first budget) finished, `None`
    /// for saturating flows that run to the end of the scenario.
    pub flow_completion: Vec<Option<SimTime>>,
    /// Per-class metrics (FCT/latency/jitter sketches); empty only for
    /// zero-flow worlds.
    pub classes: Vec<ClassReport>,
    /// Per-station MAC statistics (index 0 = AP, then clients).
    pub mac: Vec<MacStats>,
    /// Per-client compress-side driver statistics.
    pub driver: Vec<CompressSideStats>,
    /// Per-client AP-side (AP → client direction) compress-side driver
    /// statistics — nonzero `hacked_acks` here means the *AP* held and
    /// compressed ACKs for a client-bound data stream (bidirectional
    /// traffic).
    pub driver_ap: Vec<CompressSideStats>,
    /// Per-client compressor statistics.
    pub compressor: Vec<CompressStats>,
    /// Decompressor statistics, summed over both ends of every flow's
    /// link.
    pub decompressor: DecompressStats,
    /// Completed PPDUs on the medium.
    pub ppdus: u64,
    /// Total discrete events dispatched by the scheduler. Cancelled
    /// events are not dispatched, and a batch of same-instant host
    /// deliveries is one event.
    pub events_dispatched: u64,
    /// PPDUs corrupted by collisions.
    pub collisions: u64,
    /// Packets tail-dropped at the AP queue.
    pub ap_queue_drops: u64,
    /// TCP statistics of the data senders (per flow).
    pub sender_tcp: Vec<TcpStats>,
    /// TCP statistics of the data receivers (per flow).
    pub receiver_tcp: Vec<TcpStats>,
    /// Fraction of blob-carrying LL ACKs whose blob extension fits
    /// within AIFS (the paper's 98.5 % claim, §3.3.2 fn 7).
    pub blob_within_aifs: f64,
    /// Per-flow supervisor outcomes (empty when supervision is off).
    pub supervisor: Vec<SupervisorReport>,
    /// Per-flow goodput (Mbps) over the final window of the run — the
    /// stall detector: a live flow has nonzero goodput here even under
    /// faults, a stalled one does not.
    pub flow_goodput_final_mbps: Vec<f64>,
    /// Completed AP handoffs (re-associations, including give-up
    /// returns to the previous AP). Zero in roam-free runs.
    pub roams: u64,
}

impl RunResult {
    /// Table 1's row: fraction of data MPDUs needing no retries, over
    /// the AP's transmissions (the AP sends the data in downloads).
    pub fn ap_first_try_fraction(&self) -> Option<f64> {
        self.mac.first().and_then(MacStats::first_try_fraction)
    }

    /// Derived aggregate completion: the time at which every
    /// byte-budgeted flow completed — `Some(max)` when all flows
    /// completed, `None` otherwise (the old `completion` field).
    pub fn completion(&self) -> Option<SimTime> {
        self.flow_completion
            .iter()
            .copied()
            .try_fold(SimTime::ZERO, |acc, c| c.map(|t| acc.max(t)))
    }

    /// The [`ClassReport`] for `class`, if the run had such flows.
    pub fn class(&self, class: TrafficClass) -> Option<&ClassReport> {
        self.classes.iter().find(|c| c.class == class)
    }
}

/// [`RunResult::blob_within_aifs`] over a fleet of stations' MAC stats:
/// the share of blob-carrying LL ACKs whose blob fits within AIFS (1
/// when no blob rode at all).
pub(crate) fn blob_within_aifs(mac: &[MacStats]) -> f64 {
    let within: u64 = mac.iter().map(|m| m.blob_within_aifs.get()).sum();
    let beyond: u64 = mac.iter().map(|m| m.blob_beyond_aifs.get()).sum();
    if within + beyond == 0 {
        1.0
    } else {
        within as f64 / (within + beyond) as f64
    }
}
