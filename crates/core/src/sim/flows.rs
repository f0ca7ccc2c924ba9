//! Flows: the TCP endpoints, the per-model lifecycle state machines
//! (short-flow restarts, UDP pacing), the per-class accumulators, and
//! the `World` glue that schedules and routes what they return.

use std::collections::VecDeque;

use hack_phy::StationId;
use hack_sim::{FastMap, QuantileSketch, SimDuration, SimRng, SimTime};
use hack_tcp::{Connection, FiveTuple, SendBudget, TcpConfig};
use hack_trace::TraceHandle;

use super::health::EndpointWatch;
use super::topology::Layout;
use super::{Event, World};
use crate::packet::NetPacket;
use crate::scenario::ScenarioConfig;
use crate::traffic::{OnOffConfig, ShortFlowConfig, TrafficModel};

/// One TCP endpoint living somewhere in the network.
pub(super) struct Endpoint {
    pub(super) conn: Option<Connection>,
    /// `None` = behind the wired backhaul; `Some(sid)` = on a wireless
    /// station (client, or the AP when `server_at_ap`).
    pub(super) station: Option<StationId>,
    pub(super) tuple: FiveTuple,
    pub(super) flow: usize,
    /// Role: the flow's data sender?
    pub(super) is_sender: bool,
    budget: SendBudget,
    tcp_cfg: TcpConfig,
    iss: u32,
    pub(super) delivered_recorded: u64,
    /// When the armed TCP timer event fires, which may be before the
    /// connection's deadline (see `World::resched_tcp`); `None` when
    /// nothing is armed.
    pub(super) timer_at: Option<SimTime>,
    /// What the supervisor has already heard about this endpoint.
    pub(super) watch: EndpointWatch,
}

/// A listening server connection on `tuple`'s far side. `host` is the
/// station the server runs on (`None` = behind the wired backhaul).
fn server_conn(
    tcp_cfg: &TcpConfig,
    tuple: FiveTuple,
    iss: u32,
    budget: SendBudget,
    trace: &TraceHandle,
    host: Option<StationId>,
) -> Connection {
    let mut conn = Connection::server(tcp_cfg.clone(), tuple.reversed(), iss);
    conn.set_budget(budget);
    conn.set_trace(trace.clone(), host.map_or(u32::MAX, |s| s.0));
    conn
}

/// Mid-run state of one short-flow ([`TrafficModel::ShortFlows`]) flow.
pub(super) struct ShortState {
    cfg: ShortFlowConfig,
    /// The flow's own draw stream (sizes and think gaps).
    rng: SimRng,
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

impl ShortState {
    fn new(cfg: ShortFlowConfig, rng: SimRng) -> ShortState {
        ShortState {
            cfg,
            rng,
            target: 0,
            in_transfer: false,
            started: SimTime::ZERO,
            generation: 0,
        }
    }

    /// A transfer starts at `now` and ends once the receiver's
    /// cumulative delivered count reaches `target`.
    fn arm(&mut self, target: u64, now: SimTime) {
        self.target = target;
        self.in_transfer = true;
        self.started = now;
    }

    /// The receiver has `delivered` bytes. When that completes the
    /// in-flight transfer: its completion time (ns) and the think gap
    /// drawn before the next one.
    fn on_progress(&mut self, delivered: u64, now: SimTime) -> Option<(u64, SimDuration)> {
        if !self.in_transfer || delivered < self.target {
            return None;
        }
        self.in_transfer = false;
        let fct = now.saturating_duration_since(self.started).as_nanos();
        Some((fct, self.cfg.think.sample(&mut self.rng)))
    }

    fn next_generation(&mut self) -> u32 {
        self.generation += 1;
        self.generation
    }
}

/// In-flight datagrams a paced source remembers send times for; older
/// ones (lost in the air) age out.
const PACE_IN_FLIGHT: usize = 4096;

/// Mid-run state of one paced-UDP (CBR / on-off) flow.
pub(super) struct PaceState {
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
    /// On/off sources only: the period distributions and their draw
    /// stream. `None` = CBR, always on.
    periods: Option<(OnOffConfig, SimRng)>,
}

impl PaceState {
    fn new(payload_bytes: u32, rate_kbps: u64, periods: Option<(OnOffConfig, SimRng)>) -> Self {
        // Clamp to one MTU-sized MSDU payload, and pace what is sent:
        // payload * 8 bits at rate_kbps kilobits/s, in ns.
        let payload = payload_bytes.clamp(1, 1472);
        let ns = (u64::from(payload) * 8_000_000 / rate_kbps.max(1)).max(1);
        PaceState {
            interval: SimDuration::from_nanos(ns),
            payload,
            on: periods.is_none(),
            ident: 0,
            tick_token: 0,
            sent_at: FastMap::default(),
            order: VecDeque::new(),
            last_latency: None,
            periods,
        }
    }

    /// Begin (or resume) an on-period: the token of its tick chain,
    /// whose first tick is due immediately.
    fn start(&mut self) -> u32 {
        self.on = true;
        self.tick_token = self.tick_token.wrapping_add(1);
        self.tick_token
    }

    /// Tick `token` fired at `now`: `(ident, payload, gap to the next
    /// tick)` of the datagram to emit, or `None` for a superseded chain
    /// or an off source.
    fn tick(&mut self, token: u32, now: SimTime) -> Option<(u16, u32, SimDuration)> {
        if self.tick_token != token || !self.on {
            return None;
        }
        self.ident = self.ident.wrapping_add(1);
        self.sent_at.insert(self.ident, now);
        self.order.push_back(self.ident);
        // Bound the in-flight table: datagrams lost in the air never
        // come back for their timestamp.
        if self.order.len() > PACE_IN_FLIGHT {
            if let Some(oldest) = self.order.pop_front() {
                self.sent_at.remove(&oldest);
            }
        }
        Some((self.ident, self.payload, self.interval))
    }

    /// Flip an on/off source: `(turned on?, time to the next flip)`.
    /// `None` for CBR. Turning on is the caller's [`PaceState::start`].
    fn flip(&mut self) -> Option<(bool, SimDuration)> {
        let (o, rng) = self.periods.as_mut()?;
        Some(if self.on {
            self.on = false;
            (false, o.off.sample(rng))
        } else {
            (true, o.on.sample(rng))
        })
    }

    /// Datagram `ident` reached its client at `now`: its one-way
    /// latency (ns) and, from the second delivery on, the jitter
    /// |Δ latency| against the previous one.
    fn on_delivered(&mut self, ident: u16, now: SimTime) -> Option<(u64, Option<u64>)> {
        let sent = self.sent_at.remove(&ident)?;
        let lat = now.saturating_duration_since(sent).as_nanos();
        let jitter = self.last_latency.map(|p| p.abs_diff(lat));
        self.last_latency = Some(lat);
        Some((lat, jitter))
    }
}

/// Per-flow runtime state: which traffic model drives the flow, where
/// its endpoints live in `World::endpoints`, and the model-specific
/// machinery (short-flow restarts, UDP pacing).
pub(super) struct FlowRt {
    pub(super) model: TrafficModel,
    /// First index of this flow's endpoints in `World::endpoints`.
    pub(super) ep_base: usize,
    /// Endpoint count: 2 (bulk/short), 4 (bidirectional), 0 (UDP-class).
    ep_count: usize,
    /// Completion instant, for byte-budgeted (bulk/bidirectional) flows
    /// that have delivered `cfg.transfer_bytes` on every receiver.
    pub(super) done_at: Option<SimTime>,
    short: Option<ShortState>,
    pace: Option<PaceState>,
}

impl FlowRt {
    #[inline]
    pub(super) fn ep_range(&self) -> std::ops::Range<usize> {
        self.ep_base..self.ep_base + self.ep_count
    }

    /// Is this flow's transfer bounded by `cfg.transfer_bytes`?
    fn budgeted(&self) -> bool {
        matches!(
            self.model,
            TrafficModel::BulkDownload | TrafficModel::BulkUpload | TrafficModel::Bidirectional
        )
    }
}

/// What one traffic class accumulates over a run, indexed by
/// [`TrafficClass::code`](crate::traffic::TrafficClass::code).
#[derive(Clone, Default)]
pub(super) struct ClassAcc {
    /// Flow/transfer completion times (ns).
    pub(super) fct: QuantileSketch,
    /// One-way datagram latency (ns; paced-UDP classes).
    pub(super) latency: QuantileSketch,
    /// Latency deltas between consecutive datagrams (ns).
    pub(super) jitter: QuantileSketch,
    /// Completed transfers (short flows count every transfer).
    pub(super) transfers: u64,
}

impl ClassAcc {
    fn transfer_done(&mut self, fct_ns: u64) {
        self.fct.record(fct_ns);
        self.transfers += 1;
    }
}

/// Build every flow's endpoints and runtime state. Models that draw
/// (short flows, on/off sources) get their own `0x7AFF_0000 + flow`
/// fork of the world seed.
pub(super) fn build(
    cfg: &ScenarioConfig,
    layout: &Layout,
    rng: &SimRng,
    trace: &TraceHandle,
) -> (Vec<Endpoint>, Vec<FlowRt>) {
    let tcp_cfg = TcpConfig {
        delayed_ack: cfg.delayed_ack,
        rcv_window: cfg.rcv_window,
        cc: cfg.cc,
        ..TcpConfig::default()
    };
    let budget = match cfg.transfer_bytes {
        Some(b) => SendBudget::Bytes(b),
        None => SendBudget::Unlimited,
    };
    let n = layout.n_flows();
    let mut endpoints = Vec::new();
    let mut flows = Vec::with_capacity(n);
    for i in 0..n {
        let model = cfg.model_of(i);
        let flow_rng = || rng.fork(0x7AFF_0000 + i as u64);
        // One row per TCP connection, on address-plan pair 0, 1, …:
        // is the wireless client (always the TCP initiator) the data
        // sender, and the sender's budget.
        let rows = match model {
            TrafficModel::BulkDownload => [Some((false, budget)), None],
            TrafficModel::BulkUpload => [Some((true, budget)), None],
            // The server's budget is armed per transfer at flow (re)start.
            TrafficModel::ShortFlows(_) => [Some((false, SendBudget::None)), None],
            // Both directions at once, so both ends hold and compress ACKs.
            TrafficModel::Bidirectional => [Some((false, budget)), Some((true, budget))],
            TrafficModel::UdpDownload | TrafficModel::Cbr(_) | TrafficModel::OnOff(_) => {
                [None, None]
            }
        };
        let ep_base = endpoints.len();
        for (pair, (upload, budget)) in rows.into_iter().flatten().enumerate() {
            let tuple = layout.tuple(i, pair, 0);
            let (client_iss, server_iss) = Layout::iss(i, pair, 0);
            // Server endpoint: wired, or on the flow's AP itself.
            let host = cfg.server_at_ap.then(|| layout.ap_of_flow(i));
            let endpoint = |tuple, station, is_sender, iss| Endpoint {
                conn: None,
                station,
                tuple,
                flow: i,
                is_sender,
                budget: if is_sender { budget } else { SendBudget::None },
                tcp_cfg: tcp_cfg.clone(),
                iss,
                delivered_recorded: 0,
                timer_at: None,
                watch: EndpointWatch::default(),
            };
            endpoints.push(endpoint(tuple, Some(layout.client(i)), upload, client_iss));
            // The server listens from the start.
            let mut server = endpoint(tuple.reversed(), host, !upload, 0);
            let conn = server_conn(&tcp_cfg, tuple, server_iss, server.budget, trace, host);
            server.conn = Some(conn);
            endpoints.push(server);
        }
        flows.push(FlowRt {
            model,
            ep_base,
            ep_count: endpoints.len() - ep_base,
            done_at: None,
            short: match model {
                TrafficModel::ShortFlows(c) => Some(ShortState::new(c, flow_rng())),
                _ => None,
            },
            pace: match model {
                TrafficModel::Cbr(c) => Some(PaceState::new(c.payload_bytes, c.rate_kbps, None)),
                TrafficModel::OnOff(o) => Some(PaceState::new(
                    o.payload_bytes,
                    o.rate_kbps,
                    Some((o, flow_rng())),
                )),
                _ => None,
            },
        });
    }
    (endpoints, flows)
}

impl World {
    pub(super) fn start_flow(&mut self, flow: usize, now: SimTime) {
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
        let e = &mut self.endpoints[ep];
        let (mut conn, pkts) = Connection::client(e.tcp_cfg.clone(), e.tuple, e.iss, now);
        conn.set_budget(e.budget);
        conn.set_trace(self.trace.clone(), self.layout.client(e.flow).0);
        e.conn = Some(conn);
        self.route_out(ep, pkts, now);
        self.resched_tcp(ep, now);
    }

    /// Begin a short-flow transfer. `first` opens the initial
    /// connection; later transfers either reuse it (persistent mode) or
    /// re-key onto a fresh five-tuple.
    fn start_short_transfer(&mut self, flow: usize, first: bool, now: SimTime) {
        let base = self.flows[flow].ep_base;
        let server = base + 1;
        let Some(st) = self.flows[flow].short.as_mut() else {
            return;
        };
        let size = st.cfg.sizes.sample(&mut st.rng);
        if first {
            // Arm the server with the first response, then open the
            // client connection whose SYN starts the exchange.
            st.arm(size, now);
            let conn = self.endpoints[server].conn.as_mut().expect("server conn");
            conn.set_budget(SendBudget::Bytes(size));
            self.open_initiator(base, now);
        } else if st.cfg.reuse {
            // Persistent connection: extend the server's cumulative
            // budget and kick its send path.
            let conn = self.endpoints[server].conn.as_mut().expect("server conn");
            st.arm(conn.extend_budget(size), now);
            let outputs = conn.poll_send(now);
            self.route_out(server, outputs, now);
            self.resched_tcp(server, now);
        } else {
            let generation = st.next_generation();
            st.arm(size, now);
            self.reopen_short(flow, generation, size, now);
        }
        // A degenerate (zero-byte) target is satisfied the moment it is
        // armed: no packet will ever arrive to drive the progress check,
        // so run it eagerly or the flow wedges with `in_transfer` set.
        self.check_short_progress(flow, now);
    }

    /// Re-key a short flow onto its `generation`-th five-tuple
    /// (no-reuse mode): the previous connection pair, its timers, its
    /// routing entries, and its ROHC contexts all go away; the next
    /// transfer starts with a brand-new handshake and fresh ISNs.
    fn reopen_short(&mut self, flow: usize, generation: u32, size: u64, now: SimTime) {
        let base = self.flows[flow].ep_base;
        let server = base + 1;
        let cur_ap = self.cur_ap_of_flow(flow);
        for ep in [base, server] {
            self.set_tcp_timer(ep, None);
        }
        self.drop_flow_contexts(flow);
        let tuple = self.layout.tuple(flow, 0, generation);
        let (client_iss, server_iss) = Layout::iss(flow, 0, generation);
        let e = &mut self.endpoints[base];
        e.tuple = tuple;
        e.iss = client_iss;
        e.conn = None;
        e.delivered_recorded = 0;
        e.watch.on_rekey();
        let host = self.cfg.server_at_ap.then_some(cur_ap);
        let e = &mut self.endpoints[server];
        let budget = SendBudget::Bytes(size);
        e.conn = Some(server_conn(
            &e.tcp_cfg,
            tuple,
            server_iss,
            budget,
            &self.trace,
            host,
        ));
        e.tuple = tuple.reversed();
        e.delivered_recorded = 0;
        e.watch.on_rekey();
        self.open_initiator(base, now);
    }

    /// A short flow's receiver made progress: when the in-flight
    /// transfer has fully arrived, log its FCT and schedule the next
    /// one after a think gap.
    #[inline]
    pub(super) fn check_short_progress(&mut self, flow: usize, now: SimTime) {
        let f = &mut self.flows[flow];
        let Some(st) = f.short.as_mut() else { return };
        let delivered = self.endpoints[f.ep_base]
            .conn
            .as_ref()
            .map_or(0, |c| c.bytes_delivered());
        let Some((fct_ns, gap)) = st.on_progress(delivered, now) else {
            return;
        };
        self.classes[f.model.class().code() as usize].transfer_done(fct_ns);
        let at = now + gap;
        if at <= self.end {
            self.sched.schedule_at(at, Event::FlowRestart(flow));
        }
    }

    /// A short flow's think gap elapsed: begin the next transfer.
    pub(super) fn on_flow_restart(&mut self, flow: usize, now: SimTime) {
        let idle = self.flows[flow]
            .short
            .as_ref()
            .is_some_and(|st| !st.in_transfer);
        if idle {
            self.start_short_transfer(flow, false, now);
        }
    }

    /// Has byte-budgeted `flow` delivered `cfg.transfer_bytes` on every
    /// receiver? The run ends early only when every flow is
    /// byte-budgeted and every one has finished (the historical
    /// all-bulk semantics).
    #[inline]
    pub(super) fn check_completion(&mut self, flow: usize, now: SimTime) {
        let Some(target) = self.cfg.transfer_bytes else {
            return;
        };
        let f = &self.flows[flow];
        if f.budgeted() && f.done_at.is_none() {
            let done = f
                .ep_range()
                .filter(|&e| !self.endpoints[e].is_sender)
                .all(|e| {
                    self.endpoints[e]
                        .conn
                        .as_ref()
                        .is_some_and(|c| c.bytes_delivered() >= target)
                });
            if done {
                self.flows[flow].done_at = Some(now);
                let fct = now.saturating_duration_since(self.flow_start_at[flow]);
                let class = self.flows[flow].model.class().code() as usize;
                self.classes[class].transfer_done(fct.as_nanos());
            }
        }
        if self
            .flows
            .iter()
            .all(|f| f.budgeted() && f.done_at.is_some())
        {
            self.completion = Some(now);
        }
    }

    /// Keep a backlog-fed UDP flow's AP queue full.
    pub(super) fn top_up_udp(&mut self, flow: usize, now: SimTime) {
        let client = self.layout.client(flow);
        let ap = self.cur_ap_of_flow(flow);
        while self.station(ap).backlog(client) < self.cfg.ap_queue_cap {
            self.udp_ident = self.udp_ident.wrapping_add(1);
            let pkt = self.layout.udp_datagram(flow, false, self.udp_ident, 1472);
            let acts = self.station(ap).enqueue(client, NetPacket(pkt), now);
            self.apply(ap, acts, now);
        }
    }

    /// Begin (or resume) a paced on-period and emit its first datagram
    /// immediately.
    fn pace_on(&mut self, flow: usize, now: SimTime) {
        if let Some(pace) = self.flows[flow].pace.as_mut() {
            let token = pace.start();
            self.on_pace_tick(flow, token, now);
        }
    }

    /// Emit one paced datagram and schedule the next tick.
    pub(super) fn on_pace_tick(&mut self, flow: usize, token: u32, now: SimTime) {
        let Some(pace) = self.flows[flow].pace.as_mut() else {
            return;
        };
        let Some((ident, payload, interval)) = pace.tick(token, now) else {
            return;
        };
        let pkt = self.layout.udp_datagram(flow, true, ident, payload);
        self.wire(self.cur_cell_of_flow(flow), true, pkt, now);
        let next = now + interval;
        if next <= self.end {
            self.sched
                .schedule_at(next, Event::PaceTick { flow, token });
        }
    }

    /// Flip an on/off source between its periods (also primes the first
    /// on-period at flow start).
    pub(super) fn on_pace_toggle(&mut self, flow: usize, now: SimTime) {
        let Some((turn_on, dur)) = self.flows[flow].pace.as_mut().and_then(PaceState::flip) else {
            return;
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
    #[inline]
    pub(super) fn note_pace_delivery(&mut self, flow: usize, ident: u16, now: SimTime) {
        let f = &mut self.flows[flow];
        let Some(pace) = f.pace.as_mut() else { return };
        let Some((lat, jitter)) = pace.on_delivered(ident, now) else {
            return;
        };
        let class = &mut self.classes[f.model.class().code() as usize];
        class.latency.record(lat);
        if let Some(j) = jitter {
            class.jitter.record(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{ArrivalDist, SizeDist};

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn short(size: u64) -> ShortState {
        let cfg = ShortFlowConfig {
            sizes: SizeDist::Fixed(size),
            think: ArrivalDist::Fixed(SimDuration::from_millis(7)),
            reuse: true,
        };
        ShortState::new(cfg, SimRng::new(1))
    }

    #[test]
    fn zero_byte_target_completes_at_arm_time() {
        let mut st = short(0);
        assert_eq!(st.on_progress(0, at(1)), None, "nothing armed yet");
        st.arm(0, at(5));
        let gap = SimDuration::from_millis(7);
        assert_eq!(st.on_progress(0, at(5)), Some((0, gap)));
        assert_eq!(st.on_progress(0, at(6)), None, "completes once");
    }

    #[test]
    fn reuse_extends_the_cumulative_target() {
        let mut st = short(1000);
        st.arm(1000, at(0));
        assert_eq!(st.on_progress(999, at(3)), None);
        assert!(st.on_progress(1000, at(4)).is_some());
        // The second transfer on the same connection ends at 1000 + 500
        // delivered in total, and its FCT runs from its own start.
        st.arm(1500, at(10));
        assert_eq!(st.on_progress(1000, at(11)), None);
        let (fct, _) = st.on_progress(1500, at(12)).expect("done");
        assert_eq!(fct, SimDuration::from_millis(2).as_nanos());
        assert_eq!((st.next_generation(), st.next_generation()), (1, 2));
    }

    #[test]
    fn pace_gap_follows_the_clamped_payload() {
        // 64 kbit/s: 160 B is the G.711 20 ms; out-of-range payloads are
        // paced at the size actually sent.
        for (bytes, sent, gap_us) in [(0, 1, 125), (160, 160, 20_000), (1472, 1472, 184_000)] {
            let p = PaceState::new(bytes, 64, None);
            assert_eq!((p.payload, p.interval.as_micros()), (sent, gap_us));
        }
        let jumbo = PaceState::new(9000, 64, None);
        assert_eq!((jumbo.payload, jumbo.interval.as_micros()), (1472, 184_000));
    }

    #[test]
    fn superseded_pace_token_emits_nothing() {
        let mut p = PaceState::new(160, 64, None);
        let first = p.start();
        assert!(p.tick(first, at(0)).is_some());
        let second = p.start();
        assert_eq!(p.tick(first, at(20)), None);
        let gap = SimDuration::from_millis(20);
        assert_eq!(p.tick(second, at(20)), Some((2, 160, gap)));
        assert_eq!(p.flip(), None, "a CBR source has no off period");
    }

    #[test]
    fn in_flight_table_is_bounded_and_jitter_is_abs_latency_delta() {
        let mut p = PaceState::new(160, 64, None);
        let token = p.start();
        for i in 0..5000 {
            p.tick(token, at(i));
            assert!(p.sent_at.len() <= PACE_IN_FLIGHT && p.order.len() <= PACE_IN_FLIGHT);
        }
        assert_eq!(p.on_delivered(1, at(6000)), None, "aged out");
        // Idents 4999 and 5000 left at 4998 ms and 4999 ms.
        let ms = |n| SimDuration::from_millis(n).as_nanos();
        assert_eq!(p.on_delivered(4999, at(5003)), Some((ms(5), None)));
        assert_eq!(p.on_delivered(5000, at(5001)), Some((ms(2), Some(ms(3)))));
        assert_eq!(p.on_delivered(5000, at(5002)), None, "delivered once");
    }
}
