//! Who is where and who is who: station numbering, *the* flow address
//! plan (client IPs, five-tuples, ISSs, UDP port pairs), and the air —
//! medium plus MAC stations — built from both.

use hack_mac::{MacConfig, Station};
use hack_phy::{BssPlacement, Channel, InterferenceGraph, LossModel, Medium, PhyRate, StationId};
use hack_sim::SimRng;
use hack_tcp::{FiveTuple, Ipv4Addr, Ipv4Packet, Transport};
use hack_trace::TraceHandle;

use crate::driver::HackMode;
use crate::packet::NetPacket;
use crate::scenario::{BssSpec, LossConfig, ScenarioConfig, Standard};

/// The wired server every flow talks to.
pub(super) const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// One BSS in the world: its AP station, where it stands, and the
/// contiguous block of flows it serves.
pub(super) struct Cell {
    pub(super) ap: StationId,
    /// Global flow index of the cell's first client.
    flow_base: usize,
    at: BssPlacement,
}

/// Station numbering and addressing for the world: one cell per
/// [`BssSpec`] with stations blocked per cell (AP₀, its clients, AP₁,
/// its clients, …). Flow indices are global (0..total clients) in cell
/// order, so per-flow config vectors keep their meaning.
///
/// A legacy world (`cfg.bss` empty) is one synthetic cell at the origin
/// — AP = station 0, client *i* = station 1+i — numbered, placed and
/// wired exactly as a one-BSS dense world. The only thing it pins is
/// the historical 192.168.0.x client addressing (see
/// [`Layout::client_ip`]), which every pre-dense digest depends on.
pub(super) struct Layout {
    pub(super) cells: Vec<Cell>,
    /// flow → (cell index, client station).
    flows: Vec<(usize, StationId)>,
    /// station id → cell index.
    cell_of: Vec<usize>,
    legacy: bool,
}

impl Layout {
    pub(super) fn from_cfg(cfg: &ScenarioConfig) -> Layout {
        let legacy = cfg.bss.is_empty();
        let origin = [BssSpec {
            x: 0.0,
            y: 0.0,
            channel: 1,
            n_clients: cfg.n_clients,
        }];
        let specs: &[BssSpec] = if legacy { &origin } else { &cfg.bss };
        let n: usize = specs.iter().map(|s| s.n_clients).sum();
        let mut cells = Vec::with_capacity(specs.len());
        let mut flows = Vec::with_capacity(n);
        let mut cell_of = Vec::with_capacity(n + specs.len());
        let mut next = 0u32;
        for (b, spec) in specs.iter().enumerate() {
            cells.push(Cell {
                ap: StationId(next),
                flow_base: flows.len(),
                at: BssPlacement {
                    x: spec.x,
                    y: spec.y,
                    channel: spec.channel,
                },
            });
            cell_of.push(b);
            next += 1;
            for _ in 0..spec.n_clients {
                flows.push((b, StationId(next)));
                cell_of.push(b);
                next += 1;
            }
        }
        Layout {
            cells,
            flows,
            cell_of,
            legacy,
        }
    }

    pub(super) fn n_flows(&self) -> usize {
        self.flows.len()
    }

    #[inline]
    pub(super) fn client(&self, flow: usize) -> StationId {
        self.flows[flow].1
    }

    #[inline]
    pub(super) fn cell_of_flow(&self, flow: usize) -> usize {
        self.flows[flow].0
    }

    #[inline]
    pub(super) fn ap_of_flow(&self, flow: usize) -> StationId {
        self.cells[self.flows[flow].0].ap
    }

    #[inline]
    pub(super) fn cell(&self, sid: StationId) -> usize {
        self.cell_of[sid.0 as usize]
    }

    #[inline]
    pub(super) fn is_ap(&self, sid: StationId) -> bool {
        self.cells[self.cell(sid)].ap == sid
    }

    #[inline]
    pub(super) fn flow_of_client(&self, sid: StationId) -> Option<usize> {
        if (sid.0 as usize) >= self.cell_of.len() {
            return None;
        }
        let c = &self.cells[self.cell(sid)];
        (c.ap != sid).then(|| c.flow_base + (sid.0 - c.ap.0 - 1) as usize)
    }

    // ------------------------------------------------------------------
    // The address plan
    // ------------------------------------------------------------------

    /// IP address of `flow`'s client. Legacy worlds keep the historical
    /// 192.168.0.x plan; dense worlds use 10.1.x.y, good for ~64k flows.
    #[inline]
    pub(super) fn client_ip(&self, flow: usize) -> Ipv4Addr {
        if self.legacy {
            Ipv4Addr::new(192, 168, 0, 10 + flow as u8)
        } else {
            Ipv4Addr::new(10, 1, (flow / 250) as u8, ((flow % 250) + 2) as u8)
        }
    }

    /// Client-side five-tuple of `flow`'s TCP connection number `pair`
    /// (0 = the flow's only or download connection, 1 = the upload
    /// connection a bidirectional flow adds); the server side is its
    /// reverse. Client IP and server port identify the flow; the source
    /// port moves with `generation` so a re-keyed short flow never
    /// reuses a tuple.
    pub(super) fn tuple(&self, flow: usize, pair: usize, generation: u32) -> FiveTuple {
        let (src, dst) = [(40_000u16, 5_001u16), (50_000, 6_001)][pair];
        FiveTuple {
            src_ip: self.client_ip(flow),
            dst_ip: SERVER_IP,
            src_port: src
                .wrapping_add(flow as u16)
                .wrapping_add((generation as u16).wrapping_mul(613)),
            dst_port: dst.wrapping_add(flow as u16),
            protocol: 6,
        }
    }

    /// `(client, server)` initial sequence numbers of the same
    /// connection.
    pub(super) fn iss(flow: usize, pair: usize, generation: u32) -> (u32, u32) {
        let (client, server) = [(10_000u32, 90_000u32), (20_000, 80_000)][pair];
        (
            (client + flow as u32 * 101).wrapping_add(generation.wrapping_mul(1009)),
            (server + flow as u32 * 103).wrapping_add(generation.wrapping_mul(1013)),
        )
    }

    /// One server → client UDP datagram for `flow`. Backlog-fed and
    /// paced sources use separate port pairs.
    pub(super) fn udp_datagram(
        &self,
        flow: usize,
        paced: bool,
        ident: u16,
        payload_len: u32,
    ) -> Ipv4Packet {
        let (src_port, dst_port) = if paced {
            (5_002, 41_000 + flow as u16)
        } else {
            (5_001, 40_000 + flow as u16)
        };
        Ipv4Packet {
            src: SERVER_IP,
            dst: self.client_ip(flow),
            ident,
            ttl: 64,
            transport: Transport::Udp {
                src_port,
                dst_port,
                payload_len,
            },
        }
    }
}

/// The MAC configuration every station starts from (per-station HACK
/// capability is set on top by [`build_air`]).
fn mac_config(cfg: &ScenarioConfig) -> MacConfig {
    let mut mac = match cfg.standard {
        Standard::Dot11a { rate_mbps } => MacConfig::dot11a(PhyRate::dot11a(rate_mbps)),
        Standard::Dot11n { rate_mbps } => MacConfig::dot11n(PhyRate::ht(rate_mbps)),
    };
    let hack_on = cfg.hack_mode != HackMode::Disabled;
    if hack_on && cfg.hack_mode != HackMode::Opportunistic {
        // MORE DATA marking and SYNC are the MAC-visible HACK bits;
        // Opportunistic deliberately runs without them (§3.2).
        mac = mac.with_hack_bits();
    }
    if hack_on {
        // SYNC-based retention is part of every HACK build (unless
        // ablated away to demonstrate why §3.4 needs it).
        mac.use_sync = !cfg.disable_sync;
    }
    if cfg.sora_quirks {
        mac = mac.with_sora_quirks();
    }
    if let Some(txop) = cfg.txop_limit {
        mac.timings.txop_limit = txop;
    }
    if let Some(limit) = cfg.retry_limit {
        mac.timings.retry_limit = limit;
    }
    mac
}

/// Build the medium and one MAC station per station id.
///
/// APs stand at their declared spots; clients are scattered (or put at
/// the SNR sweep distance) around their own AP, drawn in global flow
/// order from the `0xC1AC` fork. Each cell is one interference domain.
pub(super) fn build_air(
    cfg: &ScenarioConfig,
    layout: &Layout,
    rng: &SimRng,
    trace: &TraceHandle,
) -> (Medium, Vec<Station<NetPacket>>) {
    let mut channel = Channel::indoor();
    let mut place_rng = rng.fork(0xC1AC);
    for c in &layout.cells {
        channel.place(c.ap, c.at.x, c.at.y);
    }
    for f in 0..layout.n_flows() {
        let at = layout.cells[layout.cell_of_flow(f)].at;
        let (dx, dy) = match cfg.loss {
            LossConfig::SnrDistance(d) => (d, 0.0),
            _ => place_rng.point_in_disc(10.0),
        };
        channel.place(layout.client(f), at.x + dx, at.y + dy);
    }
    let loss = match &cfg.loss {
        LossConfig::Ideal => LossModel::Ideal,
        LossConfig::PerClient(per) => {
            LossModel::fixed(per.iter().enumerate().map(|(i, &p)| (layout.client(i), p)))
        }
        LossConfig::SnrDistance(_) => LossModel::Snr,
        LossConfig::Burst(params) => LossModel::Burst(*params),
    };

    let ids: Vec<StationId> = (0..layout.cell_of.len() as u32).map(StationId).collect();
    let mac_cfg = mac_config(cfg);
    // Medium before stations: a world built right after another was
    // dropped then reuses the chunks its predecessor freed (the ruler's
    // `setup_s` reads ~12 % worse the other way round).
    let aps: Vec<BssPlacement> = layout.cells.iter().map(|c| c.at).collect();
    let domains = layout.cell_of.iter().map(|&c| c as u32).collect();
    let graph = InterferenceGraph::derive(&aps, &cfg.interference);
    let mut medium = Medium::with_domains(ids.clone(), domains, graph, loss, Some(channel));
    medium.set_corruption(cfg.corrupt);
    medium.set_trace(trace.clone());
    let stations = ids
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

    (medium, stations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    fn layouts() -> (Layout, Layout) {
        let legacy = ScenarioBuilder::dot11n_download(150, 5, HackMode::MoreData).build();
        let dense = ScenarioBuilder::dot11n_download(150, 5, HackMode::MoreData)
            .bss(BssSpec::enterprise_floor(1, 5))
            .build();
        (Layout::from_cfg(&legacy), Layout::from_cfg(&dense))
    }

    #[test]
    fn legacy_and_one_bss_dense_number_stations_identically() {
        let (legacy, dense) = layouts();
        assert!(legacy.legacy && !dense.legacy);
        assert_eq!(legacy.n_flows(), 5);
        assert_eq!(legacy.cell_of.len(), 6);
        assert_eq!(legacy.cells[0].ap, StationId(0));
        for l in [&legacy, &dense] {
            assert_eq!(l.cells.len(), 1);
            assert_eq!(l.cell_of, legacy.cell_of);
            assert_eq!(l.flows, legacy.flows);
            assert!(l.is_ap(StationId(0)) && !l.is_ap(StationId(1)));
        }
        // The address choice is the one thing `legacy` decides.
        assert_eq!(legacy.client_ip(3), Ipv4Addr::new(192, 168, 0, 13));
        assert_eq!(dense.client_ip(3), Ipv4Addr::new(10, 1, 0, 5));
    }

    #[test]
    fn flow_of_client_inverts_client() {
        let cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData)
            .bss(vec![
                BssSpec {
                    x: 0.0,
                    y: 0.0,
                    channel: 1,
                    n_clients: 3,
                },
                BssSpec {
                    x: 50.0,
                    y: 0.0,
                    channel: 6,
                    n_clients: 0,
                },
                BssSpec {
                    x: 90.0,
                    y: 0.0,
                    channel: 11,
                    n_clients: 4,
                },
            ])
            .build();
        let l = Layout::from_cfg(&cfg);
        assert_eq!((l.n_flows(), l.cell_of.len()), (7, 10));
        for f in 0..l.n_flows() {
            let sid = l.client(f);
            assert_eq!(l.flow_of_client(sid), Some(f));
            assert_eq!(l.cell(sid), l.cell_of_flow(f));
            assert_eq!(l.ap_of_flow(f), l.cells[l.cell_of_flow(f)].ap);
        }
        for c in &l.cells {
            assert_eq!(l.flow_of_client(c.ap), None);
        }
        assert_eq!(l.flow_of_client(StationId(10)), None);
    }

    #[test]
    fn generation_zero_matches_the_historical_constants() {
        let (legacy, _) = layouts();
        let t = legacy.tuple(2, 0, 0);
        assert_eq!((t.src_port, t.dst_port, t.protocol), (40_002, 5_003, 6));
        assert_eq!((t.src_ip, t.dst_ip), (legacy.client_ip(2), SERVER_IP));
        let up = legacy.tuple(2, 1, 0);
        assert_eq!((up.src_port, up.dst_port), (50_002, 6_003));
        assert_eq!(Layout::iss(2, 0, 0), (10_202, 90_206));
        assert_eq!(Layout::iss(2, 1, 0), (20_202, 80_206));
        // Re-keying moves the source port and both ISSs, nothing else.
        let t3 = legacy.tuple(2, 0, 3);
        assert_eq!(t3.src_port, 40_002 + 3 * 613);
        assert_eq!(
            FiveTuple {
                src_port: t.src_port,
                ..t3
            },
            t
        );
        assert_eq!(Layout::iss(2, 0, 3), (10_202 + 3 * 1009, 90_206 + 3 * 1013));
        let Transport::Udp {
            src_port, dst_port, ..
        } = legacy.udp_datagram(2, false, 0, 1472).transport
        else {
            panic!("udp");
        };
        assert_eq!((src_port, dst_port), (5001, 40_002));
        let Transport::Udp {
            src_port, dst_port, ..
        } = legacy.udp_datagram(2, true, 0, 160).transport
        else {
            panic!("udp");
        };
        assert_eq!((src_port, dst_port), (5_002, 41_002));
    }

    #[test]
    fn tuples_are_distinct_across_flows_pairs_and_generations() {
        let cfg = ScenarioBuilder::dot11n_download(150, 64, HackMode::MoreData)
            .bss(BssSpec::enterprise_floor(4, 16))
            .build();
        let l = Layout::from_cfg(&cfg);
        let mut seen = std::collections::HashSet::new();
        for flow in 0..64 {
            for pair in 0..2 {
                for generation in 0..8 {
                    let t = l.tuple(flow, pair, generation);
                    assert!(seen.insert(t), "{t:?} reused");
                    assert!(seen.insert(t.reversed()), "{t:?} mirrors another");
                }
            }
        }
        assert_eq!(seen.len(), 64 * 2 * 8 * 2);
    }
}
