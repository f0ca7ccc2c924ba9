//! Sharded execution of dense multi-BSS worlds.
//!
//! A dense scenario declares dozens of BSSs; its interference graph
//! (derived from AP placement + channel assignment, see
//! [`InterferenceGraph::derive`](hack_phy::InterferenceGraph::derive))
//! usually splits into several connected components. Domains in
//! different components can never affect each other — no PPDU from one
//! reaches a listener in the other — so each component can run as its
//! own [`World`] ("shard") and the shards can run on parallel threads.
//!
//! ## Determinism
//!
//! Parallel output is byte-identical to serial, by construction:
//!
//! 1. **Shard independence.** Shards are connected components of the
//!    interference graph, so the cross-shard event set is provably
//!    empty; each shard's trajectory depends only on its own config and
//!    seed ([`shard_seed`], derived from the master seed and the
//!    shard's smallest BSS index — stable under any thread schedule).
//! 2. **Ordered reduction, no barrier.** Each shard is one job on
//!    [`hack_sim::pool`]: a worker assembles the shard's [`World`], runs
//!    it to completion and hands back its [`ShardReport`]. Reports come
//!    back by shard index, and merged flow goodputs fold in that order
//!    — never in completion order.
//!
//! The same argument backs `hack-campaign`'s parallel==serial proof;
//! [`run_dense`] reuses it — and the same pool — one level down, inside
//! a single scenario.

use std::collections::HashMap;

use hack_phy::InterferenceGraph;
use hack_rohc::DecompressStats;
use hack_trace::TraceHandle;

use crate::scenario::{
    blob_within_aifs, ChannelChange, ChannelEvent, ClassReport, ClientPath, LossConfig, RoamEvent,
    RunResult, ScenarioConfig,
};
use crate::sim::World;
use crate::stable::StableHasher;

/// How to drive a dense world.
#[derive(Debug, Clone, Default)]
pub struct DenseOptions {
    /// Worker threads for shard execution; `0` means
    /// [`std::thread::available_parallelism`], `1` runs the shards in
    /// index order on the calling thread. The output is byte-identical
    /// either way.
    pub threads: usize,
    /// Attach a trace ring to every shard and report per-shard digests
    /// (the cross-thread-count comparison the CI smoke job runs).
    pub digests: bool,
}

/// One shard's outcome.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Global BSS indices (into `cfg.bss`) this shard simulated,
    /// ascending.
    pub bss: Vec<usize>,
    /// Global flow indices this shard simulated, in shard-local flow
    /// order (`result.flow_goodput_mbps[j]` is global flow `flows[j]`).
    pub flows: Vec<usize>,
    /// The shard's seed (see [`shard_seed`]).
    pub seed: u64,
    /// The shard world's full result.
    pub result: RunResult,
    /// Hex trace digest, when [`DenseOptions::digests`] was set.
    pub digest: Option<String>,
}

/// Outcome of a dense run: per-shard results plus the merged view.
#[derive(Debug, Clone)]
pub struct DenseReport {
    /// Per-shard outcomes, in shard index order (shards are ordered by
    /// their smallest BSS index).
    pub shards: Vec<ShardReport>,
    /// Sum of shard aggregate steady-state goodputs (Mbps).
    pub aggregate_goodput_mbps: f64,
    /// Steady-state per-flow goodput in *global* flow order.
    pub flow_goodput_mbps: Vec<f64>,
}

/// Deterministic seed for the shard whose smallest global BSS index is
/// `shard_min_bss`, derived from the scenario's master seed. Stable
/// across processes and thread schedules, and distinct per shard so
/// co-scheduled shards never share an RNG stream.
pub fn shard_seed(master: u64, shard_min_bss: usize) -> u64 {
    let mut h = StableHasher::new();
    h.write(b"hack-dense-shard");
    h.u64(master);
    h.usize(shard_min_bss);
    let d = h.finish();
    u64::from_le_bytes(d[..8].try_into().expect("16-byte digest"))
}

/// Split a dense scenario into its independent shard configurations.
///
/// Each returned pair is `(shard config, global flow indices)`: the
/// config describes one connected component of the interference graph
/// as a standalone scenario (BSS subset, flow-indexed vectors remapped
/// to shard-local order, dynamics filtered to the shard's clients, seed
/// from [`shard_seed`]), and the flow list maps shard-local flow `j`
/// back to global flow `flows[j]`.
///
/// Running each returned config as its own [`World`] reproduces, byte
/// for byte, what [`run_dense`] runs — that equivalence is the sharding
/// oracle the test suite pins.
///
/// # Panics
/// Panics if `cfg.bss` is empty (legacy single-cell worlds have nothing
/// to shard; run them directly).
pub fn shard_configs(cfg: &ScenarioConfig) -> Vec<(ScenarioConfig, Vec<usize>)> {
    components(cfg)
        .into_iter()
        .map(|(sub, flows, _)| (sub, flows))
        .collect()
}

/// Connected components of `cfg`'s interference graph — closed under
/// roaming — each projected to `(shard config, global flows, global BSS
/// indices)`.
///
/// Roam closure: a scheduled handoff couples the flow's current cell to
/// its target, so the two cells' interference components are merged
/// into one shard and the roam runs live inside it, at its configured
/// time. An SNR roam trigger can send any client anywhere, so it
/// collapses all components into a single shard.
fn components(cfg: &ScenarioConfig) -> Vec<(ScenarioConfig, Vec<usize>, Vec<usize>)> {
    assert!(
        !cfg.bss.is_empty(),
        "sharding needs a dense (multi-BSS) scenario"
    );
    let placements: Vec<_> = cfg
        .bss
        .iter()
        .map(|b| hack_phy::BssPlacement {
            x: b.x,
            y: b.y,
            channel: b.channel,
        })
        .collect();
    let graph = InterferenceGraph::derive(&placements, &cfg.interference);
    // Global flows are numbered in cell order: cell c owns the block
    // [offsets[c], offsets[c] + n_clients_c).
    let mut offsets = Vec::with_capacity(cfg.bss.len());
    let mut acc = 0usize;
    let mut cell_of_flow = Vec::new();
    for (b, spec) in cfg.bss.iter().enumerate() {
        offsets.push(acc);
        acc += spec.n_clients;
        cell_of_flow.extend((0..spec.n_clients).map(|_| b));
    }
    let raw: Vec<Vec<usize>> = graph.components();
    let mut comp_of = vec![0usize; cfg.bss.len()];
    for (ci, comp) in raw.iter().enumerate() {
        for &b in comp {
            comp_of[b] = ci;
        }
    }

    // Roam closure over the raw components (union-find).
    let mut parent: Vec<usize> = (0..raw.len()).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = x;
        while parent[c] != r {
            let next = parent[c];
            parent[c] = r;
            c = next;
        }
        r
    }
    if cfg.roam.trigger.is_some() {
        for c in 1..raw.len() {
            let (a, b) = (find(&mut parent, 0), find(&mut parent, c));
            parent[b] = a;
        }
    }
    if !cfg.roam.schedule.is_empty() {
        // Walk each flow's roams in time order so chained handoffs
        // (A → B → C) track the cell the flow actually leaves from.
        let mut order: Vec<usize> = (0..cfg.roam.schedule.len()).collect();
        order.sort_by_key(|&i| {
            let e = &cfg.roam.schedule[i];
            (e.flow, e.at.as_nanos(), i)
        });
        let mut cur: HashMap<usize, usize> = HashMap::new();
        for &i in &order {
            let e = cfg.roam.schedule[i];
            if e.flow >= cell_of_flow.len() || e.target_bss >= cfg.bss.len() {
                continue;
            }
            let from = cur.get(&e.flow).copied().unwrap_or(cell_of_flow[e.flow]);
            // The handoff couples the cell it leaves to its target:
            // merge their components (a no-op when they are the same).
            let (a, b) = (
                find(&mut parent, comp_of[from]),
                find(&mut parent, comp_of[e.target_bss]),
            );
            parent[b] = a;
            cur.insert(e.flow, e.target_bss);
        }
    }

    // Collapse raw components into their union-find groups, each sorted
    // by BSS index, groups ordered by their smallest BSS index.
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for (ci, comp) in raw.iter().enumerate() {
        let root = find(&mut parent, ci);
        groups.entry(root).or_default().extend(comp.iter().copied());
    }
    let mut merged: Vec<Vec<usize>> = groups.into_values().collect();
    for g in &mut merged {
        g.sort_unstable();
    }
    merged.sort_by_key(|g| g[0]);

    merged
        .into_iter()
        .map(|comp| {
            let (sub, flows) = project(cfg, &comp, &offsets);
            (sub, flows, comp)
        })
        .collect()
}

/// Project one connected component of `cfg` into a standalone scenario.
fn project(
    cfg: &ScenarioConfig,
    comp: &[usize],
    offsets: &[usize],
) -> (ScenarioConfig, Vec<usize>) {
    let flows: Vec<usize> = comp
        .iter()
        .flat_map(|&b| offsets[b]..offsets[b] + cfg.bss[b].n_clients)
        .collect();
    let mut sub = cfg.clone();
    sub.bss = comp.iter().map(|&b| cfg.bss[b]).collect();
    sub.n_clients = flows.len();
    sub.seed = shard_seed(cfg.seed, comp[0]);
    if let LossConfig::PerClient(per) = &cfg.loss {
        sub.loss = LossConfig::PerClient(
            flows
                .iter()
                .map(|&f| per.get(f).copied().unwrap_or(0.0))
                .collect(),
        );
    }
    if !cfg.client_hack_capable.is_empty() {
        sub.client_hack_capable = flows
            .iter()
            .map(|&f| cfg.client_hack_capable.get(f).copied().unwrap_or(true))
            .collect();
    }
    // Per-flow traffic models follow their flow into the shard (the
    // scalar default in `sub.traffic` covers flows past the mix).
    if !cfg.traffic_mix.is_empty() {
        sub.traffic_mix = flows.iter().map(|&f| cfg.model_of(f)).collect();
    }
    // Dynamics: global events (SNR offset) reach every shard; per-client
    // events follow their client, with the index remapped to the
    // shard-local flow number. Events aimed at other shards' clients
    // are dropped here and kept by exactly one sibling shard.
    sub.dynamics = cfg
        .dynamics
        .iter()
        .filter_map(|ev| {
            let local = |client: usize| flows.iter().position(|&f| f == client);
            match ev.change {
                ChannelChange::SnrOffsetDb(_) => Some(ev.clone()),
                ChannelChange::ClientLoss { client, per } => local(client).map(|j| ChannelEvent {
                    at: ev.at,
                    change: ChannelChange::ClientLoss { client: j, per },
                }),
                ChannelChange::MoveClient { client, x, y } => local(client).map(|j| ChannelEvent {
                    at: ev.at,
                    change: ChannelChange::MoveClient { client: j, x, y },
                }),
            }
        })
        .collect();
    // Roaming follows the same rule: entries follow their flow with
    // flow and target indices remapped to shard-local numbering. The
    // roam closure in `components` guarantees an in-shard flow's
    // targets are in-shard too, so the remap never drops a live roam.
    let local_flow = |f: usize| flows.iter().position(|&x| x == f);
    let local_bss = |b: usize| comp.iter().position(|&x| x == b);
    sub.roam.schedule = cfg
        .roam
        .schedule
        .iter()
        .filter_map(|e| {
            Some(RoamEvent {
                flow: local_flow(e.flow)?,
                at: e.at,
                target_bss: local_bss(e.target_bss)?,
            })
        })
        .collect();
    sub.roam.paths = cfg
        .roam
        .paths
        .iter()
        .filter_map(|p| {
            Some(ClientPath {
                client: local_flow(p.client)?,
                waypoints: p.waypoints.clone(),
            })
        })
        .collect();
    if !cfg.roam.ap_hack_capable.is_empty() {
        sub.roam.ap_hack_capable = comp
            .iter()
            .map(|&b| cfg.roam.ap_hack_capable.get(b).copied().unwrap_or(true))
            .collect();
    }
    (sub, flows)
}

/// Run a dense multi-BSS scenario, sharded by interference-graph
/// component, on `opts.threads` worker threads.
///
/// Output is byte-identical for every thread count (see the module
/// docs' determinism argument); `opts.digests` + comparing each shard's
/// digest across two thread counts is the cheap way to check that in CI.
///
/// # Panics
/// Panics if `cfg.bss` is empty.
pub fn run_dense(cfg: &ScenarioConfig, opts: &DenseOptions) -> DenseReport {
    let parts = components(cfg);
    // One job per shard. Assembling inside the job keeps one live world
    // per worker; it draws only from the shard's own seed, so where it
    // happens cannot change the trajectory.
    let shards = hack_sim::pool::run(parts.len(), opts.threads, |i| {
        let (sub, flows, bss) = &parts[i];
        let (trace, ring) = if opts.digests {
            let (handle, ring) = TraceHandle::ring(1 << 12);
            (handle, Some(ring))
        } else {
            (TraceHandle::off(), None)
        };
        let result = World::builder(sub.clone()).trace(trace).run();
        ShardReport {
            bss: bss.clone(),
            flows: flows.clone(),
            seed: sub.seed,
            result,
            digest: ring.map(|r| {
                r.digest()
                    .to_bytes()
                    .iter()
                    .map(|b| format!("{b:02x}"))
                    .collect()
            }),
        }
    });

    let n_flows_total: usize = shards.iter().map(|s| s.flows.len()).sum();
    let mut flow_goodput = vec![0.0; n_flows_total];
    let mut aggregate = 0.0;
    for s in &shards {
        for (j, &f) in s.flows.iter().enumerate() {
            flow_goodput[f] = s.result.flow_goodput_mbps[j];
        }
        aggregate += s.result.aggregate_goodput_mbps;
    }

    DenseReport {
        shards,
        aggregate_goodput_mbps: aggregate,
        flow_goodput_mbps: flow_goodput,
    }
}

/// Run `cfg` through the right engine: legacy single-cell worlds run
/// directly; dense multi-BSS worlds run sharded (see [`run_dense`], on
/// every available core) and the shard results are folded back into one
/// [`RunResult`] by [`merge_dense`]. Output is deterministic either way
/// — sharded output is byte-identical for every thread count — which is
/// what lets the campaign runner sweep, cache, and resume dense cells
/// exactly like legacy ones.
///
/// A traced run stays on `World::builder(cfg).trace(h).run()`, which
/// simulates even a multi-BSS config as one unsharded world: one trace
/// handle cannot span shards running in parallel.
pub fn run_auto(cfg: ScenarioConfig) -> RunResult {
    if cfg.bss.is_empty() {
        return World::builder(cfg).run();
    }
    merge_dense(run_dense(&cfg, &DenseOptions::default()))
}

/// Scatter one per-flow stats vector from shard-local back to global
/// flow order. All-empty stays empty (e.g. TCP vectors on UDP runs).
fn scatter<T: Clone>(n: usize, shards: &[ShardReport], get: impl Fn(&RunResult) -> &[T]) -> Vec<T> {
    if shards.iter().all(|s| get(&s.result).is_empty()) {
        return Vec::new();
    }
    let mut out: Vec<Option<T>> = vec![None; n];
    for s in shards {
        let v = get(&s.result);
        for (j, &f) in s.flows.iter().enumerate() {
            if let Some(x) = v.get(j) {
                out[f] = Some(x.clone());
            }
        }
    }
    out.into_iter()
        .map(|x| x.expect("every global flow is owned by exactly one shard"))
        .collect()
}

/// Fold a [`DenseReport`] into one [`RunResult`]: per-flow vectors in
/// global flow order, per-station MAC stats concatenated in shard
/// order, scalar counters summed, and the derived ratios recomputed
/// over the whole fleet.
pub fn merge_dense(report: DenseReport) -> RunResult {
    let n = report.flow_goodput_mbps.len();
    let shards = &report.shards;
    let mac: Vec<_> = shards
        .iter()
        .flat_map(|s| s.result.mac.iter().cloned())
        .collect();
    let mut decompressor = DecompressStats::default();
    for s in shards {
        decompressor.merge(&s.result.decompressor);
    }
    // Per-class reports: same class across shards merges (sketches are
    // order-independent); sorted by class code for determinism.
    let mut classes: Vec<ClassReport> = Vec::new();
    for s in shards {
        for c in &s.result.classes {
            match classes.iter_mut().find(|x| x.class == c.class) {
                Some(agg) => {
                    agg.flows += c.flows;
                    agg.transfers += c.transfers;
                    agg.goodput_mbps += c.goodput_mbps;
                    agg.fct.merge(&c.fct);
                    agg.latency.merge(&c.latency);
                    agg.jitter.merge(&c.jitter);
                }
                None => classes.push(c.clone()),
            }
        }
    }
    classes.sort_by_key(|c| c.class.code());
    RunResult {
        flow_goodput_mbps: report.flow_goodput_mbps.clone(),
        aggregate_goodput_mbps: report.aggregate_goodput_mbps,
        flow_goodput_full_mbps: scatter(n, shards, |r| &r.flow_goodput_full_mbps),
        flow_completion: scatter(n, shards, |r| &r.flow_completion),
        classes,
        blob_within_aifs: blob_within_aifs(&mac),
        mac,
        driver: scatter(n, shards, |r| &r.driver),
        driver_ap: scatter(n, shards, |r| &r.driver_ap),
        compressor: scatter(n, shards, |r| &r.compressor),
        decompressor,
        ppdus: shards.iter().map(|s| s.result.ppdus).sum(),
        events_dispatched: shards.iter().map(|s| s.result.events_dispatched).sum(),
        collisions: shards.iter().map(|s| s.result.collisions).sum(),
        ap_queue_drops: shards.iter().map(|s| s.result.ap_queue_drops).sum(),
        sender_tcp: scatter(n, shards, |r| &r.sender_tcp),
        receiver_tcp: scatter(n, shards, |r| &r.receiver_tcp),
        supervisor: scatter(n, shards, |r| &r.supervisor),
        flow_goodput_final_mbps: scatter(n, shards, |r| &r.flow_goodput_final_mbps),
        roams: shards.iter().map(|s| s.result.roams).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::HackMode;
    use crate::scenario::BssSpec;
    use crate::StandardKind;
    use hack_sim::SimDuration;

    fn dense_cfg(bss: Vec<BssSpec>, seed: u64) -> ScenarioConfig {
        ScenarioConfig::builder()
            .standard(StandardKind::Dot11n)
            .rate_mbps(150)
            .hack(HackMode::MoreData)
            .bss(bss)
            .duration(SimDuration::from_millis(60))
            .stagger(SimDuration::from_millis(2))
            .warmup(SimDuration::from_millis(5))
            .seed(seed)
            .build()
    }

    #[test]
    fn shard_seed_is_stable_and_distinct() {
        assert_eq!(shard_seed(7, 0), shard_seed(7, 0));
        assert_ne!(shard_seed(7, 0), shard_seed(7, 1));
        assert_ne!(shard_seed(7, 0), shard_seed(8, 0));
    }

    #[test]
    fn enterprise_floor_shards_fully() {
        // The 3-colouring keeps co-channel APs ≥ ~35 m apart: every BSS
        // is its own component.
        let cfg = dense_cfg(BssSpec::enterprise_floor(9, 1), 1);
        let parts = shard_configs(&cfg);
        assert_eq!(parts.len(), 9);
        for (i, (sub, flows)) in parts.iter().enumerate() {
            assert_eq!(sub.bss.len(), 1);
            assert_eq!(sub.n_clients, 1);
            assert_eq!(flows, &vec![i]);
            assert_eq!(sub.seed, shard_seed(cfg.seed, i));
        }
    }

    #[test]
    fn apartment_block_shards_by_channel_parity() {
        // Corridor spacing 8 m, channels alternate 1/6: same-channel
        // neighbours sit 16 m < 30 m apart, so odd and even APs form two
        // chain components.
        let cfg = dense_cfg(BssSpec::apartment_block(6, 2), 1);
        let parts = shard_configs(&cfg);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].1, vec![0, 1, 4, 5, 8, 9]); // cells 0,2,4
        assert_eq!(parts[1].1, vec![2, 3, 6, 7, 10, 11]); // cells 1,3,5
    }

    #[test]
    fn projection_remaps_flow_indexed_vectors_and_dynamics() {
        let mut cfg = dense_cfg(BssSpec::enterprise_floor(4, 2), 3);
        cfg.loss = LossConfig::PerClient(vec![0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07]);
        cfg.client_hack_capable = vec![true, true, false, true, true, true, true, false];
        cfg.dynamics = vec![
            ChannelEvent {
                at: SimDuration::from_millis(10),
                change: ChannelChange::SnrOffsetDb(-3.0),
            },
            ChannelEvent {
                at: SimDuration::from_millis(20),
                change: ChannelChange::ClientLoss {
                    client: 5,
                    per: 0.5,
                },
            },
        ];
        let parts = shard_configs(&cfg);
        assert_eq!(parts.len(), 4);
        // Shard 2 owns global flows 4 and 5.
        let (sub, flows) = &parts[2];
        assert_eq!(flows, &vec![4, 5]);
        assert_eq!(sub.loss, LossConfig::PerClient(vec![0.04, 0.05]));
        assert_eq!(sub.client_hack_capable, vec![true, true]);
        // The global SNR event survives; the client-5 event lands here
        // remapped to local client 1 — and nowhere else.
        assert_eq!(sub.dynamics.len(), 2);
        assert_eq!(
            sub.dynamics[1].change,
            ChannelChange::ClientLoss {
                client: 1,
                per: 0.5
            }
        );
        for (i, (other, _)) in parts.iter().enumerate() {
            if i != 2 {
                assert_eq!(other.dynamics.len(), 1, "shard {i} kept a foreign event");
            }
        }
    }

    #[test]
    fn dense_run_merges_flows_in_global_order() {
        let cfg = dense_cfg(BssSpec::enterprise_floor(4, 1), 11);
        let at = |threads| DenseOptions {
            threads,
            digests: true,
        };
        let report = run_dense(&cfg, &at(1));
        assert_eq!(report.flow_goodput_mbps.len(), 4);
        assert_eq!(report.shards.len(), 4);
        for s in &report.shards {
            assert_eq!(s.flows.len(), 1);
            assert_eq!(
                report.flow_goodput_mbps[s.flows[0]],
                s.result.flow_goodput_mbps[0]
            );
        }
        let sum: f64 = report
            .shards
            .iter()
            .map(|s| s.result.aggregate_goodput_mbps)
            .sum();
        assert!((report.aggregate_goodput_mbps - sum).abs() < 1e-12);
        // The same shards on four workers: same traces, same event
        // counts, same merge.
        let parallel = run_dense(&cfg, &at(4));
        for (s, p) in report.shards.iter().zip(&parallel.shards) {
            assert_eq!(s.digest, p.digest);
            assert_eq!(s.result.events_dispatched, p.result.events_dispatched);
        }
        assert_eq!(report.flow_goodput_mbps, parallel.flow_goodput_mbps);
    }
}
