//! Dense multi-BSS worlds: the sharding oracle, parallel==serial
//! byte-identity at scale, and world-level pins for the mid-run
//! channel-dynamics bugfixes (loss-override composition under burst
//! media, Gilbert–Elliott state reset on station moves).

mod common;

use common::{assert_same_run, dense_roam_cfg, traced_at};
use hack_core::{
    merge_dense, run_auto, run_dense, shard_configs, BssSpec, ChannelChange, ChannelEvent,
    DenseOptions, GeParams, HackMode, LossConfig, RunResult, ScenarioConfig, StandardKind, World,
};
use hack_sim::SimDuration;
use hack_trace::TraceHandle;
use proptest::prelude::*;

fn digest_hex(ring: &hack_trace::RingSink) -> String {
    ring.digest()
        .to_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Run one scenario standalone with a trace ring; returns (digest,
/// result).
fn run_pinned(cfg: ScenarioConfig) -> (String, RunResult) {
    let (handle, ring) = TraceHandle::ring(1 << 12);
    let result = World::builder(cfg).trace(handle).run();
    (digest_hex(&ring), result)
}

fn dense_base(bss: Vec<BssSpec>, seed: u64, hack: HackMode) -> ScenarioConfig {
    ScenarioConfig::builder()
        .standard(StandardKind::Dot11n)
        .rate_mbps(150)
        .hack(hack)
        .bss(bss)
        .duration(SimDuration::from_millis(50))
        .stagger(SimDuration::from_millis(2))
        .warmup(SimDuration::from_millis(5))
        .seed(seed)
        .build()
}

proptest! {
    /// The sharding oracle: a multi-BSS world with ZERO cross-BSS
    /// interference edges (grid pitch 40 m > the 30 m co-channel range)
    /// must produce per-BSS trace digests and goodputs byte-identical
    /// to the same BSSs run as independent single-cell worlds. This is
    /// the correctness contract `run_dense` rests on — the shard
    /// engine adds no observable behaviour of its own.
    #[test]
    fn zero_edge_world_equals_independent_cells(
        n_bss in 2usize..5,
        clients in 1usize..3,
        chan_pick in proptest::collection::vec(0usize..3, 4),
        seed in 0u64..1_000,
        hack in any::<bool>(),
    ) {
        let bss: Vec<BssSpec> = (0..n_bss)
            .map(|i| BssSpec {
                x: (i as f64) * 40.0,
                y: 0.0,
                channel: [1u8, 6, 11][chan_pick[i % chan_pick.len()]],
                n_clients: clients,
            })
            .collect();
        let hack = if hack { HackMode::MoreData } else { HackMode::Disabled };
        let cfg = dense_base(bss, seed, hack);

        let parts = shard_configs(&cfg);
        prop_assert_eq!(parts.len(), n_bss, "40 m pitch must shard fully");

        let report = run_dense(&cfg, &traced_at(1));

        for (shard, (sub, flows)) in report.shards.iter().zip(parts) {
            let (digest, standalone) = run_pinned(sub);
            prop_assert_eq!(
                shard.digest.as_deref(),
                Some(digest.as_str()),
                "shard {:?} diverged from its standalone single-cell run",
                shard.bss
            );
            prop_assert_eq!(
                shard.result.events_dispatched,
                standalone.events_dispatched
            );
            for (j, &f) in flows.iter().enumerate() {
                prop_assert_eq!(report.flow_goodput_mbps[f], standalone.flow_goodput_mbps[j]);
            }
        }
    }
}

/// The scale + parallelism acceptance test: a 16-BSS, 512-station
/// enterprise floor runs sharded on 4 threads with output byte-identical
/// to the serial (1-thread) execution — shard trace digests, shard event
/// counts, and every merged flow goodput.
#[test]
fn parallel_equals_serial_at_16_bss_512_stations() {
    let cfg = {
        let mut c = dense_base(BssSpec::enterprise_floor(16, 32), 42, HackMode::MoreData);
        c.stagger = SimDuration::from_micros(500);
        c.duration = SimDuration::from_millis(60);
        c
    };
    assert_eq!(cfg.n_clients, 512);
    // 16 APs + 512 clients = 528 stations on the floor.

    let serial = run_dense(&cfg, &traced_at(1));
    let parallel = run_dense(&cfg, &traced_at(4));

    assert_eq!(serial.shards.len(), 16, "3-coloured floor shards fully");
    assert_same_run(&serial, &parallel);
    assert!(
        serial.aggregate_goodput_mbps > 0.0,
        "a 512-station floor must move bytes"
    );
}

/// A skewed floor — one 32-client cell beside seven 1-client cells, so
/// one shard outlasts all the others — is still byte-identical at 4
/// threads and serially.
#[test]
fn skewed_floor_parallel_equals_serial() {
    let mut bss = BssSpec::enterprise_floor(8, 1);
    bss[0].n_clients = 32;
    let cfg = {
        let mut c = dense_base(bss, 17, HackMode::MoreData);
        c.stagger = SimDuration::from_micros(500);
        c
    };
    let serial = run_dense(&cfg, &traced_at(1));
    assert_eq!(serial.shards.len(), 8);
    assert_eq!(serial.shards[0].flows.len(), 32);
    assert_same_run(&serial, &run_dense(&cfg, &traced_at(4)));
    assert!(serial.flow_goodput_mbps.iter().sum::<f64>() > 0.0);
}

/// The sharding oracle on a roaming world, cross-domain (one merged
/// shard) and in-domain (two shards): every `shard_configs` entry run as
/// its own traced `World` is the matching `run_dense` shard at 1 and at
/// 4 threads, and `run_auto` is the merge of those shards.
#[test]
fn roam_coupled_world_equals_its_standalone_shards() {
    let cross = dense_roam_cfg(5);
    let mut within = cross.clone();
    within.roam.schedule[0].target_bss = 1;
    for (cfg, n_shards) in [(cross, 1), (within, 2)] {
        let parts = shard_configs(&cfg);
        assert_eq!(parts.len(), n_shards);
        let serial = run_dense(&cfg, &traced_at(1));
        assert_same_run(&serial, &run_dense(&cfg, &traced_at(4)));
        for (shard, (sub, flows)) in serial.shards.iter().zip(parts) {
            assert_eq!(shard.flows, flows);
            let (digest, standalone) = run_pinned(sub);
            assert_eq!(shard.digest.as_deref(), Some(digest.as_str()));
            assert_eq!(shard.result.events_dispatched, standalone.events_dispatched);
            assert_eq!(shard.result.flow_goodput_mbps, standalone.flow_goodput_mbps);
        }
        assert_eq!(serial.shards.iter().map(|s| s.result.roams).sum::<u64>(), 1);
        let auto = run_auto(cfg);
        let merged = merge_dense(serial);
        assert_eq!(auto.flow_goodput_mbps, merged.flow_goodput_mbps);
        assert_eq!(auto.events_dispatched, merged.events_dispatched);
        assert_eq!(auto.roams, merged.roams);
    }
}

/// World-level pin for the burst-medium loss-override fix: a mid-run
/// `ClientLoss` step on a Gilbert–Elliott medium must actually take
/// effect (it used to silently no-op). The step is observable (digest
/// differs from the no-dynamics run) and counted via the
/// `loss_override` trace event.
#[test]
fn client_loss_step_composes_on_burst_medium() {
    let base = |dynamics: Vec<ChannelEvent>| {
        ScenarioConfig::builder()
            .clients(2)
            .hack(HackMode::MoreData)
            .loss(LossConfig::Burst(GeParams {
                p_enter_bad: 0.02,
                p_exit_bad: 0.2,
                per_good: 0.001,
                per_bad: 0.3,
            }))
            .dynamics(dynamics)
            .duration(SimDuration::from_millis(120))
            .stagger(SimDuration::from_millis(2))
            .warmup(SimDuration::from_millis(5))
            .seed(7)
            .build()
    };
    let step = vec![ChannelEvent {
        at: SimDuration::from_millis(20),
        change: ChannelChange::ClientLoss {
            client: 0,
            per: 0.9,
        },
    }];

    let (h_with, ring_with) = TraceHandle::ring(1 << 12);
    let _ = World::builder(base(step)).trace(h_with).run();
    let (h_without, ring_without) = TraceHandle::ring(1 << 12);
    let _ = World::builder(base(Vec::new())).trace(h_without).run();

    let overrides: u64 = ring_with
        .counters()
        .snapshot()
        .iter()
        .find(|(name, _)| *name == "loss_override")
        .map_or(0, |&(_, n)| n);
    assert!(
        overrides >= 1,
        "ClientLoss on a burst medium must be counted, not dropped"
    );
    assert_ne!(
        digest_hex(&ring_with),
        digest_hex(&ring_without),
        "a 90% loss override must be observable in the trace"
    );
}

/// World-level pin for the mobility fix: moving a station and moving it
/// back is deterministic (same seed ⇒ same digest), and the move is
/// observable even on a pure burst medium — because `place_station`
/// resets the moved station's per-link Gilbert–Elliott state instead of
/// leaving it stale.
#[test]
fn move_then_restore_is_deterministic_and_resets_ge_state() {
    let base = |dynamics: Vec<ChannelEvent>| {
        ScenarioConfig::builder()
            .clients(2)
            .hack(HackMode::MoreData)
            .loss(LossConfig::Burst(GeParams {
                p_enter_bad: 0.1,
                p_exit_bad: 0.05,
                per_good: 0.001,
                per_bad: 0.8,
            }))
            .dynamics(dynamics)
            .duration(SimDuration::from_millis(120))
            .stagger(SimDuration::from_millis(2))
            .warmup(SimDuration::from_millis(5))
            .seed(9)
            .build()
    };
    let move_and_back = || {
        vec![
            ChannelEvent {
                at: SimDuration::from_millis(30),
                change: ChannelChange::MoveClient {
                    client: 0,
                    x: 40.0,
                    y: 0.0,
                },
            },
            ChannelEvent {
                at: SimDuration::from_millis(60),
                change: ChannelChange::MoveClient {
                    client: 0,
                    x: 3.0,
                    y: 0.0,
                },
            },
        ]
    };

    let (ha, ra) = TraceHandle::ring(1 << 12);
    let _ = World::builder(base(move_and_back())).trace(ha).run();
    let (hb, rb) = TraceHandle::ring(1 << 12);
    let _ = World::builder(base(move_and_back())).trace(hb).run();
    assert_eq!(
        digest_hex(&ra),
        digest_hex(&rb),
        "move-then-restore must be seed-deterministic"
    );

    let (hc, rc) = TraceHandle::ring(1 << 12);
    let _ = World::builder(base(Vec::new())).trace(hc).run();
    assert_ne!(
        digest_hex(&ra),
        digest_hex(&rc),
        "the GE reset on a move must be observable (stale state was the bug)"
    );
}

/// Degenerate shapes must not trip the reception-capacity underflow or
/// the domain bookkeeping: a single-BSS single-client dense world, and
/// a two-BSS world where one cell has exactly one client.
#[test]
fn degenerate_dense_worlds_run() {
    let tiny = dense_base(
        vec![BssSpec {
            x: 0.0,
            y: 0.0,
            channel: 1,
            n_clients: 1,
        }],
        5,
        HackMode::MoreData,
    );
    let report = run_dense(&tiny, &DenseOptions::default());
    assert_eq!(report.shards.len(), 1);
    assert!(report.aggregate_goodput_mbps > 0.0);

    let lopsided = dense_base(
        vec![
            BssSpec {
                x: 0.0,
                y: 0.0,
                channel: 1,
                n_clients: 1,
            },
            BssSpec {
                x: 100.0,
                y: 0.0,
                channel: 1,
                n_clients: 3,
            },
        ],
        6,
        HackMode::Disabled,
    );
    let report = run_dense(&lopsided, &DenseOptions::default());
    assert_eq!(report.shards.len(), 2);
    assert_eq!(report.flow_goodput_mbps.len(), 4);
    assert!(report.flow_goodput_mbps.iter().all(|&g| g >= 0.0));
}
