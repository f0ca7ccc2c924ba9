//! Digest pins for the event-loop paths `cc_digest_pin` does not reach:
//! bystander receptions under corrupted delivery (every non-addressee
//! of a PPDU, and the RNG draw an FCS-escaping flip costs), the dense
//! shard engine, connection re-open on a fresh five-tuple, and a
//! scheduled AP handoff.
//!
//! The digests were captured immediately before hot-path round 3
//! (recycled action buffers, overhear-by-reference, direct-indexed
//! routing tables, in-order reorder fast path). A host-side speed-up
//! may not move one simulated bit, so each must stay byte-identical.

use hack_core::{
    run_dense, run_traced, ArrivalDist, BssSpec, CorruptModel, DenseOptions, GeParams, HackMode,
    LossConfig, RoamEvent, ScenarioBuilder, ScenarioConfig, ShortFlowConfig, SizeDist,
    StandardKind, SupervisorConfig, TrafficModel,
};
use hack_sim::SimDuration;
use hack_trace::TraceHandle;

fn digest_of(cfg: ScenarioConfig) -> String {
    let (handle, ring) = TraceHandle::ring(1 << 20);
    let _ = run_traced(cfg, handle);
    ring.digest()
        .to_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn assert_pins(what: &str, got: &[String], pins: &[&str]) {
    assert_eq!(
        got, pins,
        "trace drifted: {what} no longer matches its pre-round-3 digests"
    );
}

/// Four 802.11n clients behind one AP under Gilbert–Elliott bursts and
/// corrupted delivery: three of every four receptions are bystanders,
/// and FCS-escaping flips on blob-carrying (Block) ACKs draw from the
/// world RNG at every receiver that hears them.
#[test]
fn corrupt_bursty_four_clients() {
    const PINS: [&str; 2] = [
        "485452440100275e000000000000c4457684a67117d87d0f000000000000d70e0000000000004f0a00000000000081350000000000000300000000000000",
        "4854524401002f5c0000000000009b693c305178fb46ac0d0000000000000b0e0000000000009209000000000000e3360000000000000300000000000000",
    ];
    let got: Vec<String> = (1..=2)
        .map(|seed| {
            let mut c = ScenarioBuilder::dot11n_download(150, 4, HackMode::MoreData).build();
            c.duration = SimDuration::from_millis(1500);
            c.seed = seed;
            c.loss = LossConfig::Burst(GeParams::bursty(0.08, 6.0));
            c.corrupt = Some(CorruptModel {
                data_frac: 0.5,
                control_per: 0.02,
                fcs_miss: 0.25,
            });
            digest_of(c)
        })
        .collect();
    assert_pins("corrupt + bursty, 4 clients", &got, &PINS);
}

/// A 4-BSS enterprise floor through `run_dense`: one digest per shard.
#[test]
fn enterprise_floor_shards() {
    const PINS: [&str; 4] = [
        "4854524401006217000000000000f08ce67249706dd65b02000000000000a0020000000000008706000000000000dc0b0000000000000400000000000000",
        "4854524401006b17000000000000011a601ede0e0a1a9302000000000000f1020000000000003106000000000000b20b0000000000000400000000000000",
        "485452440100b317000000000000aaf4cc8a070375035f02000000000000c6020000000000005a06000000000000300c0000000000000400000000000000",
        "485452440100f8170000000000004d5d7bd655b1c4348902000000000000e5020000000000008006000000000000060c0000000000000400000000000000",
    ];
    let cfg = ScenarioConfig::builder()
        .standard(StandardKind::Dot11n)
        .rate_mbps(150)
        .hack(HackMode::MoreData)
        .bss(BssSpec::enterprise_floor(4, 4))
        .duration(SimDuration::from_millis(300))
        .stagger(SimDuration::from_millis(2))
        .warmup(SimDuration::from_millis(50))
        .seed(7)
        .build();
    let report = run_dense(
        &cfg,
        &DenseOptions {
            digests: true,
            ..DenseOptions::default()
        },
    );
    let got: Vec<String> = report
        .shards
        .into_iter()
        .map(|s| s.digest.expect("digests requested"))
        .collect();
    assert_pins("enterprise_floor(4, 4) shards", &got, &PINS);
}

/// Short flows that open a fresh connection per transfer: endpoints,
/// routing entries, timers and ROHC contexts are torn down and rebuilt
/// many times in one run.
#[test]
fn short_flows_fresh_connections() {
    const PINS: [&str; 1] = [
        "485452440100e95500000000000023b05da64d2c44f60927000000000000ea21000000000000e30b00000000000011010000000000000200000000000000",
    ];
    let cfg = ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData)
        .duration(SimDuration::from_millis(1500))
        .warmup(SimDuration::from_millis(300))
        .stagger(SimDuration::from_millis(2))
        .traffic(TrafficModel::ShortFlows(ShortFlowConfig {
            sizes: SizeDist::Fixed(100_000),
            think: ArrivalDist::Fixed(SimDuration::from_millis(5)),
            reuse: false,
        }))
        .seed(3)
        .build();
    assert_pins("short flows, reuse off", &[digest_of(cfg)], &PINS);
}

/// A supervised flow handed off to a second AP and back on a schedule:
/// drivers re-keyed, parked packets re-injected, contexts dropped.
#[test]
fn scheduled_roam() {
    const PINS: [&str; 1] = [
        "485452440100091a0000000000004519987e1320850bd305000000000000b3050000000000007903000000000000f30a0000000000001700000000000000",
    ];
    let mut cfg = ScenarioConfig::builder()
        .standard(StandardKind::Dot11n)
        .rate_mbps(150)
        .hack(HackMode::MoreData)
        .bss(vec![
            BssSpec {
                x: 0.0,
                y: 0.0,
                channel: 1,
                n_clients: 1,
            },
            BssSpec {
                x: 25.0,
                y: 0.0,
                channel: 6,
                n_clients: 0,
            },
        ])
        .duration(SimDuration::from_millis(800))
        .warmup(SimDuration::from_millis(5))
        .seed(13)
        .build();
    cfg.supervisor = Some(SupervisorConfig::default());
    cfg.roam.schedule = [(200, 1), (500, 0)]
        .into_iter()
        .map(|(ms, target_bss)| RoamEvent {
            flow: 0,
            at: SimDuration::from_millis(ms),
            target_bss,
        })
        .collect();
    assert_pins("scheduled roam", &[digest_of(cfg)], &PINS);
}
