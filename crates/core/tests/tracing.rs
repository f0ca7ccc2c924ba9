//! Trace-layer integration tests: the determinism contract ("same seed
//! ⇒ byte-identical trace digest") and the paper's headline comparison
//! (Figure 9 / Table 1 direction) measured through traced runs.

use hack_core::{
    ChannelChange, ChannelEvent, CorruptModel, GeParams, HackMode, LossConfig, RunResult,
    ScenarioBuilder, ScenarioConfig, World,
};
use hack_sim::SimDuration;
use hack_trace::{Digest, Layer, TraceHandle};

fn cfg(mode: HackMode, seed: u64) -> ScenarioConfig {
    let mut c = ScenarioBuilder::sora_testbed(1, mode).build();
    c.duration = SimDuration::from_secs(2);
    c.seed = seed;
    c
}

fn traced(c: ScenarioConfig) -> (RunResult, Digest) {
    let (handle, ring) = TraceHandle::ring(1 << 20);
    let res = World::builder(c).trace(handle).run();
    let digest = ring.digest();
    (res, digest)
}

#[test]
fn same_seed_gives_byte_identical_digest() {
    let (ra, da) = traced(cfg(HackMode::MoreData, 7));
    let (rb, db) = traced(cfg(HackMode::MoreData, 7));
    assert!(da.events > 1000, "trace suspiciously small: {}", da.events);
    assert_eq!(
        da.to_bytes(),
        db.to_bytes(),
        "same seed must replay exactly"
    );
    assert_eq!(
        ra.aggregate_goodput_mbps, rb.aggregate_goodput_mbps,
        "digests match but results differ: the digest misses state"
    );
}

/// Scenario with every fault-injection feature on at once: bursty
/// Gilbert–Elliott loss, corrupted delivery (FCS-caught and
/// FCS-escaping), and scheduled mid-run channel dynamics.
fn faulty_cfg(seed: u64) -> ScenarioConfig {
    let mut c = cfg(HackMode::MoreData, seed);
    c.loss = LossConfig::Burst(GeParams::bursty(0.08, 6.0));
    c.corrupt = Some(CorruptModel {
        data_frac: 0.5,
        control_per: 0.02,
        fcs_miss: 0.25,
    });
    c.dynamics = vec![
        ChannelEvent {
            at: SimDuration::from_millis(600),
            change: ChannelChange::ClientLoss {
                client: 0,
                per: 0.1,
            },
        },
        ChannelEvent {
            at: SimDuration::from_millis(1200),
            change: ChannelChange::SnrOffsetDb(-3.0),
        },
    ];
    c
}

/// The determinism contract must survive fault injection: bursty loss,
/// corrupted delivery, and scheduled dynamics all draw from the same
/// seeded RNG, so equal seeds still replay byte-identically.
#[test]
fn fault_injection_keeps_the_digest_deterministic() {
    let (ra, da) = traced(faulty_cfg(13));
    let (rb, db) = traced(faulty_cfg(13));
    assert!(da.events > 1000, "trace suspiciously small: {}", da.events);
    assert_eq!(
        da.to_bytes(),
        db.to_bytes(),
        "fault injection broke seed determinism"
    );
    assert_eq!(ra.aggregate_goodput_mbps, rb.aggregate_goodput_mbps);
    let (_, dc) = traced(faulty_cfg(14));
    assert_ne!(da.to_bytes(), dc.to_bytes(), "seeds must still diverge");
}

/// The corrupted-delivery path runs end-to-end under load: FCS-caught
/// corruption shows up in the MAC counters, FCS-escaping blob flips
/// reach the ROHC decompressor as CRC-3 failures, and TCP keeps making
/// progress through all of it.
#[test]
fn corrupted_delivery_exercises_fcs_and_crc3_without_stalling() {
    let (r, _) = traced(faulty_cfg(21));
    let fcs_bad: u64 = r.mac.iter().map(|m| m.rx_fcs_bad.get()).sum();
    assert!(fcs_bad > 0, "no FCS-caught corrupted MPDUs");
    assert!(
        r.decompressor.crc_failures > 0,
        "no blob corruption reached the ROHC CRC-3 check"
    );
    assert!(
        r.aggregate_goodput_mbps > 1.0,
        "TCP stalled under fault injection: {:.3} Mbps",
        r.aggregate_goodput_mbps
    );
}

#[test]
fn different_seed_gives_different_digest() {
    let (_, da) = traced(cfg(HackMode::MoreData, 7));
    let (_, db) = traced(cfg(HackMode::MoreData, 8));
    assert_ne!(
        da.to_bytes(),
        db.to_bytes(),
        "different seeds should diverge somewhere in the event stream"
    );
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let plain = World::builder(cfg(HackMode::MoreData, 11)).run();
    let (traced_res, d) = traced(cfg(HackMode::MoreData, 11));
    assert!(d.events > 0);
    assert_eq!(
        plain.aggregate_goodput_mbps, traced_res.aggregate_goodput_mbps,
        "attaching a sink must not change behavior"
    );
}

#[test]
fn traced_run_covers_every_layer() {
    let (_, d) = traced(cfg(HackMode::MoreData, 3));
    for layer in [Layer::Phy, Layer::Mac, Layer::Tcp, Layer::Rohc, Layer::Sim] {
        assert!(
            d.per_layer[layer as usize] > 0,
            "no events from layer {layer:?}"
        );
    }
}

/// Table 1 / Figure 9 direction: HACK must match-or-beat stock TCP on
/// both goodput and the fraction of AP data frames needing no retries.
#[test]
fn hack_matches_or_beats_stock_tcp_on_goodput_and_retries() {
    let mut stock = cfg(HackMode::Disabled, 5);
    stock.loss = LossConfig::PerClient(vec![0.02]);
    let mut hack = stock.clone();
    hack.hack_mode = HackMode::MoreData;

    let (rs, _) = traced(stock);
    let (rh, _) = traced(hack);
    assert!(
        rh.aggregate_goodput_mbps >= rs.aggregate_goodput_mbps,
        "HACK goodput {:.2} < stock {:.2}",
        rh.aggregate_goodput_mbps,
        rs.aggregate_goodput_mbps
    );
    let fs = rs.ap_first_try_fraction().expect("stock AP sent data");
    let fh = rh.ap_first_try_fraction().expect("hack AP sent data");
    assert!(
        fh >= fs,
        "HACK retry-free fraction {fh:.3} < stock {fs:.3} (Table 1 inverts)"
    );
}
