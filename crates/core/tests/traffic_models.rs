//! End-to-end coverage of the traffic-model layer: every
//! [`TrafficModel`] drives a whole-network world, the per-class
//! metrics API reports what the workload did, and any mix of models
//! re-runs byte-identically under its seed.

use hack_core::{
    run, run_traced, ArrivalDist, CbrConfig, HackMode, OnOffConfig, RunResult, ScenarioBuilder,
    ScenarioConfig, ShortFlowConfig, SizeDist, TrafficClass, TrafficModel,
};
use hack_sim::SimDuration;
use hack_trace::TraceHandle;
use proptest::prelude::*;

/// A fast 802.11n cell with a real steady-state window.
fn cell(n_clients: usize, mode: HackMode, ms: u64) -> ScenarioBuilder {
    ScenarioBuilder::dot11n_download(150, n_clients, mode)
        .duration(SimDuration::from_millis(ms))
        .warmup(SimDuration::from_millis(ms / 5))
        .stagger(SimDuration::from_millis(2))
}

fn traced(cfg: ScenarioConfig) -> (RunResult, Vec<u8>) {
    let (handle, ring) = TraceHandle::ring(1 << 20);
    let r = run_traced(cfg, handle);
    (r, ring.digest().to_bytes().to_vec())
}

/// Deterministic short-flow shape: fixed sizes and think times so the
/// expected transfer count is predictable.
fn short_cfg(size: u64, think_ms: u64, reuse: bool) -> ShortFlowConfig {
    ShortFlowConfig {
        sizes: SizeDist::Fixed(size),
        think: ArrivalDist::Fixed(SimDuration::from_millis(think_ms)),
        reuse,
    }
}

// ----------------------------------------------------------------------
// Short flows
// ----------------------------------------------------------------------

#[test]
fn short_flows_complete_many_transfers() {
    let r = run(cell(1, HackMode::MoreData, 3_000)
        .traffic(TrafficModel::ShortFlows(short_cfg(50_000, 5, true)))
        .build());
    let c = r.class(TrafficClass::Short).expect("short class report");
    assert_eq!(c.flows, 1);
    assert!(
        c.transfers >= 20,
        "50 KB transfers every ~5 ms think over 3 s should finish dozens, got {}",
        c.transfers
    );
    assert_eq!(
        c.fct.count(),
        c.transfers,
        "one FCT sample per completed transfer"
    );
    // 50 KB at >70 Mbps is a few ms; the sketch's relative error is
    // ~7%, so even the p99 must sit far below a second.
    let p99 = c.fct.quantile(0.99).unwrap();
    assert!(
        p99 < 1_000_000_000,
        "p99 FCT {p99} ns is not a plausible 50 KB transfer time"
    );
    assert!(c.goodput_mbps > 1.0, "goodput {}", c.goodput_mbps);
    // The flow must still be alive at the end of the run.
    assert!(r.flow_goodput_final_mbps[0] > 0.0, "short flow stalled");
}

#[test]
fn short_flows_without_reuse_rekey_and_still_hack() {
    let reuse = run(cell(1, HackMode::MoreData, 2_500)
        .traffic(TrafficModel::ShortFlows(short_cfg(100_000, 5, true)))
        .build());
    let fresh = run(cell(1, HackMode::MoreData, 2_500)
        .traffic(TrafficModel::ShortFlows(short_cfg(100_000, 5, false)))
        .build());
    for (label, r) in [("reuse", &reuse), ("fresh", &fresh)] {
        let c = r.class(TrafficClass::Short).expect("short class");
        assert!(c.transfers >= 10, "{label}: only {} transfers", c.transfers);
    }
    // A persistent connection keeps its congestion window across
    // transfers, so back-to-back bursts pile up at the AP and the
    // MORE DATA latch engages. Fresh connections restart in slow
    // start every time: at 100 KB the per-burst backlog never grows
    // enough to set MORE DATA, so reuse must hack strictly more and
    // pay fewer native ACKs per transfer.
    let per = |r: &RunResult, field: u64| {
        let t = r.class(TrafficClass::Short).unwrap().transfers.max(1);
        field as f64 / t as f64
    };
    assert!(
        reuse.driver[0].hacked_acks > 0,
        "reuse: HACK never rode an ACK across the short-flow lifecycle"
    );
    assert!(
        per(&reuse, reuse.driver[0].hacked_acks) > per(&fresh, fresh.driver[0].hacked_acks),
        "persistent connections must hold more ACKs per transfer than fresh ones"
    );
    assert!(
        per(&fresh, fresh.driver[0].native_acks) > per(&reuse, reuse.driver[0].native_acks),
        "fresh connections must pay more native ACKs per transfer (handshake + slow start)"
    );
    // But re-keying is not a permanent HACK outage: once a single
    // transfer is long enough to refill the AP queue past one
    // aggregation batch, the rebuilt five-tuple's context forms and
    // held ACKs flow again on the brand-new connection.
    let fresh_big = run(cell(1, HackMode::MoreData, 2_500)
        .traffic(TrafficModel::ShortFlows(short_cfg(300_000, 5, false)))
        .build());
    assert!(
        fresh_big.driver[0].hacked_acks > 0,
        "re-keyed connections never re-engaged HACK even at 300 KB transfers"
    );
}

#[test]
fn zero_and_one_byte_short_flows_never_stall() {
    for size in [0u64, 1] {
        for reuse in [true, false] {
            let r = run(cell(1, HackMode::MoreData, 1_500)
                .traffic(TrafficModel::ShortFlows(short_cfg(size, 2, reuse)))
                .build());
            let c = r.class(TrafficClass::Short).expect("short class");
            assert!(
                c.transfers >= 10,
                "{size}-byte transfers (reuse={reuse}) wedged after {} rounds \
                 — the restart loop must survive degenerate sizes",
                c.transfers
            );
        }
    }
}

// ----------------------------------------------------------------------
// Bidirectional bulk
// ----------------------------------------------------------------------

#[test]
fn bidirectional_holds_acks_on_both_sides() {
    let r = run(cell(1, HackMode::MoreData, 2_500)
        .traffic(TrafficModel::Bidirectional)
        .build());
    let c = r.class(TrafficClass::Bidir).expect("bidir class");
    assert_eq!(c.flows, 1);
    // Both data directions must move real bytes (the meter sums both
    // receivers of the flow).
    assert!(c.goodput_mbps > 20.0, "bidir goodput {}", c.goodput_mbps);
    // The paper's punt, made to work: the client driver compresses the
    // download's ACK stream AND the AP driver compresses the upload's.
    assert!(
        r.driver[0].hacked_acks > 50,
        "client side held only {} ACKs",
        r.driver[0].hacked_acks
    );
    assert!(
        r.driver_ap[0].hacked_acks > 50,
        "AP side held only {} ACKs — the reverse compressor never engaged",
        r.driver_ap[0].hacked_acks
    );
}

#[test]
fn bidirectional_beats_its_own_stock_baseline() {
    let stock = run(cell(1, HackMode::Disabled, 2_500)
        .traffic(TrafficModel::Bidirectional)
        .build());
    let hack = run(cell(1, HackMode::MoreData, 2_500)
        .traffic(TrafficModel::Bidirectional)
        .build());
    // With ACKs of both directions off the air, HACK must not regress
    // the combined goodput (it wins on the contended reverse path).
    assert!(
        hack.aggregate_goodput_mbps > stock.aggregate_goodput_mbps * 0.97,
        "bidir HACK {:.1} vs stock {:.1}",
        hack.aggregate_goodput_mbps,
        stock.aggregate_goodput_mbps
    );
}

// ----------------------------------------------------------------------
// Paced UDP: CBR and on/off
// ----------------------------------------------------------------------

#[test]
fn cbr_reports_latency_and_jitter_percentiles() {
    let r = run(cell(1, HackMode::Disabled, 3_000)
        .traffic(TrafficModel::Cbr(CbrConfig::default()))
        .build());
    let c = r.class(TrafficClass::Cbr).expect("cbr class");
    // 64 kbit/s in 160-byte frames = one packet per 20 ms ⇒ ~150 over
    // 3 s; nearly all should arrive on an ideal channel.
    assert!(
        c.latency.count() > 100,
        "latency samples {}",
        c.latency.count()
    );
    assert!(c.jitter.count() > 90, "jitter samples {}", c.jitter.count());
    let p95_ms = c.latency.quantile(0.95).unwrap() as f64 / 1e6;
    assert!(
        p95_ms < 50.0,
        "p95 one-way latency {p95_ms:.2} ms on an idle ideal cell"
    );
    // Offered 64 kbps; steady-state goodput should be close.
    assert!(
        (0.03..0.1).contains(&c.goodput_mbps),
        "CBR goodput {} Mbps vs 0.064 offered",
        c.goodput_mbps
    );
}

#[test]
fn onoff_source_delivers_part_time() {
    let model = TrafficModel::OnOff(OnOffConfig {
        on: ArrivalDist::Fixed(SimDuration::from_millis(100)),
        off: ArrivalDist::Fixed(SimDuration::from_millis(100)),
        rate_kbps: 2_000,
        payload_bytes: 1_200,
    });
    let r = run(cell(1, HackMode::Disabled, 3_000).traffic(model).build());
    let c = r.class(TrafficClass::OnOff).expect("onoff class");
    // On half the time at 2 Mbps ⇒ ~1 Mbps long-run average; leave wide
    // margins for period phasing against the measurement window.
    assert!(
        (0.2..1.9).contains(&c.goodput_mbps),
        "on/off goodput {} Mbps",
        c.goodput_mbps
    );
    assert!(
        c.latency.count() > 50,
        "latency samples {}",
        c.latency.count()
    );
}

// ----------------------------------------------------------------------
// Mixed worlds and the per-class metrics API
// ----------------------------------------------------------------------

fn mixed_cfg(mode: HackMode) -> ScenarioConfig {
    cell(3, mode, 2_500)
        .traffic_mix(vec![
            TrafficModel::BulkDownload,
            TrafficModel::ShortFlows(short_cfg(50_000, 10, true)),
            TrafficModel::Cbr(CbrConfig::default()),
        ])
        .build()
}

#[test]
fn mixed_world_reports_every_class() {
    let r = run(mixed_cfg(HackMode::MoreData));
    assert_eq!(r.classes.len(), 3, "three classes, one report each");
    // Reports come out in wire-code order.
    let codes: Vec<u8> = r.classes.iter().map(|c| c.class.code()).collect();
    let mut sorted = codes.clone();
    sorted.sort_unstable();
    assert_eq!(codes, sorted);
    let bulk = r.class(TrafficClass::Bulk).expect("bulk");
    let short = r.class(TrafficClass::Short).expect("short");
    let cbr = r.class(TrafficClass::Cbr).expect("cbr");
    assert!(bulk.goodput_mbps > 10.0, "bulk {}", bulk.goodput_mbps);
    assert!(short.transfers > 5 && short.goodput_mbps > 0.5);
    assert!(cbr.latency.count() > 50);
    // The saturating bulk flow has no byte budget: it never completes.
    assert_eq!(r.flow_completion, vec![None, None, None]);
    assert_eq!(r.completion(), None);
    // All three flows alive at the end.
    for (i, g) in r.flow_goodput_final_mbps.iter().enumerate() {
        assert!(*g > 0.0, "flow {i} stalled in the mixed world");
    }
}

#[test]
fn per_flow_completion_times_drive_the_aggregate() {
    let r = run(cell(2, HackMode::MoreData, 20_000)
        .transfer_bytes(1_500_000)
        .build());
    assert_eq!(r.flow_completion.len(), 2);
    let times: Vec<_> = r
        .flow_completion
        .iter()
        .map(|c| c.expect("1.5 MB must complete"))
        .collect();
    // The derived aggregate is the max of the per-flow times (the old
    // single-Option field's semantics).
    assert_eq!(r.completion(), Some(times[0].max(times[1])));
    let bulk = r.class(TrafficClass::Bulk).expect("bulk");
    assert_eq!(bulk.transfers, 2);
    assert_eq!(bulk.fct.count(), 2);
}

// ----------------------------------------------------------------------
// Determinism
// ----------------------------------------------------------------------

#[test]
fn mixed_world_reruns_byte_identical() {
    let (ra, da) = traced(mixed_cfg(HackMode::MoreData));
    let (rb, db) = traced(mixed_cfg(HackMode::MoreData));
    assert_eq!(da, db, "same seed must reproduce the trace bit for bit");
    assert_eq!(ra.aggregate_goodput_mbps, rb.aggregate_goodput_mbps);
    assert_eq!(ra.classes, rb.classes);
}

/// The model pool the mix proptest draws from: every variant, with
/// parameters small enough for sub-second worlds.
fn model_pool(ix: usize) -> TrafficModel {
    match ix % 7 {
        0 => TrafficModel::BulkDownload,
        1 => TrafficModel::BulkUpload,
        2 => TrafficModel::Bidirectional,
        3 => TrafficModel::ShortFlows(short_cfg(20_000, 3, true)),
        4 => TrafficModel::ShortFlows(ShortFlowConfig {
            sizes: SizeDist::BoundedPareto {
                alpha: 1.2,
                min: 1_000,
                max: 100_000,
            },
            think: ArrivalDist::Exponential {
                mean: SimDuration::from_millis(5),
            },
            reuse: false,
        }),
        5 => TrafficModel::Cbr(CbrConfig {
            rate_kbps: 256,
            payload_bytes: 160,
        }),
        _ => TrafficModel::OnOff(OnOffConfig {
            on: ArrivalDist::Exponential {
                mean: SimDuration::from_millis(50),
            },
            off: ArrivalDist::Exponential {
                mean: SimDuration::from_millis(50),
            },
            rate_kbps: 1_000,
            payload_bytes: 600,
        }),
    }
}

proptest! {
    /// ANY mix of traffic models re-runs byte-identically: the trace
    /// digest — every PHY draw, MAC exchange, TCP byte, and ROHC blob —
    /// is a pure function of the seed, and per-flow RNG forks keep one
    /// flow's model from perturbing another's draws.
    #[test]
    fn any_traffic_mix_reruns_byte_identical(
        seed in 0u64..1_000,
        picks in proptest::collection::vec(0usize..7, 1..4),
    ) {
        let mix: Vec<TrafficModel> = picks.iter().map(|&p| model_pool(p)).collect();
        let cfg = cell(mix.len(), HackMode::MoreData, 400)
            .traffic_mix(mix)
            .seed(seed)
            .build();
        let (ra, da) = traced(cfg.clone());
        let (rb, db) = traced(cfg);
        prop_assert_eq!(da, db, "traffic mix broke determinism");
        prop_assert_eq!(ra.classes, rb.classes);
        prop_assert_eq!(ra.events_dispatched, rb.events_dispatched);
    }
}
