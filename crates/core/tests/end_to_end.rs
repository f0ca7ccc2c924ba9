//! End-to-end simulation tests: whole-network runs must produce sane,
//! paper-shaped results.

use hack_core::{HackMode, LossConfig, ScenarioBuilder, ScenarioConfig, TrafficModel, World};
use hack_sim::SimDuration;

fn short(mut cfg: ScenarioConfig) -> ScenarioConfig {
    cfg.duration = SimDuration::from_secs(3);
    cfg
}

#[test]
fn udp_download_approaches_capacity_dot11a() {
    let cfg = short(
        ScenarioBuilder::sora_testbed(1, HackMode::Disabled)
            .traffic(TrafficModel::UdpDownload)
            .build(),
    );
    let mut cfg = cfg;
    cfg.sora_quirks = false;
    cfg.loss = LossConfig::Ideal;
    let res = World::builder(cfg).run();
    // Ideal 802.11a UDP at 54 Mbps ≈ 28–30 Mbps application goodput.
    assert!(
        res.aggregate_goodput_mbps > 25.0 && res.aggregate_goodput_mbps < 32.0,
        "UDP goodput {:.2} Mbps out of range",
        res.aggregate_goodput_mbps
    );
    assert_eq!(res.collisions, 0, "unidirectional UDP cannot collide");
}

#[test]
fn tcp_download_dot11a_works_and_hack_beats_stock() {
    let mut stock = short(ScenarioBuilder::sora_testbed(1, HackMode::Disabled).build());
    stock.loss = LossConfig::Ideal;
    stock.sora_quirks = false;
    let mut hack = stock.clone();
    hack.hack_mode = HackMode::MoreData;

    let rs = World::builder(stock).run();
    assert!(
        rs.aggregate_goodput_mbps > 15.0,
        "stock TCP/802.11a too slow: {:.2} Mbps",
        rs.aggregate_goodput_mbps
    );
    let rh = World::builder(hack).run();
    assert!(
        rh.aggregate_goodput_mbps > rs.aggregate_goodput_mbps * 1.1,
        "HACK ({:.2}) must clearly beat stock ({:.2})",
        rh.aggregate_goodput_mbps,
        rs.aggregate_goodput_mbps
    );
    // HACK actually rode compressed ACKs.
    assert!(
        rh.driver[0].hacked_acks > 100,
        "too few hacked ACKs: {}",
        rh.driver[0].hacked_acks
    );
    // And the AP reconstituted them without persistent failures.
    assert!(rh.decompressor.decompressed > 100);
}

#[test]
fn tcp_download_dot11n_aggregation() {
    let stock = short(ScenarioBuilder::dot11n_download(150, 1, HackMode::Disabled).build());
    let res = World::builder(stock).run();
    // Theoretical TCP/802.11n at 150 Mbps is ~110-125 Mbps; with
    // collisions and TCP dynamics, expect a healthy fraction.
    assert!(
        res.aggregate_goodput_mbps > 70.0,
        "TCP/802.11n goodput {:.2} Mbps too low",
        res.aggregate_goodput_mbps
    );
    assert!(
        res.aggregate_goodput_mbps < 130.0,
        "goodput {:.2} exceeds theoretical capacity",
        res.aggregate_goodput_mbps
    );
}

#[test]
fn hack_more_data_beats_stock_dot11n() {
    let stock = short(ScenarioBuilder::dot11n_download(150, 1, HackMode::Disabled).build());
    let hack = short(ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData).build());
    let rs = World::builder(stock).run();
    let rh = World::builder(hack).run();
    assert!(
        rh.aggregate_goodput_mbps > rs.aggregate_goodput_mbps * 1.05,
        "HACK {:.2} vs stock {:.2}: expected ≥5% gain",
        rh.aggregate_goodput_mbps,
        rs.aggregate_goodput_mbps
    );
    assert!(rh.driver[0].hacked_acks > 100);
}

#[test]
fn determinism_same_seed_same_result() {
    let cfg = short(ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData).build());
    let a = World::builder(cfg.clone()).run();
    let b = World::builder(cfg).run();
    assert_eq!(a.aggregate_goodput_mbps, b.aggregate_goodput_mbps);
    assert_eq!(a.ppdus, b.ppdus);
    assert_eq!(a.collisions, b.collisions);
}

#[test]
fn upload_is_symmetric() {
    let mut cfg = short(ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData).build());
    cfg.traffic = TrafficModel::BulkUpload;
    let res = World::builder(cfg).run();
    assert!(
        res.aggregate_goodput_mbps > 50.0,
        "upload goodput {:.2} Mbps too low",
        res.aggregate_goodput_mbps
    );
}

#[test]
fn byte_limited_transfer_completes() {
    let mut cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::Disabled).build();
    cfg.transfer_bytes = Some(2_000_000);
    cfg.duration = SimDuration::from_secs(20);
    let res = World::builder(cfg).run();
    assert!(res.completion().is_some(), "2 MB transfer must complete");
    let t = res.completion().unwrap().as_secs_f64();
    assert!(
        t < 2.0,
        "2 MB at >70 Mbps should take well under 2 s, took {t:.2}"
    );
}

#[test]
fn lossy_environment_recovers() {
    let mut cfg = short(ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData).build());
    cfg.loss = LossConfig::PerClient(vec![0.10]);
    let res = World::builder(cfg).run();
    assert!(
        res.aggregate_goodput_mbps > 20.0,
        "flow must survive 10% loss, got {:.2} Mbps",
        res.aggregate_goodput_mbps
    );
    // Retries happened…
    let ap = &res.mac[0];
    assert!(ap.mpdus_retried.get() > 0);
    // …and ROHC desync never persisted (some CRC failures are fine).
    assert!(res.decompressor.decompressed > 50);
}

#[test]
fn opportunistic_mode_rides_some_acks_without_regressing() {
    let stock = World::builder(short(
        ScenarioBuilder::dot11n_download(150, 1, HackMode::Disabled).build(),
    ))
    .run();
    let opp = World::builder(short(
        ScenarioBuilder::dot11n_download(150, 1, HackMode::Opportunistic).build(),
    ))
    .run();
    // The paper's observation: Opportunistic HACK is NOT a big win, but
    // it must not be a loss either, and it does ride some ACKs.
    assert!(opp.aggregate_goodput_mbps > stock.aggregate_goodput_mbps * 0.97);
    assert!(
        opp.driver[0].hacked_acks > 50,
        "{}",
        opp.driver[0].hacked_acks
    );
    // Dual-path bookkeeping: the AP never forwards more ACKs than the
    // receiver generated plus duplicates it could detect.
    assert!(opp.decompressor.decompressed <= opp.receiver_tcp[0].acks_sent);
}

#[test]
fn explicit_timer_mode_works_but_underperforms_more_data() {
    use hack_sim::SimDuration as D;
    let timer = World::builder(short(
        ScenarioBuilder::dot11n_download(150, 1, HackMode::ExplicitTimer(D::from_millis(5)))
            .build(),
    ))
    .run();
    let more_data = World::builder(short(
        ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData).build(),
    ))
    .run();
    assert!(timer.aggregate_goodput_mbps > 50.0);
    assert!(timer.driver[0].hacked_acks > 100);
    assert!(timer.driver[0].timer_flushes > 0, "the timer must fire");
    assert!(
        more_data.aggregate_goodput_mbps > timer.aggregate_goodput_mbps,
        "MORE DATA ({:.1}) must beat the explicit timer ({:.1}) — §3.2",
        more_data.aggregate_goodput_mbps,
        timer.aggregate_goodput_mbps
    );
}

#[test]
fn long_explicit_timer_stalls_the_ack_clock() {
    use hack_sim::SimDuration as D;
    // The §3.2 pathology: when the sender's entire window is delivered
    // in one batch and the AP queue drains, the held ACKs get no ride
    // and sit until the hold timer (or worse, the sender's RTO) fires.
    // A small receive window makes the queue-drain condition systematic
    // (with large windows the failure is bimodal across seeds — see the
    // ablate-timer experiment).
    let mut cfg = short(
        ScenarioBuilder::dot11n_download(150, 1, HackMode::ExplicitTimer(D::from_millis(100)))
            .build(),
    );
    // 32 KB ≈ 22 segments with the sender on the AP: the whole window
    // lands in the AP queue at once and goes out as a single A-MPDU,
    // after which the queue is empty and the sender is ACK-starved —
    // the paper's "entire congestion window … sent in a single A-MPDU".
    // (Behind the wired backhaul the segments trickle in and the AP
    // drains them in many small batches, so no single batch swallows
    // the window.)
    cfg.rcv_window = 32 * 1024;
    cfg.server_at_ap = true;
    let r = World::builder(cfg).run();
    let mut baseline = short(ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData).build());
    baseline.rcv_window = 32 * 1024;
    baseline.server_at_ap = true;
    let b = World::builder(baseline).run();
    // Every window's worth of ACKs waits out the 100 ms hold: goodput
    // collapses to roughly rwnd / hold ≈ 5 Mbps, far below MORE DATA
    // under the same window.
    assert!(
        r.aggregate_goodput_mbps < b.aggregate_goodput_mbps * 0.5,
        "expected a stalled flow, got {:.1} vs MORE DATA {:.1} Mbps",
        r.aggregate_goodput_mbps,
        b.aggregate_goodput_mbps
    );
}

#[test]
fn more_data_latch_tracks_queue_state() {
    // With a byte-limited transfer the final batches carry MORE DATA = 0
    // and the driver flushes: no ACKs may remain held at the end.
    let mut cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData).build();
    cfg.transfer_bytes = Some(3_000_000);
    cfg.duration = SimDuration::from_secs(20);
    let r = World::builder(cfg).run();
    assert!(r.completion().is_some());
    // Everything the receiver generated was either ridden or sent
    // natively (held-and-confirmed or flushed).
    let d = &r.driver[0];
    let accounted = d.hacked_acks + d.native_acks;
    let generated = r.receiver_tcp[0].acks_sent;
    assert!(
        accounted + 5 >= generated,
        "ACKs unaccounted for: generated {generated}, accounted {accounted}"
    );
}
