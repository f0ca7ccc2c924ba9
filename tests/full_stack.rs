//! Whole-repository integration tests: exercise the public facade the
//! way a downstream user would, spanning every crate at once.

use tcp_hack::core::{HackMode, LossConfig, ScenarioBuilder, ScenarioConfig, TrafficModel, World};
use tcp_hack::phy::{Channel, PhyRate, StationId};
use tcp_hack::sim::SimDuration;

fn short(mut cfg: ScenarioConfig, secs: u64) -> ScenarioConfig {
    cfg.duration = SimDuration::from_secs(secs);
    cfg
}

/// The paper's headline claim, end to end: HACK increases TCP goodput on
/// 802.11n, and the win comes with fewer collisions.
#[test]
fn headline_hack_beats_stock_with_fewer_collisions() {
    let stock = World::builder(short(
        ScenarioBuilder::dot11n_download(150, 1, HackMode::Disabled).build(),
        4,
    ))
    .run();
    let hack = World::builder(short(
        ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData).build(),
        4,
    ))
    .run();
    assert!(hack.aggregate_goodput_mbps > stock.aggregate_goodput_mbps * 1.08);
    assert!(hack.collisions < stock.collisions);
    assert!(hack.driver[0].hacked_acks > 1000);
}

/// The analytical model and the simulator must agree on ordering:
/// UDP ≥ HACK ≥ TCP, with simulation below the lossless analysis.
#[test]
fn analysis_bounds_simulation() {
    use tcp_hack::analysis::{CapacityModel, Protocol};
    let m = CapacityModel::dot11n();
    let rate = PhyRate::ht(150);
    let theor_udp = m.goodput_dot11n(rate, Protocol::Udp);
    let theor_tcp = m.goodput_dot11n(rate, Protocol::Tcp);

    let sim_udp = World::builder(short(
        ScenarioBuilder::dot11n_download(150, 1, HackMode::Disabled)
            .traffic(TrafficModel::UdpDownload)
            .build(),
        4,
    ))
    .run();
    let sim_tcp = World::builder(short(
        ScenarioBuilder::dot11n_download(150, 1, HackMode::Disabled).build(),
        4,
    ))
    .run();
    // Theory is an upper bound (no collisions, no TCP dynamics), within
    // a small tolerance for measurement-window burstiness.
    assert!(sim_udp.aggregate_goodput_mbps <= theor_udp * 1.02);
    assert!(sim_tcp.aggregate_goodput_mbps <= theor_tcp * 1.02);
    // And the simulator is not wildly below it either.
    assert!(sim_udp.aggregate_goodput_mbps > theor_udp * 0.9);
    assert!(sim_tcp.aggregate_goodput_mbps > theor_tcp * 0.8);
}

/// Every TCP ACK must reach the sender exactly once, whichever path it
/// takes: the byte counters of sender and receiver must reconcile.
#[test]
fn conservation_of_acked_bytes() {
    let r = World::builder(short(
        ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData).build(),
        4,
    ))
    .run();
    for flow in 0..2 {
        let sent = r.sender_tcp[flow].bytes_acked;
        let delivered = r.receiver_tcp[flow].bytes_delivered;
        assert!(
            sent <= delivered,
            "flow {flow}: sender believes {sent} acked but only {delivered} delivered"
        );
        assert!(delivered > 0);
    }
}

/// The SoRa reproduction: HACK sits just under UDP; stock TCP far below
/// (Figure 9's shape).
#[test]
fn sora_ordering() {
    let udp = World::builder(short(
        ScenarioBuilder::sora_testbed(1, HackMode::Disabled)
            .traffic(TrafficModel::UdpDownload)
            .build(),
        4,
    ))
    .run();
    let hack = World::builder(short(
        ScenarioBuilder::sora_testbed(1, HackMode::MoreData).build(),
        4,
    ))
    .run();
    let tcp = World::builder(short(
        ScenarioBuilder::sora_testbed(1, HackMode::Disabled).build(),
        4,
    ))
    .run();
    assert!(udp.aggregate_goodput_mbps > hack.aggregate_goodput_mbps);
    assert!(hack.aggregate_goodput_mbps > tcp.aggregate_goodput_mbps * 1.15);
    // HACK within ~5% of the UDP ceiling, per the paper.
    assert!(hack.aggregate_goodput_mbps > udp.aggregate_goodput_mbps * 0.93);
}

/// Retry shape of Table 1: stock TCP needs retries (collisions) that
/// HACK and UDP avoid.
#[test]
fn retry_breakdown_shape() {
    let tcp = World::builder(short(
        ScenarioBuilder::sora_testbed(2, HackMode::Disabled).build(),
        4,
    ))
    .run();
    let hack = World::builder(short(
        ScenarioBuilder::sora_testbed(2, HackMode::MoreData).build(),
        4,
    ))
    .run();
    let f_tcp = tcp.ap_first_try_fraction().unwrap();
    let f_hack = hack.ap_first_try_fraction().unwrap();
    assert!(
        f_hack > f_tcp,
        "HACK first-try {f_hack:.3} must beat TCP {f_tcp:.3}"
    );
}

/// Under SNR-driven loss the whole stack (PHY loss → MAC retries → ROHC
/// resync → TCP recovery) holds together and still makes progress.
#[test]
fn snr_loss_full_stack() {
    let rate = 90u64;
    let mut ch = Channel::indoor();
    ch.place(StationId(0), 0.0, 0.0);
    // ~2 dB above the rate's sensitivity: lossy but workable.
    let d = ch.distance_for_snr(PhyRate::ht(rate).min_snr_db() + 2.0);
    let mut cfg = ScenarioBuilder::dot11n_download(rate, 1, HackMode::MoreData).build();
    cfg.loss = LossConfig::SnrDistance(d);
    let r = World::builder(short(cfg, 4)).run();
    assert!(
        r.flow_goodput_full_mbps[0] > 10.0,
        "goodput collapsed: {:.2}",
        r.flow_goodput_full_mbps[0]
    );
    assert!(r.mac[0].mpdus_retried.get() > 0, "losses must be visible");
    assert!(
        r.decompressor.decompressed > 100,
        "compression must keep working under loss"
    );
}

/// A byte-budgeted upload completes and reports a sane completion time
/// (the wireless-backup scenario).
#[test]
fn upload_completes() {
    let cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData)
        .traffic(TrafficModel::BulkUpload)
        .transfer_bytes(5_000_000)
        .duration(SimDuration::from_secs(60))
        .build();
    let r = World::builder(cfg).run();
    let t = r.completion().expect("upload must finish").as_secs_f64();
    assert!(t < 3.0, "5 MB upload took {t:.2} s");
}

/// Determinism across the entire stack: same seed, same world.
#[test]
fn whole_stack_determinism() {
    let cfg = short(
        ScenarioBuilder::sora_testbed(2, HackMode::MoreData).build(),
        3,
    );
    let a = World::builder(cfg.clone()).run();
    let b = World::builder(cfg).run();
    assert_eq!(a.aggregate_goodput_mbps, b.aggregate_goodput_mbps);
    assert_eq!(a.ppdus, b.ppdus);
    assert_eq!(a.decompressor.decompressed, b.decompressor.decompressed);
    assert_eq!(
        a.driver[0].hacked_acks + a.driver[1].hacked_acks,
        b.driver[0].hacked_acks + b.driver[1].hacked_acks
    );
}

/// The blob-within-AIFS claim (§3.3.2 footnote 7). With single-MPDU
/// exchanges (802.11a) blobs carry one or two ACKs and always fit. In
/// 802.11n, our ~8-byte-per-ACK W-LSB encoding makes a full 21-ACK blob
/// overrun AIFS (the paper's tighter ~4.4-byte ROHC packing mostly
/// fits); like the paper's simulator, we send oversized blobs on a
/// single LL ACK rather than splitting (§3.3.2 fn 7), which is safe in
/// these no-hidden-terminal cells. EXPERIMENTS.md discusses the gap.
#[test]
fn blobs_fit_within_aifs_on_dot11a() {
    let r = World::builder(short(
        ScenarioBuilder::sora_testbed(1, HackMode::MoreData).build(),
        4,
    ))
    .run();
    assert!(
        r.blob_within_aifs > 0.95,
        "only {:.1}% of 802.11a blobs fit within AIFS",
        r.blob_within_aifs * 100.0
    );
    // The 802.11n measurement is reported, not asserted: record that the
    // metric is being computed at all.
    let rn = World::builder(short(
        ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData).build(),
        3,
    ))
    .run();
    assert!((0.0..=1.0).contains(&rn.blob_within_aifs));
}
