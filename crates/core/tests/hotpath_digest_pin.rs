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
//!
//! The second group was captured immediately before hot-path round 4
//! (recycled reception records and frame vectors, direct-indexed medium
//! tables, inline SACK blocks), for the paths that round rewrites and
//! no earlier pin reaches: overlapping stock-TCP transmissions, mid-run
//! loss overrides composed on the burst and SNR models and the
//! Gilbert–Elliott reset of a move, and SACK-bearing ACKs through the
//! ROHC compressor, the hold queue and the decompressor.
//!
//! The third group was captured immediately before the scheduler learned
//! to remove events and to batch same-instant host deliveries, for the
//! timer and delivery paths that change touches and no earlier pin
//! reaches: explicit-timer flushes, opportunistic native twins, AP-side
//! holds of a bidirectional flow, supervisor probes under a loss storm,
//! and a byte-budgeted run that ends in the middle of a delivery burst.
//!
//! The fourth group was captured immediately before wired packets bound
//! for a busy AP started waiting in the backhaul instead of the event
//! queue, for the paths that change reaches and no earlier pin covers:
//! tail drops at a capped AP queue, paced datagrams arriving at an idle
//! AP and at a busy one, and ten staggered clients whose packets share
//! one backhaul while the AP creates their queues one by one.
//!
//! The fifth group was captured immediately before a host delivery
//! batch started settling its blob installs and TCP timer re-arms once,
//! at the batch's end, for the worlds where that is closest to moving
//! an event: every holding mode, with `dma_delay` or `stack_delay` at
//! zero, one and three clients, servers on the AP, and a supervisor
//! that falls back to native ACKs in the middle of a batch. Its pins
//! hold `events_dispatched` as well as the digest.
//!
//! The sixth group was captured immediately before the client driver's
//! held ACKs and blob bytes moved into one queue type, for the path no
//! earlier pin reaches: a supervisor forcing an Opportunistic driver
//! native while ACKs are held.
//!
//! The seventh group was captured immediately before the ROHC
//! compressor and decompressor came to share one flow table, for the
//! path no earlier pin reaches: two flows at one AP whose five-tuples
//! hash to the same CID.
//!
//! The eighth group was captured immediately before the decompress side
//! moved from one per station to one per end of each link, for the path
//! no earlier pin reaches: a pure upload, whose ACKs the AP compresses
//! toward the client. Its pins hold `events_dispatched` as well.
//!
//! The ninth group was captured immediately before each endpoint's TCP
//! timer stopped being cancelled and re-pushed whenever its deadline
//! moved later, for every path a TCP deadline takes: an RTO that really
//! fires, delayed ACKs, BBR's pacing deadline, short flows whose
//! re-key tears the timer down, a supervised flow whose RTOs stall, and
//! a scheduled roam. That change adds and removes events, so its pins
//! hold a hash of the encoded `RunResult` with `events_dispatched`
//! zeroed rather than the event count.

use hack_core::{
    encode_run_result, run_dense, ArrivalDist, BssSpec, CbrConfig, CcKind, ChannelChange,
    ChannelEvent, CorruptModel, DenseOptions, FlowHealth, GeParams, HackMode, LossConfig,
    OnOffConfig, RoamEvent, RunResult, ScenarioBuilder, ScenarioConfig, ShortFlowConfig, SizeDist,
    StableHasher, StandardKind, SupervisorConfig, TrafficModel, World,
};
use hack_sim::SimDuration;
use hack_tcp::{FiveTuple, Ipv4Addr};
use hack_trace::TraceHandle;

fn digest_of(cfg: ScenarioConfig) -> String {
    run_and_digest(cfg).1
}

fn run_and_digest(cfg: ScenarioConfig) -> (RunResult, String) {
    let (handle, ring) = TraceHandle::ring(1 << 20);
    let result = World::builder(cfg).trace(handle).run();
    let digest = ring
        .digest()
        .to_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    (result, digest)
}

fn assert_pins(what: &str, got: &[String], pins: &[&str]) {
    assert_eq!(
        got, pins,
        "trace drifted: {what} no longer matches its pinned digests"
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

// ---------------------------------------------------------------------
// Captured before hot-path round 4.
// ---------------------------------------------------------------------

/// The SoRa testbed with two stock-TCP clients: every data frame, LL
/// ACK and TCP ACK is its own PPDU, the clients' TCP ACKs collide with
/// the AP's data, so transmissions overlap and plain ACKs resolve
/// single-MPDU exchanges under collisions.
#[test]
fn sora_two_stock_clients() {
    const PINS: [&str; 2] = [
        "48545244010090e2000000000000ede0cd4bee5d4307c36f000000000000da6b000000000000ef0600000000000002000000000000000200000000000000",
        "485452440100e7e3000000000000ea44b089bb36bd2cc670000000000000766d000000000000a70500000000000002000000000000000200000000000000",
    ];
    let got: Vec<String> = (1..=2)
        .map(|seed| {
            let cfg = ScenarioBuilder::sora_testbed(2, HackMode::Disabled)
                .duration(SimDuration::from_millis(2500))
                .seed(seed)
                .build();
            let (r, digest) = run_and_digest(cfg);
            assert!(r.collisions > 0, "two clients must overlap on the air");
            digest
        })
        .collect();
    assert_pins("sora_testbed(2, Disabled)", &got, &PINS);
}

/// Client 0 gets a composed loss override, then has it cleared, then
/// moves closer to the AP in four steps, then the whole cell fades a
/// little — on a world whose baseline loss is `loss`.
fn loss_step_then_move(loss: LossConfig, seed: u64) -> ScenarioConfig {
    let at = |ms, change| ChannelEvent {
        at: SimDuration::from_millis(ms),
        change,
    };
    let (client, per) = (0, 0.3);
    let step = |ms, x| at(ms, ChannelChange::MoveClient { client, x, y: 3.0 });
    ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData)
        .duration(SimDuration::from_millis(1600))
        .warmup(SimDuration::from_millis(200))
        .loss(loss)
        .dynamics(vec![
            at(400, ChannelChange::ClientLoss { client, per }),
            at(800, ChannelChange::ClientLoss { client, per: 0.0 }),
            step(1200, 13.0),
            step(1250, 12.5),
            step(1300, 12.0),
            step(1350, 11.5),
            at(1400, ChannelChange::SnrOffsetDb(-1.5)),
        ])
        .seed(seed)
        .build()
}

/// `extra_loss` composed on the Gilbert–Elliott model (one extra draw
/// per MPDU only while the override exists), its clearing, and the
/// per-link burst-state reset of `place_station` (the fourth step finds
/// two of the client's links in the bad state).
#[test]
fn loss_override_and_move_on_burst_medium() {
    const PINS: [&str; 1] = [
        "4854524401001b570000000000004b60931d31f8cdcbdb23000000000000a916000000000000980a000000000000f6110000000000000900000000000000",
    ];
    let cfg = loss_step_then_move(LossConfig::Burst(GeParams::bursty(0.2, 12.0)), 5);
    assert_pins("burst + loss step + move", &[digest_of(cfg)], &PINS);
}

/// The same script on the SNR model with both clients 13.5 m out, where
/// about 2 % of data MPDUs miss the 150 Mbps sensitivity cliff: the move
/// and the fade both change the link SNR under a live loss process (so
/// a cached SNR must follow them).
#[test]
fn loss_override_and_move_on_snr_medium() {
    const PINS: [&str; 1] = [
        "48545244010007470000000000002bcc3eb85a73c845e2160000000000000d12000000000000be0800000000000051150000000000000900000000000000",
    ];
    let cfg = loss_step_then_move(LossConfig::SnrDistance(13.5), 6);
    assert_pins("snr + loss step + move", &[digest_of(cfg)], &PINS);
}

/// Four 802.11n clients under bursty loss, long enough for tail drops
/// at the AP queue and exhausted MAC retries to open holes at the TCP
/// receivers: their duplicate ACKs carry SACK blocks, are compressed,
/// held, ride Block ACKs and are decoded at the AP (6,718 of them, with
/// one to three blocks each, counted once on an instrumented build).
#[test]
fn sack_bearing_acks_through_rohc() {
    const PINS: [&str; 1] = [
        "485452440100dfbc00000000000077ef8be687a38c44d0170000000000002213000000000000612100000000000088700000000000000400000000000000",
    ];
    let cfg = ScenarioBuilder::dot11n_download(150, 4, HackMode::MoreData)
        .duration(SimDuration::from_millis(2500))
        .loss(LossConfig::Burst(GeParams::bursty(0.08, 6.0)))
        .seed(11)
        .build();
    let (r, digest) = run_and_digest(cfg);
    let dupacks: u64 = r.sender_tcp.iter().map(|t| t.dupacks_received).sum();
    let retx: u64 = r.sender_tcp.iter().map(|t| t.fast_retransmits).sum();
    assert!(
        dupacks > 100 && retx > 0,
        "receivers never saw a hole: {dupacks} dupacks, {retx} fast retransmits"
    );
    assert!(
        r.decompressor.decompressed > 1000 && r.decompressor.duplicates > 0,
        "{:?}",
        r.decompressor
    );
    assert_pins("SACK-bearing ACKs through ROHC", &[digest], &PINS);
}

// ---------------------------------------------------------------------
// Captured before cancellable scheduler entries and host-delivery
// batches.
// ---------------------------------------------------------------------

/// `HackMode::ExplicitTimer(2 ms)`: every hold arms the flush timer and
/// every confirmation that drains the hold queue cancels it. On the
/// SoRa testbed each hold is confirmed before the timer runs out; on
/// 802.11n the timer also fires and flushes holds natively.
#[test]
fn explicit_timer_flushes_armed_and_cancelled() {
    const PINS: [&str; 2] = [
        "4854524401003a7d000000000000695d7a8e9e4975bfe134000000000000df340000000000007c06000000000000fd0c0000000000000100000000000000",
        "4854524401000539000000000000737f404795341bd6ca0700000000000002080000000000000a100000000000002e190000000000000100000000000000",
    ];
    let mode = HackMode::ExplicitTimer(SimDuration::from_millis(2));
    let worlds = [
        ScenarioBuilder::sora_testbed(1, mode),
        ScenarioBuilder::dot11n_download(150, 1, mode),
    ];
    let got: Vec<String> = worlds
        .into_iter()
        .map(|b| {
            let cfg = b.duration(SimDuration::from_millis(1500)).seed(4).build();
            let (r, digest) = run_and_digest(cfg);
            let d = &r.driver[0];
            assert!(d.hacked_acks > 0 && d.noop_flushes == 0, "{d:?}");
            digest
        })
        .collect();
    assert_pins("explicit-timer flushes", &got, &PINS);
}

/// `HackMode::Opportunistic`: every held ACK also goes out natively,
/// and the native twins of ACKs whose blob rode a response are
/// withdrawn from the MAC queue.
#[test]
fn opportunistic_native_twins_withdrawn() {
    const PINS: [&str; 2] = [
        "485452440100527d000000000000c9401ad2356929ddea34000000000000eb340000000000007c06000000000000ff0c0000000000000200000000000000",
        // Re-pinned: a delivered native now withdraws every held ACK
        // sent no later on its five-tuple, not only its own held copy.
        "4854524401004c4b0000000000000b19ebcffaedf7cf6e0c000000000000780e0000000000002b06000000000000392a0000000000000200000000000000",
    ];
    let worlds = [
        ScenarioBuilder::sora_testbed(2, HackMode::Opportunistic),
        ScenarioBuilder::dot11n_download(150, 2, HackMode::Opportunistic),
    ];
    let got: Vec<String> = worlds
        .into_iter()
        .map(|b| {
            let cfg = b.duration(SimDuration::from_millis(1500)).seed(4).build();
            let (r, digest) = run_and_digest(cfg);
            assert!(r.driver.iter().all(|d| d.hacked_acks > 0), "{:?}", r.driver);
            digest
        })
        .collect();
    assert_pins("opportunistic twins", &got, &PINS);
}

/// `TrafficModel::Bidirectional` under MORE DATA: the AP holds the
/// upload's ACKs and installs blobs toward the client, and the client
/// decodes them in same-instant batches.
#[test]
fn bidirectional_ap_side_holds() {
    // Re-pinned: natives refresh the client's end too, so the client
    // decodes the AP's blobs instead of failing them for want of a context.
    const PINS: [&str; 1] = [
        "485452440100ba7c0000000000006e799708b71b0bb08f070000000000001120000000000000051b000000000000143a0000000000000100000000000000",
    ];
    let cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData)
        .traffic(TrafficModel::Bidirectional)
        .duration(SimDuration::from_millis(1500))
        .seed(4)
        .build();
    let (r, digest) = run_and_digest(cfg);
    assert!(
        r.driver[0].hacked_acks > 0 && r.driver_ap[0].hacked_acks > 0,
        "{:?} / {:?}",
        r.driver,
        r.driver_ap
    );
    assert_pins("bidirectional, MORE DATA", &[digest], &PINS);
}

/// A supervised SoRa flow under a 60 % loss storm that heals at 1.2 s:
/// the supervisor falls back to native ACKs (force-native flushes on
/// both sides), re-arms its probation probe, and recovers.
#[test]
fn supervised_storm_probes_and_recovers() {
    const PINS: [&str; 1] = [
        "48545244010002970000000000007ad71f15aaa33729e2460000000000006a46000000000000b200000000000000fa080000000000000a00000000000000",
    ];
    let cfg = ScenarioBuilder::sora_testbed(1, HackMode::MoreData)
        .duration(SimDuration::from_millis(2500))
        .loss(LossConfig::PerClient(vec![0.6]))
        .dynamics(vec![ChannelEvent {
            at: SimDuration::from_millis(1200),
            change: ChannelChange::ClientLoss {
                client: 0,
                per: 0.02,
            },
        }])
        .supervisor(SupervisorConfig::default())
        .seed(5)
        .build();
    let (r, digest) = run_and_digest(cfg);
    let report = r.supervisor[0];
    assert!(
        report.stats.fallbacks >= 1 && report.stats.probations >= 1,
        "{report:?}"
    );
    assert_eq!(report.final_state, FlowHealth::Healthy);
    assert_pins("supervised loss storm", &[digest], &PINS);
}

/// A byte-budgeted bidirectional flow whose last byte reaches the
/// client in the middle of a same-instant delivery burst: two more
/// packets for the client are due at that instant (counted once on an
/// instrumented build), and the run must end before either is handled.
#[test]
fn transfer_completes_mid_delivery_burst() {
    // Re-pinned: natives refresh the client's end too, so the client
    // decodes the AP's blobs instead of failing them for want of a context.
    const PINS: [&str; 1] = [
        "48545244010022020000000000006bc9808d8ab3a6caab000000000000008f00000000000000b60000000000000031000000000000000100000000000000",
    ];
    let cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData)
        .traffic(TrafficModel::Bidirectional)
        .transfer_bytes(300_000)
        .duration(SimDuration::from_millis(3000))
        .warmup(SimDuration::from_millis(100))
        .seed(4)
        .build();
    let (r, digest) = run_and_digest(cfg);
    assert!(r.flow_completion[0].is_some(), "{:?}", r.flow_completion);
    assert_pins("transfer completes mid-burst", &[digest], &PINS);
}

// ---------------------------------------------------------------------
// Captured before toward-AP backhaul arrivals waited in the link.
// ---------------------------------------------------------------------

/// An 802.11n HACK download behind a 16-packet AP queue: slow start
/// overruns it, so wired arrivals meet the tail-drop check while the AP
/// is busy, and the drop count is pinned with the digest.
#[test]
fn capped_ap_queue_tail_drops() {
    const PINS: [&str; 1] = [
        "4854524401003645000000000000a2a5ea6099e4c8b58223000000000000ac1d000000000000040400000000000003000000000000000100000000000000",
    ];
    const DROPS: u64 = 86;
    let cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData)
        .ap_queue_cap(16)
        .duration(SimDuration::from_millis(1500))
        .warmup(SimDuration::from_millis(200))
        .seed(8)
        .build();
    let (r, digest) = run_and_digest(cfg);
    assert!(r.ap_queue_drops > 0, "the capped queue never overflowed");
    assert_eq!(r.ap_queue_drops, DROPS);
    assert_pins("ap_queue_cap(16)", &[digest], &PINS);
}

/// Paced datagrams over the backhaul. CBR alone leaves the AP idle at
/// every arrival, so each one starts contention at its own instant. Beside
/// a bulk download and an on/off source, CBR datagrams are appended to
/// an AP that is already contending or transmitting.
#[test]
fn paced_datagrams_over_the_backhaul() {
    const PINS: [&str; 2] = [
        "485452440100a501000000000000cc9658d2d59b3793f000000000000000b400000000000000000000000000000000000000000000000100000000000000",
        "4854524401001845000000000000fc9e246be1afc3188609000000000000700a0000000000001c04000000000000032d0000000000000300000000000000",
    ];
    let cbr = TrafficModel::Cbr(CbrConfig::default());
    let on_off = TrafficModel::OnOff(OnOffConfig {
        on: ArrivalDist::Fixed(SimDuration::from_millis(150)),
        off: ArrivalDist::Fixed(SimDuration::from_millis(100)),
        ..OnOffConfig::default()
    });
    let worlds = [
        ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData).traffic(cbr),
        ScenarioBuilder::dot11n_download(150, 3, HackMode::MoreData).traffic_mix(vec![
            cbr,
            on_off,
            TrafficModel::BulkDownload,
        ]),
    ];
    let got: Vec<String> = worlds
        .into_iter()
        .map(|b| {
            let cfg = b
                .duration(SimDuration::from_millis(1200))
                .warmup(SimDuration::from_millis(100))
                .stagger(SimDuration::from_millis(2))
                .seed(9)
                .build();
            let (r, digest) = run_and_digest(cfg);
            assert!(r.flow_goodput_mbps.iter().all(|&g| g > 0.0), "{r:?}");
            digest
        })
        .collect();
    assert_pins("paced datagrams over the backhaul", &got, &PINS);
}

/// Figure 10's shape: ten MORE DATA clients starting 200 ms apart, so
/// ten flows' segments share one backhaul while the AP creates their
/// queues one at a time.
#[test]
fn ten_staggered_clients_share_one_backhaul() {
    const PINS: [&str; 1] = [
        "485452440100b190000000000000c447e1706dee8f25270d0000000000001910000000000000ca190000000000009d590000000000000a00000000000000",
    ];
    let cfg = ScenarioBuilder::dot11n_download(150, 10, HackMode::MoreData)
        .stagger(SimDuration::from_millis(200))
        .duration(SimDuration::from_millis(2100))
        .warmup(SimDuration::from_millis(100))
        .seed(10)
        .build();
    let (r, digest) = run_and_digest(cfg);
    assert!(r.flow_goodput_full_mbps.iter().all(|&g| g > 0.0), "{r:?}");
    assert_pins("ten staggered clients", &[digest], &PINS);
}

// ---------------------------------------------------------------------
// Captured before the blob installs and TCP timer re-arms of a host
// delivery batch were settled once, at the batch's end.
// ---------------------------------------------------------------------

/// `b` run twice, once with `dma_delay` and once with `stack_delay`
/// zeroed: a blob install, or the ACK that makes one, then falls on the
/// instant that produced it, so an install or timer event settled at
/// the wrong place in the order moves the trace or the event count.
/// Each run's digest and `events_dispatched`, after `check` saw its
/// result.
fn zero_delay_runs(b: ScenarioBuilder, check: impl Fn(&RunResult)) -> Vec<(String, u64)> {
    let zeroed = [
        b.clone().dma_delay(SimDuration::ZERO),
        b.stack_delay(SimDuration::ZERO),
    ];
    zeroed
        .into_iter()
        .map(|b| {
            let (r, digest) = run_and_digest(b.build());
            check(&r);
            (digest, r.events_dispatched)
        })
        .collect()
}

fn assert_counted_pins(what: &str, got: &[(String, u64)], pins: &[(&str, u64)]) {
    let pins: Vec<(String, u64)> = pins.iter().map(|&(d, n)| (d.to_owned(), n)).collect();
    assert_eq!(
        got, pins,
        "trace drifted: {what} no longer matches its pinned digests and event counts"
    );
}

/// HACK downloads in each holding mode, with one and three clients, at
/// each zeroed delay.
#[test]
fn zero_delay_installs_and_timer_rearms() {
    // Re-pinned: early TCP-timer firings replace per-ACK cancel+push.
    const PINS: [(&str, u64); 12] = [
        ("485452440100b8210000000000000832acdfda40f83e170300000000000009040000000000006b020000000000002c180000000000000100000000000000", 4666),
        ("48545244010061210000000000007ef2cf58a7a5bb3bfb0200000000000070030000000000002602000000000000cf180000000000000100000000000000", 4539),
        ("4854524401005f290000000000003772055813040de08d0300000000000091040000000000003606000000000000081b0000000000000300000000000000", 5676),
        ("4854524401004227000000000000ef678584352455335d03000000000000d0030000000000004505000000000000cd1a0000000000000300000000000000", 5443),
        // Re-pinned: a delivered native withdraws the older held ACKs.
        ("485452440100141c000000000000c27a0c2b9d84d8164904000000000000d1040000000000001402000000000000e5100000000000000100000000000000", 4678),
        ("485452440100cd230000000000003af4fc148960093fad020000000000005303000000000000b1020000000000001b1b0000000000000100000000000000", 4644),
        // Re-pinned: a delivered native withdraws the older held ACKs.
        ("485452440100c71f0000000000003311033d8956937e9f050000000000007b060000000000006305000000000000470e0000000000000300000000000000", 6115),
        ("485452440100c227000000000000e18bada1dca6c5f8e1020000000000008703000000000000ec040000000000006b1c0000000000000300000000000000", 5329),
        ("485452440100a61b0000000000007a499dd4d8d6b4068105000000000000a70500000000000030030000000000004d0d0000000000000100000000000000", 5097),
        // Re-pinned: a delivered native withdraws the older held ACKs.
        ("4854524401005c230000000000009acda417cb266f97e302000000000000970300000000000086020000000000005b1a0000000000000100000000000000", 4821),
        ("4854524401008821000000000000d928b6562de98ee1d705000000000000c006000000000000f006000000000000fe0d0000000000000300000000000000", 6511),
        // Re-pinned: a delivered native withdraws the older held ACKs.
        ("485452440100b4270000000000002d69f084cfd063b02103000000000000cf03000000000000ec04000000000000d51b0000000000000300000000000000", 5529),
    ];
    let modes = [
        HackMode::MoreData,
        HackMode::Opportunistic,
        HackMode::ExplicitTimer(SimDuration::from_millis(2)),
    ];
    let mut got = Vec::new();
    for mode in modes {
        for clients in [1, 3] {
            let b = ScenarioBuilder::dot11n_download(150, clients, mode)
                .duration(SimDuration::from_millis(600))
                .warmup(SimDuration::from_millis(100))
                .stagger(SimDuration::from_millis(2))
                .seed(11);
            got.extend(zero_delay_runs(b, |r| {
                assert!(r.driver.iter().any(|d| d.hacked_acks > 0), "{:?}", r.driver);
            }));
        }
    }
    assert_counted_pins("zero-delay downloads", &got, &PINS);
}

/// Three bidirectional flows whose servers run on the AP, at each
/// zeroed delay: the AP's host stack takes deliveries for three server
/// endpoints and holds ACKs toward three clients, so one batch can
/// settle installs for several (station, peer) pairs and timer re-arms
/// for several endpoints.
#[test]
fn zero_delay_server_at_ap_batches() {
    // Re-pinned: early TCP-timer firings replace per-ACK cancel+push.
    // Re-pinned: natives refresh the clients' ends too, so the clients
    // decode the AP's blobs instead of failing them for want of a context.
    const PINS: [(&str, u64); 2] = [
        ("48545244010008290000000000001911e802af8f138aeb0300000000000083060000000000003b0a0000000000005c140000000000000300000000000000", 2013),
        ("485452440100e229000000000000fcb8f72eecf082bd0004000000000000fd050000000000001f0a000000000000c3150000000000000300000000000000", 1943),
    ];
    let b = ScenarioBuilder::dot11n_download(150, 3, HackMode::MoreData)
        .traffic(TrafficModel::Bidirectional)
        .server_at_ap(true)
        .duration(SimDuration::from_millis(600))
        .warmup(SimDuration::from_millis(100))
        .stagger(SimDuration::from_millis(2))
        .seed(12);
    let got = zero_delay_runs(b, |r| {
        assert!(
            r.driver_ap.iter().all(|d| d.hacked_acks > 0),
            "{:?}",
            r.driver_ap
        );
        assert!(r.flow_goodput_mbps.iter().all(|&g| g > 0.0), "{r:?}");
    });
    assert_counted_pins("zero-delay server-at-AP batches", &got, &PINS);
}

/// A supervised HACK download under bursty loss: the supervisor forces
/// the drivers native while the client's host stack is handling a
/// delivery batch, so the clear that forced flush asks for must also
/// take out the blob install an earlier packet of the same batch asked
/// for (a debug build would otherwise dispatch a stale install).
#[test]
fn supervised_fallback_inside_a_delivery_batch() {
    // Re-pinned: early TCP-timer firings replace per-ACK cancel+push.
    const PINS: [(&str, u64); 1] = [(
        "485452440100dd15000000000000edb5b656054cf5b50f06000000000000e903000000000000c6020000000000001a090000000000000500000000000000",
        3684,
    )];
    let cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData)
        .supervisor(SupervisorConfig::default())
        .loss(LossConfig::Burst(GeParams::bursty(0.08, 6.0)))
        .duration(SimDuration::from_millis(500))
        .warmup(SimDuration::from_millis(100))
        .stagger(SimDuration::from_millis(2))
        .seed(271)
        .build();
    let (r, digest) = run_and_digest(cfg);
    assert!(
        r.supervisor[0].stats.fallbacks >= 1,
        "{:?}",
        r.supervisor[0]
    );
    let got = [(digest, r.events_dispatched)];
    assert_counted_pins("supervised fallback mid-batch", &got, &PINS);
}

// ---------------------------------------------------------------------
// Captured before the client driver's held ACKs moved into one queue
// type.
// ---------------------------------------------------------------------

/// A supervised Opportunistic download under bursty loss: the
/// supervisor forces the drivers native while ACKs are held, some of
/// them never having ridden, so the forced flush decides the fate of
/// held ACKs whose native twins are already queued.
#[test]
fn supervised_opportunistic_fallback_with_holds() {
    // Re-pinned: early TCP-timer firings replace per-ACK cancel+push.
    // Re-pinned: the forced flush no longer re-enqueues held ACKs whose
    // native twins are queued, and delivered natives withdraw older ones.
    const PINS: [(&str, u64); 1] = [(
        "4854524401009c16000000000000b93ada4d8dd3636c84070000000000003a040000000000001e07000000000000b9030000000000000700000000000000",
        3316,
    )];
    let cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::Opportunistic)
        .supervisor(SupervisorConfig::default())
        .loss(LossConfig::Burst(GeParams::bursty(0.15, 6.0)))
        .duration(SimDuration::from_millis(500))
        .warmup(SimDuration::from_millis(100))
        .stagger(SimDuration::from_millis(2))
        .seed(9)
        .build();
    let (r, digest) = run_and_digest(cfg);
    assert!(
        r.supervisor[0].stats.fallbacks >= 1 && r.driver[0].forced_native >= 1,
        "{:?} / {:?}",
        r.supervisor[0],
        r.driver[0]
    );
    let got = [(digest, r.events_dispatched)];
    assert_counted_pins("supervised Opportunistic fallback", &got, &PINS);
}

// ---------------------------------------------------------------------
// Captured before the ROHC compressor and decompressor came to share
// one flow table.
// ---------------------------------------------------------------------

/// Twenty-four clients behind one AP, all but two on CBR: the bulk
/// downloads of flows 7 and 23 ACK on five-tuples whose MD5 ends in the
/// same byte. A CID is local to one link, so each flow's end at the AP
/// holds its own context and both flows' blobs decode.
#[test]
fn cid_collision_at_the_ap() {
    // Re-pinned: the AP decodes each client's blobs at that link's own
    // end, so flow 23 no longer decodes against flow 7's context.
    const PINS: [&str; 1] = [
        "4854524401004b4c000000000000aa794e51dcdc0426ad14000000000000d911000000000000670400000000000046210000000000001800000000000000",
    ];
    let ack_tuple = |flow: u8| FiveTuple {
        src_ip: Ipv4Addr::new(192, 168, 0, 10 + flow),
        dst_ip: Ipv4Addr::new(10, 0, 0, 1),
        src_port: 40_000 + u16::from(flow),
        dst_port: 5_001 + u16::from(flow),
        protocol: 6,
    };
    let cid = |flow| hack_rohc::cid_for_tuple(&ack_tuple(flow).bytes());
    assert_eq!(cid(7), cid(23));
    let mut mix = vec![TrafficModel::Cbr(CbrConfig::default()); 24];
    mix[7] = TrafficModel::BulkDownload;
    mix[23] = TrafficModel::BulkDownload;
    let cfg = ScenarioBuilder::dot11n_download(150, 24, HackMode::MoreData)
        .traffic_mix(mix)
        .duration(SimDuration::from_millis(1000))
        .warmup(SimDuration::from_millis(100))
        .stagger(SimDuration::from_millis(2))
        .seed(2)
        .build();
    let (r, digest) = run_and_digest(cfg);
    assert!(
        r.driver[7].native_acks > 0 && r.driver[23].native_acks > 0,
        "{:?} / {:?}",
        r.driver[7],
        r.driver[23]
    );
    assert!(r.flow_goodput_mbps[7] > 0.0, "{:?}", r.flow_goodput_mbps);
    for (f, (tx, rx)) in r.sender_tcp.iter().zip(&r.receiver_tcp).enumerate() {
        assert!(
            tx.bytes_acked <= rx.bytes_delivered,
            "flow {f}: {} bytes acked, {} delivered",
            tx.bytes_acked,
            rx.bytes_delivered
        );
    }
    assert_eq!(r.decompressor.crc_failures, 0, "{:?}", r.decompressor);
    assert_pins("CID collision at the AP", &[digest], &PINS);
}

// ---------------------------------------------------------------------
// Captured before the decompress side moved to one per end of each link.
// ---------------------------------------------------------------------

/// A one-client 802.11n upload in each holding mode: the server's ACKs
/// reach the AP over the backhaul, the AP compresses them toward the
/// client, and the client's end of the link decodes the blobs.
#[test]
fn bulk_upload_in_each_holding_mode() {
    // Re-pinned: early TCP-timer firings replace per-ACK cancel+push.
    // Re-pinned: natives refresh the client's end too, so the client
    // decodes the AP's blobs instead of failing them for want of a context.
    const PINS: [(&str, u64); 2] = [
        ("485452440100455d00000000000095a9cd30ea849dab8904000000000000261a000000000000221500000000000073290000000000000100000000000000", 23594),
        ("4854524401001c5e000000000000a54ccd8528d408427b04000000000000901a0000000000000a15000000000000062a0000000000000100000000000000", 23613),
    ];
    let got: Vec<(String, u64)> = [HackMode::MoreData, HackMode::Opportunistic]
        .into_iter()
        .map(|mode| {
            let cfg = ScenarioBuilder::dot11n_download(150, 1, mode)
                .traffic(TrafficModel::BulkUpload)
                .duration(SimDuration::from_millis(1000))
                .seed(3)
                .build();
            let (r, digest) = run_and_digest(cfg);
            assert!(r.driver_ap[0].hacked_acks > 0, "{:?}", r.driver_ap);
            (digest, r.events_dispatched)
        })
        .collect();
    assert_counted_pins("bulk upload", &got, &PINS);
}

// ---------------------------------------------------------------------
// Captured before the TCP timer stopped being re-pushed on every later
// deadline.
// ---------------------------------------------------------------------

/// The hash of `r`'s encoding with `events_dispatched` zeroed: every
/// simulated outcome, but not how many events it took.
fn result_hash(mut r: RunResult) -> String {
    r.events_dispatched = 0;
    let mut h = StableHasher::new();
    h.write(&encode_run_result(&r));
    h.finish_hex()
}

/// Worlds that reach every path a TCP deadline takes (each was seen to
/// on an instrumented build). Each one's `check` asserts a visible sign
/// of the path it is here for.
#[test]
fn tcp_timer_paths_keep_their_results() {
    const PINS: [&str; 8] = [
        "95832ac3ca2c5f8b209614be535a00a0",
        "610cf5f6ade91484b35c7e980dc35d3a",
        "349803921930ab79b0c853a9f2eec6bf",
        "6fbbbe33e0d8f61fd47a36ccf5164653",
        "e2ea277bec3ffc0418a331a1551fcbdd",
        "a6af520b18d787a00efb1c92d7bfab77",
        "ddeb82fc3bc638c19b39b33c01ec1cd2",
        "e5ff2ba4d3cb040b5cbff0151f0d8b27",
    ];
    let short = |reuse| {
        TrafficModel::ShortFlows(ShortFlowConfig {
            sizes: SizeDist::Fixed(30_000),
            think: ArrivalDist::Fixed(SimDuration::from_millis(3)),
            reuse,
        })
    };
    let loss_at = |ms, client, per| ChannelEvent {
        at: SimDuration::from_millis(ms),
        change: ChannelChange::ClientLoss { client, per },
    };
    let roam = |ms, target_bss| RoamEvent {
        flow: 0,
        at: SimDuration::from_millis(ms),
        target_bss,
    };
    type Check = fn(&RunResult) -> bool;
    let worlds: [(ScenarioConfig, Check); 8] = [
        // Stock TCP on the lossy SoRa testbed: RTOs fire.
        (
            ScenarioBuilder::sora_testbed(2, HackMode::Disabled)
                .duration(SimDuration::from_millis(3000))
                .seed(17)
                .build(),
            |r| r.sender_tcp.iter().map(|s| s.timeouts).sum::<u64>() > 0,
        ),
        // Corrupted delivery under bursts: RTOs fire beside HACK.
        (
            ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData)
                .duration(SimDuration::from_millis(1500))
                .loss(LossConfig::Burst(GeParams::bursty(0.1, 6.0)))
                .corrupt(CorruptModel {
                    data_frac: 0.5,
                    control_per: 0.02,
                    fcs_miss: 0.25,
                })
                .seed(19)
                .build(),
            |r| r.sender_tcp.iter().map(|s| s.timeouts).sum::<u64>() > 0,
        ),
        // An upload: the wired server's delayed ACKs arm and cancel
        // its timer on alternate segments.
        (
            ScenarioBuilder::dot11n_download(150, 1, HackMode::Opportunistic)
                .traffic(TrafficModel::BulkUpload)
                .duration(SimDuration::from_millis(800))
                .seed(23)
                .build(),
            |r| r.receiver_tcp[0].acks_sent > 0,
        ),
        // BBR: the pacing deadline sits beside the RTO.
        (
            ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData)
                .cc(CcKind::Bbr)
                .duration(SimDuration::from_millis(1000))
                .warmup(SimDuration::from_millis(200))
                .seed(29)
                .build(),
            |r| r.flow_goodput_mbps.iter().all(|&g| g > 0.0),
        ),
        // Short flows re-keyed per transfer: teardown cancels timers.
        (
            ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData)
                .traffic_mix(vec![short(false), short(true)])
                .duration(SimDuration::from_millis(1200))
                .warmup(SimDuration::from_millis(200))
                .stagger(SimDuration::from_millis(2))
                .seed(31)
                .build(),
            |r| r.classes.iter().all(|c| c.transfers > 1),
        ),
        // A supervised flow whose link all but dies for a second: RTOs
        // in a row stall it.
        (
            ScenarioBuilder::sora_testbed(1, HackMode::MoreData)
                .duration(SimDuration::from_millis(3000))
                .dynamics(vec![loss_at(500, 0, 0.98), loss_at(1500, 0, 0.02)])
                .supervisor(SupervisorConfig::default())
                .seed(37)
                .build(),
            |r| r.sender_tcp[0].timeouts >= 2 && r.supervisor[0].stats.fallbacks >= 1,
        ),
        // Two supervised BBR flows, the first lossy until 1.2 s: RTOs
        // beside the pacing deadline.
        (
            ScenarioBuilder::sora_testbed(2, HackMode::Opportunistic)
                .cc(CcKind::Bbr)
                .duration(SimDuration::from_millis(2000))
                .loss(LossConfig::PerClient(vec![0.5, 0.02]))
                .dynamics(vec![loss_at(1200, 0, 0.02)])
                .supervisor(SupervisorConfig::default())
                .seed(41)
                .build(),
            |r| r.sender_tcp[0].timeouts > 0,
        ),
        // A supervised flow handed to a second AP and back.
        (
            {
                let mut c = ScenarioConfig::builder()
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
                    .duration(SimDuration::from_millis(700))
                    .warmup(SimDuration::from_millis(5))
                    .seed(43)
                    .build();
                c.supervisor = Some(SupervisorConfig::default());
                c.roam.schedule = vec![roam(150, 1), roam(400, 0)];
                c
            },
            |r| r.roams == 2,
        ),
    ];
    let got: Vec<String> = worlds
        .into_iter()
        .enumerate()
        .map(|(i, (cfg, check))| {
            let r = World::builder(cfg).run();
            assert!(check(&r), "world {i} misses its path: {r:?}");
            result_hash(r)
        })
        .collect();
    assert_eq!(
        got, PINS,
        "results drifted: a TCP timer path no longer matches its pinned result"
    );
}
