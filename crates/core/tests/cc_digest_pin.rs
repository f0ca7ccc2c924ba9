//! Digest-pin regression: `CcKind::Reno` through the pluggable
//! congestion-control trait must stay **byte-identical** to the
//! pre-trait NewReno on the standard seed bank.
//!
//! The twelve digests below were captured from the monolithic
//! implementation immediately before the `CongestionControl` extraction
//! (sora_testbed and dot11n_download, HACK off/on, seeds 1–3, 1.5 s).
//! Any arithmetic drift in the default sender — a reordered cwnd
//! update, a stray trace event, a pacer that isn't inert for Reno —
//! shows up here as a digest mismatch long before it would move a
//! goodput curve.
//!
//! The companion test proves the knob is *live*: a non-Reno controller
//! on the same cell must produce a different trace.

use hack_core::{CcKind, HackMode, ScenarioBuilder, World};
use hack_sim::SimDuration;
use hack_trace::TraceHandle;

/// (scenario, mode, seed) → digest of the 1.5 s trace, captured
/// pre-refactor.
const PINS: &[(&str, &str, u64, &str)] = &[
    ("sora", "off", 1, "4854524401006883000000000000e38fdcc6fc7d028e4d42000000000000fe3b0000000000001b0500000000000001000000000000000100000000000000"),
    ("sora", "off", 2, "4854524401004484000000000000fbe6334df7abfcf6b042000000000000613c000000000000310500000000000001000000000000000100000000000000"),
    ("sora", "off", 3, "485452440100d8830000000000005b8667260a98d1167442000000000000373c0000000000002b0500000000000001000000000000000100000000000000"),
    ("sora", "moredata", 1, "485452440100cf7c000000000000ff3e723e364786e2bb34000000000000b7340000000000007306000000000000e90c0000000000000100000000000000"),
    ("sora", "moredata", 2, "485452440100f47c00000000000035f43d22a0437ba1c734000000000000c4340000000000007706000000000000f10c0000000000000100000000000000"),
    ("sora", "moredata", 3, "485452440100067d000000000000d580932699032804c834000000000000c6340000000000007c06000000000000fb0c0000000000000100000000000000"),
    ("11n", "off", 1, "485452440100401c00000000000087d88aa1c7c38229d90b000000000000610b000000000000020500000000000002000000000000000200000000000000"),
    ("11n", "off", 2, "48545244010009210000000000003c294ec350e6e692c90b000000000000440b000000000000f80900000000000002000000000000000200000000000000"),
    ("11n", "off", 3, "485452440100a720000000000000c4dcef1075186b61550d0000000000007e0c000000000000d00600000000000002000000000000000200000000000000"),
    ("11n", "moredata", 1, "485452440100565600000000000026c740e257521f2d0707000000000000c5090000000000009405000000000000f43f0000000000000200000000000000"),
    ("11n", "moredata", 2, "485452440100c0570000000000006b7c09eb5641f7cb4d07000000000000060a000000000000bf05000000000000ac400000000000000200000000000000"),
    ("11n", "moredata", 3, "48545244010079570000000000007df50cbc90b071b2f906000000000000bb09000000000000bb0500000000000008410000000000000200000000000000"),
];

fn cell(scenario: &str, mode: &str, seed: u64, cc: CcKind) -> String {
    let mode = match mode {
        "off" => HackMode::Disabled,
        "moredata" => HackMode::MoreData,
        _ => unreachable!(),
    };
    let mut cfg = match scenario {
        "sora" => ScenarioBuilder::sora_testbed(1, mode).build(),
        "11n" => ScenarioBuilder::dot11n_download(150, 2, mode).build(),
        _ => unreachable!(),
    };
    cfg.duration = SimDuration::from_millis(1500);
    cfg.seed = seed;
    cfg.cc = cc;
    let (handle, ring) = TraceHandle::ring(1 << 20);
    let _ = World::builder(cfg).trace(handle).run();
    ring.digest()
        .to_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[test]
fn reno_is_digest_identical_to_the_pre_trait_sender() {
    for &(scenario, mode, seed, pin) in PINS {
        let got = cell(scenario, mode, seed, CcKind::Reno);
        assert_eq!(
            got, pin,
            "trace drifted: {scenario}/{mode} seed {seed} no longer matches \
             the pre-refactor NewReno digest"
        );
    }
}

#[test]
fn non_reno_controllers_change_the_trace() {
    // The cc knob must actually reach the senders: CUBIC on a pinned
    // cell has to produce a different trace (different cwnd trajectory
    // ⇒ different TcpCwnd events at minimum).
    let (scenario, mode, seed, pin) = ("sora", "off", 1, PINS[0].3);
    let cubic = cell(scenario, mode, seed, CcKind::Cubic);
    assert_ne!(
        cubic, pin,
        "CcKind::Cubic produced the Reno trace — knob dead?"
    );
    // BbrLite additionally emits CcStateChange events no other
    // controller produces.
    let bbr = cell(scenario, mode, seed, CcKind::Bbr);
    assert_ne!(bbr, pin, "CcKind::Bbr produced the Reno trace — knob dead?");
    assert_ne!(bbr, cubic);
}
