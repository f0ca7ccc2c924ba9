//! Mid-flow AP roaming: handoff smoke tests, seed determinism under
//! roam schedules, HACK renegotiation across capable/incapable APs, the
//! MoveClient-crosses-threshold regression, estimator-divergence
//! quietness, dense roam-closure sharding, and the world-level roam
//! liveness proptest.

mod common;

use common::{assert_same_run, dense_roam_cfg, traced_at};
use hack_core::{
    run, run_auto, run_dense, run_traced, shard_configs, BssSpec, ChannelChange, ChannelEvent,
    CorruptModel, DenseOptions, GeParams, HackMode, LossConfig, RoamEvent, RoamTrigger, RunResult,
    ScenarioBuilder, ScenarioConfig, StandardKind, SupervisorConfig,
};
use hack_sim::SimDuration;
use hack_trace::{Digest, TraceHandle};
use proptest::prelude::*;

fn traced(c: ScenarioConfig) -> (RunResult, Digest) {
    let (handle, ring) = TraceHandle::ring(1 << 20);
    let res = run_traced(c, handle);
    (res, ring.digest())
}

/// Two cells 25 m apart on different channels (no interference edge),
/// one client homed in cell 0 — the minimal world with somewhere to
/// roam to.
fn two_bss_cfg(seed: u64, mode: HackMode) -> ScenarioConfig {
    ScenarioConfig::builder()
        .standard(StandardKind::Dot11n)
        .rate_mbps(150)
        .hack(mode)
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
        .seed(seed)
        .build()
}

fn supervised(mut c: ScenarioConfig) -> ScenarioConfig {
    c.supervisor = Some(SupervisorConfig::default());
    c
}

fn roam_at(ms: u64, target: usize) -> RoamEvent {
    RoamEvent {
        flow: 0,
        at: SimDuration::from_millis(ms),
        target_bss: target,
    }
}

/// A scheduled mid-flow handoff completes, the flow keeps making
/// forward progress through and after the blackout, and the supervisor
/// records the handoff.
#[test]
fn scheduled_roam_completes_and_flow_survives() {
    let mut c = supervised(two_bss_cfg(5, HackMode::MoreData));
    c.roam.schedule = vec![roam_at(300, 1)];
    let (r, _) = traced(c);
    assert_eq!(r.roams, 1, "the scheduled handoff never completed");
    assert_eq!(r.supervisor[0].stats.handoffs, 1);
    assert!(
        r.flow_goodput_final_mbps[0] > 0.0,
        "flow stalled after the handoff"
    );
    assert!(
        r.aggregate_goodput_mbps > 1.0,
        "goodput collapsed across the roam: {:.3} Mbps",
        r.aggregate_goodput_mbps
    );
}

/// Same seed, same roam schedule → byte-identical traces; a different
/// seed still diverges. Roaming must not cost the determinism contract.
#[test]
fn roaming_run_is_seed_deterministic() {
    let mk = |seed| {
        let mut c = supervised(two_bss_cfg(seed, HackMode::MoreData));
        c.roam.schedule = vec![roam_at(200, 1), roam_at(500, 0)];
        c.roam.assoc_fail_prob = 0.4; // exercise the retry RNG too
        c
    };
    let (ra, da) = traced(mk(13));
    let (rb, db) = traced(mk(13));
    assert!(da.events > 500, "trace suspiciously small: {}", da.events);
    assert_eq!(da.to_bytes(), db.to_bytes(), "roaming broke determinism");
    assert_eq!(ra.aggregate_goodput_mbps, rb.aggregate_goodput_mbps);
    assert_eq!(ra.roams, rb.roams);
    let (_, dc) = traced(mk(14));
    assert_ne!(da.to_bytes(), dc.to_bytes(), "seeds must still diverge");
}

/// Roaming onto a HACK-incapable AP renegotiates the capability off
/// (native ACKs only, supervisor at rest in `PeerIncapable`-equivalent
/// fallback), and roaming back re-enables it — the full degrade/recover
/// arc across two handoffs.
#[test]
fn roam_renegotiates_hack_across_incapable_ap() {
    let mut c = supervised(two_bss_cfg(9, HackMode::MoreData));
    c.duration = SimDuration::from_millis(1500);
    c.roam.ap_hack_capable = vec![true, false];
    c.roam.schedule = vec![roam_at(400, 1), roam_at(900, 0)];
    let (r, _) = traced(c);
    assert_eq!(r.roams, 2);
    assert_eq!(r.supervisor[0].stats.handoffs, 2);
    assert!(
        r.driver[0].hacked_acks > 0,
        "HACK never engaged despite two capable associations"
    );
    assert!(
        r.flow_goodput_final_mbps[0] > 0.0,
        "flow stalled after returning to the capable AP"
    );
    // Parked/flushed ACK conservation: nothing silently lost (the flow
    // finished live), nothing delivered twice (the receiver's TCP would
    // have choked on regressing ACKs long before the end of the run).
    assert!(r.receiver_tcp[0].bytes_delivered > 0);
}

/// Satellite regression: a mid-run `MoveClient` dynamics event that
/// drags the client across the roam threshold must fire the roam path —
/// not just reset the Gilbert–Elliott edge.
#[test]
fn move_client_dynamics_triggers_roam() {
    let mut c = supervised(two_bss_cfg(11, HackMode::MoreData));
    c.roam.trigger = Some(RoamTrigger {
        threshold_db: 28.0,
        hysteresis_db: 3.0,
        min_dwell: SimDuration::from_millis(50),
    });
    // Teleport the client right next to cell 1's AP mid-run.
    c.dynamics = vec![ChannelEvent {
        at: SimDuration::from_millis(300),
        change: ChannelChange::MoveClient {
            client: 0,
            x: 24.0,
            y: 0.0,
        },
    }];
    let (r, _) = traced(c);
    assert!(
        r.roams >= 1,
        "MoveClient across the threshold did not trigger a roam"
    );
    assert!(r.flow_goodput_final_mbps[0] > 0.0, "flow stalled post-roam");
}

/// Without a trigger configured, the same move stays a pure channel
/// update (the historical behaviour): zero roams, zero handoffs.
#[test]
fn move_client_without_trigger_stays_inert() {
    let mut c = supervised(two_bss_cfg(11, HackMode::MoreData));
    c.dynamics = vec![ChannelEvent {
        at: SimDuration::from_millis(300),
        change: ChannelChange::MoveClient {
            client: 0,
            x: 24.0,
            y: 0.0,
        },
    }];
    let (r, _) = traced(c);
    assert_eq!(r.roams, 0);
    assert_eq!(r.supervisor[0].stats.handoffs, 0);
}

/// Satellite: the estimator-divergence detector must stay quiet across
/// the PR 3 fault matrix — bursty loss, FCS-escaping corruption, and
/// mid-run dynamics bend the delivery-rate sampler and the ACK clock
/// together, never apart.
#[test]
fn estimator_divergence_is_quiet_on_fault_matrix() {
    for seed in [13, 21, 34, 89] {
        let mut c = ScenarioBuilder::sora_testbed(1, HackMode::MoreData).build();
        c.duration = SimDuration::from_secs(2);
        c.seed = seed;
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
        let (r, _) = traced(supervised(c));
        let div: u64 = r.supervisor.iter().map(|s| s.stats.est_divergence).sum();
        assert_eq!(div, 0, "seed {seed}: spurious estimator-divergence signal");
    }
}

/// A roam-free config leaves the whole roam subsystem cold: no runtime,
/// no extra RNG draws, no roams counted.
#[test]
fn roam_free_world_counts_no_roams() {
    let c = two_bss_cfg(3, HackMode::MoreData);
    assert!(!c.roam.is_active());
    let (r, _) = traced(c);
    assert_eq!(r.roams, 0);
}

/// Roam closure: the cross-component handoff merges the two shards into
/// one and runs at its configured time. (The name predates the removal
/// of roam-time quantisation.)
#[test]
fn roam_closure_merges_shards_and_quantizes() {
    let cfg = dense_roam_cfg(1);
    let parts = shard_configs(&cfg);
    assert_eq!(parts.len(), 1, "roam-coupled components must merge");
    let (sub, flows) = &parts[0];
    assert_eq!(flows, &vec![0, 1, 2]);
    assert_eq!(sub.roam.schedule.len(), 1);
    // Was 200 ms: a cross-domain `RoamEvent::at` is now honoured as
    // written instead of rounded up to a 100 ms epoch edge.
    assert_eq!(
        sub.roam.schedule[0].at,
        SimDuration::from_millis(155),
        "cross-domain roam must keep its configured time"
    );
    // A within-component roam is untouched and shards stay split.
    let mut same = dense_roam_cfg(1);
    same.roam.schedule[0].target_bss = 1;
    let parts = shard_configs(&same);
    assert_eq!(parts.len(), 2);
    assert_eq!(
        parts[0].0.roam.schedule[0].at,
        SimDuration::from_millis(155),
        "in-domain roam must not be quantized"
    );
}

/// Parallel and serial dense execution of a roaming world stay
/// byte-identical: same shard digests, same event counts, same
/// goodputs.
#[test]
fn dense_roam_parallel_equals_serial() {
    let cfg = dense_roam_cfg(21);
    let serial = run_dense(&cfg, &traced_at(1));
    assert_same_run(&serial, &run_dense(&cfg, &traced_at(4)));
    let total: u64 = serial.shards.iter().map(|s| s.result.roams).sum();
    assert_eq!(total, 1, "the cross-domain roam must still run");
}

/// `run_auto` folds a dense report back into one `RunResult` with
/// per-flow vectors in global order and per-station stats for the whole
/// fleet — the shape the campaign runner caches.
#[test]
fn run_auto_merges_dense_results() {
    let cfg = dense_roam_cfg(7);
    let merged = run_auto(cfg.clone());
    let report = run_dense(&cfg, &DenseOptions::default());
    assert_eq!(merged.flow_goodput_mbps, report.flow_goodput_mbps);
    assert_eq!(merged.aggregate_goodput_mbps, report.aggregate_goodput_mbps);
    assert_eq!(merged.mac.len(), 6, "3 APs + 3 clients");
    assert_eq!(merged.driver.len(), 3);
    assert_eq!(merged.roams, 1);
    // Legacy configs pass through the direct engine untouched.
    let legacy = ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData).build();
    let a = run_auto(legacy.clone());
    let b = run(legacy);
    assert_eq!(a.aggregate_goodput_mbps, b.aggregate_goodput_mbps);
    assert_eq!(a.events_dispatched, b.events_dispatched);
}

proptest! {
    /// World-level roam liveness: ANY schedule of handoffs — arbitrary
    /// timing, capable or incapable targets, flaky association attempts,
    /// handoffs landing mid-blob — leaves every flow alive (nonzero
    /// final-window goodput), every supervisor in a rest state with the
    /// handoffs accounted, and the run byte-reproducible under its seed.
    #[test]
    fn any_roam_schedule_leaves_flows_live(
        seed in 0u64..500,
        roams_ms in proptest::collection::vec((60u64..500, 0usize..2), 0..4),
        cap1 in any::<bool>(),
        flaky in any::<bool>(),
    ) {
        let mut c = supervised(two_bss_cfg(seed, HackMode::MoreData));
        c.roam.ap_hack_capable = vec![true, cap1];
        c.roam.assoc_fail_prob = if flaky { 0.5 } else { 0.0 };
        c.roam.schedule = roams_ms
            .iter()
            .map(|&(ms, target)| roam_at(ms, target))
            .collect();
        let (ra, da) = traced(c.clone());
        prop_assert!(
            ra.flow_goodput_final_mbps[0] > 0.0,
            "flow permanently stalled after the final handoff"
        );
        // Handoffs the supervisor saw == handoffs the world completed
        // (give-up returns included): nothing wedged mid-blackout.
        prop_assert_eq!(ra.supervisor[0].stats.handoffs, ra.roams);
        let (rb, db) = traced(c);
        prop_assert_eq!(da.to_bytes(), db.to_bytes(), "roam schedule broke determinism");
        prop_assert_eq!(ra.roams, rb.roams);
    }
}
