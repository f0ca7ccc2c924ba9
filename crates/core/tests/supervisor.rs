//! Supervisor integration tests: seed determinism with supervision
//! enabled, graceful fallback under the PR 3 fault matrix, permanent
//! clean fallback for non-HACK peers, and recovery after the channel
//! heals.

use hack_core::{
    ChannelChange, ChannelEvent, CorruptModel, FlowHealth, GeParams, HackMode, LossConfig,
    RunResult, ScenarioBuilder, ScenarioConfig, SupervisorConfig, World,
};
use hack_sim::SimDuration;
use hack_trace::{Digest, TraceHandle};

fn traced(c: ScenarioConfig) -> (RunResult, Digest) {
    let (handle, ring) = TraceHandle::ring(1 << 20);
    let res = World::builder(c).trace(handle).run();
    let digest = ring.digest();
    (res, digest)
}

/// The PR 3 "everything on" fault scenario: bursty Gilbert–Elliott
/// loss, corrupted delivery (FCS-caught and FCS-escaping), and mid-run
/// dynamics — the environment the supervisor must ride out without
/// giving up HACK's edge.
fn faulty_cfg(mode: HackMode, seed: u64) -> ScenarioConfig {
    let mut c = ScenarioBuilder::sora_testbed(1, mode).build();
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
    c
}

/// A loss storm harsh enough to starve the HACK path of good signals
/// (LL-ACK timeouts dominate, blob decodes dry up), healing mid-run —
/// the degrade → fallback → probation → recovery arc end to end.
fn storm_then_heal(seed: u64) -> ScenarioConfig {
    let mut c = ScenarioBuilder::sora_testbed(1, HackMode::MoreData).build();
    c.duration = SimDuration::from_secs(4);
    c.seed = seed;
    c.loss = LossConfig::PerClient(vec![0.6]);
    c.dynamics = vec![ChannelEvent {
        at: SimDuration::from_millis(1500),
        change: ChannelChange::ClientLoss {
            client: 0,
            per: 0.02,
        },
    }];
    c
}

fn supervised(mut c: ScenarioConfig) -> ScenarioConfig {
    c.supervisor = Some(SupervisorConfig::default());
    c
}

/// Supervision must not cost the determinism contract: two same-seed
/// supervised runs through the full fault matrix replay byte-for-byte.
#[test]
fn supervised_run_is_seed_deterministic() {
    let (ra, da) = traced(supervised(faulty_cfg(HackMode::MoreData, 13)));
    let (rb, db) = traced(supervised(faulty_cfg(HackMode::MoreData, 13)));
    assert!(da.events > 1000, "trace suspiciously small: {}", da.events);
    assert_eq!(
        da.to_bytes(),
        db.to_bytes(),
        "supervision broke seed determinism"
    );
    assert_eq!(ra.aggregate_goodput_mbps, rb.aggregate_goodput_mbps);
    assert_eq!(ra.supervisor.len(), 1);
    let (_, dc) = traced(supervised(faulty_cfg(HackMode::MoreData, 14)));
    assert_ne!(da.to_bytes(), dc.to_bytes(), "seeds must still diverge");
}

/// Under the corrupting/bursty fault matrix, supervised TCP/HACK must
/// hold its own against plain TCP on the same seeds and channel model
/// (≥ on aggregate, within noise on every seed), and no flow may end
/// the run stalled (zero goodput in the final window).
#[test]
fn supervised_hack_matches_plain_tcp_under_faults() {
    let mut tcp_total = 0.0;
    let mut sup_total = 0.0;
    for seed in [13, 21, 34, 89] {
        let (tcp, _) = traced(faulty_cfg(HackMode::Disabled, seed));
        let (sup, _) = traced(supervised(faulty_cfg(HackMode::MoreData, seed)));
        tcp_total += tcp.aggregate_goodput_mbps;
        sup_total += sup.aggregate_goodput_mbps;
        assert!(
            sup.aggregate_goodput_mbps >= tcp.aggregate_goodput_mbps * 0.9,
            "seed {seed}: supervised HACK {:.3} Mbps fell far behind plain TCP {:.3} Mbps",
            sup.aggregate_goodput_mbps,
            tcp.aggregate_goodput_mbps
        );
        for (flow, &g) in sup.flow_goodput_final_mbps.iter().enumerate() {
            assert!(g > 0.0, "seed {seed}: flow {flow} ended the run stalled");
        }
    }
    assert!(
        sup_total >= tcp_total,
        "supervised HACK aggregate {sup_total:.3} Mbps < plain TCP {tcp_total:.3} Mbps"
    );
}

/// A client that never advertised the HACK capability bit gets a
/// permanent, clean fallback: zero hacked ACKs, the supervisor rests in
/// `PeerIncapable`, and the flow still runs at full native speed.
#[test]
fn incapable_peer_is_permanent_clean_fallback() {
    let mut c = ScenarioBuilder::sora_testbed(1, HackMode::MoreData).build();
    c.duration = SimDuration::from_secs(2);
    c.seed = 7;
    c.client_hack_capable = vec![false];
    let (r, _) = traced(supervised(c));
    assert_eq!(r.supervisor[0].final_state, FlowHealth::PeerIncapable);
    assert_eq!(r.supervisor[0].stats.fallbacks, 1);
    assert_eq!(r.supervisor[0].stats.probations, 0, "no probes, ever");
    assert_eq!(
        r.driver[0].hacked_acks, 0,
        "ACKs rode LL ACKs toward a peer that cannot decode them"
    );
    assert!(r.driver[0].native_acks > 0, "flow never ACKed at all");
    assert!(
        r.aggregate_goodput_mbps > 1.0,
        "native fallback flow stalled: {:.3} Mbps",
        r.aggregate_goodput_mbps
    );
}

/// A flow knocked into fallback by a loss storm must come back: once
/// the channel heals, probation re-enables HACK and the flow ends the
/// run healthy with live goodput.
#[test]
fn supervisor_recovers_after_channel_heals() {
    for seed in [5, 9, 17] {
        let (r, _) = traced(supervised(storm_then_heal(seed)));
        let report = r.supervisor[0];
        assert!(
            report.stats.fallbacks >= 1,
            "seed {seed}: the storm never tripped the supervisor: {report:?}"
        );
        assert!(
            report.stats.probations >= 1,
            "seed {seed}: fallback never probed for recovery"
        );
        assert!(
            report.stats.recoveries >= 1,
            "seed {seed}: probation never promoted back to healthy"
        );
        assert_eq!(
            report.final_state,
            FlowHealth::Healthy,
            "seed {seed}: flow did not end healthy on a healed channel"
        );
        assert!(
            r.flow_goodput_final_mbps[0] > 10.0,
            "seed {seed}: post-recovery goodput anaemic: {:.3} Mbps",
            r.flow_goodput_final_mbps[0]
        );
    }
}
