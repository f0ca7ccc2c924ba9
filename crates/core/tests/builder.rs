//! Builder-API equivalence: the new `ScenarioConfig::builder()` /
//! `World::builder()` paths must be indistinguishable — byte-identical
//! trace digests included — from the legacy positional constructors
//! they replace.

use hack_core::{
    run_traced, HackMode, LossConfig, ScenarioBuilder, ScenarioConfig, StandardKind,
    SupervisorConfig, World,
};
use hack_sim::SimDuration;
use hack_trace::TraceHandle;

fn traced_run(cfg: ScenarioConfig) -> (f64, [u8; 62]) {
    let (handle, ring) = TraceHandle::ring(1 << 20);
    let r = run_traced(cfg, handle);
    (r.aggregate_goodput_mbps, ring.digest().to_bytes())
}

fn traced_builder(cfg: ScenarioConfig) -> (f64, [u8; 62]) {
    let (handle, ring) = TraceHandle::ring(1 << 20);
    let r = World::builder(cfg).trace(handle).build().run();
    (r.aggregate_goodput_mbps, ring.digest().to_bytes())
}

fn short(mode: HackMode) -> ScenarioConfig {
    ScenarioBuilder::sora_testbed(1, mode)
        .duration(SimDuration::from_millis(1500))
        .build()
}

#[test]
fn scenario_builder_reproduces_dot11n_download() {
    // Deliberately exercises the deprecated shim: it must stay
    // hash-identical to the builder for the rest of its cycle.
    #[allow(deprecated)]
    let shim = ScenarioConfig::dot11n_download(150, 4, HackMode::MoreData);
    let built = ScenarioConfig::builder()
        .standard(StandardKind::Dot11n)
        .rate_mbps(150)
        .clients(4)
        .hack(HackMode::MoreData)
        .build();
    assert_eq!(
        shim.stable_hash(),
        built.stable_hash(),
        "builder and legacy constructor must resolve to the same config"
    );
}

#[test]
fn scenario_builder_reproduces_sora_testbed() {
    #[allow(deprecated)]
    let shim = ScenarioConfig::sora_testbed(2, HackMode::Disabled);
    let built = ScenarioConfig::builder()
        .standard(StandardKind::Dot11a)
        .rate_mbps(54)
        .clients(2)
        .hack(HackMode::Disabled)
        .server_at_ap(true)
        .ap_queue_cap(1000)
        .loss(LossConfig::PerClient(vec![0.025, 0.02]))
        .stagger(SimDuration::from_millis(200))
        .sora_quirks(true)
        .rcv_window(128 * 1024)
        .build();
    assert_eq!(shim.stable_hash(), built.stable_hash());
}

#[test]
fn world_builder_digest_matches_legacy_entry_points() {
    let cfg = short(HackMode::MoreData);
    let (g_legacy, d_legacy) = traced_run(cfg.clone());
    let (g_builder, d_builder) = traced_builder(cfg);
    assert_eq!(
        d_legacy, d_builder,
        "World::builder must construct the exact same world as run_traced"
    );
    assert_eq!(g_legacy, g_builder);
}

#[test]
fn world_builder_supervisor_matches_config_field() {
    // .supervisor(..) on the builder ≡ setting cfg.supervisor by hand.
    let mut by_field = short(HackMode::MoreData);
    by_field.loss = LossConfig::PerClient(vec![0.3]);
    let mut by_builder = by_field.clone();
    by_field.supervisor = Some(SupervisorConfig::default());

    let a = hack_core::run(by_field);
    let b = World::builder(by_builder.clone())
        .supervisor(SupervisorConfig::default())
        .run();
    assert_eq!(a.aggregate_goodput_mbps, b.aggregate_goodput_mbps);
    assert_eq!(a.supervisor.len(), b.supervisor.len());
    assert!(!b.supervisor.is_empty(), "supervision must be on");

    // And without the builder call, supervision stays off.
    by_builder.supervisor = None;
    let c = World::builder(by_builder).run();
    assert!(c.supervisor.is_empty());
}

#[test]
fn untraced_builder_matches_untraced_new() {
    let cfg = short(HackMode::Disabled);
    let a = World::new(cfg.clone()).run();
    let b = World::builder(cfg).build().run();
    assert_eq!(a.aggregate_goodput_mbps, b.aggregate_goodput_mbps);
    assert_eq!(a.events_dispatched, b.events_dispatched);
}

/// `run()` is `run_until(end)` plus `finish()`: a world stepped in
/// slices dispatches the same events and reports the same result as one
/// run in one go — to the configured end, and when byte budgets end the
/// run early.
#[test]
fn stepped_world_dispatches_what_run_does() {
    let to_the_end = ScenarioBuilder::dot11n_download(150, 2, HackMode::MoreData)
        .duration(SimDuration::from_millis(400))
        .build();
    let early_completion = ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData)
        .duration(SimDuration::from_secs(2))
        .transfer_bytes(500_000)
        .build();
    for cfg in [to_the_end, early_completion] {
        let whole = World::builder(cfg.clone()).build().run();

        let mut world = World::builder(cfg).build();
        let slice = SimDuration::from_millis(7);
        let mut until = hack_sim::SimTime::ZERO + slice;
        while world.run_until(until) {
            until += slice;
        }
        let dispatched = world.events_dispatched();
        let stepped = world.finish();

        assert_eq!(dispatched, whole.events_dispatched);
        assert_eq!(stepped.events_dispatched, whole.events_dispatched);
        assert_eq!(stepped.flow_goodput_mbps, whole.flow_goodput_mbps);
        assert_eq!(stepped.flow_completion, whole.flow_completion);
    }
}
