//! Builder-API equivalence: the `ScenarioBuilder` presets resolve to
//! the configs their explicit setter chains spell out, and the
//! `World::builder()` knobs and stepping match the plain run.

use hack_core::{
    HackMode, LossConfig, ScenarioBuilder, ScenarioConfig, StandardKind, SupervisorConfig, World,
};
use hack_sim::SimDuration;

fn short(mode: HackMode) -> ScenarioConfig {
    ScenarioBuilder::sora_testbed(1, mode)
        .duration(SimDuration::from_millis(1500))
        .build()
}

#[test]
fn scenario_builder_reproduces_dot11n_download() {
    let preset = ScenarioBuilder::dot11n_download(150, 4, HackMode::MoreData).build();
    let built = ScenarioConfig::builder()
        .standard(StandardKind::Dot11n)
        .rate_mbps(150)
        .clients(4)
        .hack(HackMode::MoreData)
        .build();
    assert_eq!(
        preset.stable_hash(),
        built.stable_hash(),
        "the preset must resolve to its explicit setter chain"
    );
}

#[test]
fn scenario_builder_reproduces_sora_testbed() {
    let preset = ScenarioBuilder::sora_testbed(2, HackMode::Disabled).build();
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
    assert_eq!(preset.stable_hash(), built.stable_hash());
}

#[test]
fn world_builder_supervisor_matches_config_field() {
    // .supervisor(..) on the builder ≡ setting cfg.supervisor by hand.
    let mut by_field = short(HackMode::MoreData);
    by_field.loss = LossConfig::PerClient(vec![0.3]);
    let mut by_builder = by_field.clone();
    by_field.supervisor = Some(SupervisorConfig::default());

    let a = World::builder(by_field).run();
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
