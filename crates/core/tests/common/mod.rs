//! Fixtures shared by the integration tests in this directory.

use hack_core::{
    BssSpec, DenseOptions, DenseReport, HackMode, RoamEvent, ScenarioConfig, StandardKind,
};
use hack_sim::SimDuration;

/// Two interference components (cells 0+1 share channel 1 at 20 m; cell
/// 2 sits alone on channel 6) with flow 0 roaming from cell 0 to cell 2
/// at 155 ms: a cross-component handoff, so the roam closure must merge
/// everything into one shard. Retarget the roam at cell 1 for the
/// in-domain variant, which leaves the two shards split.
pub fn dense_roam_cfg(seed: u64) -> ScenarioConfig {
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
                x: 20.0,
                y: 0.0,
                channel: 1,
                n_clients: 1,
            },
            BssSpec {
                x: 100.0,
                y: 0.0,
                channel: 6,
                n_clients: 1,
            },
        ])
        .duration(SimDuration::from_millis(400))
        .stagger(SimDuration::from_millis(2))
        .warmup(SimDuration::from_millis(5))
        .seed(seed)
        .build();
    c.roam.schedule = vec![RoamEvent {
        flow: 0,
        at: SimDuration::from_millis(155),
        target_bss: 2,
    }];
    c
}

/// Dense options for a traced run on `threads` workers.
pub fn traced_at(threads: usize) -> DenseOptions {
    DenseOptions {
        threads,
        digests: true,
    }
}

/// What "byte-identical across thread counts" means for a dense run:
/// every shard traced the same events and dispatched the same number of
/// them, and the merged goodputs are equal.
pub fn assert_same_run(a: &DenseReport, b: &DenseReport) {
    assert_eq!(a.shards.len(), b.shards.len());
    for (s, p) in a.shards.iter().zip(&b.shards) {
        assert_eq!(s.bss, p.bss);
        assert!(s.digest.is_some(), "compare traced runs");
        assert_eq!(s.digest, p.digest, "shard {:?} trace diverged", s.bss);
        assert_eq!(
            s.result.events_dispatched, p.result.events_dispatched,
            "shard {:?} dispatched different event counts",
            s.bss
        );
    }
    assert_eq!(a.flow_goodput_mbps, b.flow_goodput_mbps);
    assert_eq!(a.aggregate_goodput_mbps, b.aggregate_goodput_mbps);
}
