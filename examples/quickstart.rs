//! Quickstart: how much does TCP/HACK buy on a single-client 802.11n
//! download?
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tcp_hack::core::{HackMode, ScenarioBuilder, World};
use tcp_hack::sim::SimDuration;

fn main() {
    println!("802.11n @ 150 Mbps, one client downloading through an AP\n");

    let mut results = Vec::new();
    for (label, mode) in [
        ("TCP over stock 802.11n", HackMode::Disabled),
        ("TCP over HACK (MORE DATA)", HackMode::MoreData),
    ] {
        let cfg = ScenarioBuilder::dot11n_download(150, 1, mode)
            .duration(SimDuration::from_secs(5))
            .build();
        let r = World::builder(cfg).run();
        println!(
            "{label:<28} {:6.1} Mbps   (collisions: {:4}, TCP ACKs riding LL ACKs: {})",
            r.aggregate_goodput_mbps, r.collisions, r.driver[0].hacked_acks,
        );
        results.push(r.aggregate_goodput_mbps);
    }

    println!(
        "\nHACK improvement: {:+.1}%  (the paper reports ~15% for this setup)",
        (results[1] / results[0] - 1.0) * 100.0
    );
}
