//! The paper's headline scenario (§4.3, Figure 10): several clients
//! downloading over 802.11n while their TCP ACKs contend — or don't,
//! with HACK.
//!
//! ```sh
//! cargo run --release --example multi_client_download [n_clients]
//! ```

use tcp_hack::core::{HackMode, ScenarioBuilder, TrafficModel, World};
use tcp_hack::sim::SimDuration;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    println!("802.11n @ 150 Mbps, {n} clients, bulk downloads from a wired server\n");
    println!(
        "{:<26} {:>10} {:>12} {:>12}",
        "scheme", "aggregate", "collisions", "per-flow"
    );

    for (label, mode, udp) in [
        ("UDP (capacity baseline)", HackMode::Disabled, true),
        ("TCP / stock 802.11n", HackMode::Disabled, false),
        ("TCP / Opportunistic HACK", HackMode::Opportunistic, false),
        ("TCP / HACK (MORE DATA)", HackMode::MoreData, false),
    ] {
        let mut cfg = ScenarioBuilder::dot11n_download(150, n, mode).build();
        cfg.stagger = SimDuration::from_millis(200);
        cfg.duration = cfg.stagger * n as u64 + cfg.warmup + SimDuration::from_secs(5);
        if udp {
            cfg.traffic = TrafficModel::UdpDownload;
        }
        let r = World::builder(cfg).run();
        let flows: Vec<String> = r
            .flow_goodput_mbps
            .iter()
            .map(|g| format!("{g:.0}"))
            .collect();
        println!(
            "{label:<26} {:>7.1} Mbps {:>9} {:>15}",
            r.aggregate_goodput_mbps,
            r.collisions,
            flows.join("/"),
        );
    }
    println!("\nHACK turns each bidirectional TCP flow into (almost) unidirectional");
    println!("traffic: fewer contenders, fewer collisions, more goodput.");
}
