//! The paper's upload motivation: "we envisage TCP/HACK as especially
//! useful for wireless backup to LAN-attached storage, such as a Time
//! Capsule" (§3.1). Here a client pushes a fixed-size backup to the
//! server; HACK runs symmetrically — the *AP* compresses the server's
//! TCP ACKs onto its Block ACKs toward the client.
//!
//! ```sh
//! cargo run --release --example wireless_backup [megabytes]
//! ```

use tcp_hack::core::{HackMode, ScenarioBuilder, TrafficModel, World};
use tcp_hack::sim::SimDuration;

fn main() {
    let mb: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50);
    println!("Backing up {mb} MB over 802.11n @ 150 Mbps (client → wired server)\n");

    for (label, mode) in [
        ("TCP / stock 802.11n", HackMode::Disabled),
        ("TCP / HACK (MORE DATA)", HackMode::MoreData),
    ] {
        let cfg = ScenarioBuilder::dot11n_download(150, 1, mode)
            .traffic(TrafficModel::BulkUpload)
            .transfer_bytes(mb * 1_000_000)
            .duration(SimDuration::from_secs(600))
            .build();
        let r = World::builder(cfg).run();
        match r.completion() {
            Some(t) => {
                let secs = t.as_secs_f64();
                println!(
                    "{label:<24} finished in {secs:6.2} s  ({:.1} Mbps)",
                    (mb * 1_000_000) as f64 * 8.0 / secs / 1e6
                );
            }
            None => println!("{label:<24} did not finish (increase duration)"),
        }
    }
    println!("\nIn the upload direction the TCP ACKs flow AP → client, so the AP-side");
    println!("driver holds them and the client-side driver reconstitutes them.");
}
