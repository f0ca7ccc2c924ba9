//! HACK under a weakening signal (the Figure 11 regime): a client walks
//! away from the AP and the SNR drops. HACK's §3.4 retention machinery
//! must keep compression contexts synchronized through the losses.
//!
//! ```sh
//! cargo run --release --example lossy_link [rate_mbps]
//! ```

use tcp_hack::core::{HackMode, LossConfig, ScenarioBuilder, World};
use tcp_hack::phy::{Channel, PhyRate, StationId};
use tcp_hack::sim::SimDuration;

fn main() {
    let rate: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(90);
    let min_snr = PhyRate::ht(rate).min_snr_db();
    println!("802.11n @ {rate} Mbps download vs SNR (rate needs ≈{min_snr:.0} dB)\n");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>8} {:>12} {:>10}",
        "SNR dB", "dist m", "TCP Mbps", "HACK Mbps", "gain", "CRC fails", "dup blobs"
    );

    let mut ch = Channel::indoor();
    ch.place(StationId(0), 0.0, 0.0);

    for snr_off in [8.0, 5.0, 3.0, 1.5, 0.5, -1.0] {
        let snr = min_snr + snr_off;
        let d = ch.distance_for_snr(snr);
        let mut goodputs = Vec::new();
        let mut crc = 0;
        let mut dups = 0;
        for mode in [HackMode::Disabled, HackMode::MoreData] {
            let mut cfg = ScenarioBuilder::dot11n_download(rate, 1, mode)
                .duration(SimDuration::from_secs(4))
                .build();
            cfg.loss = LossConfig::SnrDistance(d);
            let r = World::builder(cfg).run();
            goodputs.push(r.flow_goodput_full_mbps[0]);
            if mode == HackMode::MoreData {
                crc = r.decompressor.crc_failures;
                dups = r.decompressor.duplicates;
            }
        }
        let gain = if goodputs[0] > 0.5 {
            format!("{:+.0}%", (goodputs[1] / goodputs[0] - 1.0) * 100.0)
        } else {
            "-".into()
        };
        println!(
            "{snr:>8.1} {d:>10.1} {:>12.2} {:>12.2} {gain:>8} {crc:>12} {dups:>10}",
            goodputs[0], goodputs[1]
        );
    }
    println!("\nDuplicate blobs are the retention mechanism working (the AP discards");
    println!("them by master sequence number); CRC failures heal on native ACKs.");
}
