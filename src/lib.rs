//! # tcp-hack — TCP/HACK: Hierarchical ACKs for Efficient Wireless Medium Utilization
//!
//! A from-scratch Rust reproduction of Salameh, Zhushi, Handley,
//! Jamieson & Karp, *"HACK: Hierarchical ACKs for Efficient Wireless
//! Medium Utilization"* (USENIX ATC 2014).
//!
//! TCP over WiFi pays a medium acquisition — idle sensing, backoff, and
//! a possible collision — for every TCP ACK its receiver returns.
//! TCP/HACK eliminates those acquisitions by carrying ROHC-compressed
//! TCP ACKs *inside* the 802.11 link-layer acknowledgments that data
//! frames already elicit.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`sim`] | deterministic discrete-event kernel |
//! | [`phy`] | 802.11a/n rates, airtime, channel, medium |
//! | [`mac`] | DCF/EDCA MAC with A-MPDU + Block ACK + HACK bits |
//! | [`tcp`] | sans-IO NewReno TCP with byte-exact headers |
//! | [`rohc`] | W-LSB header compression, MD5 CIDs, ROHC CRCs |
//! | [`core`] | the HACK drivers and whole-network simulation |
//! | [`campaign`] | declarative sweeps, parallel execution, result cache |
//! | [`analysis`] | closed-form capacity models (Figure 1) |
//!
//! ## Quickstart
//!
//! ```no_run
//! use tcp_hack::core::{HackMode, ScenarioBuilder, World};
//!
//! let download = |mode| ScenarioBuilder::dot11n_download(150, 1, mode).build();
//! let stock = World::builder(download(HackMode::Disabled)).run();
//! let hack = World::builder(download(HackMode::MoreData)).run();
//! println!(
//!     "TCP/802.11n {:.1} Mbps → TCP/HACK {:.1} Mbps ({:+.1}%)",
//!     stock.aggregate_goodput_mbps,
//!     hack.aggregate_goodput_mbps,
//!     (hack.aggregate_goodput_mbps / stock.aggregate_goodput_mbps - 1.0) * 100.0,
//! );
//! ```
//!
//! See `examples/` for runnable scenarios and the `experiments` binary
//! in `crates/bench` for the paper's full table/figure suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hack_analysis as analysis;
pub use hack_campaign as campaign;
pub use hack_core as core;
pub use hack_mac as mac;
pub use hack_phy as phy;
pub use hack_rohc as rohc;
pub use hack_sim as sim;
pub use hack_tcp as tcp;
