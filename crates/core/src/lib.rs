//! # hack-core — TCP/HACK: Hierarchical ACKnowledgments
//!
//! The paper's primary contribution, assembled over the substrate
//! crates: TCP ACKs ride inside 802.11 link-layer acknowledgments,
//! eliminating the medium acquisitions (and collisions) that TCP's
//! reverse path otherwise costs.
//!
//! * [`driver`] — the HACK client and AP drivers: the MORE DATA latch,
//!   compress-and-hold, the NIC ready race, §3.4's retention / flush /
//!   SYNC rules, plus the Opportunistic and explicit-timer variants.
//! * [`packet`] — the IPv4 packet as an 802.11 MSDU.
//! * [`wired`] — the 500 Mbps / 1 ms backhaul between server and AP.
//! * [`sim`] — the whole-network event loop (stations + medium + wired +
//!   TCP endpoints + drivers).
//! * [`supervisor`] — per-flow health monitoring: graceful fallback to
//!   native ACKs under sustained faults, probation-gated re-enable.
//! * [`scenario`] — experiment-facing configuration and results.
//!
//! ```no_run
//! use hack_core::{run, HackMode, ScenarioBuilder};
//!
//! let stock = run(ScenarioBuilder::dot11n_download(150, 1, HackMode::Disabled).build());
//! let hack = run(ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData).build());
//! println!(
//!     "TCP/802.11n: {:.1} Mbps, TCP/HACK: {:.1} Mbps",
//!     stock.aggregate_goodput_mbps, hack.aggregate_goodput_mbps
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod dense;
pub mod driver;
pub mod packet;
pub mod scenario;
pub mod sim;
pub mod stable;
pub mod supervisor;
pub mod traffic;
pub mod wired;

pub use codec::{decode_run_result, encode_run_result, CodecError, RESULT_SCHEMA_VERSION};
pub use dense::{
    merge_dense, run_auto, run_dense, shard_configs, shard_seed, DenseOptions, DenseReport,
    ShardReport,
};
pub use driver::{
    CompressSide, CompressSideStats, DecompressSide, DriverAction, DriverHealth, HackMode,
    DEFAULT_HELD_CAP,
};
pub use hack_mac::AssocConfig;
pub use hack_phy::{BssPlacement, CorruptModel, GeParams, InterferenceConfig, InterferenceGraph};
pub use hack_phy::{RoamTrigger, Waypoint};
pub use hack_tcp::CcKind;
pub use packet::NetPacket;
pub use scenario::{
    BssSpec, ChannelChange, ChannelEvent, ClassReport, ClientPath, LossConfig, RoamConfig,
    RoamEvent, RunResult, ScenarioBuilder, ScenarioConfig, Standard, StandardKind, TrafficKind,
};
pub use sim::{run, run_traced, World, WorldBuilder};
pub use stable::{StableHasher, CONFIG_ENCODING_VERSION};
pub use supervisor::{
    FlowHealth, FlowSupervisor, HealthSignal, SupervisorAction, SupervisorConfig, SupervisorReport,
    SupervisorStats,
};
pub use traffic::{
    ArrivalDist, CbrConfig, OnOffConfig, ShortFlowConfig, SizeDist, TrafficClass, TrafficModel,
};
pub use wired::WiredLink;
