//! # hack-mac — sans-IO 802.11 DCF/EDCA MAC
//!
//! A complete 802.11 MAC sufficient for the TCP/HACK paper's
//! experiments: EDCA contention with binary exponential backoff and NAV
//! ([`backoff`], [`station`]), A-MPDU aggregation under the 64-frame /
//! 64 KB / TXOP limits ([`queue`]), Block ACK scoreboarding with
//! receive-side reordering ([`scoreboard`]), BAR-based Block ACK
//! recovery, and the two one-bit HACK extensions — MORE DATA marking on
//! data batches and the SYNC bit after BAR exhaustion (§3.2, §3.4 of the
//! paper).
//!
//! The MAC is **payload-agnostic**: MSDUs are any type implementing
//! [`Msdu`], and compressed TCP ACKs ride on link-layer acknowledgments
//! as opaque [`HackBlob`] bytes, mirroring the paper's requirement that
//! the NIC need no TCP intelligence. Everything is sans-IO: handlers
//! return [`Action`]s for the `hack-core` event loop to materialize.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actions;
pub mod assoc;
pub mod backoff;
pub mod capability;
pub mod config;
pub mod frame;
pub mod queue;
pub mod scoreboard;
pub mod station;
pub mod stats;

pub use actions::{Action, RespKind, RxDataInfo, TimerKind, TxDescriptor};
pub use assoc::{AssocConfig, AssocMachine, AssocState, AssocStep};
pub use backoff::Contention;
pub use capability::{AssocRequest, AssocResponse, CapabilityInfo};
pub use config::MacConfig;
pub use frame::{ampdu_wire_len, AckBitmap, DataMpdu, Frame, FrameKind, HackBlob, Msdu, SeqNum};
pub use queue::{BaResolution, DestQueue, Mpdu};
pub use scoreboard::RxReorder;
pub use station::Station;
pub use stats::{MacStats, TrafficClass};
