//! # hack-campaign — parallel experiment campaigns
//!
//! A declarative sweep engine for `hack-core` scenarios:
//!
//! * [`spec`] — [`SweepSpec`]: a base [`hack_core::ScenarioConfig`]
//!   crossed with named [`Axis`] dimensions and a seed bank, expanded
//!   into a deterministic job list.
//! * [`engine`] — execution on [`hack_sim::pool`], with results reduced
//!   in job order so parallel and serial campaigns emit byte-identical
//!   reports.
//! * [`cache`] — content-addressed on-disk result cache keyed by the
//!   stable hash of each fully-resolved config; interrupted campaigns
//!   resume from what they already computed.
//! * [`agg`] — streaming per-cell statistics (mean / min / max / 95%
//!   confidence interval via a Student-t table).
//! * [`emit`] — deterministic JSON and CSV emitters.
//!
//! ```no_run
//! use hack_campaign::{run_campaign, Axis, CampaignOptions, SweepSpec};
//! use hack_core::{HackMode, ScenarioBuilder, ScenarioConfig};
//!
//! let spec = SweepSpec::new("demo", ScenarioBuilder::sora_testbed(1, HackMode::Disabled).build())
//!     .axis(
//!         Axis::new("mode")
//!             .point("tcp", |c| c.hack_mode = HackMode::Disabled)
//!             .point("hack", |c| c.hack_mode = HackMode::MoreData),
//!     )
//!     .seed_bank(1, 4);
//! let report = run_campaign(&spec, &CampaignOptions::default());
//! println!("{}", hack_campaign::campaign_json(&report));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod cache;
pub mod emit;
pub mod engine;
pub mod spec;

pub use agg::{t95, CellStats};
pub use cache::ResultCache;
pub use emit::{campaign_csv, campaign_json};
pub use engine::{run_campaign, run_campaign_with, CampaignOptions, CampaignReport, CellReport};
pub use spec::{Axis, AxisPoint, Job, Setter, SweepSpec};
