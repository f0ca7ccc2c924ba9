//! # hack-bench — experiment harness for the HACK paper reproduction
//!
//! Helpers shared by the `experiments` binary: the one run path every
//! campaign-shaped subcommand takes ([`run`]: a `hack-campaign` sweep
//! under the `--threads` / `--cache` / `--trace` flags), its serial ==
//! parallel gate, and the shared command-line flag parser. The
//! per-figure logic lives in `src/bin/experiments.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod runner;

pub use cli::{CommonOpts, USAGE};
pub use runner::{matches_serial, run};
