//! The repo benchmark: five named workloads, interleaved-median host
//! timing, exact work counts, paper-anchored fidelity and outside-in
//! per-layer attribution. `README.md` beside this package is the
//! manual; `BENCHMARK.json` at the repository root is the contract.
//!
//! Everything here sits *outside* the crates it measures and calls
//! only their public entry points (README, "API surface rule").

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod json;
pub mod reference;
pub mod replay;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod traced;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
