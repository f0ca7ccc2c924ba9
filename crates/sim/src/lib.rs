//! # hack-sim — discrete-event simulation kernel
//!
//! The substrate underneath the TCP/HACK reproduction: a deterministic
//! discrete-event engine in the style of ns-3's core, but deliberately
//! minimal. It provides
//!
//! * integer-nanosecond [`SimTime`] / [`SimDuration`] ([`time`]),
//! * a FIFO-tiebroken [`EventQueue`] with removable entries and a
//!   clock-advancing [`Scheduler`] ([`queue`]),
//! * cancellable timers ([`timer`]),
//! * a seeded, forkable RNG ([`rng`]),
//! * a cheap hasher for simulator-generated keys ([`hash`]),
//! * the index-claimed worker pool that dense shards and campaign jobs
//!   share ([`pool`]), and
//! * measurement primitives for the paper's metrics ([`stats`]).
//!
//! The protocol crates (`hack-mac`, `hack-tcp`, `hack-core`) are written
//! sans-IO: they never talk to this engine directly, they merely return
//! actions and timer requests that `hack-core`'s event loop materializes
//! through these types. That keeps every protocol state machine unit-
//! testable with hand-fed events and keeps whole-simulation runs exactly
//! reproducible from a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timer;

pub use hash::{FastBuildHasher, FastHasher, FastMap};
pub use queue::{EventHandle, EventQueue, Scheduler, Ticket};
pub use rng::SimRng;
pub use stats::{
    Counter, QuantileSketch, RunStats, RunningStats, ThroughputMeter, TimeAccumulator,
    SKETCH_BUCKETS,
};
pub use time::{SimDuration, SimTime};
pub use timer::{TimerTable, TimerToken};

/// The structured cross-layer event-tracing layer (re-exported so
/// simulation drivers need only depend on `hack-sim`).
pub use hack_trace as events;
