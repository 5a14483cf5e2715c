//! # desim — a discrete-event simulation engine for queuing-model studies
//!
//! This crate is the workspace's substitute for the commercial HyPerformix
//! SES/Workbench tool used in the paper *"Analysis and Modeling of Advanced PIM
//! Architecture Design Tradeoffs"* (SC 2004). It provides the modeling
//! core the paper's two queuing studies rely on:
//!
//! * an event-oriented [`engine::Simulation`] whose pending events sit in one binary
//!   heap ordered by `(time, seq)`, so dispatch order is deterministic,
//! * reproducible random variate streams ([`random`]),
//! * observation statistics with Student-t confidence intervals ([`stats`]) and
//!   the seed and summary of independent replications ([`replication`]),
//! * simulated time in integer ticks ([`time`]) and a platform-stable content hash
//!   for cache keys ([`stablehash`]).
//!
//! The crate is single-threaded: discrete-event causality is inherently sequential,
//! and nothing here spawns a thread. Throughput for the paper's parameter sweeps
//! comes from running many independent simulations at once, which the `pim-harness`
//! executor schedules; every seed a point needs is a pure function of plan-time
//! values, so the schedule never changes a result.
//!
//! The [`engine`] module docs walk through a small model.

pub mod engine;
pub mod random;
pub mod replication;
pub mod stablehash;
pub mod stats;
pub mod time;

/// Convenient glob import for model authors.
pub mod prelude {
    pub use crate::engine::{Model, Scheduler, Simulation};
    pub use crate::random::RandomStream;
    pub use crate::replication::ReplicationSummary;
    pub use crate::stats::{ConfidenceLevel, Tally};
    pub use crate::time::{SimDuration, SimTime};
}
