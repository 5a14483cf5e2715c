//! # desim — a discrete-event simulation engine for queuing-model studies
//!
//! This crate is the workspace's substitute for the commercial HyPerformix
//! SES/Workbench tool used in the paper *"Analysis and Modeling of Advanced PIM
//! Architecture Design Tradeoffs"* (SC 2004). It provides the modeling
//! core the paper's two queuing studies rely on:
//!
//! * an event-oriented [`engine::Simulation`] over a deterministic pending-event set
//!   ([`event::FifoBandQueue`], checked against the reference
//!   [`event::BinaryHeapQueue`]),
//! * reproducible random variate streams ([`random`]),
//! * observation statistics with Student-t confidence intervals ([`stats`]) and
//!   independent replications ([`replication`]),
//! * simulated time in integer ticks ([`time`]) and a platform-stable content hash
//!   for cache keys ([`stablehash`]).
//!
//! The engine is deliberately single-threaded per simulation instance (discrete-event
//! causality is inherently sequential); throughput for the paper's parameter sweeps
//! comes from running many independent simulations in parallel. The [`par`] module is
//! the shared substrate for that: a work-stealing map over a flattened work list
//! (shared atomic index) used by the `pim-core`/`pim-parcels` sweeps and by the
//! `pim-harness` batch runner.
//!
//! The [`engine`] module docs walk through a small model.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod engine;
pub mod event;
pub mod par;
pub mod random;
pub mod replication;
pub mod stablehash;
pub mod stats;
pub mod time;

/// Convenient glob import for model authors.
pub mod prelude {
    pub use crate::engine::{Model, RunReport, Scheduler, Simulation, StopReason};
    pub use crate::event::{BinaryHeapQueue, EventQueue, FifoBandQueue};
    pub use crate::par::{available_threads, work_steal_map};
    pub use crate::random::RandomStream;
    pub use crate::replication::{replicate, ReplicationSummary};
    pub use crate::stats::{ConfidenceLevel, Tally};
    pub use crate::time::{SimDuration, SimTime};
}
