//! # pim-parcels — parcel-driven split-transaction computing (paper study 2)
//!
//! This crate reproduces Section 4 of *"Analysis and Modeling of Advanced PIM
//! Architecture Design Tradeoffs"* (SC 2004): how effectively parcels — lightweight
//! message-driven split transactions between PIM nodes — hide system-wide latency,
//! compared with a control system of conventional blocking message-passing processors.
//!
//! * [`network`] provides the paper's flat-latency network plus mesh/torus ablations.
//! * [`control`] is the blocking control system; [`test_system`] is the
//!   split-transaction test system with configurable parallelism, parcel-handling
//!   overhead, and an optional message-driven remote-servicing mode (Figure 9).
//!   Under a flat network (memory-side servicing, for the test system) both run on
//!   a per-node kernel that is bit-identical to their discrete-event models.
//! * [`experiment`] sweeps the Figure 11 and Figure 12 grids; the harness's
//!   `figure11`/`figure12` scenarios render them.
//!
//! ```
//! use pim_parcels::prelude::*;
//!
//! // High parallelism and high latency: split transactions hide the latency and the
//! // test system completes several times the control system's work.
//! let config = ParcelConfig {
//!     nodes: 2,
//!     parallelism: 16,
//!     latency_cycles: 2_000.0,
//!     remote_fraction: 0.4,
//!     horizon_cycles: 200_000.0,
//!     ..Default::default()
//! };
//! let point = evaluate_point(config, 1);
//! assert!(point.ops_ratio > 3.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod control;
pub mod experiment;
mod kernel;
pub mod network;
pub mod outcome;
pub mod runs;
pub mod test_system;

/// Convenient glob import for the study-2 API.
pub mod prelude {
    pub use crate::config::ParcelConfig;
    pub use crate::control::{run_control, run_control_with_network, ControlSystem};
    pub use crate::experiment::{
        evaluate_idle_point, evaluate_point, point_seed, run_idle_time, run_latency_hiding,
        IdleTimePoint, IdleTimeSpec, LatencyHidingPoint, LatencyHidingSpec,
    };
    pub use crate::network::{FlatLatency, MeshNetwork, NetworkKind, NetworkModel, TorusNetwork};
    pub use crate::outcome::{NodeOutcome, SystemOutcome};
    pub use crate::runs::{LocalOpDist, Run, RunSampler};
    pub use crate::test_system::{run_test, run_test_with_options, RemoteService, TestSystem};
}
