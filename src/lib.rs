//! # pim-repro — reproduction of "Analysis and Modeling of Advanced PIM Architecture Design Tradeoffs" (SC 2004)
//!
//! This facade crate re-exports the workspace members so applications can depend on a
//! single crate:
//!
//! * [`desim`] — the discrete-event simulation engine (SES/Workbench substitute);
//! * [`pim_mem`] — DRAM macro / row buffer / bank / cache / PIM-chip models;
//! * [`pim_workload`] — instruction mixes, temporal-locality and thread partitions,
//!   and synthetic kernels;
//! * [`pim_core`] — study 1: the HWP/LWP partitioning queuing model and sweeps
//!   (Figures 5-7, Table 1);
//! * [`pim_parcels`] — study 2: parcel split-transaction latency hiding versus blocking
//!   message passing (Figures 8-12);
//! * [`pim_analytic`] — the closed-form models (`Time_relative`, `NB`, multithreading
//!   efficiency) and their validation against the simulations;
//! * [`pim_harness`] — the scenario registry and parallel batch harness that
//!   regenerates every paper artifact as versioned JSON (`pim-tradeoffs list|run`).
//!
//! The determinism contract those crates keep (a unit result is a pure function of
//! its key) is enforced by the workspace lint table and the root `clippy.toml`, which
//! this package opts into as well, gated by the `pim-audit` binary; it is a tool,
//! not a library, so nothing here re-exports it.
//!
//! See the `examples/` directory for runnable walkthroughs, and `pim-tradeoffs run`
//! for regenerating every table and figure in the paper; a single design point is a
//! one-point spec run through `pim-tradeoffs run --spec FILE`.

pub use desim;
pub use pim_analytic;
pub use pim_core;
pub use pim_harness;
pub use pim_mem;
pub use pim_parcels;
pub use pim_workload;
