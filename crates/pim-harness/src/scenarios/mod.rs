//! The built-in scenarios: every figure, table, validation study and ablation of the
//! paper, each one registered [`crate::scenario::Scenario`].
//!
//! Grouped by the model family they exercise:
//!
//! * [`partition`] — study 1 (HWP/LWP partitioning): Figures 5 and 6, Table 1, the
//!   analytic-versus-simulation validation, replication CIs and the imbalance ablation;
//! * [`analytic`] — closed forms only: Figure 7 and the `NB` sensitivity ablation;
//! * [`parcels`] — study 2 (parcel latency hiding): Figures 11 and 12, the network
//!   and parcel-overhead ablations;
//! * [`memory`] — the Section 2.1 DRAM bandwidth claims.

pub mod analytic;
pub mod memory;
pub mod parcels;
pub mod partition;
