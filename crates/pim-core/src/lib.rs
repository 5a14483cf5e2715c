//! # pim-core — the HWP/LWP partitioning study (paper study 1)
//!
//! This crate reproduces Section 3 of *"Analysis and Modeling of Advanced PIM
//! Architecture Design Tradeoffs"* (SC 2004): the tradeoff between executing work on a
//! cache-based heavyweight host processor (HWP) and offloading the low-temporal-
//! locality fraction of the work to an array of lightweight processor-in-memory nodes
//! (LWPs).
//!
//! * [`config::SystemConfig`] holds the Table 1 parametric assumptions.
//! * [`hwp`] and [`lwp`] model the two processor classes (Figures 2 and 3).
//! * [`queueing`] is the paper's SES/Workbench queuing model, including the Figure 4
//!   phase timeline, run as a per-phase kernel over quantized operation batches.
//! * [`system::PartitionStudy`] evaluates one `(N, %WL)` design point in either
//!   expected-value or simulated mode.
//! * [`experiment`] names the design grid behind Figures 5, 6 and 7 and the seed
//!   of each of its points; the `pim-harness` scenarios run the points and render
//!   the tables.
//!
//! ```
//! use pim_core::prelude::*;
//!
//! let study = PartitionStudy::table1();
//! // 32 PIM nodes, 100% low-locality work: an order-of-magnitude gain.
//! let point = study.evaluate(32, 1.0, EvalMode::Expected);
//! assert!(point.gain > 10.0);
//! // The break-even node count NB depends only on machine/workload constants.
//! assert!((study.config().nb() - 3.125).abs() < 1e-12);
//! ```

pub mod config;
pub mod experiment;
pub(crate) mod extensions;
pub mod hwp;
pub mod lwp;
pub mod queueing;
pub mod system;

/// Convenient glob import for the study-1 API.
pub mod prelude {
    pub use crate::config::SystemConfig;
    pub use crate::experiment::{point_eval_mode, SweepResult, SweepSpec};
    pub use crate::extensions::{imbalance_sensitivity, ImbalanceRow};
    pub use crate::hwp::{HwpExecution, HwpStats};
    pub use crate::lwp::{LwpExecution, LwpStats};
    pub use crate::queueing::{run_queueing, QueueingResult, RunMode};
    pub use crate::system::{EvalMode, PartitionStudy, TradeoffPoint};
}
