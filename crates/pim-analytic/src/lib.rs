//! # pim-analytic — closed-form models of the PIM design tradeoffs
//!
//! The paper pairs every simulation study with an analytical model. This crate holds
//! those closed forms and their validation against the simulations:
//!
//! * [`hwp_lwp::AnalyticModel`] — `Time_relative = 1 − %WL·(1 − NB/N)` and the
//!   break-even parameter `NB` (Section 3.1.2, Figure 7);
//! * [`validation`] — the analytic-versus-simulation comparison the paper quotes as
//!   "an accuracy of between 5% and 18%";
//! * [`parcels::ParcelAnalyticModel`] — a Saavedra-Barrera-style multithreading model
//!   of split-transaction latency hiding, used to sanity-check Figure 11;
//! * [`sweep`] — sensitivity of `NB` to the machine constants (ablation).
//!
//! ```
//! use pim_analytic::hwp_lwp::AnalyticModel;
//!
//! let model = AnalyticModel::table1();
//! assert!((model.nb() - 3.125).abs() < 1e-12);
//! // At the coincidence point N = NB every %WL curve has relative time 1.
//! assert!((model.time_relative(model.nb(), 0.7) - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod hwp_lwp;
pub mod parcels;
pub mod sweep;
pub mod validation;

pub use hwp_lwp::AnalyticModel;
pub use parcels::ParcelAnalyticModel;
pub use sweep::{nb_sensitivity, SensitivityRow, SweepParameter};
pub use validation::{validate, validation_from_sweep, ValidationReport, ValidationRow};
