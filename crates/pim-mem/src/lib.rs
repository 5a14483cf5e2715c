//! # pim-mem — memory-system substrate for the PIM tradeoff studies
//!
//! Structural models of the memory hardware the paper's statistical studies abstract
//! over: DRAM macros with 2048-bit rows and 256-bit pages out of the row buffer
//! ([`dram`], [`row_buffer`], [`bank`]), a set-associative host cache that measures
//! the miss rate the paper assumes ([`cache`]), and PIM chips that aggregate
//! many (bank + lightweight processor) nodes ([`pim_chip`]).
//!
//! These models serve two purposes in the workspace:
//!
//! 1. they validate the Section 2.1 bandwidth claims (50 Gbit/s per macro, > 1 Tbit/s
//!    per chip) that motivate the whole study — see the `bandwidth_claims` scenario
//!    (`pim-tradeoffs run bandwidth_claims`);
//! 2. they let the workload crate derive the Table 1 statistical parameters
//!    (`Pmiss`, memory latencies) from concrete address streams instead of assuming
//!    them, which is the calibration path a downstream user of this library would take.

pub mod bank;
pub mod cache;
pub mod dram;
pub mod pim_chip;
pub mod row_buffer;
pub mod timing;

pub use bank::Bank;
pub use cache::{CacheModel, CacheOutcome, SetAssociativeCache};
pub use dram::{DramMacro, Interleave};
pub use pim_chip::{PimChip, PimNode};
pub use timing::{DramTiming, ProcessorTiming};
