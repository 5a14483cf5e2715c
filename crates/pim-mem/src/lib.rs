//! # pim-mem — memory-system substrate for the PIM tradeoff studies
//!
//! Structural models of the memory hardware the paper's statistical studies abstract
//! over: one DRAM macro's timing, with 2048-bit rows and 256-bit pages out of the row
//! buffer ([`timing`]), a bank behind an open-page row buffer ([`bank`]), and a
//! set-associative host cache that measures the miss rate the paper assumes
//! ([`cache`]).
//!
//! These models serve two purposes in the workspace:
//!
//! 1. they back the Section 2.1 bandwidth claims (50 Gbit/s per macro, > 1 Tbit/s
//!    per chip) that motivate the whole study. The `bandwidth_claims` scenario
//!    (`pim-tradeoffs run bandwidth_claims`) computes a chip's peak as the macro's
//!    peak times its node count, from parameters and counts alone, as the Bitlet
//!    model computes PIM throughput;
//! 2. they let the workload crate derive the Table 1 statistical parameters
//!    (`Pmiss`, memory latencies) from concrete address streams instead of assuming
//!    them, which is the calibration path a downstream user of this library would take.

pub mod bank;
pub mod cache;
mod row_buffer;
pub mod timing;

pub use bank::Bank;
pub use cache::{CacheOutcome, SetAssociativeCache};
pub use timing::DramTiming;
