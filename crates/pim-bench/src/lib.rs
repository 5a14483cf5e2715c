//! # pim-bench — the `pim-perf` benchmark suite
//!
//! [`perf`] measures the layers under the paper's artifacts — the pending-event
//! sets, the engine end to end, the scenario batch, the unit-result cache, the
//! shard protocol and the sweep daemon — and writes them as a schema-versioned
//! `BENCH_<rev>.json`; the `pim-perf` binary runs it and compares two payloads.
//! The artifacts themselves are regenerated by `pim-tradeoffs run` (see
//! `pim-harness`), not here.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod perf;
