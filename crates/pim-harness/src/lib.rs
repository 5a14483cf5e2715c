//! # pim-harness — scenario registry and parallel batch harness
//!
//! Every paper artifact (Figures 5–7, 11, 12, Table 1, the validation study and the
//! ablations) runs behind one interface:
//!
//! * [`scenario::Scenario`] — a named, seedable experiment producing a structured
//!   [`report::ScenarioReport`];
//! * [`registry::Registry`] — the catalog of every registered scenario;
//! * [`runner::run_batch`] — executes any subset across OS threads with deterministic
//!   per-scenario RNG streams and writes versioned JSON artifacts;
//! * [`shard`] — the `run --shard I/N` partition: split a sweep across processes by
//!   unit-key digest, merge the shard caches with `cache merge`, and a warm
//!   unsharded run reproduces the single-process artifacts byte-for-byte;
//! * [`spec`] — declarative scenario specs (schema v1 JSON): user-defined scenarios
//!   as data, compiled into the registry beside the builtins;
//! * [`serve`] — sweep-as-a-service: the spec-submission daemon behind
//!   `pim-tradeoffs serve`, one persistent [`exec::UnitPool`] (warm results,
//!   single-flight unit deduplication) shared by every client;
//! * [`measure`] — the pim-workload → pim-mem bridge behind the `measured` spec
//!   family (synthetic streams through the cache and DRAM-bank models).
//!
//! The golden-file regression suite (`tests/golden.rs`, pinning `tests/golden/*.json`)
//! keeps its tolerance-aware JSON diff and its bless switch beside its tests.
//!
//! Determinism is the core contract: a scenario's seed is derived from the batch's
//! base seed and the scenario *name* (never from thread order or submission index), so
//! `--jobs 1` and `--jobs 8` produce byte-identical artifacts.
//!
//! ```
//! use pim_harness::prelude::*;
//!
//! let registry = Registry::builtin();
//! let report = registry.get("table1").unwrap().run(&SeedPolicy::default());
//! assert_eq!(report.scenario, "table1");
//! assert!(!report.tables.is_empty());
//! ```

pub mod cache;
pub mod exec;
pub mod measure;
pub mod registry;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod scenarios;
pub mod serve;
pub mod shard;
pub mod spec;

/// Shared, documented base seed so every default run is reproducible. Scenarios
/// derive their streams from it via their [`scenario::SeedPolicy`] (base seed mixed
/// with the scenario name), and the golden files pin those streams.
pub const DEFAULT_SEED: u64 = 0x5C_2004;

/// Convenient glob import for the harness API.
pub mod prelude {
    pub use crate::cache::{
        cache_clear, cache_entries, cache_gc, cache_merge, cache_stats, CacheCounts, CacheEntry,
        MergeOutcome, UnitCache, UnitKey, UnitKeyer, CACHE_SCHEMA_VERSION,
    };
    pub use crate::exec::{resolve_jobs, PlanOutcome, RunError, RunHooks, UnitPool};
    pub use crate::measure::{measure_stream, MeasureConfig, MeasuredStats};
    pub use crate::registry::Registry;
    pub use crate::report::{
        Metric, ScenarioReport, Table, ARTIFACT_SCHEMA_VERSION, MANIFEST_SCHEMA_VERSION,
    };
    pub use crate::runner::{run_batch, BatchOptions, BatchOutcome};
    pub use crate::scenario::{Scenario, ScenarioPlan, SeedPolicy};
    pub use crate::serve::{DrainHandle, DrainSummary, ServeOptions, SweepServer};
    pub use crate::shard::{ExecutedUnit, ShardScenario, ShardSpec};
    pub use crate::spec::{
        load_spec_file, load_specs, parse_spec, register_spec_files, register_specs, spec_files,
        ScenarioSpec,
    };
    pub use crate::DEFAULT_SEED;
}
