//! Declarative scenario specs: user-defined scenarios as data (schema v1).
//!
//! The registry's 13 builtins are hand-written Rust types frozen at the paper's
//! figures and tables. This module opens the catalog: a JSON **scenario spec**
//! describes a new design study as data — a model family, a parameter grid over
//! `SystemConfig`/`ParcelConfig`/workload fields, a replication count, a seed policy
//! and the output columns — and compiles into a [`crate::scenario::Scenario`] that
//! registers beside the builtins and decomposes through
//! [`crate::scenario::Scenario::plan`] into one work unit per (grid point ×
//! replication), so spec-defined scenarios ride the work-stealing batch runner at
//! exactly the same granularity and with the same determinism contract as the
//! builtins.
//!
//! # Spec format (schema v1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "name": "parcel_scaling",
//!   "description": "work ratio across node counts and remote fractions",
//!   "model": "parcels",
//!   "replications": 1,
//!   "seed": "derived",
//!   "columns": null,
//!   "config": { "horizon_cycles": 300000.0 },
//!   "grid": {
//!     "node_counts": [2, 4, 8],
//!     "parallelisms": [8],
//!     "latencies": [1000.0],
//!     "remote_fractions": [0.2, 0.6]
//!   }
//! }
//! ```
//!
//! Three model families are supported:
//!
//! * `"analytic"` — the study-1 partitioning model (closed-form `expected` mode or
//!   the sampled queuing simulation), gridded over node counts, `%WL`, `Pmiss` and
//!   the memory mix;
//! * `"parcels"` — the study-2 discrete-event parcel simulation, gridded over node
//!   counts, parallelism, latency, remote fraction and parcel overhead;
//! * `"measured"` — the pim-workload → pim-mem bridge ([`crate::measure`]): synthetic
//!   operation streams driven through the host cache and DRAM bank models, gridded
//!   over address patterns and memory mixes.
//!
//! Parsing is *hard*: unknown fields, duplicate keys, empty grid axes, zero node
//! counts, non-finite numbers, out-of-range fractions, unknown model families and
//! unsupported schema versions are all rejected with a message naming the offending
//! field, mirroring the `SweepSpec` hardening in `pim-core`.
//!
//! # Seed policy
//!
//! `"seed": "derived"` (the default) gives the scenario the same name-derived stream
//! every builtin gets ([`SeedPolicy::scenario_seed`]), so `--seed` moves spec
//! scenarios and builtins together. `"seed": {"fixed": N}` pins the scenario seed to
//! `N` regardless of the batch's base seed. Either way each unit's stream is a pure
//! function of the scenario seed and the unit's flattened grid index
//! ([`unit_seed`]), never of thread scheduling — artifacts are byte-identical across
//! `--jobs` settings.

use crate::cache::UnitKeyer;
use crate::measure::{measure_stream, pattern_label, validate_pattern, MeasureConfig};
use crate::registry::Registry;
use crate::report::{ScenarioReport, Table};
use crate::scenario::{Scenario, ScenarioPlan, SeedPolicy};
use pim_core::prelude::{EvalMode, PartitionStudy, SystemConfig};
use pim_parcels::prelude::{evaluate_point, ParcelConfig};
use pim_workload::{AddressPattern, InstructionMix};
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};

/// Version of the spec schema this build understands. Bump on incompatible format
/// changes; parsing rejects any other value.
pub const SPEC_SCHEMA_VERSION: u32 = 1;

/// Ceiling on `grid points × replications` per spec: a typo like an extra grid axis
/// should fail at parse time, not swamp the batch runner.
pub const MAX_UNITS: usize = 10_000;

/// How a spec-defined scenario derives its seed from the batch seed policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedMode {
    /// Derive from the batch base seed and the scenario name, like every builtin.
    Derived,
    /// Pin the scenario seed to this value, ignoring the batch base seed.
    Fixed(u64),
}

/// A parsed, validated scenario spec. Construct via [`parse_spec`] /
/// [`load_spec_file`]; every constructor validates, so a held `ScenarioSpec` is
/// always runnable.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name: registry key, artifact file name and seed-derivation input.
    pub name: String,
    /// One-line description, shown by `pim-tradeoffs list`.
    pub description: String,
    /// Independent replications per grid point (each gets its own derived stream).
    pub replications: usize,
    /// Seed policy (see the module docs).
    pub seed: SeedMode,
    /// Output column subset, in the requested order; `None` means every column the
    /// family provides.
    pub columns: Option<Vec<String>>,
    /// The model family and its parameter grid.
    pub model: ModelSpec,
}

/// The model family of a spec plus its family-specific configuration and grid.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// Study-1 partitioning model (`"analytic"`).
    Analytic(AnalyticSpec),
    /// Study-2 parcel discrete-event simulation (`"parcels"`).
    Parcels(ParcelsSpec),
    /// Measured pim-workload → pim-mem bridge (`"measured"`).
    Measured(MeasuredSpec),
}

/// Evaluation mode of the analytic family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnalyticMode {
    /// Closed-form expected values (seed-independent).
    Expected,
    /// The sampled queuing simulation.
    Simulated {
        /// Operations actually simulated per point (rescaled to the configured total).
        sim_ops: u64,
        /// Operations batched per simulation event.
        ops_per_event: u64,
    },
}

/// Grid and base configuration of an `"analytic"` spec.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticSpec {
    /// Base `SystemConfig` (Table 1 plus any `config` overrides). Its `p_miss` and
    /// `mix` fields are placeholders — both are grid axes, overridden per point.
    pub base: SystemConfig,
    /// Evaluation mode.
    pub mode: AnalyticMode,
    /// Test-system node counts (axis; all ≥ 1).
    pub node_counts: Vec<usize>,
    /// Lightweight-work fractions `%WL` in `[0, 1]` (axis).
    pub lwp_fractions: Vec<f64>,
    /// Host cache miss rates in `[0, 1]` (axis; defaults to Table 1's `[0.1]`).
    pub p_miss: Vec<f64>,
    /// Memory mixes `mix_l/s` in `[0, 1]` (axis; defaults to Table 1's `[0.3]`).
    pub memory_mix: Vec<f64>,
}

/// Grid and base configuration of a `"parcels"` spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ParcelsSpec {
    /// Base `ParcelConfig` (defaults plus any `config` overrides; the horizon
    /// defaults to 500k cycles, the figure-11 setting, rather than the library
    /// default of 2M, to keep spec grids affordable). Its `nodes`, `parallelism`,
    /// `latency_cycles`, `remote_fraction` and `parcel_overhead_cycles` fields are
    /// placeholders — all five are grid axes.
    pub base: ParcelConfig,
    /// The combined load/store fraction `base.mix` was built from. Stored separately
    /// because `InstructionMix::with_memory_fraction` splits the scalar 2:1 in
    /// floating point — recovering it from `base.mix.memory_fraction()` would not
    /// round-trip bit-exactly through the canonical JSON form.
    pub memory_mix: f64,
    /// Node counts (axis; all ≥ 1).
    pub node_counts: Vec<usize>,
    /// Degrees of parallelism (axis; all ≥ 1).
    pub parallelisms: Vec<usize>,
    /// One-way latencies in cycles (axis; finite, ≥ 0).
    pub latencies: Vec<f64>,
    /// Remote-access fractions in `[0, 1]` (axis).
    pub remote_fractions: Vec<f64>,
    /// Per-parcel handling overheads in cycles (axis; defaults to `[4.0]`).
    pub overheads: Vec<f64>,
}

/// Grid and base configuration of a `"measured"` spec.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredSpec {
    /// Operations drawn from the stream per unit.
    pub ops: u64,
    /// Host cache capacity in bytes.
    pub cache_bytes: u64,
    /// Host cache line size in bytes (power of two).
    pub cache_line_bytes: u64,
    /// Host cache associativity.
    pub cache_ways: usize,
    /// Rows in the DRAM bank.
    pub bank_rows: u64,
    /// Address patterns (axis), in pim-workload's externally-tagged JSON form, e.g.
    /// `{"UniformRandom": {"footprint": 1048576, "line": 64}}`.
    pub patterns: Vec<AddressPattern>,
    /// Memory mixes `mix_l/s` in `[0, 1]` (axis).
    pub memory_fractions: Vec<f64>,
}

/// Full column sets per family, in row order.
const ANALYTIC_COLUMNS: &[&str] = &[
    "nodes",
    "pct_lwp",
    "p_miss",
    "memory_mix",
    "replication",
    "gain",
    "relative_time",
    "control_ns",
    "test_ns",
];
const PARCELS_COLUMNS: &[&str] = &[
    "nodes",
    "parallelism",
    "latency_cycles",
    "remote_pct",
    "overhead_cycles",
    "replication",
    "ops_ratio",
    "test_idle_frac",
    "control_idle_frac",
];
const MEASURED_COLUMNS: &[&str] = &[
    "pattern",
    "memory_fraction",
    "replication",
    "memory_accesses",
    "host_miss_rate",
    "row_hit_rate",
    "mean_dram_latency_ns",
    "achieved_gbit_per_s",
];

impl ScenarioSpec {
    /// The family's wire name (`"analytic"` / `"parcels"` / `"measured"`).
    pub fn family(&self) -> &'static str {
        match self.model {
            ModelSpec::Analytic(_) => "analytic",
            ModelSpec::Parcels(_) => "parcels",
            ModelSpec::Measured(_) => "measured",
        }
    }

    /// Number of grid points (cartesian product of the family's axes). Saturates at
    /// `usize::MAX` on overflow, which [`validate`](Self::validate)'s size gate then
    /// rejects as above the cap — an absurd axis product must become an `Err`, not
    /// a wrapped small number that sneaks past the gate.
    pub fn grid_points(&self) -> usize {
        let product = |axes: &[usize]| {
            axes.iter()
                .fold(1usize, |acc, &len| acc.saturating_mul(len))
        };
        match &self.model {
            ModelSpec::Analytic(a) => product(&[
                a.node_counts.len(),
                a.lwp_fractions.len(),
                a.p_miss.len(),
                a.memory_mix.len(),
            ]),
            ModelSpec::Parcels(p) => product(&[
                p.node_counts.len(),
                p.parallelisms.len(),
                p.latencies.len(),
                p.remote_fractions.len(),
                p.overheads.len(),
            ]),
            ModelSpec::Measured(m) => product(&[m.patterns.len(), m.memory_fractions.len()]),
        }
    }

    /// Number of plan units (`grid points × replications`), saturating like
    /// [`grid_points`](Self::grid_points).
    pub fn units(&self) -> usize {
        self.grid_points().saturating_mul(self.replications)
    }

    /// The family's full column set.
    pub fn available_columns(&self) -> &'static [&'static str] {
        match self.model {
            ModelSpec::Analytic(_) => ANALYTIC_COLUMNS,
            ModelSpec::Parcels(_) => PARCELS_COLUMNS,
            ModelSpec::Measured(_) => MEASURED_COLUMNS,
        }
    }

    /// The columns a run will emit (the selected subset, or every column).
    pub fn output_columns(&self) -> Vec<&str> {
        match &self.columns {
            Some(cols) => cols.iter().map(String::as_str).collect(),
            None => self.available_columns().to_vec(),
        }
    }

    /// Validate every cross-field invariant. All constructors call this, so it only
    /// needs to be called directly on hand-assembled specs (e.g. in tests).
    pub fn validate(&self) -> Result<(), String> {
        validate_name(&self.name)?;
        if self.description.is_empty() {
            return Err("spec description must not be empty".into());
        }
        if self.replications == 0 {
            return Err("replications must be at least 1".into());
        }
        if let Some(cols) = &self.columns {
            if cols.is_empty() {
                return Err("columns, when given, must not be empty".into());
            }
            let available = self.available_columns();
            for c in cols {
                if !available.contains(&c.as_str()) {
                    return Err(format!(
                        "unknown column '{c}' for the {} family; available: {}",
                        self.family(),
                        available.join(", ")
                    ));
                }
            }
            for (i, c) in cols.iter().enumerate() {
                if cols[..i].contains(c) {
                    return Err(format!("column '{c}' listed twice"));
                }
            }
        }
        // Size gate first: the family validators enumerate every grid point, so an
        // absurd grid must be rejected before they run. (Empty axes — grid_points of
        // zero — are caught by the family validators, which name the empty axis.)
        if self.units() > MAX_UNITS {
            return Err(format!(
                "spec expands to {} units (grid points × replications), above the {} cap",
                self.units(),
                MAX_UNITS
            ));
        }
        match &self.model {
            ModelSpec::Analytic(a) => a.validate()?,
            ModelSpec::Parcels(p) => p.validate()?,
            ModelSpec::Measured(m) => m.validate()?,
        }
        Ok(())
    }

    /// Compile the spec into a registrable scenario.
    pub fn into_scenario(self) -> Box<dyn Scenario> {
        let params = self.to_value();
        Box::new(SpecScenario { spec: self, params })
    }

    /// The spec's cache fingerprint: the stable hash of its canonical JSON
    /// rendering. Any single-field edit — an axis value, a fraction, the model
    /// family, the replication count — changes this, which re-addresses every unit
    /// of the compiled scenario in the unit-result cache.
    pub fn fingerprint(&self) -> String {
        crate::cache::fingerprint_value(&self.to_value())
    }
}

/// Spec names become artifact file names and seed inputs, so keep them to a safe
/// alphabet and a sane length.
fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("spec name must not be empty".into());
    }
    if name.len() > 64 {
        return Err(format!("spec name '{name}' exceeds 64 characters"));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
    {
        return Err(format!(
            "spec name '{name}' may only contain lowercase letters, digits, '_' and '-'"
        ));
    }
    Ok(())
}

/// Check one fraction-valued axis: non-empty, finite, in `[0, 1]`.
fn validate_fraction_axis(name: &str, values: &[f64]) -> Result<(), String> {
    if values.is_empty() {
        return Err(format!("grid.{name} must not be empty"));
    }
    for &v in values {
        if !v.is_finite() || !(0.0..=1.0).contains(&v) {
            return Err(format!("grid.{name} values must lie in [0, 1], got {v}"));
        }
    }
    Ok(())
}

/// Check a count-valued axis: non-empty, all ≥ 1.
fn validate_count_axis(name: &str, values: &[usize]) -> Result<(), String> {
    if values.is_empty() {
        return Err(format!("grid.{name} must not be empty"));
    }
    if values.contains(&0) {
        return Err(format!("grid.{name} values must all be at least 1"));
    }
    Ok(())
}

impl AnalyticSpec {
    fn validate(&self) -> Result<(), String> {
        validate_count_axis("node_counts", &self.node_counts)?;
        validate_fraction_axis("lwp_fractions", &self.lwp_fractions)?;
        validate_fraction_axis("p_miss", &self.p_miss)?;
        validate_fraction_axis("memory_mix", &self.memory_mix)?;
        if let AnalyticMode::Simulated {
            sim_ops,
            ops_per_event,
        } = self.mode
        {
            if sim_ops == 0 || ops_per_event == 0 {
                return Err("simulated mode needs sim_ops ≥ 1 and ops_per_event ≥ 1".into());
            }
        }
        // Every grid point must produce a valid SystemConfig; the axes were
        // range-checked above, so this catches bad `config` overrides.
        for &pm in &self.p_miss {
            for &mx in &self.memory_mix {
                let mut config = self.base;
                config.p_miss = pm;
                config.mix = InstructionMix::with_memory_fraction(mx);
                config.validate().map_err(|e| {
                    format!("invalid analytic config at p_miss={pm}, mix={mx}: {e}")
                })?;
            }
        }
        Ok(())
    }

    /// Enumerate `(nodes, wl, p_miss, memory_mix)` points in row-major axis order.
    fn points(&self) -> Vec<(usize, f64, f64, f64)> {
        let mut out = Vec::with_capacity(
            self.node_counts.len()
                * self.lwp_fractions.len()
                * self.p_miss.len()
                * self.memory_mix.len(),
        );
        for &n in &self.node_counts {
            for &wl in &self.lwp_fractions {
                for &pm in &self.p_miss {
                    for &mx in &self.memory_mix {
                        out.push((n, wl, pm, mx));
                    }
                }
            }
        }
        out
    }
}

impl ParcelsSpec {
    /// The base configuration before overrides: library defaults with the
    /// figure-11 horizon.
    fn default_base() -> ParcelConfig {
        ParcelConfig {
            horizon_cycles: 500_000.0,
            ..Default::default()
        }
    }

    fn validate(&self) -> Result<(), String> {
        validate_count_axis("node_counts", &self.node_counts)?;
        validate_count_axis("parallelisms", &self.parallelisms)?;
        validate_fraction_axis("remote_fractions", &self.remote_fractions)?;
        if self.latencies.is_empty() {
            return Err("grid.latencies must not be empty".into());
        }
        if self.overheads.is_empty() {
            return Err("grid.overheads must not be empty".into());
        }
        // Delegate per-point range checking (finite latencies/overheads, positive
        // horizon, …) to ParcelConfig::validate on every grid combination.
        for config in self.configs() {
            config.validate().map_err(|e| {
                format!(
                    "invalid parcel config at nodes={}, parallelism={}, latency={}, \
                     remote_fraction={}, overhead={}: {e}",
                    config.nodes,
                    config.parallelism,
                    config.latency_cycles,
                    config.remote_fraction,
                    config.parcel_overhead_cycles
                )
            })?;
        }
        Ok(())
    }

    /// Enumerate the per-point configurations in row-major axis order.
    fn configs(&self) -> Vec<ParcelConfig> {
        let mut out = Vec::new();
        for &n in &self.node_counts {
            for &p in &self.parallelisms {
                for &l in &self.latencies {
                    for &r in &self.remote_fractions {
                        for &o in &self.overheads {
                            out.push(ParcelConfig {
                                nodes: n,
                                parallelism: p,
                                latency_cycles: l,
                                remote_fraction: r,
                                parcel_overhead_cycles: o,
                                ..self.base
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

impl MeasuredSpec {
    fn validate(&self) -> Result<(), String> {
        if self.patterns.is_empty() {
            return Err("grid.patterns must not be empty".into());
        }
        validate_fraction_axis("memory_fractions", &self.memory_fractions)?;
        for (i, pattern) in self.patterns.iter().enumerate() {
            validate_pattern(pattern).map_err(|e| format!("grid.patterns[{i}]: {e}"))?;
        }
        // Geometry checks via a probe config (pattern validity was covered above).
        self.measure_config(&self.patterns[0], self.memory_fractions[0])
            .validate()
    }

    fn measure_config(&self, pattern: &AddressPattern, memory_fraction: f64) -> MeasureConfig {
        MeasureConfig {
            ops: self.ops,
            mix: InstructionMix::with_memory_fraction(memory_fraction),
            pattern: pattern.clone(),
            cache_bytes: self.cache_bytes,
            cache_line_bytes: self.cache_line_bytes,
            cache_ways: self.cache_ways,
            bank_rows: self.bank_rows,
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing (hard-rejecting, field-by-field)
// ---------------------------------------------------------------------------

/// A map reader that tracks which keys were consumed, so unknown and duplicate
/// fields are rejected instead of silently ignored.
struct MapReader<'a> {
    ctx: &'a str,
    entries: &'a [(String, Value)],
    used: Vec<bool>,
}

impl<'a> MapReader<'a> {
    fn new(v: &'a Value, ctx: &'a str) -> Result<Self, String> {
        let Value::Map(entries) = v else {
            return Err(format!("{ctx} must be a JSON object"));
        };
        for (i, (k, _)) in entries.iter().enumerate() {
            if entries[..i].iter().any(|(k2, _)| k2 == k) {
                return Err(format!("{ctx} has duplicate field '{k}'"));
            }
        }
        Ok(MapReader {
            ctx,
            entries,
            used: vec![false; entries.len()],
        })
    }

    /// An empty reader for an absent optional section.
    fn empty(ctx: &'a str) -> Self {
        MapReader {
            ctx,
            entries: &[],
            used: Vec::new(),
        }
    }

    fn get(&mut self, key: &str) -> Option<&'a Value> {
        self.entries.iter().position(|(k, _)| k == key).map(|i| {
            self.used[i] = true;
            &self.entries[i].1
        })
    }

    fn require(&mut self, key: &str) -> Result<&'a Value, String> {
        self.get(key)
            .ok_or_else(|| format!("{} is missing required field '{key}'", self.ctx))
    }

    /// A typed optional field.
    fn opt<T: Deserialize>(&mut self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None | Some(Value::Null) => Ok(default),
            Some(v) => T::from_value(v).map_err(|e| format!("{}.{key}: {e}", self.ctx)),
        }
    }

    /// A typed required field.
    fn field<T: Deserialize>(&mut self, key: &str) -> Result<T, String> {
        let v = self.require(key)?;
        T::from_value(v).map_err(|e| format!("{}.{key}: {e}", self.ctx))
    }

    fn finish(self) -> Result<(), String> {
        for (i, (k, _)) in self.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(format!("{} has unknown field '{k}'", self.ctx));
            }
        }
        Ok(())
    }
}

/// Parse and validate a spec from its JSON text.
pub fn parse_spec(json: &str) -> Result<ScenarioSpec, String> {
    let value =
        serde_json::value_from_str(json).map_err(|e| format!("spec is not valid JSON: {e}"))?;
    spec_from_value(&value)
}

/// Parse and validate a spec from a JSON value tree.
pub fn spec_from_value(value: &Value) -> Result<ScenarioSpec, String> {
    let mut top = MapReader::new(value, "spec")?;
    let version: u64 = top.field("schema_version")?;
    if version != u64::from(SPEC_SCHEMA_VERSION) {
        return Err(format!(
            "unsupported spec schema_version {version}; this build understands {SPEC_SCHEMA_VERSION}"
        ));
    }
    let name: String = top.field("name")?;
    let description: String = top.field("description")?;
    let family: String = top.field("model")?;
    let replications: usize = top.opt("replications", 1)?;
    let seed = match top.get("seed") {
        None | Some(Value::Null) => SeedMode::Derived,
        Some(Value::Str(s)) if s == "derived" => SeedMode::Derived,
        Some(Value::Str(s)) => {
            return Err(format!(
                "spec.seed must be \"derived\" or {{\"fixed\": N}}, got \"{s}\""
            ))
        }
        Some(other) => {
            let mut m = MapReader::new(other, "spec.seed")?;
            let fixed: u64 = m.field("fixed")?;
            m.finish()?;
            SeedMode::Fixed(fixed)
        }
    };
    let columns: Option<Vec<String>> = match top.get("columns") {
        None | Some(Value::Null) => None,
        Some(v) => Some(Vec::<String>::from_value(v).map_err(|e| format!("spec.columns: {e}"))?),
    };
    let config_value = top.get("config");
    let grid_value = top.require("grid")?;
    let model = match family.as_str() {
        "analytic" => ModelSpec::Analytic(parse_analytic(config_value, grid_value)?),
        "parcels" => ModelSpec::Parcels(parse_parcels(config_value, grid_value)?),
        "measured" => ModelSpec::Measured(parse_measured(config_value, grid_value)?),
        other => {
            return Err(format!(
                "unknown model family '{other}'; known families: analytic, parcels, measured"
            ))
        }
    };
    top.finish()?;
    let spec = ScenarioSpec {
        name,
        description,
        replications,
        seed,
        columns,
        model,
    };
    spec.validate()?;
    Ok(spec)
}

fn config_reader<'a>(config: Option<&'a Value>) -> Result<MapReader<'a>, String> {
    match config {
        None | Some(Value::Null) => Ok(MapReader::empty("spec.config")),
        Some(v) => MapReader::new(v, "spec.config"),
    }
}

fn parse_analytic(config: Option<&Value>, grid: &Value) -> Result<AnalyticSpec, String> {
    let table1 = SystemConfig::table1();
    let mut c = config_reader(config)?;
    let base = SystemConfig {
        total_ops: c.opt("total_ops", table1.total_ops)?,
        hwp_cycle_ns: c.opt("hwp_cycle_ns", table1.hwp_cycle_ns)?,
        lwp_cycle_ns: c.opt("lwp_cycle_ns", table1.lwp_cycle_ns)?,
        hwp_memory_cycles: c.opt("hwp_memory_cycles", table1.hwp_memory_cycles)?,
        hwp_cache_cycles: c.opt("hwp_cache_cycles", table1.hwp_cache_cycles)?,
        lwp_memory_cycles: c.opt("lwp_memory_cycles", table1.lwp_memory_cycles)?,
        // Grid axes; the Table 1 values here are placeholders overridden per point.
        p_miss: table1.p_miss,
        mix: table1.mix,
    };
    let mode = match c.get("mode") {
        None | Some(Value::Null) => AnalyticMode::Expected,
        Some(Value::Str(s)) if s == "expected" => AnalyticMode::Expected,
        Some(Value::Str(s)) => {
            return Err(format!(
                "spec.config.mode must be \"expected\" or {{\"simulated\": …}}, got \"{s}\""
            ))
        }
        Some(v) => {
            let mut m = MapReader::new(v, "spec.config.mode")?;
            let sim = m.require("simulated")?;
            m.finish()?;
            let mut s = MapReader::new(sim, "spec.config.mode.simulated")?;
            let mode = AnalyticMode::Simulated {
                sim_ops: s.opt("sim_ops", 200_000)?,
                ops_per_event: s.opt("ops_per_event", 64)?,
            };
            s.finish()?;
            mode
        }
    };
    c.finish()?;
    let mut g = MapReader::new(grid, "spec.grid")?;
    let spec = AnalyticSpec {
        base,
        mode,
        node_counts: g.field("node_counts")?,
        lwp_fractions: g.field("lwp_fractions")?,
        p_miss: g.opt("p_miss", vec![table1.p_miss])?,
        memory_mix: g.opt("memory_mix", vec![table1.mix.memory_fraction()])?,
    };
    g.finish()?;
    Ok(spec)
}

fn parse_parcels(config: Option<&Value>, grid: &Value) -> Result<ParcelsSpec, String> {
    let defaults = ParcelsSpec::default_base();
    let mut c = config_reader(config)?;
    let memory_mix: f64 = c.opt("memory_mix", 0.3)?;
    if !memory_mix.is_finite() || !(0.0..=1.0).contains(&memory_mix) {
        return Err(format!(
            "spec.config.memory_mix must lie in [0, 1], got {memory_mix}"
        ));
    }
    let base = ParcelConfig {
        cycle_ns: c.opt("cycle_ns", defaults.cycle_ns)?,
        mix: InstructionMix::with_memory_fraction(memory_mix),
        local_memory_cycles: c.opt("local_memory_cycles", defaults.local_memory_cycles)?,
        horizon_cycles: c.opt("horizon_cycles", defaults.horizon_cycles)?,
        ..defaults
    };
    c.finish()?;
    let mut g = MapReader::new(grid, "spec.grid")?;
    let spec = ParcelsSpec {
        node_counts: g.field("node_counts")?,
        parallelisms: g.field("parallelisms")?,
        latencies: g.field("latencies")?,
        remote_fractions: g.field("remote_fractions")?,
        overheads: g.opt("overheads", vec![defaults.parcel_overhead_cycles])?,
        base,
        memory_mix,
    };
    g.finish()?;
    Ok(spec)
}

fn parse_measured(config: Option<&Value>, grid: &Value) -> Result<MeasuredSpec, String> {
    let mut c = config_reader(config)?;
    let ops = c.opt("ops", 100_000u64)?;
    let cache_bytes = c.opt("cache_bytes", 64 * 1024u64)?;
    let cache_line_bytes = c.opt("cache_line_bytes", 64u64)?;
    let cache_ways = c.opt("cache_ways", 4usize)?;
    let bank_rows = c.opt("bank_rows", 1024u64)?;
    c.finish()?;
    let mut g = MapReader::new(grid, "spec.grid")?;
    let patterns_value = g.require("patterns")?;
    let Value::Seq(items) = patterns_value else {
        return Err("spec.grid.patterns must be an array".into());
    };
    let mut patterns = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        patterns.push(parse_pattern(item).map_err(|e| format!("spec.grid.patterns[{i}]: {e}"))?);
    }
    let spec = MeasuredSpec {
        ops,
        cache_bytes,
        cache_line_bytes,
        cache_ways,
        bank_rows,
        patterns,
        memory_fractions: g.field("memory_fractions")?,
    };
    g.finish()?;
    Ok(spec)
}

/// Parse one externally-tagged address pattern with the same strictness as every
/// other spec section: exactly one known variant tag, and no unknown or duplicate
/// fields inside the payload (the derived `AddressPattern::from_value` would
/// silently ignore extras, breaking the "unknown fields are rejected" contract).
fn parse_pattern(v: &Value) -> Result<AddressPattern, String> {
    let Value::Map(entries) = v else {
        return Err(
            "pattern must be an object like {\"Sequential\": {\"stride\": 64}}; known \
             variants: Sequential, UniformRandom, Zipf"
                .into(),
        );
    };
    let [(tag, payload)] = entries.as_slice() else {
        return Err("pattern must have exactly one variant tag".into());
    };
    let mut p = MapReader::new(payload, "pattern payload")?;
    let pattern = match tag.as_str() {
        "Sequential" => AddressPattern::Sequential {
            stride: p.field("stride")?,
        },
        "UniformRandom" => AddressPattern::UniformRandom {
            footprint: p.field("footprint")?,
            line: p.field("line")?,
        },
        "Zipf" => AddressPattern::Zipf {
            footprint: p.field("footprint")?,
            line: p.field("line")?,
            exponent: p.field("exponent")?,
        },
        other => {
            return Err(format!(
                "unknown pattern variant '{other}'; known variants: Sequential, \
                 UniformRandom, Zipf"
            ))
        }
    };
    p.finish()?;
    Ok(pattern)
}

// ---------------------------------------------------------------------------
// Serialization (canonical form: every default resolved)
// ---------------------------------------------------------------------------

impl Serialize for ScenarioSpec {
    fn to_value(&self) -> Value {
        let (config, grid) = match &self.model {
            ModelSpec::Analytic(a) => (
                Value::Map(vec![
                    ("total_ops".into(), Value::U64(a.base.total_ops)),
                    ("hwp_cycle_ns".into(), Value::F64(a.base.hwp_cycle_ns)),
                    ("lwp_cycle_ns".into(), Value::F64(a.base.lwp_cycle_ns)),
                    (
                        "hwp_memory_cycles".into(),
                        Value::F64(a.base.hwp_memory_cycles),
                    ),
                    (
                        "hwp_cache_cycles".into(),
                        Value::F64(a.base.hwp_cache_cycles),
                    ),
                    (
                        "lwp_memory_cycles".into(),
                        Value::F64(a.base.lwp_memory_cycles),
                    ),
                    (
                        "mode".into(),
                        match a.mode {
                            AnalyticMode::Expected => Value::Str("expected".into()),
                            AnalyticMode::Simulated {
                                sim_ops,
                                ops_per_event,
                            } => Value::Map(vec![(
                                "simulated".into(),
                                Value::Map(vec![
                                    ("sim_ops".into(), Value::U64(sim_ops)),
                                    ("ops_per_event".into(), Value::U64(ops_per_event)),
                                ]),
                            )]),
                        },
                    ),
                ]),
                Value::Map(vec![
                    ("node_counts".into(), a.node_counts.to_value()),
                    ("lwp_fractions".into(), a.lwp_fractions.to_value()),
                    ("p_miss".into(), a.p_miss.to_value()),
                    ("memory_mix".into(), a.memory_mix.to_value()),
                ]),
            ),
            ModelSpec::Parcels(p) => (
                Value::Map(vec![
                    ("cycle_ns".into(), Value::F64(p.base.cycle_ns)),
                    ("memory_mix".into(), Value::F64(p.memory_mix)),
                    (
                        "local_memory_cycles".into(),
                        Value::F64(p.base.local_memory_cycles),
                    ),
                    ("horizon_cycles".into(), Value::F64(p.base.horizon_cycles)),
                ]),
                Value::Map(vec![
                    ("node_counts".into(), p.node_counts.to_value()),
                    ("parallelisms".into(), p.parallelisms.to_value()),
                    ("latencies".into(), p.latencies.to_value()),
                    ("remote_fractions".into(), p.remote_fractions.to_value()),
                    ("overheads".into(), p.overheads.to_value()),
                ]),
            ),
            ModelSpec::Measured(m) => (
                Value::Map(vec![
                    ("ops".into(), Value::U64(m.ops)),
                    ("cache_bytes".into(), Value::U64(m.cache_bytes)),
                    ("cache_line_bytes".into(), Value::U64(m.cache_line_bytes)),
                    ("cache_ways".into(), Value::U64(m.cache_ways as u64)),
                    ("bank_rows".into(), Value::U64(m.bank_rows)),
                ]),
                Value::Map(vec![
                    (
                        "patterns".into(),
                        Value::Seq(m.patterns.iter().map(|p| p.to_value()).collect()),
                    ),
                    ("memory_fractions".into(), m.memory_fractions.to_value()),
                ]),
            ),
        };
        Value::Map(vec![
            (
                "schema_version".into(),
                Value::U64(u64::from(SPEC_SCHEMA_VERSION)),
            ),
            ("name".into(), Value::Str(self.name.clone())),
            ("description".into(), Value::Str(self.description.clone())),
            ("model".into(), Value::Str(self.family().into())),
            ("replications".into(), Value::U64(self.replications as u64)),
            (
                "seed".into(),
                match self.seed {
                    SeedMode::Derived => Value::Str("derived".into()),
                    SeedMode::Fixed(s) => Value::Map(vec![("fixed".into(), Value::U64(s))]),
                },
            ),
            (
                "columns".into(),
                match &self.columns {
                    None => Value::Null,
                    Some(cols) => cols.to_value(),
                },
            ),
            ("config".into(), config),
            ("grid".into(), grid),
        ])
    }
}

impl Deserialize for ScenarioSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        spec_from_value(v).map_err(serde::Error::msg)
    }
}

// ---------------------------------------------------------------------------
// Compilation: ScenarioSpec → Scenario
// ---------------------------------------------------------------------------

/// The seed of flattened unit `index` (grid-point index × replications +
/// replication): the workspace's shared SplitMix64 mixer over the scenario seed and
/// the index, so units decorrelate and any scheduler reproduces the same streams.
pub fn unit_seed(scenario_seed: u64, index: usize) -> u64 {
    desim::random::mix_seed(scenario_seed, index as u64)
}

/// A compiled spec: implements [`Scenario`] over the spec's grid.
struct SpecScenario {
    spec: ScenarioSpec,
    /// The canonical spec rendering, embedded in reports as `params`.
    params: Value,
}

impl SpecScenario {
    fn scenario_seed(&self, seeds: &SeedPolicy) -> u64 {
        match self.spec.seed {
            SeedMode::Derived => seeds.scenario_seed(&self.spec.name),
            SeedMode::Fixed(s) => s,
        }
    }

    /// Indices of the selected columns within the family's full column set
    /// (validated at parse time, so the lookups cannot fail).
    fn selected_indices(&self) -> Vec<usize> {
        let available = self.spec.available_columns();
        self.spec
            .output_columns()
            .iter()
            .map(|c| {
                available
                    .iter()
                    .position(|a| a == c)
                    // audit:allow(unwrap-in-library): parse validated every requested column against this family
                    .expect("columns were validated against the family at parse time")
            })
            .collect()
    }
}

/// Shared assembly: filter full rows down to the selected columns and attach the
/// primary headline metric (max over the primary column).
#[allow(clippy::too_many_arguments)]
fn assemble_spec_report(
    name: &str,
    description: &str,
    seed: u64,
    params: Value,
    all_columns: &[&str],
    selected: &[usize],
    primary: (&str, usize),
    rows: Vec<Vec<Value>>,
) -> ScenarioReport {
    let (metric_name, metric_idx) = primary;
    let metric = rows
        .iter()
        .filter_map(|r| r[metric_idx].as_f64())
        .fold(f64::NEG_INFINITY, f64::max);
    let table = Table {
        name: name.to_string(),
        columns: selected
            .iter()
            .map(|&i| all_columns[i].to_string())
            .collect(),
        rows: rows
            .into_iter()
            .map(|full| selected.iter().map(|&i| full[i].clone()).collect())
            .collect(),
    };
    ScenarioReport::new(name, description, seed, params)
        .with_metric("units", table.rows.len() as f64)
        .with_metric(metric_name, metric)
        .with_table(table)
}

impl Scenario for SpecScenario {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn description(&self) -> &str {
        &self.spec.description
    }

    fn params(&self) -> Value {
        self.params.clone()
    }

    fn plan<'s>(&'s self, seeds: &SeedPolicy) -> ScenarioPlan<'s> {
        let seed = self.scenario_seed(seeds);
        let (name, description, params) = (self.name(), self.description(), self.params());
        // Keyed on the canonical spec rendering: any single-field edit re-addresses
        // every unit. The resolved seed (not the batch base seed) goes into the key,
        // so a fixed-seed spec legitimately shares entries across base seeds.
        let keyer = UnitKeyer::new(name, &params, seed);
        let selected = self.selected_indices();
        let reps = self.spec.replications;
        match &self.spec.model {
            ModelSpec::Analytic(a) => {
                let points = a.points();
                let mut units = Vec::with_capacity(points.len() * reps);
                for (pi, (n, wl, pm, mx)) in points.into_iter().enumerate() {
                    let mut config = a.base;
                    config.p_miss = pm;
                    config.mix = InstructionMix::with_memory_fraction(mx);
                    let mode = a.mode;
                    for rep in 0..reps {
                        let i = pi * reps + rep;
                        units.push((keyer.key(pi, rep), move || {
                            let eval = match mode {
                                AnalyticMode::Expected => EvalMode::Expected,
                                AnalyticMode::Simulated {
                                    sim_ops,
                                    ops_per_event,
                                } => EvalMode::Simulated {
                                    sim_ops: Some(sim_ops),
                                    ops_per_event,
                                    seed: unit_seed(seed, i),
                                },
                            };
                            let p = PartitionStudy::new(config).evaluate(n, wl, eval);
                            vec![
                                Value::U64(n as u64),
                                Value::F64(wl * 100.0),
                                Value::F64(pm),
                                Value::F64(mx),
                                Value::U64(rep as u64),
                                Value::F64(p.gain),
                                Value::F64(p.relative_time),
                                Value::F64(p.control_ns),
                                Value::F64(p.test_ns),
                            ]
                        }));
                    }
                }
                ScenarioPlan::cached_map_reduce(units, move |rows: Vec<Vec<Value>>| {
                    assemble_spec_report(
                        name,
                        description,
                        seed,
                        params,
                        ANALYTIC_COLUMNS,
                        &selected,
                        ("max_gain", 5),
                        rows,
                    )
                })
            }
            ModelSpec::Parcels(p) => {
                let configs = p.configs();
                let mut units = Vec::with_capacity(configs.len() * reps);
                for (pi, config) in configs.into_iter().enumerate() {
                    for rep in 0..reps {
                        let i = pi * reps + rep;
                        units.push((keyer.key(pi, rep), move || {
                            let point = evaluate_point(config, unit_seed(seed, i));
                            vec![
                                Value::U64(point.nodes as u64),
                                Value::U64(point.parallelism as u64),
                                Value::F64(point.latency_cycles),
                                Value::F64(point.remote_fraction * 100.0),
                                Value::F64(config.parcel_overhead_cycles),
                                Value::U64(rep as u64),
                                Value::F64(point.ops_ratio),
                                Value::F64(point.test_idle_fraction),
                                Value::F64(point.control_idle_fraction),
                            ]
                        }));
                    }
                }
                ScenarioPlan::cached_map_reduce(units, move |rows: Vec<Vec<Value>>| {
                    assemble_spec_report(
                        name,
                        description,
                        seed,
                        params,
                        PARCELS_COLUMNS,
                        &selected,
                        ("max_ops_ratio", 6),
                        rows,
                    )
                })
            }
            ModelSpec::Measured(m) => {
                let mut units = Vec::new();
                for (pat_i, pattern) in m.patterns.iter().enumerate() {
                    for (mix_i, &mx) in m.memory_fractions.iter().enumerate() {
                        let pi = pat_i * m.memory_fractions.len() + mix_i;
                        let config = m.measure_config(pattern, mx);
                        let label = pattern_label(pattern);
                        for rep in 0..reps {
                            let i = pi * reps + rep;
                            let config = config.clone();
                            let label = label.clone();
                            units.push((keyer.key(pi, rep), move || {
                                let s = measure_stream(&config, unit_seed(seed, i));
                                vec![
                                    Value::Str(label),
                                    Value::F64(mx),
                                    Value::U64(rep as u64),
                                    Value::U64(s.memory_accesses),
                                    Value::F64(s.host_miss_rate),
                                    Value::F64(s.row_hit_rate),
                                    Value::F64(s.mean_dram_latency_ns),
                                    Value::F64(s.achieved_gbit_per_s),
                                ]
                            }));
                        }
                    }
                }
                ScenarioPlan::cached_map_reduce(units, move |rows: Vec<Vec<Value>>| {
                    assemble_spec_report(
                        name,
                        description,
                        seed,
                        params,
                        MEASURED_COLUMNS,
                        &selected,
                        ("max_host_miss_rate", 4),
                        rows,
                    )
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Loading and registration
// ---------------------------------------------------------------------------

/// Load and validate one spec file.
pub fn load_spec_file(path: &Path) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read spec file {}: {e}", path.display()))?;
    parse_spec(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Enumerate the spec files a path names: the file itself, or every `*.json` in a
/// directory (sorted by file name so the resulting catalog order is stable). Lets
/// callers that want per-file error reporting (`pim-tradeoffs spec check`) load each
/// file individually instead of failing the whole directory on the first bad spec.
pub fn spec_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    let meta = std::fs::metadata(path)
        .map_err(|e| format!("cannot access spec path {}: {e}", path.display()))?;
    if meta.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("cannot read spec directory {}: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!(
            "spec directory {} contains no .json files",
            path.display()
        ));
    }
    Ok(files)
}

/// Load specs from a path: a single `.json` file, or every `*.json` in a directory
/// (in [`spec_files`] order). Fail-fast: the first invalid spec aborts the load,
/// which is the right contract for `run --spec` (never run a half-loaded catalog).
pub fn load_specs(path: &Path) -> Result<Vec<ScenarioSpec>, String> {
    spec_files(path)?
        .iter()
        .map(|f| load_spec_file(f))
        .collect()
}

/// Compile and register every spec, returning the registered names in input order.
///
/// A name collision — with a builtin already in `registry` or between two specs —
/// surfaces as an `Err` naming the duplicate.
pub fn register_specs(
    registry: &mut Registry,
    specs: Vec<ScenarioSpec>,
) -> Result<Vec<String>, String> {
    let mut names = Vec::with_capacity(specs.len());
    for spec in specs {
        let name = spec.name.clone();
        registry.register(spec.into_scenario())?;
        names.push(name);
    }
    Ok(names)
}

/// [`register_specs`] over a spec path ([`spec_files`] enumeration), with
/// **file-aware** collision reporting: when two spec files in the load compile to
/// the same scenario name, the error names both paths — the registry's raw
/// duplicate message cannot, because registration happens after the paths are
/// gone. A collision with a builtin names the offending file.
pub fn register_spec_files(registry: &mut Registry, path: &Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let mut sources: Vec<(String, PathBuf)> = Vec::new();
    for file in spec_files(path)? {
        let spec = load_spec_file(&file)?;
        let name = spec.name.clone();
        if let Err(e) = registry.register(spec.into_scenario()) {
            return Err(match sources.iter().find(|(n, _)| *n == name) {
                Some((_, first)) => format!(
                    "duplicate scenario name '{name}': defined by both {} and {}",
                    first.display(),
                    file.display()
                ),
                None => format!("{}: {e}", file.display()),
            });
        }
        sources.push((name.clone(), file));
        names.push(name);
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_parcels_json() -> &'static str {
        r#"{
            "schema_version": 1,
            "name": "tiny_parcels",
            "description": "one-point parcel spec",
            "model": "parcels",
            "grid": {
                "node_counts": [2],
                "parallelisms": [4],
                "latencies": [100.0],
                "remote_fractions": [0.4]
            }
        }"#
    }

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let spec = parse_spec(minimal_parcels_json()).unwrap();
        assert_eq!(spec.name, "tiny_parcels");
        assert_eq!(spec.replications, 1);
        assert_eq!(spec.seed, SeedMode::Derived);
        assert_eq!(spec.family(), "parcels");
        assert_eq!(spec.grid_points(), 1);
        assert_eq!(spec.units(), 1);
        assert_eq!(spec.output_columns(), PARCELS_COLUMNS.to_vec());
        let ModelSpec::Parcels(p) = &spec.model else {
            panic!("wrong family")
        };
        assert_eq!(p.overheads, vec![4.0]);
        assert!((p.base.horizon_cycles - 500_000.0).abs() < 1e-9);
    }

    #[test]
    fn canonical_form_round_trips() {
        let spec = parse_spec(minimal_parcels_json()).unwrap();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back = parse_spec(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn rejections_name_the_offending_field() {
        let cases: &[(&str, &str, &str)] = &[
            (
                "bad schema version",
                r#"{"schema_version": 2, "name": "x", "description": "d", "model": "parcels",
                    "grid": {"node_counts":[1],"parallelisms":[1],"latencies":[1.0],"remote_fractions":[0.1]}}"#,
                "schema_version",
            ),
            (
                "unknown family",
                r#"{"schema_version": 1, "name": "x", "description": "d", "model": "quantum",
                    "grid": {}}"#,
                "unknown model family",
            ),
            (
                "unknown top-level field",
                r#"{"schema_version": 1, "name": "x", "description": "d", "model": "parcels", "bogus": 1,
                    "grid": {"node_counts":[1],"parallelisms":[1],"latencies":[1.0],"remote_fractions":[0.1]}}"#,
                "unknown field 'bogus'",
            ),
            (
                "empty axis",
                r#"{"schema_version": 1, "name": "x", "description": "d", "model": "parcels",
                    "grid": {"node_counts":[],"parallelisms":[1],"latencies":[1.0],"remote_fractions":[0.1]}}"#,
                "node_counts",
            ),
            (
                "zero node count",
                r#"{"schema_version": 1, "name": "x", "description": "d", "model": "parcels",
                    "grid": {"node_counts":[0],"parallelisms":[1],"latencies":[1.0],"remote_fractions":[0.1]}}"#,
                "node_counts",
            ),
            (
                "nan fraction (json null)",
                r#"{"schema_version": 1, "name": "x", "description": "d", "model": "parcels",
                    "grid": {"node_counts":[1],"parallelisms":[1],"latencies":[1.0],"remote_fractions":[null]}}"#,
                "remote_fractions",
            ),
            (
                "infinite latency",
                r#"{"schema_version": 1, "name": "x", "description": "d", "model": "parcels",
                    "grid": {"node_counts":[1],"parallelisms":[1],"latencies":[1e999],"remote_fractions":[0.1]}}"#,
                "latency",
            ),
            (
                "bad name",
                r#"{"schema_version": 1, "name": "Bad Name", "description": "d", "model": "parcels",
                    "grid": {"node_counts":[1],"parallelisms":[1],"latencies":[1.0],"remote_fractions":[0.1]}}"#,
                "name",
            ),
            (
                "unknown column",
                r#"{"schema_version": 1, "name": "x", "description": "d", "model": "parcels",
                    "columns": ["no_such_column"],
                    "grid": {"node_counts":[1],"parallelisms":[1],"latencies":[1.0],"remote_fractions":[0.1]}}"#,
                "unknown column",
            ),
            (
                "zero replications",
                r#"{"schema_version": 1, "name": "x", "description": "d", "model": "parcels",
                    "replications": 0,
                    "grid": {"node_counts":[1],"parallelisms":[1],"latencies":[1.0],"remote_fractions":[0.1]}}"#,
                "replications",
            ),
        ];
        for (label, json, needle) in cases {
            let err = parse_spec(json).unwrap_err();
            assert!(
                err.contains(needle),
                "{label}: error '{err}' does not mention '{needle}'"
            );
        }
    }

    #[test]
    fn analytic_defaults_and_grid_axes() {
        let spec = parse_spec(
            r#"{
                "schema_version": 1,
                "name": "an",
                "description": "analytic grid",
                "model": "analytic",
                "grid": {
                    "node_counts": [1, 32],
                    "lwp_fractions": [0.0, 1.0],
                    "p_miss": [0.05, 0.2]
                }
            }"#,
        )
        .unwrap();
        let ModelSpec::Analytic(a) = &spec.model else {
            panic!("wrong family")
        };
        assert_eq!(a.mode, AnalyticMode::Expected);
        assert_eq!(a.memory_mix.len(), 1);
        assert!((a.memory_mix[0] - 0.3).abs() < 1e-12);
        assert_eq!(spec.grid_points(), 2 * 2 * 2);
    }

    #[test]
    fn measured_patterns_parse_and_validate() {
        let spec = parse_spec(
            r#"{
                "schema_version": 1,
                "name": "me",
                "description": "measured",
                "model": "measured",
                "config": {"ops": 5000},
                "grid": {
                    "patterns": [
                        {"Sequential": {"stride": 64}},
                        {"Zipf": {"footprint": 65536, "line": 64, "exponent": 1.1}}
                    ],
                    "memory_fractions": [0.3]
                }
            }"#,
        )
        .unwrap();
        assert_eq!(spec.grid_points(), 2);
        let err = parse_spec(
            r#"{
                "schema_version": 1,
                "name": "me",
                "description": "measured",
                "model": "measured",
                "grid": {
                    "patterns": [{"Sequential": {"stride": 0}}],
                    "memory_fractions": [0.3]
                }
            }"#,
        )
        .unwrap_err();
        assert!(err.contains("stride"), "{err}");
    }

    #[test]
    fn measured_geometries_too_large_to_allocate_are_rejected() {
        // Each once passed validation and then aborted `run --spec` (and a
        // daemon) with a failed allocation of 137 GB to 16 TiB.
        let template = |config: &str, pattern: &str| {
            format!(
                r#"{{"schema_version": 1, "name": "me", "description": "d", "model": "measured",
                    "config": {{{config}}},
                    "grid": {{"patterns": [{pattern}], "memory_fractions": [0.3]}}}}"#
            )
        };
        let sequential = r#"{"Sequential": {"stride": 64}}"#;
        for (doc, field) in [
            (
                template(
                    "",
                    r#"{"Zipf": {"footprint": 17179869184, "line": 1, "exponent": 1.0}}"#,
                ),
                "footprint",
            ),
            (
                template(r#""cache_bytes": 1099511627776"#, sequential),
                "cache_bytes",
            ),
            (
                template(r#""cache_ways": 1099511627776"#, sequential),
                "cache_ways",
            ),
        ] {
            let err = parse_spec(&doc).unwrap_err();
            assert!(err.contains(field), "error does not name {field}: {err}");
        }
        let presets = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
        let specs = load_specs(&presets).unwrap();
        assert!(specs.iter().any(|s| s.family() == "measured"));
    }

    #[test]
    fn pattern_parsing_is_as_strict_as_the_rest_of_the_spec() {
        let template = |pattern: &str| {
            format!(
                r#"{{"schema_version": 1, "name": "me", "description": "d", "model": "measured",
                    "grid": {{"patterns": [{pattern}], "memory_fractions": [0.3]}}}}"#
            )
        };
        for (label, pattern, needle) in [
            (
                "unknown payload field",
                r#"{"Sequential": {"stride": 64, "bogus_knob": 7}}"#,
                "bogus_knob",
            ),
            (
                "unknown variant",
                r#"{"Strided": {"stride": 64}}"#,
                "unknown pattern variant",
            ),
            (
                "two variant tags",
                r#"{"Sequential": {"stride": 64}, "Zipf": {"footprint": 1024, "line": 64, "exponent": 1.0}}"#,
                "exactly one variant tag",
            ),
            (
                "missing payload field",
                r#"{"UniformRandom": {"footprint": 1024}}"#,
                "line",
            ),
            ("non-object pattern", r#""Sequential""#, "must be an object"),
        ] {
            let err = parse_spec(&template(pattern)).unwrap_err();
            assert!(err.contains(needle), "{label}: '{err}' lacks '{needle}'");
        }
    }

    #[test]
    fn unit_cap_rejects_runaway_grids() {
        let json = format!(
            r#"{{"schema_version": 1, "name": "big", "description": "d", "model": "analytic",
                "replications": 1000,
                "grid": {{"node_counts": [{}], "lwp_fractions": [0.5]}}}}"#,
            (1..=20)
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let err = parse_spec(&json).unwrap_err();
        assert!(err.contains("cap"), "{err}");
    }

    #[test]
    fn unit_cap_survives_multiplication_overflow() {
        // replications huge enough that points × replications wraps a u64/usize:
        // the size gate must still reject it (saturating, never wrapping to a small
        // number that sneaks past the cap, and never panicking in debug builds).
        let json = format!(
            r#"{{"schema_version": 1, "name": "wrap", "description": "d", "model": "parcels",
                "replications": {},
                "grid": {{"node_counts":[1,2],"parallelisms":[1],"latencies":[1.0],
                          "remote_fractions":[0.1]}}}}"#,
            u64::MAX / 2 + 1
        );
        let err = parse_spec(&json).unwrap_err();
        assert!(err.contains("cap"), "{err}");
    }

    #[test]
    fn compiled_spec_runs_and_respects_columns() {
        let spec = parse_spec(
            r#"{
                "schema_version": 1,
                "name": "cols",
                "description": "column selection",
                "model": "analytic",
                "columns": ["nodes", "gain"],
                "grid": {"node_counts": [1, 64], "lwp_fractions": [1.0]}
            }"#,
        )
        .unwrap();
        let scenario = spec.into_scenario();
        let report = scenario.run(&SeedPolicy::default());
        assert_eq!(report.scenario, "cols");
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].columns, vec!["nodes", "gain"]);
        assert_eq!(report.tables[0].rows.len(), 2);
        // 64 nodes at 100% WL: gain = 64 / 3.125 = 20.48.
        assert!(report.metric("max_gain").unwrap() > 20.0);
        assert_eq!(report.metric("units"), Some(2.0));
    }

    #[test]
    fn fixed_seed_ignores_the_batch_base_seed() {
        let json = r#"{
            "schema_version": 1,
            "name": "pinned",
            "description": "fixed seed",
            "model": "measured",
            "seed": {"fixed": 42},
            "config": {"ops": 20000},
            "grid": {
                "patterns": [{"UniformRandom": {"footprint": 1048576, "line": 64}}],
                "memory_fractions": [0.3]
            }
        }"#;
        let scenario = parse_spec(json).unwrap().into_scenario();
        let a = scenario.run(&SeedPolicy::new(1));
        let b = scenario.run(&SeedPolicy::new(2));
        assert_eq!(a.seed, 42);
        assert_eq!(
            serde_json::to_string(&a.tables).unwrap(),
            serde_json::to_string(&b.tables).unwrap()
        );
    }

    #[test]
    fn derived_seed_follows_the_batch_base_seed() {
        let json = r#"{
            "schema_version": 1,
            "name": "derived_demo",
            "description": "derived seed",
            "model": "measured",
            "config": {"ops": 20000},
            "grid": {
                "patterns": [{"UniformRandom": {"footprint": 1048576, "line": 64}}],
                "memory_fractions": [0.3]
            }
        }"#;
        let scenario = parse_spec(json).unwrap().into_scenario();
        let a = scenario.run(&SeedPolicy::new(1));
        let b = scenario.run(&SeedPolicy::new(2));
        assert_ne!(
            serde_json::to_string(&a.tables).unwrap(),
            serde_json::to_string(&b.tables).unwrap()
        );
    }

    #[test]
    fn spec_collisions_surface_as_errors_in_both_directions() {
        // Direction 1: a spec colliding with a builtin.
        let mut registry = Registry::builtin();
        let clash = parse_spec(&minimal_parcels_json().replace("tiny_parcels", "figure5")).unwrap();
        let err = register_specs(&mut registry, vec![clash]).unwrap_err();
        assert!(err.contains("duplicate scenario name 'figure5'"), "{err}");

        // Direction 2: two specs colliding with each other.
        let mut registry = Registry::builtin();
        let a = parse_spec(minimal_parcels_json()).unwrap();
        let b = a.clone();
        let err = register_specs(&mut registry, vec![a, b]).unwrap_err();
        assert!(
            err.contains("duplicate scenario name 'tiny_parcels'"),
            "{err}"
        );

        // A clean set registers beside the builtins.
        let mut registry = Registry::builtin();
        let names = register_specs(
            &mut registry,
            vec![parse_spec(minimal_parcels_json()).unwrap()],
        )
        .unwrap();
        assert_eq!(names, vec!["tiny_parcels"]);
        assert_eq!(registry.len(), 14);
        assert!(registry.get("tiny_parcels").is_some());
    }

    #[test]
    fn unit_seed_decorrelates_indices_and_scenarios() {
        assert_ne!(unit_seed(1, 0), unit_seed(1, 1));
        assert_ne!(unit_seed(1, 0), unit_seed(2, 0));
        assert_eq!(unit_seed(7, 3), unit_seed(7, 3));
    }
}
