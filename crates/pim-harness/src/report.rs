//! The structured result of running a scenario, and its JSON rendering.
//!
//! A [`ScenarioReport`] is the machine-readable artifact the batch runner writes under
//! `artifacts/<scenario>.json`. The schema is versioned ([`ARTIFACT_SCHEMA_VERSION`])
//! so downstream tooling — and the golden-file regression suite — can detect
//! incompatible changes instead of silently mis-parsing them.

use serde::{Deserialize, Serialize, Value};

/// Version of the artifact JSON schema. Bump when the shape of [`ScenarioReport`]
/// changes incompatibly, and re-bless the golden files.
pub const ARTIFACT_SCHEMA_VERSION: u32 = 1;

/// Version of the batch `manifest.json` schema. v2 added the `cache` block
/// (enabled flag plus per-scenario hit/miss/recomputed counts from the unit-result
/// cache); v3 added the always-present `shard` block (`null` for unsharded runs,
/// else the `run --shard I/N` partition plus per-scenario total/executed unit
/// counts). Per-scenario artifacts remain at [`ARTIFACT_SCHEMA_VERSION`], and unit
/// cache entries at [`crate::cache::CACHE_SCHEMA_VERSION`] — v3 changed neither.
pub const MANIFEST_SCHEMA_VERSION: u32 = 3;

/// A named headline number (e.g. `max_gain`), surfaced in batch summaries and pinned
/// by the golden files alongside the full tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, unique within a report.
    pub name: String,
    /// Metric value.
    pub value: f64,
}

/// One rectangular table of results (a figure's data grid, a parameter listing, …).
///
/// Cells are [`Value`]s so a table can mix numbers and strings (Table 1 does); numeric
/// cells keep full `f64` precision in the JSON artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table name, unique within a report (most scenarios have exactly one table).
    pub name: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; every row has `columns.len()` cells.
    pub rows: Vec<Vec<Value>>,
}

/// The complete, machine-readable result of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Artifact schema version ([`ARTIFACT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Name of the scenario that produced this report.
    pub scenario: String,
    /// One-line description of what the scenario reproduces.
    pub description: String,
    /// The per-scenario seed the run used (derived from the batch base seed and the
    /// scenario name).
    pub seed: u64,
    /// The scenario's parameter grid / configuration, as a free-form JSON tree.
    pub params: Value,
    /// Headline scalar metrics.
    pub metrics: Vec<Metric>,
    /// Result tables.
    pub tables: Vec<Table>,
}

impl ScenarioReport {
    /// Start a report with empty metrics and tables.
    pub fn new(scenario: &str, description: &str, seed: u64, params: Value) -> ScenarioReport {
        ScenarioReport {
            schema_version: ARTIFACT_SCHEMA_VERSION,
            scenario: scenario.to_string(),
            description: description.to_string(),
            seed,
            params,
            metrics: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Append a headline metric (builder style).
    pub(crate) fn with_metric(mut self, name: &str, value: f64) -> ScenarioReport {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
        });
        self
    }

    /// Append a result table (builder style).
    pub(crate) fn with_table(mut self, table: Table) -> ScenarioReport {
        self.tables.push(table);
        self
    }

    /// Serialize to the canonical artifact form: pretty JSON with a trailing newline.
    pub fn to_json(&self) -> String {
        // audit:allow(unwrap-in-library): the vendored JSON writer is total — to_string_pretty returns Ok unconditionally
        let mut s = serde_json::to_string_pretty(self).expect("report serialization is infallible");
        s.push('\n');
        s
    }

    /// Look up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_round_trips() {
        let r = ScenarioReport::new("demo", "a demo", 42, Value::Map(vec![]))
            .with_metric("max_gain", 10.24)
            .with_table(Table {
                name: "t".into(),
                columns: vec!["x".into(), "y".into()],
                rows: vec![vec![Value::U64(1), Value::F64(2.5)]],
            });
        let json = r.to_json();
        let back: ScenarioReport = serde_json::from_str(json.trim_end()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.metric("max_gain"), Some(10.24));
        assert_eq!(back.schema_version, ARTIFACT_SCHEMA_VERSION);
    }
}
