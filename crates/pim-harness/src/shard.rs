//! Sharded (multi-process) sweep execution: the `run --shard I/N` partition.
//!
//! The work-stealing pool in [`crate::exec`] scales a batch across threads, but one
//! process is still one machine (and on the 1-core reference container, effectively
//! one core). Sharding scales a sweep across *processes*: N independent `run --shard
//! I/N` invocations — same scenarios, same base seed — each execute a deterministic
//! subset of the flattened unit list and persist their results into (typically
//! per-shard) unit caches. `cache merge` then assembles the shard caches into one
//! directory, and a final unsharded run over the merged cache is all-hits: it
//! recomputes nothing and emits the complete artifacts, byte-identical to a
//! single-process run (the cross-shard conformance suite enforces this).
//!
//! ## The partition function
//!
//! A unit belongs to shard `I` (1-based) of `N` iff
//! `desim::stablehash::shard_index(key.digest_u128(), N) == I - 1`, where `key` is
//! the unit's [`UnitKey`]. Because the digest is a pure function of the unit's
//! identity — scenario name, config fingerprint, resolved seed, grid/replication
//! indices — and of nothing else, the assignment is:
//!
//! * **disjoint and covering**: every unit has exactly one owner shard;
//! * **stable under reordering**: scenario request order, plan flattening order and
//!   claim order never reach the digest;
//! * **approximately uniform**: the digest is a 128-bit hash, so `mod N` splits any
//!   real unit population within noise of evenly (the property suite bounds the
//!   skew at 2× the mean).
//!
//! Every plan unit carries a cache key (the [`crate::scenario::ScenarioPlan`]
//! constructors require one), so every unit has a digest to partition on and a
//! cache entry through which it meets the other shards.
//!
//! ## What a shard run produces
//!
//! A sharded batch never assembles reports (its foreign units have no outputs).
//! Its products are: the cache entries of its owned units, a manifest (schema v3)
//! whose `shard` block records the partition and per-scenario executed counts, and
//! — when `--out` is set — one partial artifact per scenario
//! (`<scenario>.shard.json`) listing the executed units and their digests, which is
//! what the conformance suite uses to prove each unit was computed exactly once
//! across shards.

use crate::cache::UnitKey;
use desim::stablehash::shard_index;
use serde::{Deserialize, Serialize, Value};

/// Version of the per-scenario `<scenario>.shard.json` partial-artifact schema.
pub(crate) const SHARD_ARTIFACT_SCHEMA_VERSION: u32 = 1;

/// One shard of an N-way sweep partition: `index` is 1-based (as written on the
/// command line: `--shard 2/3`), `count` is the total number of shards.
///
/// Invariant (enforced by every constructor): `1 <= index <= count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    index: u32,
    count: u32,
}

impl ShardSpec {
    /// A shard `index/count`, validating `1 <= index <= count`.
    pub fn new(index: u32, count: u32) -> Result<ShardSpec, String> {
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index == 0 {
            return Err(format!(
                "shard index is 1-based: expected 1..={count}, got 0"
            ));
        }
        if index > count {
            return Err(format!(
                "shard index {index} is out of range for {count} shard(s) (expected 1..={count})"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// Parse the command-line form `I/N` (e.g. `--shard 2/3`).
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let bad = || format!("--shard expects I/N (e.g. 1/2), got '{s}'");
        let (index, count) = s.split_once('/').ok_or_else(bad)?;
        let index: u32 = index.trim().parse().map_err(|_| bad())?;
        let count: u32 = count.trim().parse().map_err(|_| bad())?;
        ShardSpec::new(index, count)
    }

    /// The 1-based shard index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The total shard count.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Whether this shard owns `key` under the deterministic partition.
    pub fn owns(&self, key: &UnitKey) -> bool {
        shard_index(key.digest_u128(), self.count) == self.index - 1
    }

    /// The manifest rendering of the partition: `{"index": I, "count": N}`.
    pub(crate) fn to_manifest_value(self) -> Value {
        Value::Map(vec![
            ("index".into(), Value::U64(u64::from(self.index))),
            ("count".into(), Value::U64(u64::from(self.count))),
        ])
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One executed (owned) unit of a shard run: enough identity for the conformance
/// suite to prove cross-shard disjointness and coverage without reading payloads.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutedUnit {
    /// Flattened grid-point index within the scenario's plan.
    pub grid_index: u64,
    /// Replication index within the grid point.
    pub replication_index: u64,
    /// The unit's [`UnitKey`] digest (32 hex chars), which files its cache entry.
    pub digest: String,
}

/// Per-scenario outcome of a shard run: how many units the scenario's plan has in
/// total, and which of them this shard owned and executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardScenario {
    /// Scenario name (registry identity).
    pub scenario: String,
    /// Total units in the scenario's plan (across all shards).
    pub units_total: u64,
    /// The units this shard owned, in plan order.
    pub executed: Vec<ExecutedUnit>,
}

impl ShardScenario {
    /// Render this scenario's partial artifact (`<scenario>.shard.json`): the
    /// shard identity plus the executed units' indices and digests. `Err` only on
    /// a serialization failure, which the vendored writer never produces; callers
    /// propagate it like every other artifact writer.
    pub(crate) fn artifact_json(&self, shard: &ShardSpec) -> Result<String, String> {
        let executed = self
            .executed
            .iter()
            .map(|u| {
                Value::Map(vec![
                    ("grid_index".into(), Value::U64(u.grid_index)),
                    ("replication_index".into(), Value::U64(u.replication_index)),
                    ("digest".into(), Value::Str(u.digest.clone())),
                ])
            })
            .collect();
        let doc = Value::Map(vec![
            (
                "schema_version".into(),
                Value::U64(u64::from(SHARD_ARTIFACT_SCHEMA_VERSION)),
            ),
            ("scenario".into(), Value::Str(self.scenario.clone())),
            ("shard".into(), shard.to_manifest_value()),
            ("units_total".into(), Value::U64(self.units_total)),
            (
                "units_executed".into(),
                Value::U64(self.executed.len() as u64),
            ),
            ("executed".into(), Value::Seq(executed)),
        ]);
        let mut json = serde_json::to_string_pretty(&doc)
            .map_err(|e| format!("serialize shard artifact for '{}': {e}", self.scenario))?;
        json.push('\n');
        Ok(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::UnitKeyer;

    #[test]
    fn parse_accepts_valid_forms_and_whitespace() {
        assert_eq!(
            ShardSpec::parse("1/1").unwrap(),
            ShardSpec::new(1, 1).unwrap()
        );
        assert_eq!(
            ShardSpec::parse("2/3").unwrap(),
            ShardSpec::new(2, 3).unwrap()
        );
        let s = ShardSpec::parse(" 3 / 8 ").unwrap();
        assert_eq!((s.index(), s.count()), (3, 8));
        assert_eq!(s.to_string(), "3/8");
    }

    #[test]
    fn parse_rejects_malformed_and_out_of_range_shards() {
        for bad in ["", "1", "/", "1/", "/2", "a/b", "1/2/3", "-1/2", "1/-2"] {
            let err = ShardSpec::parse(bad).unwrap_err();
            assert!(err.contains("I/N"), "'{bad}': {err}");
        }
        // 0-based indices, overflowing indices and zero-way splits are rejected
        // with messages naming the valid range.
        assert!(ShardSpec::parse("0/4").unwrap_err().contains("1-based"));
        assert!(ShardSpec::parse("5/4")
            .unwrap_err()
            .contains("out of range"));
        assert!(ShardSpec::parse("1/0").unwrap_err().contains("at least 1"));
        assert!(ShardSpec::parse("0/0").unwrap_err().contains("at least 1"));
    }

    #[test]
    fn every_key_is_owned_by_exactly_one_shard() {
        let keyer = UnitKeyer::new("demo", &Value::Map(vec![]), 7);
        for count in 1..=6u32 {
            let shards: Vec<ShardSpec> = (1..=count)
                .map(|i| ShardSpec::new(i, count).unwrap())
                .collect();
            for grid in 0..64usize {
                let key = keyer.key(grid, 0);
                let owners = shards.iter().filter(|s| s.owns(&key)).count();
                assert_eq!(owners, 1, "unit {grid} owned by {owners} of {count} shards");
            }
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let shard = ShardSpec::new(1, 1).unwrap();
        let keyer = UnitKeyer::new("demo", &Value::Map(vec![]), 7);
        for grid in 0..32usize {
            assert!(shard.owns(&keyer.key(grid, 0)));
        }
    }

    #[test]
    fn shard_artifact_renders_identity_and_units() {
        let shard = ShardSpec::new(2, 3).unwrap();
        let scenario = ShardScenario {
            scenario: "figure7".into(),
            units_total: 11,
            executed: vec![ExecutedUnit {
                grid_index: 4,
                replication_index: 0,
                digest: "ab".repeat(16),
            }],
        };
        let json = scenario.artifact_json(&shard).unwrap();
        let doc = serde_json::value_from_str(&json).unwrap();
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_f64()),
            Some(f64::from(SHARD_ARTIFACT_SCHEMA_VERSION))
        );
        assert_eq!(doc.get("scenario"), Some(&Value::Str("figure7".into())));
        assert_eq!(
            doc.get("shard").and_then(|s| s.get("index")),
            Some(&Value::U64(2))
        );
        assert_eq!(doc.get("units_total"), Some(&Value::U64(11)));
        assert_eq!(doc.get("units_executed"), Some(&Value::U64(1)));
        let Some(Value::Seq(units)) = doc.get("executed") else {
            panic!("executed list missing");
        };
        assert_eq!(units[0].get("grid_index"), Some(&Value::U64(4)));
    }
}
