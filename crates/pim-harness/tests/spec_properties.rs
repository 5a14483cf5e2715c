//! Property-based tests of the spec deserializer (vendored proptest, pinned seeds).
//!
//! Three families of properties:
//!
//! 1. **Round-trip**: any valid [`ScenarioSpec`] survives serialize → parse exactly
//!    (the canonical JSON form is lossless, including shortest-round-trip floats);
//! 2. **Rejection**: structured corruptions of a valid spec — bad schema versions,
//!    unknown model families, empty grid axes, zero node counts, `NaN`/∞ fractions —
//!    are rejected by the parser, whatever the surrounding spec looks like;
//! 3. **Validates, therefore runs**: a spec document the parser accepts compiles
//!    and runs to a report with one row per unit, without a panic or an abort,
//!    even at the edges of every axis.

use pim_core::prelude::SystemConfig;
use pim_harness::scenario::SeedPolicy;
use pim_harness::spec::{
    parse_spec, AnalyticMode, AnalyticSpec, MeasuredSpec, ModelSpec, ParcelsSpec, ScenarioSpec,
    SeedMode,
};
use pim_workload::AddressPattern;
use proptest::prelude::*;
use serde::{Serialize, Value};

fn fractions() -> impl Strategy<Value = Vec<f64>> {
    collection::vec(0.0f64..1.0, 1..4)
}

fn counts() -> impl Strategy<Value = Vec<usize>> {
    collection::vec(1usize..64, 1..4)
}

fn analytic_model() -> impl Strategy<Value = ModelSpec> {
    (
        counts(),
        fractions(),
        fractions(),
        fractions(),
        0u32..2,
        1_000u64..10_000,
    )
        .prop_map(
            |(node_counts, lwp_fractions, p_miss, memory_mix, mode_kind, sim_ops)| {
                ModelSpec::Analytic(AnalyticSpec {
                    base: SystemConfig::table1(),
                    mode: if mode_kind == 0 {
                        AnalyticMode::Expected
                    } else {
                        AnalyticMode::Simulated {
                            sim_ops,
                            ops_per_event: 64,
                        }
                    },
                    node_counts,
                    lwp_fractions,
                    p_miss,
                    memory_mix,
                })
            },
        )
}

fn parcels_model() -> impl Strategy<Value = ModelSpec> {
    (
        counts(),
        collection::vec(1usize..32, 1..3),
        collection::vec(0.0f64..5_000.0, 1..3),
        fractions(),
        collection::vec(0.0f64..64.0, 1..3),
    )
        .prop_map(
            |(node_counts, parallelisms, latencies, remote_fractions, overheads)| {
                ModelSpec::Parcels(ParcelsSpec {
                    base: parcels_default_base(),
                    memory_mix: 0.3,
                    node_counts,
                    parallelisms,
                    latencies,
                    remote_fractions,
                    overheads,
                })
            },
        )
}

/// The parcels base the parser resolves (the parser's defaults are private, but
/// the canonical serialization pins these fields): library defaults with the
/// figure-11 horizon and the mix rebuilt from the default 0.3 memory-mix scalar.
fn parcels_default_base() -> pim_parcels::prelude::ParcelConfig {
    pim_parcels::prelude::ParcelConfig {
        mix: pim_workload::InstructionMix::with_memory_fraction(0.3),
        horizon_cycles: 500_000.0,
        ..Default::default()
    }
}

fn pattern() -> impl Strategy<Value = AddressPattern> {
    (0u32..3, 1u64..256, 1u64..64, 0.0f64..2.0).prop_map(|(kind, stride, lines, exponent)| {
        match kind {
            0 => AddressPattern::Sequential { stride },
            1 => AddressPattern::UniformRandom {
                footprint: 64 * lines,
                line: 64,
            },
            _ => AddressPattern::Zipf {
                footprint: 64 * lines,
                line: 64,
                exponent,
            },
        }
    })
}

fn measured_model() -> impl Strategy<Value = ModelSpec> {
    (
        1_000u64..50_000,
        collection::vec(pattern(), 1..4),
        fractions(),
    )
        .prop_map(|(ops, patterns, memory_fractions)| {
            ModelSpec::Measured(MeasuredSpec {
                ops,
                cache_bytes: 64 * 1024,
                cache_line_bytes: 64,
                cache_ways: 4,
                bank_rows: 1024,
                patterns,
                memory_fractions,
            })
        })
}

fn valid_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        0u64..1_000_000,
        1usize..4,
        (0u32..2, 0u64..1_000_000),
        0u32..3,
        (analytic_model(), parcels_model(), measured_model()),
    )
        .prop_map(
            |(id, replications, (seed_kind, seed_value), family, models)| {
                let model = match family {
                    0 => models.0,
                    1 => models.1,
                    _ => models.2,
                };
                ScenarioSpec {
                    name: format!("gen_spec_{id}"),
                    description: format!("generated spec {id}"),
                    replications,
                    seed: if seed_kind == 0 {
                        SeedMode::Derived
                    } else {
                        SeedMode::Fixed(seed_value)
                    },
                    columns: None,
                    model,
                }
            },
        )
}

/// Replace the value at `spec_value[key]` (and optionally a nested key) — panics if
/// the path does not exist, which would mean the canonical form changed shape.
fn with_field(spec: &ScenarioSpec, path: &[&str], replacement: Value) -> String {
    fn set(v: &mut Value, path: &[&str], replacement: Value) {
        let Value::Map(entries) = v else {
            panic!("path walks through a non-map")
        };
        let slot = entries
            .iter_mut()
            .find(|(k, _)| k == path[0])
            .unwrap_or_else(|| panic!("canonical spec form lost field '{}'", path[0]));
        if path.len() == 1 {
            slot.1 = replacement;
        } else {
            set(&mut slot.1, &path[1..], replacement);
        }
    }
    let mut v = spec.to_value();
    set(&mut v, path, replacement);
    serde_json::to_string(&v).unwrap()
}

proptest! {
    /// serialize → parse is the identity on valid specs.
    #[test]
    fn round_trip(spec in valid_spec()) {
        prop_assert!(spec.validate().is_ok(), "generated spec invalid: {:?}", spec.validate());
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back = parse_spec(&json);
        prop_assert!(back.is_ok(), "round-trip parse failed: {:?}\n{json}", back);
        prop_assert_eq!(back.unwrap(), spec);
    }

    /// Any schema version other than 1 is rejected, whatever the rest says.
    #[test]
    fn bad_schema_versions_are_rejected(spec in valid_spec(), version in 2u64..1_000) {
        let json = with_field(&spec, &["schema_version"], Value::U64(version));
        let err = parse_spec(&json).unwrap_err();
        prop_assert!(err.contains("schema_version"), "{err}");
    }

    /// Unknown model families are rejected with the list of known families.
    #[test]
    fn unknown_families_are_rejected(spec in valid_spec(), tag in 0u64..1_000) {
        let json = with_field(&spec, &["model"], Value::Str(format!("family{tag}")));
        let err = parse_spec(&json).unwrap_err();
        prop_assert!(err.contains("unknown model family"), "{err}");
    }

    /// Emptying any grid axis is rejected (empty grids must never reach the runner).
    #[test]
    fn empty_grid_axes_are_rejected(spec in valid_spec()) {
        let axes: &[&str] = match &spec.model {
            ModelSpec::Analytic(_) => &["node_counts", "lwp_fractions", "p_miss", "memory_mix"],
            ModelSpec::Parcels(_) => &[
                "node_counts", "parallelisms", "latencies", "remote_fractions", "overheads",
            ],
            ModelSpec::Measured(_) => &["patterns", "memory_fractions"],
        };
        for axis in axes {
            let json = with_field(&spec, &["grid", axis], Value::Seq(vec![]));
            prop_assert!(parse_spec(&json).is_err(), "empty grid.{axis} accepted");
        }
    }

    /// A zero node count anywhere in the axis is rejected.
    #[test]
    fn zero_node_counts_are_rejected(spec in valid_spec()) {
        if matches!(spec.model, ModelSpec::Measured(_)) {
            continue; // no node axis in the measured family
        }
        let json = with_field(
            &spec,
            &["grid", "node_counts"],
            Value::Seq(vec![Value::U64(4), Value::U64(0)]),
        );
        let err = parse_spec(&json).unwrap_err();
        prop_assert!(err.contains("node_counts"), "{err}");
    }

    /// NaN (JSON null) and ∞ fractions are rejected on every fraction axis.
    #[test]
    fn non_finite_fractions_are_rejected(spec in valid_spec()) {
        let axis = match &spec.model {
            ModelSpec::Analytic(_) => "lwp_fractions",
            ModelSpec::Parcels(_) => "remote_fractions",
            ModelSpec::Measured(_) => "memory_fractions",
        };
        // JSON spells NaN as null; 1e999 parses to +∞.
        let nan = with_field(&spec, &["grid", axis], Value::Seq(vec![Value::Null]));
        prop_assert!(parse_spec(&nan).is_err(), "NaN {axis} accepted");
        let inf = with_field(&spec, &["grid", axis], Value::Seq(vec![Value::F64(f64::INFINITY)]));
        prop_assert!(parse_spec(&inf).is_err(), "infinite {axis} accepted");
        let oob = with_field(&spec, &["grid", axis], Value::Seq(vec![Value::F64(1.5)]));
        prop_assert!(parse_spec(&oob).is_err(), "out-of-range {axis} accepted");
    }

    /// Zero replications are rejected whatever the family.
    #[test]
    fn zero_replications_are_rejected(spec in valid_spec()) {
        let json = with_field(&spec, &["replications"], Value::U64(0));
        let err = parse_spec(&json).unwrap_err();
        prop_assert!(err.contains("replications"), "{err}");
    }
}

// ---------------------------------------------------------------------------
// Validates, therefore runs
// ---------------------------------------------------------------------------

/// The bound `parse_spec` puts on every count axis (`node_counts`, `parallelisms`).
const MAX_COUNT: u64 = pim_harness::spec::MAX_COUNT as u64;

/// One of `edges` half the time, otherwise a draw from `inner`: the ends of an
/// axis are where a validator and the model it guards most often disagree.
fn edge_or<T: Clone, S: Strategy<Value = T>>(
    edges: &'static [T],
    inner: S,
) -> impl Strategy<Value = T> {
    (0..2 * edges.len(), inner).prop_map(move |(k, v)| edges.get(k).cloned().unwrap_or(v))
}

fn edge_fractions() -> impl Strategy<Value = Vec<f64>> {
    collection::vec(edge_or(&[0.0, 1.0], 0.0f64..1.0), 1..3)
}

fn edge_counts() -> impl Strategy<Value = Vec<u64>> {
    collection::vec(edge_or(&[1], 1u64..16), 1..3)
}

fn edge_pattern() -> impl Strategy<Value = String> {
    (
        0u32..3,
        edge_or(&[1, u64::MAX], 1u64..4_096),
        edge_or(&[1], 1u64..1_024),
        edge_or(&[1, 64], 1u64..256),
        edge_or(&[0.0], 0.0f64..3.0),
    )
        .prop_map(|(kind, stride, lines, line, exponent)| match kind {
            0 => format!(r#"{{"Sequential": {{"stride": {stride}}}}}"#),
            1 => format!(
                r#"{{"UniformRandom": {{"footprint": {}, "line": {line}}}}}"#,
                lines * line
            ),
            _ => format!(
                r#"{{"Zipf": {{"footprint": {}, "line": {line}, "exponent": {exponent:?}}}}}"#,
                lines * line
            ),
        })
}

/// A valid spec document of any family with edge values drawn often (one
/// node, parallelism 1, fractions 0 and 1, zero latency and overhead, a Zipf
/// exponent of 0 over one line, `ops_per_event` above `sim_ops`), and the base
/// seed to run it under. One draw in eight of the analytic and parcels
/// documents puts one count axis at the bound, every other axis at one value
/// and the parcel horizon at a few cycles. Every case stays cheap: a small
/// horizon, at most 5,000 measured or simulated operations.
fn edge_document() -> impl Strategy<Value = (String, u64)> {
    (
        (0usize..3, 0u32..8, 0u32..2),
        (edge_counts(), edge_counts()),
        (edge_fractions(), edge_fractions(), edge_fractions()),
        (
            collection::vec(edge_or(&[0.0], 0.0f64..5_000.0), 1..3),
            collection::vec(edge_or(&[0.0], 0.0f64..64.0), 1..3),
        ),
        (
            0u32..2,
            edge_or(&[1, 5_000], 1u64..5_000),
            edge_or(&[5_001, u64::MAX], 1u64..10_000),
            edge_or(&[1], 1u64..1_000_000_000),
        ),
        (
            edge_or(&[1.0], 1.0f64..50.0),
            edge_or(&[1.0, 3.0], 0.5f64..2_000.0),
        ),
        (collection::vec(edge_pattern(), 1..3), 0u32..2),
        edge_or(&[1], 1u64..3),
        any::<u64>(),
    )
        .prop_map(
            |(
                (family, bound, axis),
                (mut nodes, mut par),
                (f1, f2, f3),
                (lat, ovh),
                (simulated, ops, ops_per_event, total_ops),
                (local_cycles, mut horizon),
                (patterns, small_geometry),
                mut reps,
                base,
            )| {
                let at_bound = bound == 0 && family < 2;
                let one = |v: Vec<f64>| if at_bound { v[..1].to_vec() } else { v };
                let (f1, f2, f3, lat, ovh) = (one(f1), one(f2), one(f3), one(lat), one(ovh));
                if at_bound {
                    (nodes, par) = if family == 0 || axis == 0 {
                        (vec![MAX_COUNT], vec![1])
                    } else {
                        (vec![1], vec![MAX_COUNT])
                    };
                    horizon = 3.0;
                    reps = 1;
                }
                let body = match family {
                    0 => {
                        let mode = if simulated == 1 {
                            format!(
                                r#"{{"simulated": {{"sim_ops": {ops}, "ops_per_event": {ops_per_event}}}}}"#
                            )
                        } else {
                            r#""expected""#.to_string()
                        };
                        format!(
                            r#""model": "analytic", "config": {{"total_ops": {total_ops}, "mode": {mode}}},
                            "grid": {{"node_counts": {nodes:?}, "lwp_fractions": {f1:?},
                                      "p_miss": {f2:?}, "memory_mix": {f3:?}}}"#
                        )
                    }
                    1 => format!(
                        r#""model": "parcels", "config": {{"memory_mix": {:?},
                            "local_memory_cycles": {local_cycles:?}, "horizon_cycles": {horizon:?}}},
                        "grid": {{"node_counts": {nodes:?}, "parallelisms": {par:?},
                                  "latencies": {lat:?}, "remote_fractions": {f1:?}, "overheads": {ovh:?}}}"#,
                        f2[0]
                    ),
                    _ => {
                        let geometry = if small_geometry == 1 {
                            r#", "cache_bytes": 64, "cache_line_bytes": 64, "cache_ways": 1, "bank_rows": 1"#
                        } else {
                            ""
                        };
                        format!(
                            r#""model": "measured", "config": {{"ops": {ops}{geometry}}},
                            "grid": {{"patterns": [{}], "memory_fractions": {f1:?}}}"#,
                            patterns.join(", ")
                        )
                    }
                };
                let json = format!(
                    r#"{{"schema_version": 1, "name": "edges", "description": "edge values",
                        "replications": {reps}, {body}}}"#
                );
                (json, base)
            },
        )
}

/// `json` parses, and the compiled scenario runs under base seed `base` without
/// a panic or an abort to a report with one row per unit under the spec's
/// output columns.
fn assert_validates_and_runs(json: &str, base: u64) {
    let spec = parse_spec(json).unwrap_or_else(|e| panic!("spec rejected: {e}\n{json}"));
    let units = spec.units();
    let columns: Vec<String> = spec
        .output_columns()
        .iter()
        .map(|c| c.to_string())
        .collect();
    let report = spec.into_scenario().run(&SeedPolicy::new(base));
    assert_eq!(report.tables.len(), 1, "{json}");
    let table = &report.tables[0];
    assert_eq!(table.rows.len(), units, "{json}");
    assert_eq!(table.columns, columns, "{json}");
    for row in &table.rows {
        assert_eq!(row.len(), columns.len(), "{json}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every generated document is valid, so it must parse and run; half of
    /// them first select a column subset (`mask`), in reverse family order.
    #[test]
    fn validated_specs_run(doc in edge_document(), select in 0u32..2, mask in 1u32..512) {
        let (mut json, base) = doc;
        if select == 1 {
            let spec = parse_spec(&json).unwrap_or_else(|e| panic!("spec rejected: {e}\n{json}"));
            let picked: Vec<Value> = spec
                .available_columns()
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, c)| Value::Str(c.to_string()))
                .rev()
                .collect();
            if !picked.is_empty() {
                json = with_field(&spec, &["columns"], Value::Seq(picked));
            }
        }
        assert_validates_and_runs(&json, base);
    }
}

/// Documents the property once found validating and then panicking, kept as
/// fixed inputs.
#[test]
fn validated_specs_run_on_past_failures() {
    // A sequential stream's address overflowed past 2^64 - 1 (a debug-build
    // panic; release builds wrapped).
    let huge_stride = r#"{"schema_version": 1, "name": "edges", "description": "d",
        "model": "measured", "config": {"ops": 5000},
        "grid": {"patterns": [{"Sequential": {"stride": 18446744073709551615}}],
                 "memory_fractions": [1.0]}}"#;
    assert_validates_and_runs(huge_stride, 0);
}
