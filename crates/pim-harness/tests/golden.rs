//! Golden-file regression tests: pin the JSON artifacts of key scenarios at the
//! default seed, so a behavioural change anywhere in `desim`/`pim-core`/`pim-parcels`/
//! `pim-analytic` that moves the numbers fails loudly instead of silently corrupting
//! every downstream figure.
//!
//! Numeric fields compare with a per-field relative tolerance (see the `verify`
//! module below); everything else must match exactly. To regenerate after an
//! intentional change:
//!
//! ```text
//! PIM_BLESS_GOLDENS=1 cargo test -p pim-harness --test golden
//! ```

#![expect(
    clippy::expect_used,
    reason = "helpers outside #[test] fns panic on a failed setup step, which fails the calling test"
)]

use pim_harness::prelude::*;
use std::path::PathBuf;
use verify::{bless_requested, verify_or_bless_file, Tolerance, BLESS_ENV};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn check_golden(name: &str) {
    let registry = Registry::builtin();
    let scenario = registry.get(name).expect("scenario is registered");
    let report = scenario.run(&SeedPolicy::default());
    let path = golden_path(name);
    let bless = bless_requested();

    // Deterministic scenarios normally match exactly; the relative tolerance absorbs
    // last-ulp formatting differences without hiding real drift.
    let tol = Tolerance {
        rtol: 1e-6,
        atol: 1e-9,
    };
    match verify_or_bless_file(&path, &report.to_json(), bless, tol) {
        Ok(()) => {
            if bless {
                eprintln!("blessed {}", path.display());
            }
        }
        Err(diffs) => panic!(
            "scenario '{name}' drifted from {} ({} mismatching fields):\n{}\n\
             if the change is intentional, re-bless with `{BLESS_ENV}=1 cargo test \
             -p pim-harness --test golden`",
            path.display(),
            diffs.len(),
            diffs
                .iter()
                .take(20)
                .cloned()
                .collect::<Vec<_>>()
                .join("\n")
        ),
    }
}

/// Every shipped preset spec (`examples/specs/*.json`) is pinned by a golden file
/// under `tests/golden/specs/`, at the default seed. This is what makes the preset
/// library a regression surface: a behavioural change in the spec compiler, the
/// measure bridge or any underlying model fails here instead of silently shifting
/// user-facing catalogs. Stale goldens (no matching preset) also fail.
#[test]
fn golden_spec_presets() {
    let specs_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let specs = pim_harness::spec::load_specs(&specs_dir).expect("presets load");
    assert!(
        specs.len() >= 7,
        "preset library shrank: {} specs",
        specs.len()
    );
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/specs");
    let bless = bless_requested();
    let tol = Tolerance {
        rtol: 1e-6,
        atol: 1e-9,
    };
    let mut names: Vec<String> = Vec::new();
    let mut drifted: Vec<String> = Vec::new();
    for spec in specs {
        names.push(spec.name.clone());
        let scenario = spec.into_scenario();
        let report = scenario.run(&SeedPolicy::default());
        let path = golden_dir.join(format!("{}.json", report.scenario));
        if let Err(diffs) = verify_or_bless_file(&path, &report.to_json(), bless, tol) {
            drifted.push(format!(
                "{}: {} mismatching fields, e.g. {}",
                report.scenario,
                diffs.len(),
                diffs.first().cloned().unwrap_or_default()
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "preset scenarios drifted from their goldens:\n{}\nif intentional, re-bless \
         with `{BLESS_ENV}=1 cargo test -p pim-harness --test golden`",
        drifted.join("\n")
    );
    // Every golden corresponds to a live preset — catch renamed/deleted specs.
    for entry in std::fs::read_dir(&golden_dir).expect("golden spec dir exists") {
        let path = entry.unwrap().path();
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        assert!(
            names.contains(&stem),
            "stale golden {} has no matching preset spec",
            path.display()
        );
    }
}

/// The presets' canonical form, pinned byte for byte through its fingerprint.
/// `golden_spec_presets` compares reports by key and numbers within a tolerance,
/// so a reordered or reformatted canonical rendering would pass it while
/// re-addressing every cached unit of every spec; this table fails instead.
#[test]
fn preset_fingerprints_are_pinned() {
    const PINNED: &[(&str, &str)] = &[
        ("spec_measured_hotspot", "e5104264ae0218c18b9b4675a0225cc2"),
        ("spec_measured_locality", "5bac098309d6b24dc9ec3999d6ce7508"),
        ("spec_node_scaling", "0dce8de401d8598e24ca1e2d13dfae3b"),
        ("spec_parcel_overhead", "3670a64c6f1d7e016721ca35ac5023e7"),
        ("spec_parcel_scaling", "1ee165e313194b0d53b133d3526cd0ce"),
        ("spec_partition_sim", "68b0b0e0b9d89fcd02c06738c253897a"),
        ("spec_pmiss_sensitivity", "976647deaab4e8201bbbef3f1d19ac3c"),
    ];
    let specs_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let specs = pim_harness::spec::load_specs(&specs_dir).expect("presets load");
    let live: Vec<(String, String)> = specs
        .iter()
        .map(|s| (s.name.clone(), s.fingerprint()))
        .collect();
    let pinned: Vec<(String, String)> = PINNED
        .iter()
        .map(|&(n, f)| (n.to_string(), f.to_string()))
        .collect();
    assert_eq!(
        live, pinned,
        "a preset's canonical spec form changed, which re-addresses its cached units"
    );
}

/// The batch manifest (schema v3: batch identity, the `shard` block — `null` for
/// this unsharded fixture — plus the cache accounting block) is pinned by a golden
/// file of its own. A deterministic fixture — two single-unit scenarios, default
/// seed, cold cache — exercises every field: schema version, base seed, scenario
/// list, shard block, and per-scenario hit/miss/recomputed counts (a cold cache
/// reports exactly one miss per unit). Stale-golden detection: the golden's
/// `schema_version` must equal the live `MANIFEST_SCHEMA_VERSION`, so bumping the
/// constant without re-blessing fails here by construction.
#[test]
fn golden_manifest_v3() {
    let registry = Registry::builtin();
    let base = std::env::temp_dir().join(format!("pim-golden-manifest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let out = run_batch(
        &registry,
        &["table1", "figure7"],
        &BatchOptions {
            jobs: 2,
            out_dir: Some(base.join("artifacts")),
            cache_dir: Some(base.join("cache")),
            ..Default::default()
        },
    )
    .expect("fixture batch runs");
    let manifest_path = out
        .written
        .last()
        .expect("manifest is written last")
        .clone();
    assert!(manifest_path.ends_with("manifest.json"));
    let actual = std::fs::read_to_string(&manifest_path).unwrap();
    let _ = std::fs::remove_dir_all(&base);

    let path = golden_path("manifest_v3");
    let bless = bless_requested();
    let tol = Tolerance {
        rtol: 1e-6,
        atol: 1e-9,
    };
    if let Err(diffs) = verify_or_bless_file(&path, &actual, bless, tol) {
        panic!(
            "manifest drifted from {} ({} mismatching fields):\n{}\n\
             if the change is intentional, re-bless with `{BLESS_ENV}=1 cargo test \
             -p pim-harness --test golden`",
            path.display(),
            diffs.len(),
            diffs.join("\n")
        );
    }
    // Stale-golden detection: the pinned file must carry the live schema version.
    let golden: serde::Value =
        serde_json::value_from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(
        golden.get("schema_version").and_then(|v| v.as_f64()),
        Some(f64::from(MANIFEST_SCHEMA_VERSION)),
        "golden manifest pins a different schema version than MANIFEST_SCHEMA_VERSION; \
         re-bless it"
    );
}

#[test]
fn golden_figure5() {
    check_golden("figure5");
}

#[test]
fn golden_figure6() {
    check_golden("figure6");
}

#[test]
fn golden_figure11() {
    check_golden("figure11");
}

#[test]
fn golden_figure12() {
    check_golden("figure12");
}

#[test]
fn golden_table1() {
    check_golden("table1");
}

#[test]
fn golden_validation() {
    check_golden("validation");
}

#[test]
fn golden_figure7() {
    check_golden("figure7");
}

#[test]
fn golden_ablation_nb() {
    check_golden("ablation_nb");
}

#[test]
fn golden_bandwidth_claims() {
    check_golden("bandwidth_claims");
}

#[test]
fn golden_replication_ci() {
    check_golden("replication_ci");
}

#[test]
fn golden_ablation_imbalance() {
    check_golden("ablation_imbalance");
}

#[test]
fn golden_ablation_network() {
    check_golden("ablation_network");
}

#[test]
fn golden_ablation_overhead() {
    check_golden("ablation_overhead");
}

/// Tolerance-aware JSON diffing and the verify-or-bless helper.
///
/// Golden files pin each scenario's artifact at the default seed. Every scenario is
/// deterministic, so the comparison is normally exact, but numeric fields compare
/// with a per-field *relative* tolerance, so a legitimate cross-platform difference
/// in the last ulp (or a deliberately loosened golden) does not flake. Under
/// [`BLESS_ENV`] the suite regenerates the files instead of verifying them: do
/// that after an *intentional* model or grid change, and commit the result.
mod verify {
    use serde::Value;
    use std::path::Path;

    /// Environment variable that switches the golden suite from *verify* to
    /// *regenerate*: `PIM_BLESS_GOLDENS=1 cargo test -p pim-harness --test golden`.
    pub const BLESS_ENV: &str = "PIM_BLESS_GOLDENS";

    /// True when the current process was asked to regenerate golden files ([`BLESS_ENV`]
    /// is set).
    pub fn bless_requested() -> bool {
        std::env::var_os(BLESS_ENV).is_some()
    }

    /// Verify `actual_json` against the golden file at `path`, or (when `bless` is true)
    /// overwrite the golden file with `actual_json` and succeed.
    ///
    /// On verification failure the returned lines name each mismatching field; a missing
    /// or unreadable golden file is reported as a single-line error suggesting the bless
    /// command.
    pub fn verify_or_bless_file(
        path: &Path,
        actual_json: &str,
        bless: bool,
        tol: Tolerance,
    ) -> Result<(), Vec<String>> {
        if bless {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| vec![format!("cannot create {}: {e}", parent.display())])?;
            }
            std::fs::write(path, actual_json)
                .map_err(|e| vec![format!("cannot write {}: {e}", path.display())])?;
            return Ok(());
        }
        let golden_json = std::fs::read_to_string(path).map_err(|e| {
            vec![format!(
                "cannot read golden file {} ({e}); run `{BLESS_ENV}=1 cargo test -p pim-harness \
                 --test golden` to create it",
                path.display()
            )]
        })?;
        let expected = serde_json::value_from_str(&golden_json).map_err(|e| {
            vec![format!(
                "golden file {} is not valid JSON: {e}",
                path.display()
            )]
        })?;
        let actual = serde_json::value_from_str(actual_json)
            .map_err(|e| vec![format!("actual artifact is not valid JSON: {e}")])?;
        let diffs = diff_json(&expected, &actual, tol);
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(diffs)
        }
    }

    /// Numeric comparison tolerances.
    #[derive(Debug, Clone, Copy)]
    pub struct Tolerance {
        /// Relative tolerance: values agree when `|a − b| ≤ atol + rtol·max(|a|, |b|)`.
        pub rtol: f64,
        /// Absolute floor for values near zero.
        pub atol: f64,
    }

    impl Default for Tolerance {
        fn default() -> Self {
            Tolerance {
                rtol: 1e-9,
                atol: 1e-12,
            }
        }
    }

    impl Tolerance {
        /// True when two numbers agree under this tolerance (NaN agrees only with NaN).
        pub fn matches(&self, a: f64, b: f64) -> bool {
            if a.is_nan() && b.is_nan() {
                return true;
            }
            (a - b).abs() <= self.atol + self.rtol * a.abs().max(b.abs())
        }
    }

    /// Compare two JSON trees, returning one human-readable line per mismatch (empty when
    /// the trees agree within `tol`). Maps compare by key (order-insensitive), sequences
    /// by position, numbers under `tol`, everything else exactly.
    fn diff_json(expected: &Value, actual: &Value, tol: Tolerance) -> Vec<String> {
        let mut out = Vec::new();
        diff_at("$", expected, actual, tol, &mut out);
        out
    }

    fn diff_at(
        path: &str,
        expected: &Value,
        actual: &Value,
        tol: Tolerance,
        out: &mut Vec<String>,
    ) {
        // Numbers of any representation compare numerically.
        if let (Some(e), Some(a)) = (expected.as_f64(), actual.as_f64()) {
            if !tol.matches(e, a) {
                out.push(format!("{path}: expected {e}, got {a}"));
            }
            return;
        }
        match (expected, actual) {
            (Value::Seq(e), Value::Seq(a)) => {
                if e.len() != a.len() {
                    out.push(format!(
                        "{path}: expected {} elements, got {}",
                        e.len(),
                        a.len()
                    ));
                }
                for (i, (ev, av)) in e.iter().zip(a).enumerate() {
                    diff_at(&format!("{path}[{i}]"), ev, av, tol, out);
                }
            }
            (Value::Map(e), Value::Map(a)) => {
                for (k, ev) in e {
                    match actual.get(k) {
                        Some(av) => diff_at(&format!("{path}.{k}"), ev, av, tol, out),
                        None => out.push(format!("{path}.{k}: missing in actual")),
                    }
                }
                for (k, _) in a {
                    if expected.get(k).is_none() {
                        out.push(format!("{path}.{k}: unexpected key in actual"));
                    }
                }
            }
            (e, a) => {
                if e != a {
                    out.push(format!("{path}: expected {e:?}, got {a:?}"));
                }
            }
        }
    }

    mod tests {
        use super::*;
        use serde_json::value_from_str;

        fn v(s: &str) -> Value {
            value_from_str(s).expect("test JSON parses")
        }

        #[test]
        fn identical_trees_have_no_diff() {
            let a = v(r#"{"x": [1, 2.5, "s"], "y": {"z": true}}"#);
            assert!(diff_json(&a, &a.clone(), Tolerance::default()).is_empty());
        }

        #[test]
        fn numbers_compare_with_relative_tolerance() {
            let tol = Tolerance {
                rtol: 1e-6,
                atol: 1e-12,
            };
            let a = v("[1000.0]");
            let close = v("[1000.0000001]");
            let far = v("[1000.01]");
            assert!(diff_json(&a, &close, tol).is_empty());
            assert_eq!(diff_json(&a, &far, tol).len(), 1);
        }

        #[test]
        fn integer_and_float_representations_agree() {
            let tol = Tolerance::default();
            assert!(diff_json(&v("[1]"), &v("[1.0]"), tol).is_empty());
            assert!(diff_json(&v("[-3]"), &v("[-3.0]"), tol).is_empty());
        }

        #[test]
        fn structural_mismatches_are_reported_with_paths() {
            let tol = Tolerance::default();
            let diffs = diff_json(
                &v(r#"{"a": [1, 2], "b": "x"}"#),
                &v(r#"{"a": [1], "c": "x"}"#),
                tol,
            );
            let joined = diffs.join("\n");
            assert!(joined.contains("$.a: expected 2 elements"), "{joined}");
            assert!(joined.contains("$.b: missing"), "{joined}");
            assert!(joined.contains("$.c: unexpected"), "{joined}");
        }

        #[test]
        fn type_mismatch_is_a_diff() {
            let diffs = diff_json(&v(r#"["s"]"#), &v("[1]"), Tolerance::default());
            assert_eq!(diffs.len(), 1);
        }
    }
}
