//! Golden-file regression tests: pin the JSON artifacts of key scenarios at the
//! default seed, so a behavioural change anywhere in `desim`/`pim-core`/`pim-parcels`/
//! `pim-analytic` that moves the numbers fails loudly instead of silently corrupting
//! every downstream figure.
//!
//! Numeric fields compare with a per-field relative tolerance (see
//! [`pim_harness::golden`]); everything else must match exactly. To regenerate after
//! an intentional change:
//!
//! ```text
//! PIM_BLESS_GOLDENS=1 cargo test -p pim-harness --test golden
//! ```

#![expect(
    clippy::expect_used,
    reason = "helpers outside #[test] fns panic on a failed setup step, which fails the calling test"
)]

use pim_harness::golden::{bless_requested, verify_or_bless_file, BLESS_ENV};
use pim_harness::prelude::*;
use std::path::PathBuf;

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
