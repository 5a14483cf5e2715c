//! The determinism lints, end to end. Clippy over the known-bad fixture package
//! (`crates/pim-audit/fixtures`) must report exactly the pinned findings: every
//! rule fires where its fixture says, and every look-alike stays silent. The real
//! workspace must pass the `pim-audit` gate.
//!
//! After an intentional change to a fixture or to the lint table, update
//! [`PINNED`] from the `(file, line, lint)` list the failing assertion prints.

use serde::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Every finding in the fixture package, as `(file under fixtures/src, line, lint)`.
const PINNED: &[(&str, u32, &str)] = &[
    ("allows.rs", 11, "clippy::allow_attributes_without_reason"),
    ("allows.rs", 17, "unknown_lints"),
    ("allows.rs", 21, "unfulfilled_lint_expectations"),
    ("docs.rs", 3, "missing_docs"),
    ("entropy.rs", 10, "clippy::disallowed_methods"),
    ("entropy.rs", 15, "clippy::disallowed_methods"),
    ("unordered.rs", 9, "clippy::iter_over_hash_type"),
    ("unordered.rs", 17, "clippy::disallowed_methods"),
    ("unordered.rs", 18, "clippy::disallowed_methods"),
    ("unordered.rs", 19, "clippy::disallowed_methods"),
    ("unordered.rs", 20, "clippy::disallowed_methods"),
    ("unordered.rs", 21, "clippy::disallowed_methods"),
    ("unordered.rs", 22, "clippy::disallowed_methods"),
    ("unordered.rs", 23, "clippy::disallowed_methods"),
    ("unordered.rs", 24, "clippy::disallowed_methods"),
    ("unordered.rs", 25, "clippy::disallowed_methods"),
    ("unordered.rs", 26, "clippy::disallowed_methods"),
    ("unsafe_code.rs", 7, "unsafe_code"),
    ("unsafe_code.rs", 15, "unsafe_code"),
    ("unwraps.rs", 5, "clippy::unwrap_used"),
    ("unwraps.rs", 6, "clippy::expect_used"),
    ("wall_clock.rs", 7, "clippy::disallowed_methods"),
    ("wall_clock.rs", 8, "clippy::disallowed_methods"),
    ("wall_clock.rs", 24, "clippy::disallowed_methods"),
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// One diagnostic from clippy's JSON output.
struct Finding {
    file: String,
    line: u64,
    lint: String,
    message: String,
}

fn str_at<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    match v.get(key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Clippy over the fixture package, its unit tests included, with the workspace
/// lint table as the only source of lint levels.
#[expect(
    clippy::expect_used,
    reason = "a test helper: output that is not clippy's JSON fails the calling test"
)]
fn lint_fixtures() -> Vec<Finding> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(workspace_root())
        .args(["clippy", "-p", "pim-audit-fixtures", "--all-targets"])
        .arg("--message-format=json")
        .output()
        .expect("cargo clippy runs");
    assert!(
        !out.status.success(),
        "the fixtures linted clean: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut findings = Vec::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let doc = serde_json::value_from_str(line).expect("cargo prints JSON lines");
        let Some(message) = doc.get("message") else {
            continue;
        };
        // Summaries such as "aborting due to N previous errors" carry no lint.
        let Some(lint) = message.get("code").and_then(|c| str_at(c, "code")) else {
            continue;
        };
        let Some(Value::Seq(spans)) = message.get("spans") else {
            panic!("a finding without spans: {line}");
        };
        let primary = spans
            .iter()
            .find(|s| s.get("is_primary") == Some(&Value::Bool(true)))
            .expect("a finding has a primary span");
        findings.push(Finding {
            file: str_at(primary, "file_name").expect("file_name").to_string(),
            line: primary
                .get("line_start")
                .and_then(Value::as_f64)
                .expect("line_start") as u64,
            lint: lint.to_string(),
            message: str_at(message, "message").expect("message").to_string(),
        });
    }
    findings
}

#[test]
fn fixture_findings_match_the_pinned_list() {
    // Each finding is reported once per target that compiles its line (the
    // library and its unit tests), so compare sets.
    let found: BTreeSet<(String, u64, String)> = lint_fixtures()
        .into_iter()
        .map(|f| {
            let file = f
                .file
                .strip_prefix("crates/pim-audit/fixtures/src/")
                .unwrap_or(&f.file)
                .to_string();
            (file, f.line, f.lint)
        })
        .collect();
    let pinned: BTreeSet<(String, u64, String)> = PINNED
        .iter()
        .map(|&(file, line, lint)| (file.to_string(), u64::from(line), lint.to_string()))
        .collect();
    assert_eq!(found, pinned, "found on the left, pinned on the right");
}

#[test]
fn every_rule_fires_at_least_once_in_fixtures() {
    let findings = lint_fixtures();
    let root = workspace_root();
    // Every lint in the workspace table...
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let mut table = None;
    let mut lints = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = match line {
                "[workspace.lints.rust]" => Some(""),
                "[workspace.lints.clippy]" => Some("clippy::"),
                _ => None,
            };
        } else if line.starts_with('#') {
            continue;
        } else if let (Some(prefix), Some((name, _))) = (table, line.split_once('=')) {
            lints.push(format!("{prefix}{}", name.trim()));
        }
    }
    assert!(lints.len() >= 8, "lint table not found: {lints:?}");
    for lint in &lints {
        assert!(
            findings.iter().any(|f| &f.lint == lint),
            "{lint} has no fixture finding"
        );
    }
    // ...and every disallowed method in the root clippy.toml.
    let config = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    let paths: Vec<&str> = config
        .split("path = \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert!(paths.len() >= 14, "disallowed-methods not found: {paths:?}");
    for path in paths {
        assert!(
            findings
                .iter()
                .any(|f| f.message == format!("use of a disallowed method `{path}`")),
            "{path} has no fixture finding"
        );
    }
}

/// The gate the CI job runs: the real workspace opts into the lint table and
/// lints clean, its reviewed exceptions included.
#[test]
fn real_workspace_is_audit_clean() {
    let out = Command::new(env!("CARGO_BIN_EXE_pim-audit"))
        .output()
        .expect("pim-audit runs");
    assert!(
        out.status.success(),
        "workspace violates its determinism contract:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
