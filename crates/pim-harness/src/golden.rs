//! Tolerance-aware JSON diffing and the verify-or-bless helper for the golden-file
//! regression suite.
//!
//! Golden files pin each scenario's artifact at the default seed. Because every
//! scenario is deterministic the comparison is normally exact, but numeric fields are
//! compared with a per-field *relative* tolerance so a legitimate cross-platform
//! difference in the last ulp (or a deliberately loosened golden) does not flake.
//!
//! The bless workflow: running the golden suite with [`BLESS_ENV`]
//! (`PIM_BLESS_GOLDENS=1 cargo test -p pim-harness --test golden`) regenerates the
//! files instead of verifying them — do this after an *intentional* model or grid
//! change, and commit the result. [`verify_or_bless_file`] is that mechanism:
//!
//! ```
//! use pim_harness::golden::{verify_or_bless_file, Tolerance};
//!
//! let dir = std::env::temp_dir().join(format!("pim-golden-doc-{}", std::process::id()));
//! let path = dir.join("demo.json");
//! let tol = Tolerance::default();
//!
//! // First run under PIM_BLESS_GOLDENS=1 (bless = true) writes the golden file…
//! verify_or_bless_file(&path, "{\"gain\": 10.24}\n", true, tol).unwrap();
//! // …later runs (bless = false) verify the artifact against it…
//! verify_or_bless_file(&path, "{\"gain\": 10.24}\n", false, tol).unwrap();
//! // …and a drifted value fails with a per-field diff.
//! let err = verify_or_bless_file(&path, "{\"gain\": 99.0}\n", false, tol).unwrap_err();
//! assert!(err[0].contains("$.gain"));
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

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
pub(crate) fn diff_json(expected: &Value, actual: &Value, tol: Tolerance) -> Vec<String> {
    let mut out = Vec::new();
    diff_at("$", expected, actual, tol, &mut out);
    out
}

fn diff_at(path: &str, expected: &Value, actual: &Value, tol: Tolerance, out: &mut Vec<String>) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::value_from_str;

    fn v(s: &str) -> Value {
        value_from_str(s).unwrap()
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
