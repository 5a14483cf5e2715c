//! Workspace discovery: find every `.rs` file the audit covers and classify it.
//!
//! The classification is path-based and mirrors Cargo's target layout, because
//! the rules' scopes are expressed in Cargo's vocabulary: *library* code is held
//! to the full determinism contract, *bins* are the CLI layer (progress
//! reporting may read clocks), and *tests/benches/examples* are exempt from the
//! robustness rules (`unwrap-in-library`) but never from `unsafe` hygiene.

use std::path::{Path, PathBuf};

/// What kind of Cargo target a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// `src/**` of a crate (excluding `src/bin/` and `src/main.rs`).
    Library,
    /// `src/bin/**` or `src/main.rs`: a binary's CLI layer.
    Bin,
    /// `tests/**`: integration test code.
    Test,
    /// `benches/**`: benchmark code.
    Bench,
    /// `examples/**`: example code.
    Example,
}

/// One source file scheduled for auditing.
#[derive(Debug, Clone)]
pub(crate) struct SourceFile {
    /// Absolute (or root-joined) path for reading.
    pub path: PathBuf,
    /// Workspace-root-relative path with forward slashes — the reporting identity.
    pub rel: String,
    /// Owning crate: `crates/<name>/…` maps to `<name>`, everything else to the
    /// root package.
    pub crate_name: String,
    pub role: Role,
}

/// Directory names never descended into: build output, vendored stand-ins
/// (external code is not ours to lint), VCS internals, and the auditor's own
/// known-bad lint fixtures.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", ".claude"];

/// Name of the root package, used for files outside `crates/`.
const ROOT_CRATE: &str = "pim-repro";

/// Recursively collect and classify every auditable `.rs` file under `root`,
/// in deterministic (sorted-path) order.
pub(crate) fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = relative_slash(root, &path);
            out.push(SourceFile {
                crate_name: crate_of(&rel),
                role: role_of(&rel),
                path,
                rel,
            });
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated regardless of platform.
fn relative_slash(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.to_string();
        }
    }
    ROOT_CRATE.to_string()
}

fn role_of(rel: &str) -> Role {
    let parts: Vec<&str> = rel.split('/').collect();
    // Strip the `crates/<name>` prefix so crate-local and root layouts classify
    // identically.
    let local: &[&str] = if parts.first() == Some(&"crates") && parts.len() > 2 {
        &parts[2..]
    } else {
        &parts
    };
    match local.first().copied() {
        Some("tests") => Role::Test,
        Some("benches") => Role::Bench,
        Some("examples") => Role::Example,
        Some("src") => {
            if local.get(1).copied() == Some("bin") || local.last().copied() == Some("main.rs") {
                Role::Bin
            } else {
                Role::Library
            }
        }
        _ => Role::Library,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_and_role_classification() {
        let cases = [
            ("crates/desim/src/engine.rs", "desim", Role::Library),
            (
                "crates/pim-bench/src/bin/pim-perf.rs",
                "pim-bench",
                Role::Bin,
            ),
            ("crates/pim-audit/src/main.rs", "pim-audit", Role::Bin),
            (
                "crates/pim-core/tests/properties.rs",
                "pim-core",
                Role::Test,
            ),
            (
                "crates/pim-bench/benches/engine.rs",
                "pim-bench",
                Role::Bench,
            ),
            ("src/bin/pim-tradeoffs.rs", "pim-repro", Role::Bin),
            ("src/lib.rs", "pim-repro", Role::Library),
            ("tests/cli.rs", "pim-repro", Role::Test),
            ("examples/quickstart.rs", "pim-repro", Role::Example),
        ];
        for (rel, crate_name, role) in cases {
            assert_eq!(crate_of(rel), crate_name, "{rel}");
            assert_eq!(role_of(rel), role, "{rel}");
        }
    }

    #[test]
    fn collect_walks_sorted_and_skips_excluded_dirs() {
        let root = std::env::temp_dir().join(format!("pim-audit-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for dir in [
            "crates/x/src",
            "vendor/dep/src",
            "target/debug",
            "tests/fixtures/ws",
        ] {
            std::fs::create_dir_all(root.join(dir)).unwrap();
        }
        std::fs::write(root.join("crates/x/src/lib.rs"), "fn a() {}").unwrap();
        std::fs::write(root.join("vendor/dep/src/lib.rs"), "fn v() {}").unwrap();
        std::fs::write(root.join("target/debug/gen.rs"), "fn t() {}").unwrap();
        std::fs::write(root.join("tests/fixtures/ws/bad.rs"), "fn f() {}").unwrap();
        let files = collect_sources(&root).unwrap();
        let rels: Vec<&str> = files.iter().map(|f| f.rel.as_str()).collect();
        assert_eq!(rels, vec!["crates/x/src/lib.rs"]);
        let _ = std::fs::remove_dir_all(&root);
    }
}
