//! `pim-audit` — the determinism gate.
//!
//! A cached unit result must be a pure function of its `UnitKey`: no wall clock,
//! ambient entropy or hash order on the unit path. The rules live in the root
//! `Cargo.toml`'s `[workspace.lints]` and in the root `clippy.toml`, and a reviewed
//! exception is an `#[expect(lint, reason = "…")]` at its site, which the compiler
//! checks. This binary does the one thing clippy cannot: it fails, naming the
//! manifest, when a first-party package (the root package, or one under `crates/`)
//! does not opt into that table. Then it runs
//! `cargo clippy --all-targets -- -D warnings` over the workspace, and clippy's exit
//! status is the gate.
//!
//! ```text
//! cargo run -p pim-audit
//! ```
//!
//! It takes no options. Exit codes: `0` clean, `1` a manifest that does not opt in
//! or a clippy finding, `2` an argument or a failure to read the tree or start cargo.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("pim-audit: unexpected argument `{arg}`: pim-audit takes no options");
        return ExitCode::from(2);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let crates = root.join("crates");
    let mut manifests = vec![root.join("Cargo.toml")];
    if let Err(e) = collect_manifests(&crates, &mut manifests) {
        eprintln!("pim-audit: cannot read {}: {e}", crates.display());
        return ExitCode::from(2);
    }
    manifests.sort();
    let mut opted_out = 0;
    for manifest in &manifests {
        let shown = manifest.strip_prefix(&root).unwrap_or(manifest).display();
        match std::fs::read_to_string(manifest) {
            Ok(text) if opts_into_workspace_lints(&text) => {}
            Ok(_) => {
                eprintln!("pim-audit: {shown} lacks `[lints] workspace = true`");
                opted_out += 1;
            }
            Err(e) => {
                eprintln!("pim-audit: cannot read {shown}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if opted_out > 0 {
        return ExitCode::FAILURE;
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    match Command::new(cargo)
        .current_dir(&root)
        .args(["clippy", "--all-targets", "--", "-D", "warnings"])
        .status()
    {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pim-audit: cannot run cargo clippy: {e}");
            ExitCode::from(2)
        }
    }
}

/// Every `Cargo.toml` under `dir`, build output skipped.
fn collect_manifests(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name() != Some("target".as_ref()) {
                collect_manifests(&path, out)?;
            }
        } else if path.file_name() == Some("Cargo.toml".as_ref()) {
            out.push(path);
        }
    }
    Ok(())
}

/// True when the manifest's `[lints]` table holds `workspace = true`.
fn opts_into_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.split('=').map(str::trim).eq(["workspace", "true"]) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::opts_into_workspace_lints;

    #[test]
    fn a_manifest_opts_in_only_through_its_lints_table() {
        assert!(opts_into_workspace_lints(
            "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"
        ));
        assert!(opts_into_workspace_lints(
            "[lints]\n  workspace=true  \n[dependencies]\n"
        ));
        assert!(!opts_into_workspace_lints("[package]\nname = \"x\"\n"));
        assert!(!opts_into_workspace_lints(
            "[package]\nworkspace = true\n[lints]\n"
        ));
        assert!(!opts_into_workspace_lints("[lints]\nworkspace = false\n"));
        assert!(!opts_into_workspace_lints(
            "[lints.clippy]\nworkspace = true\n"
        ));
    }
}
