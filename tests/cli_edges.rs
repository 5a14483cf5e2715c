//! CLI edge-case conformance through the real binary: `run NAME` reports one
//! scenario or fails cleanly on an unknown name, duplicated flags are rejected
//! by name (not silently last-wins), `cache gc --max-mib 0` is a well-defined
//! full-eviction pass with exact accounting, and a scenario-name collision
//! between two spec files names both offending paths.

use pim_harness::report::ScenarioReport;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pim-tradeoffs"))
}

fn run_args(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

fn expect_error(args: &[&str]) -> String {
    let out = run_args(args);
    assert!(
        !out.status.success(),
        "`pim-tradeoffs {}` unexpectedly succeeded",
        args.join(" ")
    );
    String::from_utf8_lossy(&out.stderr).to_string()
}

fn expect_ok(args: &[&str]) -> (String, String) {
    let out = run_args(args);
    assert!(
        out.status.success(),
        "`pim-tradeoffs {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

fn temp_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pim-cli-edges-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn p(path: &Path) -> String {
    path.to_string_lossy().to_string()
}

// ---------------------------------------------------------------------------
// `run NAME`: one scenario's report, or a clean error
// ---------------------------------------------------------------------------

#[test]
fn unknown_scenario_fails_cleanly() {
    let out = run_args(&["run", "no_such_scenario"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error:") && l.contains("'no_such_scenario'")),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no report for an unknown scenario");
}

#[test]
fn fast_scenario_succeeds() {
    // table1 is instantaneous; the report goes to stdout as JSON.
    let (stdout, _) = expect_ok(&["run", "table1"]);
    let report: ScenarioReport = serde_json::from_str(&stdout).expect("stdout is a report");
    assert_eq!(report.scenario, "table1");
    assert_eq!(report.metric("nb"), Some(3.125));
}

// ---------------------------------------------------------------------------
// Duplicate flags are rejected by name
// ---------------------------------------------------------------------------

#[test]
fn repeated_valued_flag_is_rejected_by_name() {
    // Before the fix the second --seed silently won; a typo'd sweep script
    // could run every scenario under the wrong seed without a whisper.
    let err = expect_error(&["run", "table1", "--seed", "1", "--seed", "2"]);
    assert!(err.contains("--seed given more than once"), "{err}");
    let err = expect_error(&["point", "--nodes", "4", "--nodes", "8", "--wl", "0.5"]);
    assert!(err.contains("--nodes given more than once"), "{err}");
}

#[test]
fn repeated_boolean_flag_is_rejected_by_name() {
    let err = expect_error(&["run", "--all", "--all"]);
    assert!(err.contains("--all given more than once"), "{err}");
    let err = expect_error(&["point", "--simulate", "--simulate"]);
    assert!(err.contains("--simulate given more than once"), "{err}");
}

#[test]
fn distinct_flags_still_combine() {
    // Regression guard: the duplicate check must not break ordinary multi-flag
    // invocations.
    let (stdout, _) = expect_ok(&["point", "--nodes", "8", "--wl", "0.5", "--pmiss", "0.2"]);
    assert!(stdout.contains("gain"), "{stdout}");
}

// ---------------------------------------------------------------------------
// `cache gc --max-mib 0` semantics
// ---------------------------------------------------------------------------

#[test]
fn gc_with_zero_budget_on_an_empty_cache_accounts_zeroes() {
    let base = temp_base("gc-empty");
    let cache = base.join("cache");
    // Materialize an empty-but-valid cache directory via a no-op clear.
    expect_ok(&["run", "table1", "--cache", &p(&cache)]);
    expect_ok(&["cache", "clear", &p(&cache)]);
    let (stdout, _) = expect_ok(&["cache", "gc", &p(&cache), "--max-mib", "0"]);
    assert!(
        stdout.contains("scanned 0 entries; removed 0 invalid, 0 over budget; 0 bytes kept"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn gc_with_zero_budget_evicts_every_entry_with_exact_accounting() {
    let base = temp_base("gc-zero");
    let cache = base.join("cache");
    expect_ok(&["run", "table1", "--cache", &p(&cache)]);
    let (stats, _) = expect_ok(&["cache", "stats", &p(&cache)]);
    let entries: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("entries :"))
        .expect("stats prints an entry count")
        .trim()
        .parse()
        .expect("entry count is numeric");
    assert!(entries > 0, "the run should have populated the cache");

    // A zero-byte budget is a full eviction pass: every entry is over budget.
    let (stdout, _) = expect_ok(&["cache", "gc", &p(&cache), "--max-mib", "0"]);
    assert!(
        stdout.contains(&format!(
            "removed 0 invalid, {entries} over budget; 0 bytes kept"
        )),
        "expected all {entries} entries evicted: {stdout}"
    );
    let (stats_after, _) = expect_ok(&["cache", "stats", &p(&cache)]);
    assert!(stats_after.contains("entries : 0"), "{stats_after}");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn gc_budget_overflow_is_rejected_not_wrapped() {
    let base = temp_base("gc-overflow");
    let cache = base.join("cache");
    expect_ok(&["run", "table1", "--cache", &p(&cache)]);
    // u64::MAX MiB would wrap to a tiny byte budget and silently evict
    // everything; it must be rejected by name instead.
    let err = expect_error(&[
        "cache",
        "gc",
        &p(&cache),
        "--max-mib",
        "18446744073709551615",
    ]);
    assert!(err.contains("overflows the byte budget"), "{err}");
    // The near-overflow maximum that still converts is accepted (and evicts
    // nothing: the budget is astronomically larger than the cache).
    let (stdout, _) = expect_ok(&["cache", "gc", &p(&cache), "--max-mib", "17592186044415"]);
    assert!(
        stdout.contains("removed 0 invalid, 0 over budget"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&base);
}

// ---------------------------------------------------------------------------
// Spec-file name collisions name both paths
// ---------------------------------------------------------------------------

#[test]
fn colliding_spec_files_are_reported_with_both_paths() {
    let base = temp_base("collide");
    let specs = base.join("specs");
    std::fs::create_dir_all(&specs).unwrap();
    let spec_body = |desc: &str| {
        format!(
            r#"{{
                "schema_version": 1,
                "name": "twin_spec",
                "description": "{desc}",
                "model": "analytic",
                "grid": {{"node_counts": [2], "lwp_fractions": [0.5]}},
                "columns": ["nodes", "pct_lwp", "gain"]
            }}"#
        )
    };
    std::fs::write(specs.join("a_first.json"), spec_body("first twin")).unwrap();
    std::fs::write(specs.join("b_second.json"), spec_body("second twin")).unwrap();

    let err = expect_error(&["run", "--spec", &p(&specs)]);
    assert!(err.contains("duplicate scenario name 'twin_spec'"), "{err}");
    // The fix: both offending files are named, not just the scenario name.
    assert!(
        err.contains("a_first.json") && err.contains("b_second.json"),
        "collision error must name both spec files: {err}"
    );

    // A collision with a builtin names the offending file.
    let solo = base.join("solo");
    std::fs::create_dir_all(&solo).unwrap();
    std::fs::write(
        solo.join("table1.json"),
        spec_body("shadows a builtin").replace("twin_spec", "table1"),
    )
    .unwrap();
    let err = expect_error(&["run", "--spec", &p(&solo)]);
    assert!(
        err.contains("table1.json") && err.contains("already registered"),
        "builtin collision must name the spec file: {err}"
    );
    let _ = std::fs::remove_dir_all(&base);
}
