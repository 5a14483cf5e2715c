//! CLI edge-case conformance through the real binary: `run NAME` reports one
//! scenario or fails cleanly on an unknown name, the retired model and audit
//! commands are unknown commands, duplicated flags are rejected by name (not
//! silently last-wins), several unknown flags name the same one every run, a
//! flag a command accepts but would ignore is rejected by name, `spec check`
//! prints its per-spec lines and summary byte for byte, spec count axes too
//! large to allocate are rejected by axis, `cache gc --max-mib 0` is a
//! well-defined full-eviction pass with exact accounting, a disk filling up
//! mid-batch fails the run cleanly and keeps what was stored, and a scenario-name
//! collision between two spec files names both offending paths.

#![expect(
    clippy::expect_used,
    clippy::unwrap_used,
    clippy::disallowed_methods,
    reason = "helpers outside #[test] fns panic on a failed setup step, which fails the calling test; the deadlines that bound a spawned binary are wall time, outside any unit"
)]

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
fn retired_model_and_audit_commands_are_unknown() {
    // Design points go through one-point specs (`run --spec`), the break-even
    // numbers through `run table1`, and the determinism lints through
    // `cargo run -p pim-audit`, which runs clippy over the workspace.
    for name in ["point", "sweep", "nb", "parcels", "audit"] {
        for args in [&[name][..], &[name, "--nodes", "32"]] {
            let out = run_args(args);
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.starts_with(&format!("error: unknown command '{name}'")),
                "{args:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{args:?}");
        }
    }
    let (help, _) = expect_ok(&["--help"]);
    let commands: Vec<&str> = help
        .lines()
        .filter_map(|l| {
            l.strip_prefix("  pim-tradeoffs ")?
                .split_whitespace()
                .next()
        })
        .collect();
    assert_eq!(
        commands,
        ["list", "run", "run", "run", "run", "serve", "cache", "cache", "spec"]
    );
}

#[test]
fn retired_cache_pull_is_an_unknown_subcommand() {
    // A one-source merge is `cache merge DEST SRC`.
    let base = temp_base("pull");
    let (dest, src) = (base.join("dest"), base.join("src"));
    expect_ok(&["run", "table1", "--cache", &p(&src)]);
    let out = run_args(&["cache", "pull", &p(&dest), &p(&src)]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: unknown cache subcommand 'pull'"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
    assert!(
        !dest.exists(),
        "a retired subcommand created its destination"
    );
    let (help, _) = expect_ok(&["--help"]);
    assert!(!help.contains("pull"), "{help}");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn repeated_valued_flag_is_rejected_by_name() {
    // Before the fix the second --seed silently won; a typo'd sweep script
    // could run every scenario under the wrong seed without a whisper.
    let err = expect_error(&["run", "table1", "--seed", "1", "--seed", "2"]);
    assert!(err.contains("--seed given more than once"), "{err}");
}

#[test]
fn repeated_boolean_flag_is_rejected_by_name() {
    let err = expect_error(&["run", "--all", "--all"]);
    assert!(err.contains("--all given more than once"), "{err}");
}

#[test]
fn several_unknown_flags_name_the_same_one_every_run() {
    // The flag table once iterated in per-process hash order, so the error named
    // whichever unknown flag the hash seed put first.
    let args = ["run", "--zeta", "1", "--alpha", "2", "--mid", "3", "table1"];
    for _ in 0..8 {
        let out = run_args(&args);
        assert_eq!(out.status.code(), Some(1));
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "error: unknown flag --alpha\n"
        );
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn distinct_flags_still_combine() {
    // Regression guard: the duplicate check must not break ordinary multi-flag
    // invocations.
    let (stdout, _) = expect_ok(&["run", "table1", "--seed", "7", "--jobs", "1"]);
    let report: ScenarioReport = serde_json::from_str(&stdout).expect("stdout is a report");
    assert_eq!(report.metric("nb"), Some(3.125));
}

// ---------------------------------------------------------------------------
// Flags a command would accept and then ignore are rejected by name
// ---------------------------------------------------------------------------

#[test]
fn max_mib_outside_cache_gc_is_rejected_and_changes_nothing() {
    let base = temp_base("max-mib");
    let cache = base.join("cache");
    let other = base.join("other");
    expect_ok(&["run", "table1", "--cache", &p(&cache)]);
    expect_ok(&["run", "table1", "--cache", &p(&other)]);
    let (stats, _) = expect_ok(&["cache", "stats", &p(&cache)]);
    for args in [
        &["cache", "stats", &p(&cache), "--max-mib", "5"][..],
        &["cache", "clear", &p(&cache), "--max-mib", "0"],
        &["cache", "merge", &p(&cache), &p(&other), "--max-mib", "1"],
    ] {
        let out = run_args(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: --max-mib applies only to `cache gc`"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let (after, _) = expect_ok(&["cache", "stats", &p(&cache)]);
    assert_eq!(after, stats, "a rejected command touched the cache");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn quiet_takes_only_0_or_1() {
    // Any other value used to start a daemon that still logged. A build that
    // accepts the value serves until killed, so wait with a deadline.
    for value in ["true", "yes", "2", ""] {
        let mut child = bin()
            .args(["serve", "--addr", "127.0.0.1:0", "--quiet", value])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary starts");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while child.try_wait().expect("wait").is_none() {
            if std::time::Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("`serve --quiet {value:?}` was accepted and served");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{value:?}: {stderr}");
        assert_eq!(
            stderr,
            format!("error: --quiet expects 0 or 1, got '{value}'\n"),
            "{value:?}"
        );
        assert!(out.stdout.is_empty(), "{value:?}");
    }
}

// ---------------------------------------------------------------------------
// Count axes too large to allocate are rejected before any unit runs
// ---------------------------------------------------------------------------

#[test]
fn count_flags_too_large_to_allocate_are_rejected_by_name() {
    // Each of these once asked for terabytes (parcel reply queues and node
    // outcomes, simulated thread shares) and aborted; the address-space limit
    // makes such a request fail whatever the host's overcommit policy.
    let base = temp_base("counts");
    let parcels = |nodes: &str, parallelism: &str| {
        format!(
            r#"{{"schema_version": 1, "name": "oversized", "description": "d",
                "model": "parcels",
                "grid": {{"node_counts": [{nodes}], "parallelisms": [{parallelism}],
                          "latencies": [1000.0], "remote_fractions": [0.2]}}}}"#
        )
    };
    let analytic = r#"{"schema_version": 1, "name": "oversized", "description": "d",
        "model": "analytic", "config": {"mode": {"simulated": {}}},
        "grid": {"node_counts": [1000000000000], "lwp_fractions": [0.5]}}"#;
    for (i, (axis, body)) in [
        ("parallelisms", parcels("1", "1000000000000")),
        ("node_counts", parcels("1000000000000", "1")),
        ("node_counts", analytic.to_string()),
    ]
    .into_iter()
    .enumerate()
    {
        let file = base.join(format!("oversized_{i}.json"));
        std::fs::write(&file, body).unwrap();
        let out = Command::new("sh")
            .args(["-c", "ulimit -v 4000000 && exec \"$0\" \"$@\""])
            .arg(env!("CARGO_BIN_EXE_pim-tradeoffs"))
            .args(["run", "--spec", &p(&file), "--no-cache"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{axis}: {stderr}");
        assert!(
            stderr.contains(&format!("grid.{axis} values must be at most")),
            "{axis}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{axis}");
    }
    let _ = std::fs::remove_dir_all(&base);
}

// ---------------------------------------------------------------------------
// A disk that fills up partway through a batch
// ---------------------------------------------------------------------------

#[test]
fn a_disk_filling_mid_batch_fails_the_run_and_keeps_the_stored_frames() {
    // A file-size limit makes an append fail partway (EFBIG, standing in for
    // ENOSPC) without touching any machine setting; SIGXFSZ is ignored so the
    // write returns the error. `ulimit -f` counts 512- or 1024-byte blocks
    // depending on the shell; either way the ~49 KB of entries do not fit.
    let base = temp_base("full-disk");
    let cache = base.join("cache");
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/node_scaling.json"
    );
    let out = Command::new("sh")
        .args(["-c", "ulimit -f 16; trap '' XFSZ; exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_pim-tradeoffs"))
        .args(["run", "--spec", spec, "--cache", &p(&cache)])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let segment = cache.join("units").join("00000001.pack");
    assert!(
        stderr.contains(&format!("cannot append to cache segment {}", p(&segment))),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Without the limit, the frames written before it are hits, the torn one
    // reads as never written, and nothing is recomputed.
    let (warm, summary) = expect_ok(&["run", "--spec", spec, "--cache", &p(&cache)]);
    let hits: u64 = summary
        .lines()
        .find_map(|l| l.strip_prefix("cache: ")?.split(' ').next()?.parse().ok())
        .unwrap_or_else(|| panic!("no cache summary: {summary}"));
    assert!(hits > 0, "{summary}");
    assert!(summary.contains(", 0 recomputed"), "{summary}");
    let (reference, _) = expect_ok(&["run", "--spec", spec, "--no-cache"]);
    assert_eq!(warm, reference, "artifact over the refilled cache differs");
    let _ = std::fs::remove_dir_all(&base);
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
// `spec check` output, byte for byte
// ---------------------------------------------------------------------------

#[test]
fn spec_check_prints_one_line_per_spec_and_a_summary() {
    let base = temp_base("spec-check");
    let node_scaling = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/node_scaling.json"
    );
    std::fs::copy(node_scaling, base.join("node_scaling.json")).unwrap();
    std::fs::write(
        base.join("bad.json"),
        r#"{"schema_version": 1, "name": "no_description", "model": "analytic",
            "grid": {"node_counts": [2], "lwp_fractions": [0.5]}}"#,
    )
    .unwrap();
    let ok_line = "ok   spec_node_scaling        analytic: 110 points x 1 replications \
                   = 110 units, 4 columns\n";

    let out = run_args(&["spec", "check", &p(&base)]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(String::from_utf8_lossy(&out.stdout), ok_line);
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!(
            "{}: error[spec-check]: spec is missing required field 'description'\n\
             error: 2 specs: 1 finding\n",
            p(&base.join("bad.json"))
        )
    );

    let out = run_args(&["spec", "check", &p(&base.join("node_scaling.json"))]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), ok_line);
    assert_eq!(String::from_utf8_lossy(&out.stderr), "1 spec: 0 findings\n");
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
