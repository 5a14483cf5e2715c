//! CLI-level conformance for `run --shard` and `cache merge`: flag
//! validation fails fast with named errors, and the end-to-end two-shard
//! protocol (shard, merge, warm unsharded run) reproduces the single-process
//! artifacts byte-for-byte through the real binary.

#![expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic on a failed setup step, which fails the calling test"
)]

use std::path::Path;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pim-tradeoffs"))
}

fn run_args(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

/// Run expecting failure; return stderr.
fn expect_error(args: &[&str]) -> String {
    let out = run_args(args);
    assert!(
        !out.status.success(),
        "`pim-tradeoffs {}` unexpectedly succeeded",
        args.join(" ")
    );
    String::from_utf8_lossy(&out.stderr).to_string()
}

/// Run expecting success; return (stdout, stderr).
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

fn temp_base(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pim-cli-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn p(path: &Path) -> String {
    path.to_string_lossy().to_string()
}

#[test]
fn shard_flag_rejects_invalid_partitions() {
    // 0-based index.
    let err = expect_error(&["run", "table1", "--shard", "0/2", "--cache", "c"]);
    assert!(err.contains("shard index is 1-based"), "{err}");
    // Index out of range.
    let err = expect_error(&["run", "table1", "--shard", "3/2", "--cache", "c"]);
    assert!(err.contains("out of range"), "{err}");
    // Zero-way split.
    let err = expect_error(&["run", "table1", "--shard", "1/0", "--cache", "c"]);
    assert!(err.contains("at least 1"), "{err}");
    // Malformed forms.
    for bad in ["1", "a/b", "1/2/3", ""] {
        let err = expect_error(&["run", "table1", "--shard", bad, "--cache", "c"]);
        assert!(err.contains("I/N"), "'{bad}': {err}");
    }
}

#[test]
fn shard_without_a_result_sink_is_rejected() {
    // `--shard` with neither cache nor out: everything computed would be dropped.
    let err = expect_error(&["run", "table1", "--shard", "1/2"]);
    assert!(err.contains("without --cache or --out"), "{err}");
    // Same when an explicit `--no-cache` cancels the cache and no --out is given.
    let base = temp_base("nocache");
    let cache = base.join("cache");
    let err = expect_error(&[
        "run",
        "table1",
        "--shard",
        "1/2",
        "--cache",
        &p(&cache),
        "--no-cache",
    ]);
    assert!(err.contains("without --cache or --out"), "{err}");
    // With --out it runs: the partial artifacts are a legitimate sink.
    let (_, _) = expect_ok(&[
        "run",
        "table1",
        "--shard",
        "1/2",
        "--no-cache",
        "--out",
        &p(&base.join("out")),
    ]);
    assert!(base.join("out/manifest.json").exists());
    assert!(base.join("out/table1.shard.json").exists());
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn cache_merge_validates_its_arguments_and_sources() {
    let base = temp_base("merge-args");
    let err = expect_error(&["cache", "merge"]);
    assert!(err.contains("destination and at least one source"), "{err}");
    let err = expect_error(&["cache", "merge", &p(&base.join("dest"))]);
    assert!(err.contains("at least one source"), "{err}");
    // A source with a foreign cache_schema marker is refused.
    let stale = base.join("stale");
    std::fs::create_dir_all(stale.join("units")).unwrap();
    std::fs::write(
        stale.join("cache-format.json"),
        "{\"format\": \"pim-unit-cache\", \"cache_schema\": 1}\n",
    )
    .unwrap();
    let err = expect_error(&["cache", "merge", &p(&base.join("dest")), &p(&stale)]);
    assert!(err.contains("incompatible version"), "{err}");
    // A source that is not a cache directory at all is refused.
    let plain = base.join("plain");
    std::fs::create_dir_all(&plain).unwrap();
    let err = expect_error(&["cache", "merge", &p(&base.join("dest")), &p(&plain)]);
    assert!(err.contains("not a cache directory"), "{err}");
    let _ = std::fs::remove_dir_all(&base);
}

/// The tentpole protocol through the real binary: two shards (one at --jobs 1,
/// one at --jobs 8) into separate caches, `cache merge`, then an unsharded warm
/// run over the merged cache — byte-identical artifacts, 100% hits.
#[test]
fn two_shard_cli_protocol_reproduces_single_process_artifacts() {
    let base = temp_base("protocol");
    let names = ["table1", "figure7", "figure12"];
    let single = base.join("single");
    let mut args = vec!["run"];
    args.extend(names);
    expect_ok(&[args.clone(), vec!["--jobs", "4", "--out", &p(&single)]].concat());

    for (index, jobs) in [("1", "1"), ("2", "8")] {
        let shard_args = [
            "--shard".to_string(),
            format!("{index}/2"),
            "--jobs".to_string(),
            jobs.to_string(),
            "--cache".to_string(),
            p(&base.join(format!("cache-{index}"))),
            "--out".to_string(),
            p(&base.join(format!("out-{index}"))),
        ];
        let all: Vec<&str> = args
            .iter()
            .copied()
            .chain(shard_args.iter().map(String::as_str))
            .collect();
        let (stdout, _) = expect_ok(&all);
        assert!(stdout.contains(&format!("shard {index}/2")), "{stdout}");
        assert!(
            base.join(format!("out-{index}/figure12.shard.json"))
                .exists(),
            "partial artifact missing"
        );
    }

    let merged_cache = base.join("merged-cache");
    let (stdout, _) = expect_ok(&[
        "cache",
        "merge",
        &p(&merged_cache),
        &p(&base.join("cache-1")),
        &p(&base.join("cache-2")),
    ]);
    assert!(stdout.contains("merged 2 source(s)"), "{stdout}");
    assert!(stdout.contains("0 invalid skipped"), "{stdout}");

    let merged_out = base.join("merged-out");
    let merged_cache_s = p(&merged_cache);
    let merged_out_s = p(&merged_out);
    let warm_args: Vec<&str> = args
        .iter()
        .copied()
        .chain(["--cache", &merged_cache_s, "--out", &merged_out_s])
        .collect();
    let (_, stderr) = expect_ok(&warm_args);
    assert!(stderr.contains("0 miss(es), 0 recomputed"), "{stderr}");
    assert!(!stderr.contains(" 0 hit(s)"), "{stderr}");

    for name in names {
        let file = format!("{name}.json");
        let a = std::fs::read(single.join(&file)).expect("single artifact");
        let b = std::fs::read(merged_out.join(&file)).expect("merged artifact");
        assert!(!a.is_empty());
        assert_eq!(a, b, "artifact '{file}' differs through the CLI protocol");
    }
    let _ = std::fs::remove_dir_all(&base);
}
