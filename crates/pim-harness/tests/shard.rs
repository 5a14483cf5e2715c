//! Cross-shard conformance suite: `run --shard I/N` must be an *execution*
//! strategy, never an *observable* one.
//!
//! The contract under test: N same-host shard runs over the same catalog and seed,
//! each into its own cache, followed by `cache merge` and one unsharded run over
//! the merged cache, produce artifact files **byte-identical** to a plain
//! single-process run — and the accounting proves no unit was computed twice
//! (shard executed-sets are disjoint), none was skipped (their union is exactly
//! the single-process cache population), and the merged-cache run recomputed
//! nothing (100% hits).

#![expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic on a failed setup step, which fails the calling test"
)]

use pim_harness::prelude::*;
use serde::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn temp_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pim-shard-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read_manifest(dir: &Path) -> Value {
    let text = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest exists");
    serde_json::value_from_str(&text).expect("manifest parses")
}

/// Sum one counter across the manifest's per-scenario cache block.
fn manifest_total(manifest: &Value, field: &str) -> u64 {
    let Some(Value::Seq(per)) = manifest.get("cache").and_then(|c| c.get("per_scenario")) else {
        panic!("manifest has no cache.per_scenario block");
    };
    per.iter()
        .map(|entry| entry.get(field).and_then(|v| v.as_f64()).expect(field) as u64)
        .sum()
}

/// The digests of the verified entries present in a cache directory.
fn cache_digests(cache_dir: &Path) -> BTreeSet<String> {
    cache_entries(cache_dir)
        .expect("cache directory lists")
        .into_iter()
        .filter(|e| e.verified.is_some())
        .map(|e| format!("{:032x}", e.digest))
        .collect()
}

/// The digests a shard run reports having executed, across all its scenarios.
fn executed_digests(outcome: &BatchOutcome) -> BTreeSet<String> {
    outcome
        .shard_scenarios
        .iter()
        .flat_map(|s| s.executed.iter().map(|u| u.digest.clone()))
        .collect()
}

/// The full catalog: every builtin plus every shipped preset spec.
fn full_registry() -> Registry {
    let specs_dir =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut registry = Registry::builtin();
    register_specs(&mut registry, load_specs(&specs_dir).expect("presets load"))
        .expect("presets register");
    registry
}

/// Run the whole N-shard protocol and verify every clause of the contract.
/// `shard_jobs[i]` is the `--jobs` value shard `i+1` runs with, so one pass can
/// cover several worker counts (claim order must never reach the partition).
fn check_sharded_protocol(registry: &Registry, names: &[&str], base: &Path, shard_jobs: &[usize]) {
    let count = shard_jobs.len() as u32;

    // Baseline: one ordinary single-process run, cold cache.
    let single_out = base.join("single");
    let single_cache = base.join("single-cache");
    let baseline = run_batch(
        registry,
        names,
        &BatchOptions {
            jobs: 8,
            out_dir: Some(single_out.clone()),
            cache_dir: Some(single_cache.clone()),
            ..Default::default()
        },
    )
    .expect("single-process batch runs");
    assert!(baseline.shard.is_none());
    let all_units = cache_digests(&single_cache);
    let units_total = all_units.len() as u64;
    assert!(units_total > 0);

    // N shard runs, each into its own cache and out dir, at its own job count.
    let shards: Vec<BatchOutcome> = shard_jobs
        .iter()
        .enumerate()
        .map(|(i, &jobs)| {
            let index = i as u32 + 1;
            run_batch(
                registry,
                names,
                &BatchOptions {
                    jobs,
                    out_dir: Some(base.join(format!("shard-{index}/out"))),
                    cache_dir: Some(base.join(format!("shard-{index}/cache"))),
                    shard: Some(ShardSpec::new(index, count).unwrap()),
                    ..Default::default()
                },
            )
            .expect("shard batch runs")
        })
        .collect();

    // Accounting, per shard: no reports, a manifest shard block, and — on a cold
    // per-shard cache — exactly one miss per executed unit.
    let mut executed_sets: Vec<BTreeSet<String>> = Vec::new();
    for (i, outcome) in shards.iter().enumerate() {
        let index = i as u32 + 1;
        assert!(
            outcome.reports.is_empty(),
            "shard {index} assembled reports"
        );
        let executed = executed_digests(outcome);
        let misses: u64 = outcome.cache_counts.iter().map(|c| c.misses).sum();
        assert_eq!(
            misses,
            executed.len() as u64,
            "shard {index}/{count}: cold shard must miss exactly its executed units"
        );
        let manifest = read_manifest(&base.join(format!("shard-{index}/out")));
        let block = manifest.get("shard").expect("manifest has a shard block");
        assert_eq!(block.get("index"), Some(&Value::U64(u64::from(index))));
        assert_eq!(block.get("count"), Some(&Value::U64(u64::from(count))));
        assert_eq!(manifest_total(&manifest, "misses"), misses);
        // The same ledger per scenario: each scenario's cold misses are its
        // executed units, in the outcome and in both manifest blocks.
        let Some(Value::Seq(cache_rows)) =
            manifest.get("cache").and_then(|c| c.get("per_scenario"))
        else {
            panic!("manifest has no cache.per_scenario block");
        };
        let Some(Value::Seq(shard_rows)) = block.get("per_scenario") else {
            panic!("manifest has no shard.per_scenario block");
        };
        assert_eq!(outcome.shard_scenarios.len(), names.len());
        assert_eq!(outcome.cache_counts.len(), names.len());
        assert_eq!(cache_rows.len(), names.len());
        assert_eq!(shard_rows.len(), names.len());
        for (i, scenario) in outcome.shard_scenarios.iter().enumerate() {
            let executed = scenario.executed.len() as u64;
            let what = format!("shard {index}/{count}, scenario '{}'", scenario.scenario);
            assert_eq!(outcome.cache_counts[i].misses, executed, "{what}");
            let executed = Some(Value::U64(executed));
            assert_eq!(cache_rows[i].get("misses"), executed.as_ref(), "{what}");
            assert_eq!(
                shard_rows[i].get("units_executed"),
                executed.as_ref(),
                "{what}"
            );
        }
        // The shard's cache holds exactly what it executed.
        assert_eq!(
            cache_digests(&base.join(format!("shard-{index}/cache"))),
            executed,
            "shard {index}/{count} cache content != its executed set"
        );
        executed_sets.push(executed);
    }

    // Disjointness: no unit computed twice across shards.
    for i in 0..executed_sets.len() {
        for j in i + 1..executed_sets.len() {
            let overlap: Vec<&String> = executed_sets[i].intersection(&executed_sets[j]).collect();
            assert!(
                overlap.is_empty(),
                "shards {}/{count} and {}/{count} both executed {} unit(s)",
                i + 1,
                j + 1,
                overlap.len()
            );
        }
    }
    // Coverage: the union is exactly the single-process unit population, so every
    // unit was computed exactly once across the N shards.
    let union: BTreeSet<String> = executed_sets.iter().flatten().cloned().collect();
    assert_eq!(union, all_units, "shards did not cover the sweep exactly");
    let executed_total: u64 = executed_sets.iter().map(|s| s.len() as u64).sum();
    assert_eq!(executed_total, units_total);
    // Both sides of the per-scenario ledger agree as well.
    for outcome in &shards {
        for (s, b) in outcome.shard_scenarios.iter().zip(&baseline.reports) {
            assert_eq!(s.scenario, b.scenario, "scenario order drifted");
        }
        let total: u64 = outcome.shard_scenarios.iter().map(|s| s.units_total).sum();
        assert_eq!(total, units_total, "shards disagree on the sweep size");
    }

    // Merge the shard caches and re-run unsharded over the merged cache.
    let merged_cache = base.join("merged-cache");
    let sources: Vec<PathBuf> = (1..=count)
        .map(|i| base.join(format!("shard-{i}/cache")))
        .collect();
    let merge = cache_merge(&merged_cache, &sources).expect("merge succeeds");
    assert_eq!(
        merge.copied, units_total,
        "merge copied a different unit count"
    );
    assert_eq!(merge.skipped_invalid, 0);
    assert_eq!(merge.entries_after, units_total);
    assert_eq!(cache_digests(&merged_cache), all_units);

    let merged_out = base.join("merged-out");
    let merged = run_batch(
        registry,
        names,
        &BatchOptions {
            jobs: 8,
            out_dir: Some(merged_out.clone()),
            cache_dir: Some(merged_cache.clone()),
            ..Default::default()
        },
    )
    .expect("merged-cache batch runs");
    // 100% hits: the merged cache recomputes nothing.
    let hits: u64 = merged.cache_counts.iter().map(|c| c.hits).sum();
    let misses: u64 = merged.cache_counts.iter().map(|c| c.misses).sum();
    let recomputed: u64 = merged.cache_counts.iter().map(|c| c.recomputed).sum();
    assert_eq!(
        (hits, misses, recomputed),
        (units_total, 0, 0),
        "merged-cache run was not all-hits"
    );

    // The headline clause: every artifact file byte-identical to the
    // single-process run. (The manifests legitimately differ — cold misses vs
    // warm hits — which is exactly why they are accounting, not artifacts.)
    for name in names {
        let file = format!("{name}.json");
        let a = std::fs::read(single_out.join(&file)).expect("baseline artifact exists");
        let b = std::fs::read(merged_out.join(&file)).expect("merged artifact exists");
        assert!(!a.is_empty());
        assert_eq!(
            a, b,
            "artifact '{file}' differs between single-process and sharded+merged runs"
        );
    }
}

/// Two shards over the full catalog (all builtins + all shipped preset specs),
/// one shard at `--jobs 1` and the other at `--jobs 8`, so byte-identity is
/// proven across worker counts in the same pass.
#[test]
fn two_shards_merge_to_byte_identical_artifacts() {
    let registry = full_registry();
    let names = registry.names();
    assert!(names.len() >= 20, "catalog shrank to {}", names.len());
    let base = temp_base("two");
    check_sharded_protocol(&registry, &names, &base, &[1, 8]);
    let _ = std::fs::remove_dir_all(&base);
}

/// Three shards over the builtin catalog: the protocol holds for N > 2 and for
/// scenarios whose unit counts do not divide N.
#[test]
fn three_shards_merge_to_byte_identical_artifacts() {
    let registry = Registry::builtin();
    let names = registry.names();
    let base = temp_base("three");
    check_sharded_protocol(&registry, &names, &base, &[2, 2, 2]);
    let _ = std::fs::remove_dir_all(&base);
}

/// Sharding every builtin individually: each scenario can be partitioned on its
/// own (every builtin keys all of its units), and a shard that owns zero units of
/// a small scenario still succeeds with an empty executed set.
#[test]
fn every_builtin_scenario_is_shardable() {
    let registry = Registry::builtin();
    let base = temp_base("each");
    for name in registry.names() {
        let outcome = run_batch(
            &registry,
            &[name],
            &BatchOptions {
                jobs: 2,
                cache_dir: Some(base.join("cache")),
                shard: Some(ShardSpec::new(1, 5).unwrap()),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("scenario '{name}' cannot be sharded: {e}"));
        assert_eq!(outcome.shard_scenarios.len(), 1);
        let s = &outcome.shard_scenarios[0];
        assert!(s.executed.len() as u64 <= s.units_total);
    }
    let _ = std::fs::remove_dir_all(&base);
}
