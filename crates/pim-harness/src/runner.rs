//! The parallel batch runner: execute any subset of the registry across OS threads
//! and write versioned JSON artifacts.
//!
//! The runner schedules at **unit-of-work granularity**: every requested scenario is
//! decomposed via [`crate::scenario::Scenario::plan`] and the flattened unit list
//! (grid points, replications, cells) is executed by the work-stealing pool in
//! [`crate::exec`]. A batch therefore finishes when the global point list drains,
//! not when the slowest whole scenario happens to complete on one worker.
//!
//! Every scenario's seed comes from [`SeedPolicy::scenario_seed`] (a pure function of
//! base seed + name), each unit's stream is derived from that seed plus the unit's
//! grid index, and outputs are assembled by input position — so the artifacts are
//! byte-identical whatever the job count or completion order.
//!
//! With [`BatchOptions::cache_dir`] set, the batch runs **incrementally**: workers
//! consult the content-addressed unit-result cache ([`crate::cache`]) before running
//! each unit and store results back on completion. A warm batch therefore collapses
//! to assembly plus I/O while producing byte-identical artifacts; the manifest
//! (schema v3) records per-scenario hit/miss/recomputed counts.
//!
//! With [`BatchOptions::shard`] set, the batch runs **sharded**: only the units the
//! shard owns under the [`crate::shard`] partition execute, no reports assemble, and
//! the manifest's `shard` block plus per-scenario `<scenario>.shard.json` partial
//! artifacts record exactly which units this process computed. After `cache merge`
//! reunites the shard caches, an unsharded run over the merged cache is all-hits and
//! emits the complete artifacts, byte-identical to a single-process run.

use crate::cache::{ensure_writable_dir, io_err, CacheCounts, UnitCache};
use crate::registry::Registry;
use crate::report::ScenarioReport;
use crate::scenario::SeedPolicy;
use crate::shard::{ShardScenario, ShardSpec};
use serde::Value;
use std::path::{Path, PathBuf};

/// Options for one batch run. The default runs with one worker per core at the
/// [`SeedPolicy::default`] base seed, writes nothing, uses no cache, and is
/// unsharded.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Seed policy shared by every scenario in the batch.
    pub seeds: SeedPolicy,
    /// When set, each report is written to `<out_dir>/<scenario>.json` plus a
    /// `manifest.json` naming the batch (sharded runs write
    /// `<scenario>.shard.json` partial artifacts instead of reports).
    pub out_dir: Option<PathBuf>,
    /// When set, unit results are served from and stored to the content-addressed
    /// cache at this directory (created on first use).
    pub cache_dir: Option<PathBuf>,
    /// When set, execute only the units this shard owns under the deterministic
    /// [`crate::cache::UnitKey`]-digest partition (see [`crate::shard`]): no
    /// reports are assembled, and results meet the other shards in the cache.
    /// Requires `cache_dir` or `out_dir` — a sharded run with neither would
    /// discard everything it computes.
    pub shard: Option<ShardSpec>,
}

/// The result of a batch run.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One report per requested scenario, in request order. Empty for sharded
    /// runs, which never assemble reports (see [`BatchOptions::shard`]).
    pub reports: Vec<ScenarioReport>,
    /// Per-scenario cache accounting, in request order (all zero when no cache
    /// directory was configured; owned units only for sharded runs).
    pub cache_counts: Vec<CacheCounts>,
    /// Whether a unit cache was consulted.
    pub cache_enabled: bool,
    /// Paths written (artifacts then manifest), empty when no `out_dir` was given.
    pub written: Vec<PathBuf>,
    /// The shard this batch executed as, `None` for ordinary (unsharded) runs.
    pub shard: Option<ShardSpec>,
    /// Per-scenario partition accounting, in request order. Empty for unsharded
    /// runs.
    pub shard_scenarios: Vec<ShardScenario>,
}

/// Resolve requested scenario names against the registry, preserving request order
/// and rejecting unknowns and duplicates with a helpful message.
pub fn resolve_names<'r, S: AsRef<str>>(
    registry: &'r Registry,
    requested: &[S],
) -> Result<Vec<&'r str>, String> {
    let mut out: Vec<&str> = Vec::with_capacity(requested.len());
    for name in requested {
        let name = name.as_ref();
        let Some(s) = registry.get(name) else {
            return Err(format!(
                "unknown scenario '{}'; available: {}",
                name,
                registry.names().join(", ")
            ));
        };
        if out.contains(&s.name()) {
            return Err(format!("scenario '{name}' requested twice"));
        }
        out.push(s.name());
    }
    if out.is_empty() {
        return Err("no scenarios requested".into());
    }
    Ok(out)
}

/// Run `names` (already validated, e.g. via [`resolve_names`]) under `opts`.
///
/// Every scenario is decomposed into its plan's units, and the flattened unit list
/// executes across up to `opts.jobs` work-stealing workers; reports come back in the
/// order of `names` and, when `opts.out_dir` is set, are written as JSON artifacts.
///
/// Output and cache directories are probed for writability **before** any unit
/// runs, so a bad `--out`/`--cache` fails fast instead of erroring mid-batch.
pub fn run_batch<S: AsRef<str>>(
    registry: &Registry,
    names: &[S],
    opts: &BatchOptions,
) -> Result<BatchOutcome, String> {
    let names = resolve_names(registry, names)?;
    if let Some(dir) = &opts.out_dir {
        ensure_writable_dir(dir)?;
    }
    let cache = match &opts.cache_dir {
        Some(dir) => Some(UnitCache::open(dir)?),
        None => None,
    };
    if let Some(shard) = &opts.shard {
        if opts.cache_dir.is_none() && opts.out_dir.is_none() {
            return Err(format!(
                "--shard {shard} without --cache or --out would discard every unit \
                 result it computes; give the shard a cache directory (or at least \
                 an output directory for its partial artifacts)"
            ));
        }
    }
    let plans: Vec<_> = names
        .iter()
        .map(|name| {
            registry
                .get(name)
                // audit:allow(unwrap-in-library): resolve_names returned only names this registry contains
                .expect("names were resolved against this registry")
                .plan(&opts.seeds)
        })
        .collect();

    // A batch is one client of the unit scheduler: it constructs a pool, runs its
    // plans, and lets the pool die with the call. The `serve` daemon is the other
    // client — same scheduler, but kept alive across requests.
    let pool = crate::exec::UnitPool::new(opts.jobs);
    if let Some(shard) = opts.shard {
        // Partitioning needs a digest per unit, so every unit must carry a cache
        // key. Check before executing anything, naming the offending scenario
        // (the executor's own guard only knows plan positions).
        for (name, plan) in names.iter().zip(&plans) {
            if plan.cacheable_unit_count() != plan.unit_count() {
                return Err(format!(
                    "scenario '{name}' has units without cache keys and cannot be \
                     sharded; run it unsharded instead"
                ));
            }
        }
        let outcomes = pool.run_plans_shard(plans, cache.as_ref(), &shard)?;
        let mut cache_counts = Vec::with_capacity(outcomes.len());
        let mut shard_scenarios = Vec::with_capacity(outcomes.len());
        for (name, outcome) in names.iter().zip(outcomes) {
            cache_counts.push(outcome.cache);
            shard_scenarios.push(ShardScenario {
                scenario: (*name).to_string(),
                units_total: outcome.units_total,
                executed: outcome.executed,
            });
        }
        let written = match &opts.out_dir {
            Some(dir) => write_shard_artifacts(
                dir,
                &opts.seeds,
                &shard,
                &shard_scenarios,
                cache.is_some(),
                &cache_counts,
            )?,
            None => Vec::new(),
        };
        return Ok(BatchOutcome {
            reports: Vec::new(),
            cache_counts,
            cache_enabled: cache.is_some(),
            written,
            shard: Some(shard),
            shard_scenarios,
        });
    }

    let outcomes = pool.run_plans_cached(plans, cache.as_ref())?;
    let mut reports = Vec::with_capacity(outcomes.len());
    let mut cache_counts = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        reports.push(outcome.report);
        cache_counts.push(outcome.cache);
    }

    let written = match &opts.out_dir {
        Some(dir) => write_artifacts(dir, &opts.seeds, &reports, cache.is_some(), &cache_counts)?,
        None => Vec::new(),
    };
    Ok(BatchOutcome {
        reports,
        cache_counts,
        cache_enabled: cache.is_some(),
        written,
        shard: None,
        shard_scenarios: Vec::new(),
    })
}

/// Render the manifest (schema v3) for an unsharded batch: batch identity, a
/// `shard` block (always present, `null` here), and the cache accounting block.
/// `Err` only on a serialization failure, which the writer never produces for
/// this tree; callers propagate it anyway so a future fallible writer cannot
/// silently panic a batch.
pub fn manifest_json(
    seeds: &SeedPolicy,
    reports: &[ScenarioReport],
    cache_enabled: bool,
    cache_counts: &[CacheCounts],
) -> Result<String, String> {
    assert_eq!(
        reports.len(),
        cache_counts.len(),
        "one cache-count record per report"
    );
    let names: Vec<String> = reports.iter().map(|r| r.scenario.clone()).collect();
    render_manifest(seeds, &names, Value::Null, cache_enabled, cache_counts)
}

/// Render the manifest (schema v3) for a sharded batch: like [`manifest_json`]
/// but the `shard` block carries the partition (`index`, `count`) and each
/// scenario's total vs executed unit counts — the accounting the cross-shard
/// conformance suite sums to prove every unit ran exactly once.
pub fn shard_manifest_json(
    seeds: &SeedPolicy,
    shard: &ShardSpec,
    scenarios: &[ShardScenario],
    cache_enabled: bool,
    cache_counts: &[CacheCounts],
) -> Result<String, String> {
    assert_eq!(
        scenarios.len(),
        cache_counts.len(),
        "one cache-count record per scenario"
    );
    let per_scenario = scenarios
        .iter()
        .map(|s| {
            Value::Map(vec![
                ("scenario".into(), Value::Str(s.scenario.clone())),
                ("units_total".into(), Value::U64(s.units_total)),
                ("units_executed".into(), Value::U64(s.executed.len() as u64)),
            ])
        })
        .collect();
    let block = Value::Map(vec![
        ("index".into(), Value::U64(u64::from(shard.index()))),
        ("count".into(), Value::U64(u64::from(shard.count()))),
        ("per_scenario".into(), Value::Seq(per_scenario)),
    ]);
    let names: Vec<String> = scenarios.iter().map(|s| s.scenario.clone()).collect();
    render_manifest(seeds, &names, block, cache_enabled, cache_counts)
}

/// The shared manifest skeleton: schema version, batch identity, the `shard`
/// block (`Value::Null` for unsharded batches), and per-scenario cache counts.
fn render_manifest(
    seeds: &SeedPolicy,
    scenario_names: &[String],
    shard: Value,
    cache_enabled: bool,
    cache_counts: &[CacheCounts],
) -> Result<String, String> {
    let per_scenario = scenario_names
        .iter()
        .zip(cache_counts)
        .map(|(name, c)| {
            Value::Map(vec![
                ("scenario".into(), Value::Str(name.clone())),
                ("hits".into(), Value::U64(c.hits)),
                ("misses".into(), Value::U64(c.misses)),
                ("recomputed".into(), Value::U64(c.recomputed)),
            ])
        })
        .collect();
    let manifest = Value::Map(vec![
        (
            "schema_version".into(),
            Value::U64(u64::from(crate::report::MANIFEST_SCHEMA_VERSION)),
        ),
        ("base_seed".into(), Value::U64(seeds.base_seed)),
        (
            "scenarios".into(),
            Value::Seq(
                scenario_names
                    .iter()
                    .map(|name| Value::Str(name.clone()))
                    .collect(),
            ),
        ),
        ("shard".into(), shard),
        (
            "cache".into(),
            Value::Map(vec![
                ("enabled".into(), Value::Bool(cache_enabled)),
                ("per_scenario".into(), Value::Seq(per_scenario)),
            ]),
        ),
    ]);
    let mut json =
        serde_json::to_string_pretty(&manifest).map_err(|e| format!("serialize manifest: {e}"))?;
    json.push('\n');
    Ok(json)
}

/// Write each report to `<dir>/<scenario>.json` plus a `manifest.json`. The artifact
/// files are a pure function of the reports, so repeated batches produce
/// byte-identical files; the manifest additionally records the batch's cache
/// accounting (all-miss on a cold cache, all-hit on a warm one).
pub fn write_artifacts(
    dir: &Path,
    seeds: &SeedPolicy,
    reports: &[ScenarioReport],
    cache_enabled: bool,
    cache_counts: &[CacheCounts],
) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| io_err("create directory", dir, &e))?;
    let mut written = Vec::with_capacity(reports.len() + 1);
    for report in reports {
        let path = dir.join(format!("{}.json", report.scenario));
        std::fs::write(&path, report.to_json()).map_err(|e| io_err("write artifact", &path, &e))?;
        written.push(path);
    }
    let path = dir.join("manifest.json");
    let manifest = manifest_json(seeds, reports, cache_enabled, cache_counts)?;
    std::fs::write(&path, manifest).map_err(|e| io_err("write manifest", &path, &e))?;
    written.push(path);
    Ok(written)
}

/// Write a sharded batch's partial artifacts: one `<scenario>.shard.json` per
/// scenario (executed units' indices and digests — see
/// [`ShardScenario::artifact_json`]) plus a `manifest.json` whose `shard` block
/// records the partition. The `.shard` infix keeps partial artifacts from ever
/// colliding with (or being mistaken for) the complete `<scenario>.json` reports
/// an unsharded run writes.
pub fn write_shard_artifacts(
    dir: &Path,
    seeds: &SeedPolicy,
    shard: &ShardSpec,
    scenarios: &[ShardScenario],
    cache_enabled: bool,
    cache_counts: &[CacheCounts],
) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| io_err("create directory", dir, &e))?;
    let mut written = Vec::with_capacity(scenarios.len() + 1);
    for scenario in scenarios {
        let path = dir.join(format!("{}.shard.json", scenario.scenario));
        std::fs::write(&path, scenario.artifact_json(shard)?)
            .map_err(|e| io_err("write shard artifact", &path, &e))?;
        written.push(path);
    }
    let path = dir.join("manifest.json");
    let manifest = shard_manifest_json(seeds, shard, scenarios, cache_enabled, cache_counts)?;
    std::fs::write(&path, manifest).map_err(|e| io_err("write manifest", &path, &e))?;
    written.push(path);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_rejects_unknown_and_duplicate_names() {
        let r = Registry::builtin();
        assert!(resolve_names(&r, &["figure99"])
            .unwrap_err()
            .contains("unknown scenario"));
        assert!(resolve_names(&r, &["table1", "table1"])
            .unwrap_err()
            .contains("twice"));
        assert!(resolve_names::<&str>(&r, &[]).is_err());
        assert_eq!(resolve_names(&r, &["table1", "figure7"]).unwrap().len(), 2);
    }

    #[test]
    fn batch_preserves_request_order() {
        let r = Registry::builtin();
        let out = run_batch(
            &r,
            &["figure7", "table1", "ablation_nb"],
            &BatchOptions {
                jobs: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let order: Vec<&str> = out.reports.iter().map(|r| r.scenario.as_str()).collect();
        assert_eq!(order, vec!["figure7", "table1", "ablation_nb"]);
        assert!(out.written.is_empty());
        assert!(!out.cache_enabled);
        assert_eq!(out.cache_counts, vec![CacheCounts::default(); 3]);
    }

    #[test]
    fn artifacts_are_written_and_byte_stable() {
        let r = Registry::builtin();
        let dir =
            std::env::temp_dir().join(format!("pim-harness-runner-test-{}", std::process::id()));
        let names = ["table1", "figure7"];
        let run = |jobs: usize, sub: &str| {
            let out = dir.join(sub);
            run_batch(
                &r,
                &names,
                &BatchOptions {
                    jobs,
                    out_dir: Some(out.clone()),
                    ..Default::default()
                },
            )
            .unwrap();
            out
        };
        let a = run(1, "a");
        let b = run(2, "b");
        for file in ["table1.json", "figure7.json", "manifest.json"] {
            let fa = std::fs::read_to_string(a.join(file)).unwrap();
            let fb = std::fs::read_to_string(b.join(file)).unwrap();
            assert_eq!(fa, fb, "{file} differs between jobs=1 and jobs=2");
            assert!(!fa.is_empty());
        }
        let manifest = std::fs::read_to_string(a.join("manifest.json")).unwrap();
        assert!(manifest.contains("\"scenarios\""));
        assert!(manifest.contains("\"cache\""));
        assert!(manifest.contains("\"schema_version\": 3"));
        // Unsharded batches still render the shard block, as null.
        assert!(manifest.contains("\"shard\": null"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_run_requires_a_cache_or_out_dir() {
        let r = Registry::builtin();
        let err = run_batch(
            &r,
            &["table1"],
            &BatchOptions {
                shard: Some(ShardSpec::new(1, 2).unwrap()),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(
            err.contains("--shard 1/2 without --cache or --out"),
            "{err}"
        );
    }

    #[test]
    fn sharded_run_executes_only_owned_units_and_writes_partial_artifacts() {
        let r = Registry::builtin();
        let base = std::env::temp_dir().join(format!("pim-runner-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let names = ["figure7", "figure12"];
        let shards: Vec<BatchOutcome> = (1..=2u32)
            .map(|i| {
                run_batch(
                    &r,
                    &names,
                    &BatchOptions {
                        jobs: 2,
                        cache_dir: Some(base.join("cache")),
                        out_dir: Some(base.join(format!("out-{i}"))),
                        shard: Some(ShardSpec::new(i, 2).unwrap()),
                        ..Default::default()
                    },
                )
                .unwrap()
            })
            .collect();
        for (i, out) in shards.iter().enumerate() {
            assert!(out.reports.is_empty(), "sharded runs assemble no reports");
            assert_eq!(out.shard_scenarios.len(), 2);
            assert_eq!(out.shard.unwrap().index() as usize, i + 1);
            // Partial artifacts + manifest, never full reports.
            let dir = base.join(format!("out-{}", i + 1));
            assert!(dir.join("figure7.shard.json").exists());
            assert!(dir.join("figure12.shard.json").exists());
            assert!(!dir.join("figure7.json").exists());
            let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
            assert!(manifest.contains("\"shard\": {"), "{manifest}");
            assert!(manifest.contains("\"count\": 2"));
            assert!(manifest.contains("\"units_executed\""));
        }
        // The two shards partition every scenario exactly: counts sum to the
        // total, and both shards agree on each scenario's total.
        for (a, b) in shards[0]
            .shard_scenarios
            .iter()
            .zip(&shards[1].shard_scenarios)
        {
            assert_eq!(a.units_total, b.units_total);
            assert_eq!(
                a.executed.len() as u64 + b.executed.len() as u64,
                a.units_total,
                "scenario '{}' not partitioned exactly",
                a.scenario
            );
        }
        // Both shards fed one cache: a warm unsharded run over it is all-hits
        // and produces complete artifacts.
        let merged = run_batch(
            &r,
            &names,
            &BatchOptions {
                jobs: 2,
                cache_dir: Some(base.join("cache")),
                out_dir: Some(base.join("out-merged")),
                ..Default::default()
            },
        )
        .unwrap();
        for counts in &merged.cache_counts {
            assert_eq!(counts.misses, 0, "warm run after sharding recomputed units");
            assert_eq!(counts.recomputed, 0);
        }
        assert!(base.join("out-merged").join("figure7.json").exists());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn unwritable_out_dir_fails_before_any_unit_runs() {
        let r = Registry::builtin();
        let dir = std::env::temp_dir().join(format!("pim-runner-badout-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("file");
        std::fs::write(&blocker, "x").unwrap();
        // `--out` under a regular file can never be created — even for root, so the
        // test holds in privileged CI containers.
        let err = run_batch(
            &r,
            &["table1"],
            &BatchOptions {
                out_dir: Some(blocker.join("sub")),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("cannot create directory"), "{err}");
        assert!(err.contains("file"), "{err}");
        // Same contract for the cache directory.
        let err = run_batch(
            &r,
            &["table1"],
            &BatchOptions {
                cache_dir: Some(blocker.join("cache")),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("cannot create directory"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
