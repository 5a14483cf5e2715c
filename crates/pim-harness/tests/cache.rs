//! Incremental-execution suite: the unit-result cache must be *invisible* in the
//! artifacts and *visible* in the manifest and the wall clock.
//!
//! The core contract extends PR 3's determinism guarantee: a warm batch — every unit
//! served from the content-addressed cache — produces byte-identical artifact files
//! at any `--jobs` value, reports its hits in the schema-v2 manifest, and collapses
//! to assembly plus I/O (asserted here as ≥5× over the cold run; release builds
//! measure two to three orders of magnitude).

use pim_harness::prelude::*;
use serde::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn temp_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pim-cache-it-{tag}-{}", std::process::id()));
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

/// The acceptance contract of the incremental tentpole, on the full catalog
/// (every builtin plus every shipped preset spec):
///
/// 1. a cold `--all --jobs 8 --cache DIR` populates the cache (manifest v2 reports
///    all-miss, zero hits);
/// 2. warm runs at `--jobs 1` *and* `--jobs 8` serve every unit from the cache
///    (manifest reports all-hit, zero computed) — claim order and worker count do
///    not reach the cache key;
/// 3. every artifact file is byte-identical across the cold and both warm runs;
/// 4. the warm run is ≥5× faster than the cold run.
#[test]
fn warm_runs_are_byte_identical_fully_hit_and_at_least_5x_faster() {
    let specs_dir =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut registry = Registry::builtin();
    register_specs(&mut registry, load_specs(&specs_dir).expect("presets load"))
        .expect("presets register");
    let names = registry.names();
    assert!(names.len() >= 20, "catalog shrank to {}", names.len());

    let base = temp_base("warm");
    let cache_dir = base.join("cache");
    let run = |jobs: usize, sub: &str| {
        let out = base.join(sub);
        let start = Instant::now();
        let outcome = run_batch(
            &registry,
            &names,
            &BatchOptions {
                jobs,
                out_dir: Some(out.clone()),
                cache_dir: Some(cache_dir.clone()),
                ..Default::default()
            },
        )
        .expect("cached batch runs");
        assert!(outcome.cache_enabled);
        (out, start.elapsed().as_secs_f64())
    };

    let (cold, cold_secs) = run(8, "cold");
    let (warm1, _) = run(1, "warm1");
    let (warm8, warm_secs) = run(8, "warm8");

    // (1) Cold: all units computed, none served.
    let cold_manifest = read_manifest(&cold);
    assert_eq!(manifest_total(&cold_manifest, "hits"), 0);
    assert_eq!(manifest_total(&cold_manifest, "recomputed"), 0);
    let units = manifest_total(&cold_manifest, "misses");
    assert!(
        units > 500,
        "expected the full catalog's units, got {units}"
    );

    // (2) Warm at both job counts: every unit served, none computed.
    for dir in [&warm1, &warm8] {
        let manifest = read_manifest(dir);
        assert_eq!(manifest_total(&manifest, "hits"), units);
        assert_eq!(manifest_total(&manifest, "misses"), 0);
        assert_eq!(manifest_total(&manifest, "recomputed"), 0);
    }
    // Identical cache state and jobs-independent accounting: the two warm
    // manifests are byte-identical, counts included.
    assert_eq!(
        std::fs::read(warm1.join("manifest.json")).unwrap(),
        std::fs::read(warm8.join("manifest.json")).unwrap(),
        "warm manifests differ between --jobs 1 and --jobs 8"
    );

    // (3) Every artifact byte-identical across cold and warm runs.
    for name in &names {
        let file = format!("{name}.json");
        let a = std::fs::read(cold.join(&file)).expect("cold artifact exists");
        assert!(!a.is_empty());
        for warm in [&warm1, &warm8] {
            let b = std::fs::read(warm.join(&file)).expect("warm artifact exists");
            assert_eq!(a, b, "artifact '{file}' differs between cold and warm runs");
        }
    }

    // (4) A warm batch is assembly + I/O. 5× is the acceptance floor; the release
    // binary measures 100×+, so this cannot flake on a loaded CI box.
    assert!(
        cold_secs >= 5.0 * warm_secs,
        "warm run not ≥5x faster: cold {cold_secs:.3}s vs warm {warm_secs:.3}s"
    );

    let _ = std::fs::remove_dir_all(&base);
}

/// Corrupt cache entries — bit-flipped or replaced with garbage — must be detected
/// by the checksum/shape verification, evicted, and recomputed; a frame cut short
/// at the end of its segment (a crash mid-append) reads as never written. The
/// artifacts stay byte-identical to the cold run and the manifest reports the
/// recomputations; a third run hits everything again (the damaged entries were
/// re-stored).
#[test]
fn corrupt_entries_are_detected_evicted_and_recomputed() {
    let registry = Registry::builtin();
    let names = ["table1", "figure7", "ablation_nb", "bandwidth_claims"];
    let base = temp_base("corrupt");
    let cache_dir = base.join("cache");
    let run = |sub: &str| {
        let out = base.join(sub);
        run_batch(
            &registry,
            &names,
            &BatchOptions {
                jobs: 2,
                out_dir: Some(out.clone()),
                cache_dir: Some(cache_dir.clone()),
                ..Default::default()
            },
        )
        .expect("cached batch runs");
        out
    };
    let cold = run("cold");

    // Damage three entries a different way: a flipped payload byte, a document
    // replaced by garbage, and truncation of the segment's last frame.
    let entries = cache_entries(&cache_dir).expect("cache lists");
    assert_eq!(
        entries.len(),
        names.len(),
        "one entry per single-unit scenario"
    );
    assert!(
        entries.iter().all(|e| e.segment == entries[0].segment),
        "one writer, one segment"
    );
    let segment = &entries[0].segment;
    let mut bytes = std::fs::read(segment).unwrap();
    let flip = |e: &CacheEntry| (e.frame.end - e.text.len() as u64 / 4) as usize;
    bytes[flip(&entries[0])] ^= 0x01;
    let garbage = entries[1].frame.end as usize - entries[1].text.len();
    for (i, byte) in bytes[garbage..entries[1].frame.end as usize]
        .iter_mut()
        .enumerate()
    {
        *byte = b"not json at all "[i % 16];
    }
    let torn = &entries[3].frame;
    bytes.truncate(((torn.start + torn.end) / 2) as usize);
    std::fs::write(segment, &bytes).unwrap();

    let warm = run("warm");
    let manifest = read_manifest(&warm);
    assert_eq!(manifest_total(&manifest, "recomputed"), 2);
    assert_eq!(manifest_total(&manifest, "hits"), 1);
    assert_eq!(manifest_total(&manifest, "misses"), 1, "the torn frame");

    // Corruption never reaches the artifacts.
    for name in names {
        let file = format!("{name}.json");
        assert_eq!(
            std::fs::read(cold.join(&file)).unwrap(),
            std::fs::read(warm.join(&file)).unwrap(),
            "artifact '{file}' poisoned by a corrupt cache entry"
        );
    }

    // The evicted entries were re-stored: everything hits again.
    let third = run("third");
    let manifest = read_manifest(&third);
    assert_eq!(manifest_total(&manifest, "hits"), names.len() as u64);
    assert_eq!(manifest_total(&manifest, "recomputed"), 0);

    let _ = std::fs::remove_dir_all(&base);
}

/// `--no-cache` semantics at the library layer: the same batch without a cache
/// directory computes everything and reports a disabled cache block in the manifest.
#[test]
fn uncached_batch_reports_disabled_cache_block() {
    let registry = Registry::builtin();
    let base = temp_base("disabled");
    let outcome = run_batch(
        &registry,
        &["table1"],
        &BatchOptions {
            jobs: 1,
            out_dir: Some(base.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(!outcome.cache_enabled);
    let manifest = read_manifest(&base);
    assert_eq!(
        manifest.get("cache").and_then(|c| c.get("enabled")),
        Some(&Value::Bool(false))
    );
    assert_eq!(manifest_total(&manifest, "hits"), 0);
    assert_eq!(manifest_total(&manifest, "misses"), 0);
    let _ = std::fs::remove_dir_all(&base);
}
