//! Property suite for the unit-result cache's key derivation (vendored proptest,
//! pinned seeds — the same deterministic harness as `spec_properties.rs`).
//!
//! Three families of properties:
//!
//! 1. **Stability & distinctness** — a [`UnitKey`] digest is a pure function of its
//!    fields; keys differ whenever base seeds, grid indices, replication indices,
//!    scenario names or fingerprints differ.
//! 2. **Claim-order independence** — the set of cache entries a batch writes is
//!    identical at `--jobs 1` and `--jobs 8`: worker count and steal order never
//!    reach the key derivation or the entry contents.
//! 3. **Spec sensitivity** — any single-field edit to a scenario spec (an axis
//!    value, a fraction, the model family, the replication count, the seed mode)
//!    changes the spec fingerprint, re-addressing every unit; invalid edits are
//!    rejected at parse time and never reach fingerprinting at all.
//! 4. **Damage tolerance** — a mangled segment never panics a reader or a
//!    maintenance pass and never serves a wrong payload.

#![expect(
    clippy::expect_used,
    reason = "helpers outside #[test] fns panic on a failed setup step, which fails the calling test"
)]

use pim_harness::cache::CacheLookup;
use pim_harness::prelude::*;
use pim_harness::spec::parse_spec;
use proptest::prelude::*;
use serde::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn key(scenario: &str, config: &Value, seed: u64, grid: usize, rep: usize) -> UnitKey {
    UnitKeyer::new(scenario, config, seed).key(grid, rep)
}

proptest! {
    /// Same fields, same digest — whatever order keys are minted in.
    #[test]
    fn digests_are_pure_functions_of_the_fields(
        seed in 0u64..1_000_000,
        grid in 0usize..4_096,
        rep in 0usize..64,
    ) {
        let config = Value::Map(vec![("x".into(), Value::U64(seed))]);
        let a = key("scenario", &config, seed, grid, rep);
        // Mint a decoy in between: keyers share no mutable state.
        let _ = key("other", &Value::Null, seed ^ 1, grid + 1, rep + 1);
        let b = key("scenario", &config, seed, grid, rep);
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a, b);
    }

    /// Distinct base seeds, grid indices or replication indices always produce
    /// distinct digests (the cache can never serve one unit's result for another).
    #[test]
    fn distinct_fields_produce_distinct_digests(
        seed_a in 0u64..1_000_000,
        seed_delta in 1u64..1_000,
        grid_a in 0usize..2_048,
        grid_delta in 1usize..100,
        rep_a in 0usize..32,
        rep_delta in 1usize..32,
    ) {
        let config = Value::Map(vec![]);
        let base = key("s", &config, seed_a, grid_a, rep_a);
        prop_assert_ne!(
            base.digest(),
            key("s", &config, seed_a + seed_delta, grid_a, rep_a).digest()
        );
        prop_assert_ne!(
            base.digest(),
            key("s", &config, seed_a, grid_a + grid_delta, rep_a).digest()
        );
        prop_assert_ne!(
            base.digest(),
            key("s", &config, seed_a, grid_a, rep_a + rep_delta).digest()
        );
        prop_assert_ne!(base.digest(), key("t", &config, seed_a, grid_a, rep_a).digest());
    }

    /// Any change to the config tree changes the fingerprint and hence the digest.
    #[test]
    fn config_edits_change_the_fingerprint(
        nodes in 1u64..512,
        delta in 1u64..512,
        fraction in 0.0f64..1.0,
    ) {
        let config = |n: u64, f: f64| {
            Value::Map(vec![
                ("node_counts".into(), Value::Seq(vec![Value::U64(n)])),
                ("remote_fraction".into(), Value::F64(f)),
            ])
        };
        let base = key("s", &config(nodes, fraction), 1, 0, 0);
        let widened = key("s", &config(nodes + delta, fraction), 1, 0, 0);
        prop_assert_ne!(base.digest(), widened.digest());
        let nudged = key("s", &config(nodes, fraction + 1.5), 1, 0, 0);
        prop_assert_ne!(base.digest(), nudged.digest());
    }

    /// Spec-level sensitivity: editing an axis value, a fraction, the replication
    /// count or the seed changes `ScenarioSpec::fingerprint`; editing the family
    /// does too (here: the same grid under `parcels` vs a rejected family tag).
    #[test]
    fn single_field_spec_edits_change_the_fingerprint(
        nodes in 1usize..256,
        delta in 1usize..256,
        fraction in 0.0f64..0.5,
        nudge in 0.01f64..0.5,
        reps in 1usize..8,
    ) {
        let spec_json = |n: usize, f: f64, reps: usize, seed: &str| format!(
            r#"{{
                "schema_version": 1,
                "name": "prop_spec",
                "description": "cache property spec",
                "model": "parcels",
                "replications": {reps},
                "seed": {seed},
                "grid": {{
                    "node_counts": [{n}],
                    "parallelisms": [4],
                    "latencies": [100.0],
                    "remote_fractions": [{f:?}]
                }}
            }}"#
        );
        let base = parse_spec(&spec_json(nodes, fraction, reps, "\"derived\"")).unwrap();
        let fp = base.fingerprint();
        // Same spec re-parsed: same fingerprint (it is content-addressed, not
        // identity-addressed).
        prop_assert_eq!(
            &fp,
            &parse_spec(&spec_json(nodes, fraction, reps, "\"derived\"")).unwrap().fingerprint()
        );
        // Axis value widened.
        let widened = parse_spec(&spec_json(nodes + delta, fraction, reps, "\"derived\"")).unwrap();
        prop_assert_ne!(&fp, &widened.fingerprint());
        // Fraction nudged.
        let nudged = parse_spec(&spec_json(nodes, fraction + nudge, reps, "\"derived\"")).unwrap();
        prop_assert_ne!(&fp, &nudged.fingerprint());
        // Replications changed.
        let replicated = parse_spec(&spec_json(nodes, fraction, reps + 1, "\"derived\"")).unwrap();
        prop_assert_ne!(&fp, &replicated.fingerprint());
        // Seed mode changed.
        let fixed = parse_spec(&spec_json(nodes, fraction, reps, "{\"fixed\": 7}")).unwrap();
        prop_assert_ne!(&fp, &fixed.fingerprint());
    }

    /// Rejection: an invalid edit (empty axis, unknown family) fails at parse time —
    /// there is no such thing as a fingerprint for a spec the runner would refuse.
    #[test]
    fn invalid_spec_edits_are_rejected_before_fingerprinting(tag in 0u64..1_000) {
        let empty_axis = r#"{
            "schema_version": 1, "name": "x", "description": "d", "model": "parcels",
            "grid": {"node_counts": [], "parallelisms": [4], "latencies": [100.0],
                     "remote_fractions": [0.4]}
        }"#;
        prop_assert!(parse_spec(empty_axis).is_err());
        let bad_family = format!(
            r#"{{
                "schema_version": 1, "name": "x", "description": "d",
                "model": "family{tag}",
                "grid": {{"node_counts": [2], "parallelisms": [4], "latencies": [100.0],
                          "remote_fractions": [0.4]}}
            }}"#
        );
        prop_assert!(parse_spec(&bad_family).is_err());
    }
}

/// The family edit, concretely: an analytic and a parcels spec sharing every common
/// field still fingerprint differently.
#[test]
fn family_change_changes_the_fingerprint() {
    let parcels = parse_spec(
        r#"{
            "schema_version": 1, "name": "fam", "description": "d", "model": "parcels",
            "grid": {"node_counts": [4], "parallelisms": [4], "latencies": [100.0],
                     "remote_fractions": [0.4]}
        }"#,
    )
    .unwrap();
    let analytic = parse_spec(
        r#"{
            "schema_version": 1, "name": "fam", "description": "d", "model": "analytic",
            "grid": {"node_counts": [4], "lwp_fractions": [0.4]}
        }"#,
    )
    .unwrap();
    assert_ne!(parcels.fingerprint(), analytic.fingerprint());
}

/// Claim-order independence, end to end: the entries a cold batch writes —
/// digests and document bytes — are identical whether one worker runs every unit in
/// order or eight workers steal them in arbitrary interleavings. Segment bytes
/// follow completion order, so the comparison is over the set of entries.
#[test]
fn cache_entry_files_are_independent_of_job_count() {
    let registry = Registry::builtin();
    // A mix of multi-unit scenarios so stealing actually interleaves.
    let names = ["figure7", "ablation_network", "ablation_imbalance"];
    let base = std::env::temp_dir().join(format!("pim-cache-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let run = |jobs: usize, sub: &str| {
        let cache = base.join(sub);
        run_batch(
            &registry,
            &names,
            &BatchOptions {
                jobs,
                cache_dir: Some(cache.clone()),
                ..Default::default()
            },
        )
        .expect("cached batch runs");
        cache
    };
    let serial = run(1, "jobs1");
    let parallel = run(8, "jobs8");
    let listing = |cache: &Path| -> BTreeSet<(u128, String)> {
        let entries = cache_entries(cache).expect("cache lists");
        assert!(entries.iter().all(|e| e.verified.is_some()));
        entries.into_iter().map(|e| (e.digest, e.text)).collect()
    };
    let a = listing(&serial);
    let b = listing(&parallel);
    assert!(
        a.len() >= 1 + 6 + 27,
        "expected every unit persisted, got {}",
        a.len()
    );
    assert_eq!(a, b, "cache entries differ between --jobs 1 and --jobs 8");
    let _ = std::fs::remove_dir_all(&base);
}

/// A fresh directory per generated case.
fn case_dir(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pim-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mangle_payload(i: usize) -> Value {
    Value::Seq(vec![Value::U64(i as u64), Value::F64(i as f64 / 3.0)])
}

/// `entry`'s frame re-filed under `digest`: the header's digest bytes replaced,
/// the document kept.
fn refiled(segment: &[u8], entry: &CacheEntry, digest: u128) -> Vec<u8> {
    let mut frame = segment[entry.frame.start as usize..entry.frame.end as usize].to_vec();
    let header = frame.len() - entry.text.len();
    let own = entry.digest.to_le_bytes();
    let at = frame[..header]
        .windows(own.len())
        .position(|w| w == own)
        .expect("the header carries the digest");
    frame[at..at + own.len()].copy_from_slice(&digest.to_le_bytes());
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Mangled segments — cut at any offset, bytes flipped, garbage appended, a
    /// frame spliced in under another unit's digest — never panic and never
    /// serve a wrong payload: `load` answers the stored payload, a miss or
    /// corrupt, and a cut alone only ever misses. `stats`, `gc` and `merge`
    /// succeed, a merge copies no damage, and once the units that did not hit
    /// are recomputed, every unit hits.
    #[test]
    fn mangled_segments_never_panic_or_serve_a_wrong_payload(
        // 0 and 1: a cut alone; 2: flips; 3: garbage; 4: a splice; 5: all four.
        mode in 0u32..6,
        cut in 0u64..=1000,
        flips in collection::vec((0u64..1000, 1u32..256), 1..4),
        garbage in collection::vec(0u32..256, 1..48),
        splice in (0usize..8, 0usize..8),
    ) {
        let root = case_dir("cache-mangle");
        let keys: Vec<UnitKey> = (0..8).map(|i| key("mangled", &Value::Null, 7, i, 0)).collect();
        let cache = UnitCache::open(&root).unwrap();
        for (i, key) in keys.iter().enumerate() {
            cache.store(key, &mangle_payload(i)).unwrap();
        }
        let entries = cache_entries(&root).unwrap();
        let segment = entries[0].segment.clone();
        let original = std::fs::read(&segment).unwrap();

        let mut bytes = original.clone();
        if matches!(mode, 0 | 1 | 5) {
            bytes.truncate((bytes.len() as u64 * cut / 1000) as usize);
        }
        if matches!(mode, 2 | 5) && !bytes.is_empty() {
            for &(at, mask) in &flips {
                let at = (bytes.len() as u64 * at / 1000) as usize;
                bytes[at] ^= mask as u8;
            }
        }
        if matches!(mode, 3 | 5) {
            bytes.extend(garbage.iter().map(|&b| b as u8));
        }
        let (cut_only, kept) = (mode < 2, bytes.len() as u64);
        std::fs::write(&segment, &bytes).unwrap();
        if matches!(mode, 4 | 5) {
            let frame = refiled(&original, &entries[splice.0], keys[splice.1].digest_u128());
            std::fs::write(segment.with_file_name("00000009.pack"), frame).unwrap();
        }

        // `cache` indexed every frame before the damage, `reader` what is left of
        // them; both hit only with the stored payload, and a cut never reads as
        // corrupt.
        let reader = UnitCache::open(&root).unwrap();
        let mut missing = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            for (fresh, handle) in [(true, &reader), (false, &cache)] {
                let got = handle.load(key);
                if let CacheLookup::Hit(payload) = &got {
                    prop_assert_eq!(payload, &mangle_payload(i));
                } else if fresh {
                    missing.push(i);
                }
                if cut_only {
                    let whole = entries[i].frame.end <= kept;
                    prop_assert_eq!(matches!(got, CacheLookup::Hit(_)), whole, "unit {}", i);
                    prop_assert!(!matches!(got, CacheLookup::Corrupt), "a cut read as corrupt");
                }
            }
        }

        prop_assert!(cache_stats(&root).is_ok());
        let merged = root.join("merged");
        prop_assert!(cache_merge(&merged, std::slice::from_ref(&root)).is_ok());
        let copy = UnitCache::open(&merged).unwrap();
        for (i, key) in keys.iter().enumerate() {
            match copy.load(key) {
                CacheLookup::Hit(payload) => prop_assert_eq!(payload, mangle_payload(i)),
                CacheLookup::Miss => {}
                CacheLookup::Corrupt => prop_assert!(false, "merge copied a damaged frame"),
            }
        }
        prop_assert!(cache_gc(&root, None).is_ok());

        for &i in &missing {
            reader.store(&keys[i], &mangle_payload(i)).unwrap();
        }
        let healed = UnitCache::open(&root).unwrap();
        for (i, key) in keys.iter().enumerate() {
            match healed.load(key) {
                CacheLookup::Hit(payload) => prop_assert_eq!(payload, mangle_payload(i)),
                other => prop_assert!(false, "unit {} after recomputation: {:?}", i, other),
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
