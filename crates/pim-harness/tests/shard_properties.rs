//! Property suite for the `run --shard I/N` partition (vendored proptest, pinned
//! seeds — the same deterministic harness as `cache_properties.rs`).
//!
//! The partition function must make four promises to the cross-shard protocol:
//!
//! 1. **Disjointness** — no unit is owned by two shards (nothing is computed
//!    twice);
//! 2. **Coverage** — every unit is owned by some shard (nothing is dropped);
//! 3. **Reorder stability** — ownership is a pure function of unit identity:
//!    shuffling the unit list, or minting keys in a different order, never moves
//!    a unit between shards;
//! 4. **Approximate uniformity** — for any real sweep (≥64 units) no shard owns
//!    more than 2× the mean, so an N-way split actually buys ~N-way wall-clock.

#![expect(
    clippy::expect_used,
    reason = "helpers outside #[test] fns panic on a failed setup step, which fails the calling test"
)]

use pim_harness::prelude::*;
use proptest::prelude::*;
use serde::Value;

/// Mint the unit keys of a synthetic sweep: `grids` grid points × `reps`
/// replications of one scenario.
fn sweep_keys(scenario: &str, seed: u64, grids: usize, reps: usize) -> Vec<UnitKey> {
    let config = Value::Map(vec![("axis".into(), Value::U64(grids as u64))]);
    let keyer = UnitKeyer::new(scenario, &config, seed);
    let mut keys = Vec::with_capacity(grids * reps);
    for grid in 0..grids {
        for rep in 0..reps {
            keys.push(keyer.key(grid, rep));
        }
    }
    keys
}

/// All shards of an N-way partition.
fn shards(count: u32) -> Vec<ShardSpec> {
    (1..=count)
        .map(|i| ShardSpec::new(i, count).expect("1 <= i <= count"))
        .collect()
}

proptest! {
    /// Disjointness + coverage in one pass: every unit of a random sweep is owned
    /// by exactly one of the N shards.
    #[test]
    fn every_unit_is_owned_by_exactly_one_shard(
        seed in 0u64..1_000_000,
        grids in 1usize..96,
        reps in 1usize..4,
        count in 1u32..9,
    ) {
        let shards = shards(count);
        for key in sweep_keys("prop", seed, grids, reps) {
            let owners: Vec<u32> = shards
                .iter()
                .filter(|s| s.owns(&key))
                .map(|s| s.index())
                .collect();
            prop_assert_eq!(
                owners.len(),
                1,
                "unit {} owned by shards {:?} of {}",
                key.digest(),
                owners,
                count
            );
        }
    }

    /// Reorder stability: ownership never depends on the order units are listed or
    /// keys are minted in. Assign the same sweep forwards and backwards (with decoy
    /// keys minted in between) — per-unit owners are identical.
    #[test]
    fn ownership_is_stable_under_unit_reordering(
        seed in 0u64..1_000_000,
        grids in 1usize..64,
        count in 2u32..7,
    ) {
        let shards = shards(count);
        let owner = |key: &UnitKey| -> u32 {
            shards
                .iter()
                .find(|s| s.owns(key))
                .map(|s| s.index())
                .expect("coverage: some shard owns every key")
        };
        let keys = sweep_keys("prop", seed, grids, 2);
        let forward: Vec<u32> = keys.iter().map(owner).collect();
        // Re-mint the same sweep in reverse, with unrelated keys interleaved.
        let config = Value::Map(vec![("axis".into(), Value::U64(grids as u64))]);
        let keyer = UnitKeyer::new("prop", &config, seed);
        let decoy = UnitKeyer::new("decoy", &Value::Null, seed ^ 0xdead);
        let mut backward: Vec<u32> = Vec::with_capacity(keys.len());
        for grid in (0..grids).rev() {
            for rep in (0..2usize).rev() {
                let _ = decoy.key(grid, rep);
                backward.push(owner(&keyer.key(grid, rep)));
            }
        }
        backward.reverse();
        prop_assert_eq!(forward, backward);
    }

    /// Approximate uniformity: for sweeps of at least 64 units, no shard owns more
    /// than twice the mean share (and none is starved to zero when the mean is
    /// comfortably above 1).
    #[test]
    fn no_shard_owns_more_than_twice_the_mean(
        seed in 0u64..1_000_000,
        grids in 32usize..128,
        count in 2u32..9,
    ) {
        let keys = sweep_keys("prop", seed, grids, 2);
        let total = keys.len();
        prop_assert!(total >= 64);
        let mut owned = vec![0usize; count as usize];
        for key in &keys {
            for (i, shard) in shards(count).iter().enumerate() {
                if shard.owns(key) {
                    owned[i] += 1;
                }
            }
        }
        let mean = total as f64 / f64::from(count);
        for (i, &n) in owned.iter().enumerate() {
            prop_assert!(
                (n as f64) <= 2.0 * mean,
                "shard {}/{} owns {} of {} units (mean {:.1})",
                i + 1,
                count,
                n,
                total,
                mean
            );
            if mean >= 8.0 {
                prop_assert!(
                    n > 0,
                    "shard {}/{} starved: 0 of {} units (mean {:.1})",
                    i + 1,
                    count,
                    total,
                    mean
                );
            }
        }
    }

    /// The degenerate split: one shard owns everything, so `--shard 1/1` is exactly
    /// an ordinary run's unit set.
    #[test]
    fn single_shard_partition_owns_every_unit(
        seed in 0u64..1_000_000,
        grids in 1usize..64,
    ) {
        let shard = ShardSpec::new(1, 1).expect("1/1 is valid");
        for key in sweep_keys("prop", seed, grids, 1) {
            prop_assert!(shard.owns(&key));
        }
    }
}
