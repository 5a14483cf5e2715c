//! Cache models for the heavyweight host processor.
//!
//! The paper's queuing model treats the host cache *statistically*: each load/store
//! misses with fixed probability `Pmiss = 0.1` (Table 1), which `pim-core`'s HWP
//! sampler draws directly. To let users calibrate `Pmiss` from an address trace
//! instead of assuming it, this module provides a structural model: a conventional
//! set-associative LRU cache ([`SetAssociativeCache`]).

use serde::{Deserialize, Serialize};

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheOutcome {
    /// Data found in the cache.
    Hit,
    /// Data must be fetched from memory.
    Miss,
}

/// A conventional set-associative cache with true-LRU replacement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetAssociativeCache {
    line_bytes: u64,
    sets: usize,
    ways: usize,
    /// `tags[set][way]` = (tag, last-use stamp); `u64::MAX` tag means invalid.
    tags: Vec<Vec<(u64, u64)>>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl SetAssociativeCache {
    /// Create a cache of `capacity_bytes` with the given line size and associativity.
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways > 0, "associativity must be positive");
        let lines = (capacity_bytes / line_bytes).max(1) as usize;
        let sets = (lines / ways).max(1);
        SetAssociativeCache {
            line_bytes,
            sets,
            ways,
            tags: vec![vec![(u64::MAX, 0); ways]; sets],
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }

    /// Present an access at byte address `addr` and classify it.
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        self.stamp += 1;
        let line = addr / self.line_bytes;
        let set = (line % self.sets as u64) as usize;
        let tag = line / self.sets as u64;
        let ways = &mut self.tags[set];
        if let Some(way) = ways.iter_mut().find(|(t, _)| *t == tag) {
            way.1 = self.stamp;
            self.hits += 1;
            return CacheOutcome::Hit;
        }
        // Miss: evict the LRU way (or fill an invalid one).
        #[expect(
            clippy::expect_used,
            reason = "associativity is validated positive, so a set always has a way"
        )]
        let victim = ways
            .iter_mut()
            .min_by_key(|(t, stamp)| if *t == u64::MAX { (0, 0) } else { (1, *stamp) })
            .expect("at least one way");
        *victim = (tag, self.stamp);
        self.misses += 1;
        CacheOutcome::Miss
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss fraction over all accesses (0 when no accesses were made).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_associative_geometry() {
        let c = SetAssociativeCache::new(64 * 1024, 64, 4);
        assert_eq!(c.capacity_bytes(), 64 * 1024);
        assert_eq!(c.ways(), 4);
        assert_eq!(c.sets(), 64 * 1024 / 64 / 4);
    }

    #[test]
    fn set_associative_hits_on_reuse() {
        let mut c = SetAssociativeCache::new(1024, 64, 2);
        assert_eq!(c.access(0), CacheOutcome::Miss);
        assert_eq!(c.access(0), CacheOutcome::Hit);
        assert_eq!(c.access(8), CacheOutcome::Hit, "same line");
        assert_eq!(c.access(64), CacheOutcome::Miss, "next line");
    }

    #[test]
    fn set_associative_lru_eviction() {
        // 2-way, 1 set of 2 lines (capacity 128 bytes, 64-byte lines).
        let mut c = SetAssociativeCache::new(128, 64, 2);
        c.access(0); // A
        c.access(64); // B
        c.access(0); // touch A, B becomes LRU
        assert_eq!(c.access(128), CacheOutcome::Miss); // C evicts B
        assert_eq!(c.access(0), CacheOutcome::Hit); // A still resident
        assert_eq!(c.access(64), CacheOutcome::Miss); // B was evicted
    }

    #[test]
    fn set_associative_streaming_has_no_reuse() {
        let mut c = SetAssociativeCache::new(4 * 1024, 64, 4);
        for i in 0..1000u64 {
            c.access(i * 64 * 67); // strided, never repeats a line
        }
        assert_eq!(c.hits(), 0);
        assert!((c.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn miss_rate_with_no_accesses_is_zero() {
        let c = SetAssociativeCache::new(1024, 64, 2);
        assert_eq!(c.miss_rate(), 0.0);
    }
}
