//! Temporal-locality partitioning of the workload.
//!
//! The paper's primary independent variable is "a measure of the PIM workload which
//! reflects temporal locality": operations with data reuse run on the cached
//! heavyweight processor, operations with no reuse run on the PIM array.
//! [`WorkPartition`] captures that split of the total work `W` into `%WH` and `%WL`.
//! [`ReuseProfile`] goes one level deeper: it generates an address stream with a
//! controllable reuse probability so that a structural cache model (from `pim-mem`)
//! can be used to *measure* the cache hit rate rather than assume it.

use desim::random::{Geometric, RandomStream};
use serde::{Deserialize, Serialize};

/// Split of the total work into heavyweight (high locality) and lightweight (low
/// locality) fractions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkPartition {
    /// Total number of operations (`W` in Table 1).
    pub total_ops: u64,
    /// Fraction of operations with low temporal locality, executed on the LWP array
    /// (`%WL` in Table 1), in `[0, 1]`.
    pub lwp_fraction: f64,
}

impl WorkPartition {
    /// Create a partition; panics if the fraction is outside `[0, 1]`.
    pub fn new(total_ops: u64, lwp_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&lwp_fraction),
            "LWP work fraction must lie in [0,1]: {lwp_fraction}"
        );
        WorkPartition {
            total_ops,
            lwp_fraction,
        }
    }

    /// The paper's default total work of 10^8 operations with the given `%WL`.
    pub fn table1(lwp_fraction: f64) -> Self {
        WorkPartition::new(100_000_000, lwp_fraction)
    }

    /// Operations assigned to the heavyweight processor (`WH`).
    pub fn hwp_ops(&self) -> u64 {
        self.total_ops - self.lwp_ops()
    }

    /// Operations assigned to the lightweight PIM array (`WL`).
    pub fn lwp_ops(&self) -> u64 {
        (self.total_ops as f64 * self.lwp_fraction).round() as u64
    }

    /// Fraction of work on the heavyweight processor (`%WH`).
    pub fn hwp_fraction(&self) -> f64 {
        1.0 - self.lwp_fraction
    }
}

/// A synthetic address-stream generator with a controllable temporal-reuse probability.
///
/// Each reference either revisits a recently used address (probability `reuse_prob`,
/// drawn from an LRU stack of depth `working_set`) or touches a fresh address. A
/// `reuse_prob` near 1 models the high-locality threads the paper schedules on the
/// host; near 0 it models the no-reuse data-intensive threads scheduled on PIM.
#[derive(Debug)]
pub struct ReuseProfile {
    reuse_prob: f64,
    working_set: usize,
    line_bytes: u64,
    recent: Vec<u64>,
    next_fresh: u64,
    stream: RandomStream,
    /// The LRU-depth distribution, Geometric(0.5).
    depth: Geometric,
}

impl ReuseProfile {
    /// Create a profile with reuse probability `reuse_prob` over a `working_set`-line
    /// LRU stack of `line_bytes`-byte lines.
    pub fn new(reuse_prob: f64, working_set: usize, line_bytes: u64, stream: RandomStream) -> Self {
        assert!(
            (0.0..=1.0).contains(&reuse_prob),
            "reuse probability out of range"
        );
        assert!(working_set > 0, "working set must be non-empty");
        ReuseProfile {
            reuse_prob,
            working_set,
            line_bytes,
            recent: Vec::with_capacity(working_set),
            next_fresh: 0,
            stream,
            depth: Geometric::new(0.5),
        }
    }

    /// Generate the next byte address in the stream.
    pub(crate) fn next_address(&mut self) -> u64 {
        let reuse = !self.recent.is_empty() && self.stream.bernoulli(self.reuse_prob);
        let addr = if reuse {
            // Prefer recently used lines (geometric over the LRU stack, clamped).
            let depth = (self.stream.geometric(&self.depth) as usize).min(self.recent.len() - 1);
            self.recent[depth]
        } else {
            let a = self.next_fresh * self.line_bytes;
            self.next_fresh += 1;
            a
        };
        // Maintain the LRU stack.
        if let Some(pos) = self.recent.iter().position(|&r| r == addr) {
            self.recent.remove(pos);
        }
        self.recent.insert(0, addr);
        self.recent.truncate(self.working_set);
        addr
    }

    /// Generate `n` addresses.
    pub fn addresses(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_address()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_counts_are_consistent() {
        let p = WorkPartition::table1(0.3);
        assert_eq!(p.total_ops, 100_000_000);
        assert_eq!(p.lwp_ops(), 30_000_000);
        assert_eq!(p.hwp_ops(), 70_000_000);
        assert!((p.hwp_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn partition_extremes() {
        let all_hwp = WorkPartition::new(1000, 0.0);
        assert_eq!(all_hwp.lwp_ops(), 0);
        assert_eq!(all_hwp.hwp_ops(), 1000);
        let all_lwp = WorkPartition::new(1000, 1.0);
        assert_eq!(all_lwp.lwp_ops(), 1000);
        assert_eq!(all_lwp.hwp_ops(), 0);
    }

    #[test]
    #[should_panic(expected = "must lie in [0,1]")]
    fn partition_rejects_bad_fraction() {
        WorkPartition::new(10, 1.5);
    }

    #[test]
    fn high_reuse_stream_revisits_addresses() {
        let mut p = ReuseProfile::new(0.95, 32, 64, RandomStream::new(5, 1));
        let addrs = p.addresses(10_000);
        let unique: std::collections::HashSet<u64> = addrs.iter().copied().collect();
        // With 95% reuse the number of distinct addresses is a small fraction of the stream.
        assert!(
            (unique.len() as f64) < 0.15 * addrs.len() as f64,
            "unique {} of {}",
            unique.len(),
            addrs.len()
        );
    }

    #[test]
    fn zero_reuse_stream_never_repeats() {
        let mut p = ReuseProfile::new(0.0, 32, 64, RandomStream::new(5, 2));
        let addrs = p.addresses(5_000);
        let unique: std::collections::HashSet<u64> = addrs.iter().copied().collect();
        assert_eq!(unique.len(), addrs.len());
    }

    #[test]
    fn reuse_stream_calibrates_cache_miss_rate() {
        use pim_mem::{CacheModel, SetAssociativeCache};
        // High-locality stream against a modest cache: low miss rate.
        let mut hot = ReuseProfile::new(0.9, 64, 64, RandomStream::new(5, 3));
        let mut cache = SetAssociativeCache::new(64 * 1024, 64, 4);
        for a in hot.addresses(50_000) {
            cache.access(a);
        }
        assert!(
            cache.miss_rate() < 0.2,
            "hot stream miss rate {}",
            cache.miss_rate()
        );

        // No-locality stream against the same cache: very high miss rate.
        let mut cold = ReuseProfile::new(0.0, 64, 64, RandomStream::new(5, 4));
        let mut cache2 = SetAssociativeCache::new(64 * 1024, 64, 4);
        for a in cold.addresses(50_000) {
            cache2.access(a);
        }
        assert!(
            cache2.miss_rate() > 0.9,
            "cold stream miss rate {}",
            cache2.miss_rate()
        );
    }

    #[test]
    fn addresses_are_line_aligned_for_fresh_references() {
        let mut p = ReuseProfile::new(0.0, 4, 128, RandomStream::new(9, 1));
        for a in p.addresses(100) {
            assert_eq!(a % 128, 0);
        }
    }
}
