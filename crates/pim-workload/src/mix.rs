//! Instruction-mix models.
//!
//! Table 1 characterizes the workload by a single number: `mix_l/s = 0.30`, the
//! fraction of operations that are loads or stores. [`InstructionMix`] carries that
//! fraction (optionally split into loads vs stores) and converts operation counts into
//! expected numbers of memory references, which is what both the queuing simulation and
//! the analytical model consume.

use serde::{Deserialize, Serialize};

/// Fraction of operations by kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstructionMix {
    /// Fraction of operations that are loads.
    pub load_fraction: f64,
    /// Fraction of operations that are stores.
    pub store_fraction: f64,
}

impl InstructionMix {
    /// Build a mix from separate load and store fractions.
    pub fn new(load_fraction: f64, store_fraction: f64) -> Self {
        let m = InstructionMix {
            load_fraction,
            store_fraction,
        };
        m.validate();
        m
    }

    /// The paper's Table 1 mix: 30% of operations are loads or stores.
    /// We split the 0.30 as 2/3 loads, 1/3 stores (a conventional 2:1 ratio); the
    /// queuing and analytical models only ever use the sum, so the split does not
    /// affect any reproduced figure.
    pub fn table1() -> Self {
        InstructionMix::new(0.20, 0.10)
    }

    /// A mix with the given combined load/store fraction, split 2:1 loads:stores.
    pub fn with_memory_fraction(mem_fraction: f64) -> Self {
        InstructionMix::new(mem_fraction * 2.0 / 3.0, mem_fraction / 3.0)
    }

    fn validate(&self) {
        assert!(
            self.load_fraction >= 0.0 && self.store_fraction >= 0.0,
            "instruction-mix fractions must be non-negative"
        );
        assert!(
            self.load_fraction + self.store_fraction <= 1.0 + 1e-12,
            "load+store fraction exceeds 1: {} + {}",
            self.load_fraction,
            self.store_fraction
        );
    }

    /// Combined load/store fraction (the paper's `mix_l/s`).
    pub fn memory_fraction(&self) -> f64 {
        self.load_fraction + self.store_fraction
    }

    /// Fraction of operations that are pure compute.
    pub(crate) fn compute_fraction(&self) -> f64 {
        1.0 - self.memory_fraction()
    }

    /// Expected number of memory references among `ops` operations.
    pub fn expected_memory_ops(&self, ops: u64) -> f64 {
        ops as f64 * self.memory_fraction()
    }

    /// Expected number of pure-compute operations among `ops` operations.
    pub fn expected_compute_ops(&self, ops: u64) -> f64 {
        ops as f64 * self.compute_fraction()
    }
}

impl Default for InstructionMix {
    fn default() -> Self {
        InstructionMix::table1()
    }
}

/// Kinds of operation a synthetic stream can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpKind {
    /// Arithmetic/logic operation touching only registers.
    Compute,
    /// Memory read.
    Load,
    /// Memory write.
    Store,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mix_sums_to_030() {
        let m = InstructionMix::table1();
        assert!((m.memory_fraction() - 0.30).abs() < 1e-12);
        assert!((m.compute_fraction() - 0.70).abs() < 1e-12);
    }

    #[test]
    fn with_memory_fraction_round_trips() {
        for f in [0.0, 0.1, 0.3, 0.5, 1.0] {
            let m = InstructionMix::with_memory_fraction(f);
            assert!((m.memory_fraction() - f).abs() < 1e-12);
        }
    }

    #[test]
    fn expected_counts() {
        let m = InstructionMix::table1();
        assert!((m.expected_memory_ops(100_000_000) - 30_000_000.0).abs() < 1e-3);
        assert!((m.expected_compute_ops(100_000_000) - 70_000_000.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "exceeds 1")]
    fn overfull_mix_panics() {
        InstructionMix::new(0.7, 0.4);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_mix_panics() {
        InstructionMix::new(-0.1, 0.2);
    }
}
