//! Synthetic operation streams.
//!
//! The queuing models in `pim-core` can run in two modes: an expected-value mode that
//! uses only the statistical parameters, and a sampled mode that draws an explicit
//! stream of operations. [`OperationStream`] produces that stream: a sequence of
//! compute/load/store operations whose memory references come from a configurable
//! address pattern.

use crate::mix::{InstructionMix, OpKind};
use desim::random::{RandomStream, ZipfTable};
use serde::{Deserialize, Serialize};

/// One synthetic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operation {
    /// What kind of operation it is.
    pub kind: OpKind,
    /// Byte address touched by loads/stores (0 for compute operations).
    pub address: u64,
}

/// Address-generation patterns for memory references.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AddressPattern {
    /// Consecutive lines (streaming, high spatial locality).
    Sequential {
        /// Bytes between consecutive references.
        stride: u64,
    },
    /// Uniformly random lines over a footprint (no locality — GUPS-like).
    UniformRandom {
        /// Footprint in bytes.
        footprint: u64,
        /// Reference granularity in bytes.
        line: u64,
    },
    /// Zipf-distributed lines over a footprint (skewed popularity).
    Zipf {
        /// Footprint in bytes.
        footprint: u64,
        /// Reference granularity in bytes.
        line: u64,
        /// Zipf exponent (0 = uniform).
        exponent: f64,
    },
}

/// Generator of synthetic operations following an [`InstructionMix`] and an
/// [`AddressPattern`].
#[derive(Debug)]
pub struct OperationStream {
    mix: InstructionMix,
    pattern: AddressPattern,
    stream: RandomStream,
    zipf: Option<ZipfTable>,
    next_sequential: u64,
}

impl OperationStream {
    /// Create a stream with the given mix, address pattern and random stream.
    pub fn new(mix: InstructionMix, pattern: AddressPattern, stream: RandomStream) -> Self {
        let zipf = match &pattern {
            AddressPattern::Zipf {
                footprint,
                line,
                exponent,
            } => Some(ZipfTable::new((footprint / line).max(1), *exponent)),
            _ => None,
        };
        OperationStream {
            mix,
            pattern,
            stream,
            zipf,
            next_sequential: 0,
        }
    }

    /// The configured mix.
    pub fn mix(&self) -> InstructionMix {
        self.mix
    }

    fn next_address(&mut self) -> u64 {
        match &self.pattern {
            AddressPattern::Sequential { stride } => {
                // A stream walks the 64-bit address space and wraps at its end,
                // however large the stride.
                let a = self.next_sequential;
                self.next_sequential = a.wrapping_add(*stride);
                a
            }
            AddressPattern::UniformRandom { footprint, line } => {
                let lines = (footprint / line).max(1);
                self.stream.below(lines) * line
            }
            AddressPattern::Zipf { line, .. } => {
                #[expect(
                    clippy::expect_used,
                    reason = "the constructor builds the Zipf table whenever the pattern is Zipf"
                )]
                let table = self.zipf.as_ref().expect("zipf table built in constructor");
                table.sample(&mut self.stream) * line
            }
        }
    }

    /// Generate the next operation.
    pub fn next_op(&mut self) -> Operation {
        let u = self.stream.uniform01();
        let kind = if u < self.mix.load_fraction {
            OpKind::Load
        } else if u < self.mix.memory_fraction() {
            OpKind::Store
        } else {
            OpKind::Compute
        };
        let address = if kind == OpKind::Compute {
            0
        } else {
            self.next_address()
        };
        Operation { kind, address }
    }

    /// Generate `n` operations.
    pub fn take_ops(&mut self, n: usize) -> Vec<Operation> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

impl Iterator for OperationStream {
    type Item = Operation;
    fn next(&mut self) -> Option<Operation> {
        Some(self.next_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(pattern: AddressPattern) -> OperationStream {
        OperationStream::new(InstructionMix::table1(), pattern, RandomStream::new(3, 7))
    }

    #[test]
    fn mix_fractions_are_respected() {
        let mut s = stream(AddressPattern::Sequential { stride: 64 });
        let ops = s.take_ops(100_000);
        let mem = ops.iter().filter(|o| o.kind != OpKind::Compute).count() as f64;
        let loads = ops.iter().filter(|o| o.kind == OpKind::Load).count() as f64;
        assert!((mem / 100_000.0 - 0.30).abs() < 0.01);
        assert!((loads / 100_000.0 - 0.20).abs() < 0.01);
    }

    #[test]
    fn compute_ops_have_no_address() {
        let mut s = stream(AddressPattern::Sequential { stride: 64 });
        for op in s.take_ops(1000) {
            if op.kind == OpKind::Compute {
                assert_eq!(op.address, 0);
            }
        }
    }

    #[test]
    fn sequential_pattern_is_monotone() {
        let mut s = stream(AddressPattern::Sequential { stride: 32 });
        let addrs: Vec<u64> = s
            .take_ops(10_000)
            .into_iter()
            .filter(|o| o.kind != OpKind::Compute)
            .map(|o| o.address)
            .collect();
        assert!(addrs.windows(2).all(|w| w[1] > w[0]));
        assert!(addrs.iter().all(|a| a % 32 == 0));
    }

    #[test]
    fn uniform_random_stays_in_footprint() {
        let mut s = stream(AddressPattern::UniformRandom {
            footprint: 1 << 20,
            line: 64,
        });
        for op in s.take_ops(10_000) {
            if op.kind != OpKind::Compute {
                assert!(op.address < 1 << 20);
                assert_eq!(op.address % 64, 0);
            }
        }
    }

    #[test]
    fn zipf_pattern_is_skewed() {
        let mut s = stream(AddressPattern::Zipf {
            footprint: 64 * 1024,
            line: 64,
            exponent: 1.2,
        });
        let addrs: Vec<u64> = s
            .take_ops(30_000)
            .into_iter()
            .filter(|o| o.kind != OpKind::Compute)
            .map(|o| o.address)
            .collect();
        let hot = addrs.iter().filter(|&&a| a < 64 * 64).count() as f64;
        assert!(
            hot / addrs.len() as f64 > 0.4,
            "Zipf stream should concentrate on low lines"
        );
    }

    #[test]
    fn iterator_interface_yields_operations() {
        let s = stream(AddressPattern::Sequential { stride: 8 });
        let v: Vec<Operation> = s.take(10).collect();
        assert_eq!(v.len(), 10);
    }
}
