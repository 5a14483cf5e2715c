//! The lightweight PIM processor (LWP) model of Figure 3.
//!
//! An LWP has no cache but sits next to its memory bank's row buffer, so its memory
//! access time (`TML` = 30 HWP cycles) is far shorter than the host's miss penalty
//! (`TMH` = 90 cycles), at the price of a slower clock (`TLcycle` = 5 ns). Every
//! operation costs one LWP cycle; load/store operations cost a local memory access
//! instead.
//!
//! `LwpExecution::run_ops` takes its memory decisions as hit masks of up to 64
//! operations and counts them; it adds the operations' times one by one only where
//! counts times op times could round differently ([`sums_exactly`]).

use crate::config::SystemConfig;
use desim::random::{counted_sum, sums_exactly, BernoulliThreshold, RandomStream};
use serde::{Deserialize, Serialize};

/// Counters describing what one LWP node executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LwpStats {
    /// Operations executed.
    pub ops: u64,
    /// Operations that were loads or stores.
    pub memory_ops: u64,
    /// Busy time in nanoseconds.
    pub busy_ns: f64,
}

impl LwpStats {
    /// Mean time per operation in nanoseconds.
    #[cfg(test)]
    fn mean_op_time_ns(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.busy_ns / self.ops as f64
        }
    }

    /// Merge another stats record into this one.
    pub fn merge(&mut self, other: &LwpStats) {
        self.ops += other.ops;
        self.memory_ops += other.memory_ops;
        self.busy_ns += other.busy_ns;
    }
}

/// Sampled / expected execution of operations on one LWP node.
#[derive(Debug)]
pub struct LwpExecution {
    config: SystemConfig,
    stream: RandomStream,
    stats: LwpStats,
}

impl LwpExecution {
    /// Create an execution context drawing stochastic decisions from `stream`.
    pub fn new(config: SystemConfig, stream: RandomStream) -> Self {
        LwpExecution {
            config,
            stream,
            stats: LwpStats::default(),
        }
    }

    /// Draw the service time of one operation (ns) and update the counters.
    pub fn sample_op_time_ns(&mut self) -> f64 {
        self.stats.ops += 1;
        let t = if self.stream.bernoulli(self.config.mix.memory_fraction()) {
            self.stats.memory_ops += 1;
            self.config.lwp_memory_cycles * self.config.hwp_cycle_ns
        } else {
            self.config.lwp_cycle_ns
        };
        self.stats.busy_ns += t;
        t
    }

    /// The time (ns) of a compute operation and of a memory operation.
    pub(crate) fn op_ns(&self) -> [f64; 2] {
        [
            self.config.lwp_cycle_ns,
            self.config.lwp_memory_cycles * self.config.hwp_cycle_ns,
        ]
    }

    /// Execute `ops` operations back-to-back and return the total busy time (ns).
    ///
    /// Batched form of calling [`Self::sample_op_time_ns`] `ops` times, with the
    /// identical draw sequence and, bit for bit, the identical left-to-right
    /// float sums: counts times op times where [`sums_exactly`] holds for the op
    /// times and the busy time so far, each operation's time in order elsewhere.
    pub(crate) fn run_ops(&mut self, ops: u64) -> f64 {
        let mem = BernoulliThreshold::new(self.config.mix.memory_fraction());
        let op_ns = self.op_ns();
        let start = self.stats.busy_ns;
        let exact = sums_exactly(start, &op_ns, ops);
        let (mut busy, mut total, mut memory_ops) = (start, 0.0, 0u64);
        self.stream.hit_masks(mem, ops, |is_mem, len| {
            memory_ops += u64::from(is_mem.count_ones());
            if !exact {
                for i in 0..len {
                    let t = op_ns[(is_mem >> i & 1) as usize];
                    busy += t;
                    total += t;
                }
            }
        });
        if exact {
            total = counted_sum(&[ops - memory_ops, memory_ops], &op_ns);
            busy = start + total;
        }
        self.stats.ops += ops;
        self.stats.memory_ops += memory_ops;
        self.stats.busy_ns = busy;
        total
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> LwpStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_op_time_matches_config() {
        let c = SystemConfig::table1();
        assert!((c.lwp_op_time_ns() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn sampled_mean_converges_to_expectation() {
        let c = SystemConfig::table1();
        let mut l = LwpExecution::new(c, RandomStream::new(13, 1));
        let n = 200_000;
        let total = l.run_ops(n);
        let mean = total / n as f64;
        assert!(
            (mean - 12.5).abs() / 12.5 < 0.02,
            "sampled mean {mean} should be within 2% of the 12.5 ns expectation"
        );
        assert_eq!(l.stats().ops, n);
        assert!(((l.stats().memory_ops as f64 / n as f64) - 0.3).abs() < 0.01);
    }

    #[test]
    fn lwp_is_slower_per_op_but_cheaper_per_memory_access() {
        let c = SystemConfig::table1();
        // Per generic operation the LWP is slower than the HWP (12.5 vs 4 ns)...
        assert!(c.lwp_op_time_ns() > c.hwp_op_time_ns());
        // ...but its memory access (30 cycles) is far cheaper than a host miss (90 cycles).
        assert!(c.lwp_memory_cycles < c.hwp_memory_cycles);
    }

    #[test]
    fn compute_only_mix_costs_one_lwp_cycle() {
        let mut c = SystemConfig::table1();
        c.mix = pim_workload::InstructionMix::with_memory_fraction(0.0);
        let mut l = LwpExecution::new(c, RandomStream::new(13, 2));
        for _ in 0..1000 {
            assert!((l.sample_op_time_ns() - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn memory_only_mix_costs_tml() {
        let mut c = SystemConfig::table1();
        c.mix = pim_workload::InstructionMix::with_memory_fraction(1.0);
        let mut l = LwpExecution::new(c, RandomStream::new(13, 3));
        for _ in 0..1000 {
            assert!((l.sample_op_time_ns() - 30.0).abs() < 1e-12);
        }
    }

    #[test]
    fn run_ops_matches_per_op_sampling_bitwise() {
        // Table 1, a non-integer machine, and a mix of exactly 0 and 1 (where
        // decisions consume no words).
        let fractional = SystemConfig {
            hwp_cycle_ns: 0.7,
            lwp_cycle_ns: 4.3,
            lwp_memory_cycles: 29.1,
            mix: pim_workload::InstructionMix::with_memory_fraction(0.61),
            ..SystemConfig::table1()
        };
        // Either side of the exactness predicate: a dyadic but fractional LWP
        // cycle (2³⁰ + 2⁻²⁰ ns), whose residues round away once sums pass 2³³,
        // and whole op times (2⁴³ + 1 ns and 30 × 2⁴³ ns) whose worst-case total
        // passes 2⁵³ within three dozen operations.
        let dyadic = SystemConfig {
            lwp_cycle_ns: 2f64.powi(30) + 2f64.powi(-20),
            ..SystemConfig::table1()
        };
        let huge = SystemConfig {
            hwp_cycle_ns: 2f64.powi(43),
            lwp_cycle_ns: 2f64.powi(43) + 1.0,
            ..SystemConfig::table1()
        };
        let mut configs = vec![SystemConfig::table1(), fractional, dyadic, huge];
        for mix in [0.0, 1.0] {
            configs.push(SystemConfig {
                mix: pim_workload::InstructionMix::with_memory_fraction(mix),
                ..fractional
            });
        }
        for c in configs {
            // Batches that end just before, on and just past the 64-word
            // buffer's edge (1 prior draw and 63, 64 or 65 operations; 33 and
            // 31, 32 or 33), each on fresh streams after an odd number of prior
            // draws (so windows start unaligned), then all of them back to back
            // on one pair of streams.
            for prior in [1, 33] {
                for ops in [0u64, 1, 7, 31, 32, 33, 63, 64, 65, 1000] {
                    let mut bulk = LwpExecution::new(c, RandomStream::new(42, 8));
                    let mut seq = LwpExecution::new(c, RandomStream::new(42, 8));
                    for _ in 0..prior {
                        bulk.stream.uniform01();
                        seq.stream.uniform01();
                    }
                    assert_run_ops_matches(&mut bulk, &mut seq, ops);
                }
            }
            let mut bulk = LwpExecution::new(c, RandomStream::new(42, 8));
            let mut seq = LwpExecution::new(c, RandomStream::new(42, 8));
            for ops in [0u64, 1, 7, 31, 32, 33, 63, 64, 65, 1000] {
                assert_run_ops_matches(&mut bulk, &mut seq, ops);
            }
        }
        // Every alignment of a phase of up to 130 operations against the 64-word
        // buffer: phases that end inside a window and phases that end exactly on
        // its edge, each followed by one more operation.
        for c in [SystemConfig::table1(), fractional, huge] {
            for prior in 0..64 {
                for ops in 1..=130 {
                    let mut bulk = LwpExecution::new(c, RandomStream::new(7, prior));
                    let mut seq = LwpExecution::new(c, RandomStream::new(7, prior));
                    for _ in 0..prior {
                        bulk.stream.uniform01();
                        seq.stream.uniform01();
                    }
                    assert_run_ops_matches(&mut bulk, &mut seq, ops);
                    assert_run_ops_matches(&mut bulk, &mut seq, 1);
                }
            }
        }
    }

    fn assert_run_ops_matches(bulk: &mut LwpExecution, seq: &mut LwpExecution, ops: u64) {
        let a = bulk.run_ops(ops);
        let mut b = 0.0;
        for _ in 0..ops {
            b += seq.sample_op_time_ns();
        }
        let what = format!("{:?} ops={ops}", bulk.config);
        assert_eq!(a.to_bits(), b.to_bits(), "{what}");
        assert_eq!(bulk.stats(), seq.stats(), "{what}");
        assert_eq!(
            bulk.stats().busy_ns.to_bits(),
            seq.stats().busy_ns.to_bits(),
            "{what}"
        );
        assert_eq!(bulk.stream.draws(), seq.stream.draws(), "{what}");
        assert_eq!(
            bulk.stream.uniform01().to_bits(),
            seq.stream.uniform01().to_bits(),
            "{what}: streams diverged"
        );
    }

    #[test]
    fn stats_merge_accumulates() {
        let c = SystemConfig::table1();
        let mut a = LwpExecution::new(c, RandomStream::new(13, 4));
        let mut b = LwpExecution::new(c, RandomStream::new(13, 5));
        a.run_ops(100);
        b.run_ops(300);
        let mut merged = a.stats();
        merged.merge(&b.stats());
        assert_eq!(merged.ops, 400);
        assert!(merged.mean_op_time_ns() > 0.0);
    }
}
