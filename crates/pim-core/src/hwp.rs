//! The heavyweight processor (HWP) model of Figure 2.
//!
//! The HWP is a cache-based, high-clock-rate host. Every operation costs one issue
//! cycle; load/store operations additionally access the cache (`TCH` cycles) and, on a
//! miss (probability `Pmiss`), main memory (`TMH` cycles). The closed-form expectation
//! is [`SystemConfig::hwp_op_time_ns`]; [`HwpExecution`] draws the stochastic
//! per-operation times the queuing simulation uses, which reproduce the same mean
//! with sampling noise.

use crate::config::SystemConfig;
use desim::random::{BernoulliThreshold, RandomStream};
use serde::{Deserialize, Serialize};

/// Length of the outcome-code buffer of [`HwpExecution::run_ops`] and
/// [`crate::lwp::LwpExecution::run_ops`]: the most operations decided before
/// their times are summed. It is a bound of its own because a window of raw
/// words decides any number of operations when probabilities of 0 or 1 consume
/// no words.
pub(crate) const WINDOW_OPS: usize = 64;

/// Counters describing what an HWP executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HwpStats {
    /// Operations executed.
    pub ops: u64,
    /// Operations that were loads or stores.
    pub memory_ops: u64,
    /// Memory operations that missed in the cache.
    pub cache_misses: u64,
    /// Busy time in nanoseconds.
    pub busy_ns: f64,
}

impl HwpStats {
    /// Observed cache miss rate over memory operations.
    pub fn miss_rate(&self) -> f64 {
        if self.memory_ops == 0 {
            0.0
        } else {
            self.cache_misses as f64 / self.memory_ops as f64
        }
    }

    /// Mean time per operation in nanoseconds.
    pub fn mean_op_time_ns(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.busy_ns / self.ops as f64
        }
    }

    /// Merge another stats record into this one.
    pub fn merge(&mut self, other: &HwpStats) {
        self.ops += other.ops;
        self.memory_ops += other.memory_ops;
        self.cache_misses += other.cache_misses;
        self.busy_ns += other.busy_ns;
    }
}

/// Sampled / expected execution of operations on the HWP.
#[derive(Debug)]
pub struct HwpExecution {
    config: SystemConfig,
    stream: RandomStream,
    stats: HwpStats,
}

impl HwpExecution {
    /// Create an execution context drawing stochastic decisions from `stream`.
    pub fn new(config: SystemConfig, stream: RandomStream) -> Self {
        HwpExecution {
            config,
            stream,
            stats: HwpStats::default(),
        }
    }

    /// Draw the service time of one operation (ns) and update the counters.
    pub fn sample_op_time_ns(&mut self) -> f64 {
        self.stats.ops += 1;
        let mut t = self.config.hwp_cycle_ns; // one issue cycle
        if self.stream.bernoulli(self.config.mix.memory_fraction()) {
            self.stats.memory_ops += 1;
            // The issue cycle overlaps with the first cache cycle: total cache cost is
            // (TCH - 1) additional cycles, matching the analytical expression.
            t += (self.config.hwp_cache_cycles - 1.0) * self.config.hwp_cycle_ns;
            if self.stream.bernoulli(self.config.p_miss) {
                self.stats.cache_misses += 1;
                t += self.config.hwp_memory_cycles * self.config.hwp_cycle_ns;
            }
        }
        self.stats.busy_ns += t;
        t
    }

    /// Execute `ops` operations back-to-back and return the total busy time (ns).
    ///
    /// This is the batched form of calling [`Self::sample_op_time_ns`] `ops`
    /// times, with the identical draw sequence and the identical left-to-right
    /// float accumulation, so results are bit-for-bit the same. It works through
    /// the stream's raw words a window at a time in two branch-free passes:
    /// integer outcome codes first (0 compute, 1 cache hit, 2 miss), then a
    /// table load of each code's time. A memory operation reads a second word
    /// for its miss decision, so the word index advances by the decisions
    /// themselves; a probability of 0 or 1 advances it by nothing, exactly as
    /// `bernoulli` draws nothing for it.
    pub fn run_ops(&mut self, ops: u64) -> f64 {
        let mem = BernoulliThreshold::new(self.config.mix.memory_fraction());
        let miss = BernoulliThreshold::new(self.config.p_miss);
        // Summed in the order `sample_op_time_ns` adds them.
        let t_issue = self.config.hwp_cycle_ns;
        let t_hit = t_issue + (self.config.hwp_cache_cycles - 1.0) * self.config.hwp_cycle_ns;
        let t_miss = t_hit + self.config.hwp_memory_cycles * self.config.hwp_cycle_ns;
        let op_ns = [t_issue, t_hit, t_miss];
        let mut busy = self.stats.busy_ns;
        let mut total = 0.0;
        let mut memory_ops = 0u64;
        let mut misses = 0u64;
        let mut codes = [0u8; WINDOW_OPS];
        let mut left = ops;
        while left > 0 {
            let cap = left.min(WINDOW_OPS as u64) as usize;
            let mut n = 0;
            self.stream.raw_window(|words| {
                let mut i = 0;
                // With two words left, both reads below stay inside the window.
                while n < cap && i + 2 <= words.len() {
                    let is_mem = mem.hit(words[i]);
                    i += mem.words();
                    let is_miss = is_mem & miss.hit(words[i]);
                    // Kept a `cmov`: LLVM otherwise turns this select into a
                    // branch that mispredicts on the random memory decisions.
                    i += std::hint::select_unpredictable(is_mem, miss.words(), 0);
                    codes[n] = is_mem as u8 + is_miss as u8;
                    n += 1;
                }
                i
            });
            for &code in &codes[..n] {
                let t = op_ns[code as usize];
                busy += t;
                total += t;
                memory_ops += (code != 0) as u64;
                misses += (code >> 1) as u64;
            }
            left -= n as u64;
        }
        self.stats.ops += ops;
        self.stats.memory_ops += memory_ops;
        self.stats.cache_misses += misses;
        self.stats.busy_ns = busy;
        total
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> HwpStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_op_time_matches_config() {
        let c = SystemConfig::table1();
        assert!((c.hwp_op_time_ns() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_mean_converges_to_expectation() {
        let c = SystemConfig::table1();
        let mut h = HwpExecution::new(c, RandomStream::new(11, 1));
        let n = 200_000;
        let total = h.run_ops(n);
        let mean = total / n as f64;
        assert!(
            (mean - 4.0).abs() / 4.0 < 0.02,
            "sampled mean {mean} should be within 2% of the 4 ns expectation"
        );
        let s = h.stats();
        assert_eq!(s.ops, n);
        assert!((s.mean_op_time_ns() - mean).abs() < 1e-9);
        assert!((s.miss_rate() - 0.1).abs() < 0.01);
        assert!(((s.memory_ops as f64 / s.ops as f64) - 0.3).abs() < 0.01);
    }

    #[test]
    fn compute_only_mix_costs_one_cycle() {
        let mut c = SystemConfig::table1();
        c.mix = pim_workload::InstructionMix::with_memory_fraction(0.0);
        let mut h = HwpExecution::new(c, RandomStream::new(11, 2));
        for _ in 0..1000 {
            assert!((h.sample_op_time_ns() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn perfect_cache_never_pays_memory_latency() {
        let mut c = SystemConfig::table1();
        c.p_miss = 0.0;
        let mut h = HwpExecution::new(c, RandomStream::new(11, 3));
        let worst = (0..10_000)
            .map(|_| h.sample_op_time_ns())
            .fold(0.0f64, f64::max);
        assert!(worst <= c.hwp_cache_cycles * c.hwp_cycle_ns + 1e-12);
        assert_eq!(h.stats().cache_misses, 0);
    }

    #[test]
    fn all_miss_cache_always_pays_memory_latency() {
        let mut c = SystemConfig::table1();
        c.p_miss = 1.0;
        c.mix = pim_workload::InstructionMix::with_memory_fraction(1.0);
        let mut h = HwpExecution::new(c, RandomStream::new(11, 4));
        let t = h.sample_op_time_ns();
        assert!(
            (t - (1.0 + 1.0 + 90.0)).abs() < 1e-12,
            "1 issue + (2-1) cache + 90 memory"
        );
    }

    #[test]
    fn run_ops_matches_per_op_sampling_bitwise() {
        // Table 1, a non-integer machine, and every exact-0/1 corner of the two
        // probabilities (where decisions consume no words).
        let fractional = SystemConfig {
            hwp_cycle_ns: 0.7,
            hwp_cache_cycles: 2.3,
            hwp_memory_cycles: 91.7,
            p_miss: 0.37,
            mix: pim_workload::InstructionMix::with_memory_fraction(0.61),
            ..SystemConfig::table1()
        };
        let mut configs = vec![SystemConfig::table1(), fractional];
        for mix in [0.0, 0.3, 1.0] {
            for p_miss in [0.0, 0.1, 1.0] {
                configs.push(SystemConfig {
                    p_miss,
                    mix: pim_workload::InstructionMix::with_memory_fraction(mix),
                    ..fractional
                });
            }
        }
        for c in configs {
            // Batches straddling the 32-word buffer, each on fresh streams after
            // an odd number of prior draws (so windows start unaligned), then
            // all of them back to back on one pair of streams.
            for prior in [1, 33] {
                for ops in [0u64, 1, 7, 31, 32, 33, 65, 1000] {
                    let mut bulk = HwpExecution::new(c, RandomStream::new(42, 9));
                    let mut seq = HwpExecution::new(c, RandomStream::new(42, 9));
                    for _ in 0..prior {
                        bulk.stream.uniform01();
                        seq.stream.uniform01();
                    }
                    assert_run_ops_matches(&mut bulk, &mut seq, ops);
                }
            }
            let mut bulk = HwpExecution::new(c, RandomStream::new(42, 9));
            let mut seq = HwpExecution::new(c, RandomStream::new(42, 9));
            for ops in [0u64, 1, 7, 31, 32, 33, 65, 1000] {
                assert_run_ops_matches(&mut bulk, &mut seq, ops);
            }
        }
    }

    fn assert_run_ops_matches(bulk: &mut HwpExecution, seq: &mut HwpExecution, ops: u64) {
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
        let mut a = HwpExecution::new(c, RandomStream::new(11, 5));
        let mut b = HwpExecution::new(c, RandomStream::new(11, 6));
        a.run_ops(500);
        b.run_ops(700);
        let mut merged = a.stats();
        merged.merge(&b.stats());
        assert_eq!(merged.ops, 1200);
        assert!((merged.busy_ns - (a.stats().busy_ns + b.stats().busy_ns)).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = HwpStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.mean_op_time_ns(), 0.0);
    }
}
