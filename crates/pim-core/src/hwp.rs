//! The heavyweight processor (HWP) model of Figure 2.
//!
//! The HWP is a cache-based, high-clock-rate host. Every operation costs one issue
//! cycle; load/store operations additionally access the cache (`TCH` cycles) and, on a
//! miss (probability `Pmiss`), main memory (`TMH` cycles). The closed-form expectation
//! is [`SystemConfig::hwp_op_time_ns`]; [`HwpExecution`] draws the stochastic
//! per-operation times the queuing simulation uses, which reproduce the same mean
//! with sampling noise.
//!
//! `HwpExecution::run_ops` decides a window of up to 64 raw words at a time
//! instead of one operation at a time. A memory operation reads two words, its mix
//! decision and then its miss decision, so which words start operations depends on
//! the decisions before them, just as a backslash in a JSON string escapes the
//! character after it (another backslash included). The window is parsed without a
//! branch by the escape-carry method of simdjson's `find_escaped` (`miss_words`);
//! the carry tells the next window that its first word is the miss decision of an
//! operation this one ended on. Where the result is exact ([`sums_exactly`]), the
//! busy time is each outcome's count times its time; otherwise the decoded
//! operations' times are added in order, as [`HwpExecution::sample_op_time_ns`]
//! adds them.

use crate::config::SystemConfig;
use desim::random::{counted_sum, low_bits, sums_exactly, BernoulliThreshold, RandomStream};
use serde::{Deserialize, Serialize};

/// The miss words of a window of HWP words, and whether the word after a full
/// 64-word window is one.
///
/// Bit `i` of `mem` is word `i`'s memory decision; `carry` says that word 0 is
/// the miss decision of a memory operation the previous window ended on. Every
/// word that is not a miss word starts an operation, and a memory decision there
/// makes the next word that operation's miss word. In a run of memory decisions
/// that starts an operation, the words therefore alternate between operation and
/// miss word, and the word after the run is a miss word when the run's length is
/// odd.
fn miss_words(mem: u64, carry: bool) -> (u64, bool) {
    const EVEN: u64 = 0x5555_5555_5555_5555;
    let carry = u64::from(carry);
    // A carried miss word starts nothing, whatever it decides as a mix word.
    let mem = mem & !carry;
    let follows = mem << 1 | carry;
    // Adding the starts of the runs that begin on odd bits clears those runs and
    // sets the bit after each; runs that begin on even bits stay as they are.
    let odd_starts = mem & !EVEN & !follows;
    let (even_runs, carry_out) = mem.overflowing_add(odd_starts);
    // After an even start the odd words that follow a memory decision are miss
    // words, after an odd start the even ones.
    ((EVEN ^ even_runs << 1) & follows, carry_out)
}

/// The position of the `n`-th (from 0) set bit of `mask`, which has more than
/// `n` set bits.
fn nth_set_bit(mut mask: u64, n: u64) -> usize {
    for _ in 0..n {
        mask &= mask - 1;
    }
    mask.trailing_zeros() as usize
}

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
    #[cfg(test)]
    fn mean_op_time_ns(&self) -> f64 {
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

    /// The time (ns) of a compute operation, a cache hit and a miss, each summed
    /// as [`Self::sample_op_time_ns`] adds it up.
    pub(crate) fn op_ns(&self) -> [f64; 3] {
        let c = &self.config;
        let t_issue = c.hwp_cycle_ns;
        let t_hit = t_issue + (c.hwp_cache_cycles - 1.0) * c.hwp_cycle_ns;
        [t_issue, t_hit, t_hit + c.hwp_memory_cycles * c.hwp_cycle_ns]
    }

    /// Execute `ops` operations back-to-back and return the total busy time (ns).
    ///
    /// This is the batched form of calling [`Self::sample_op_time_ns`] `ops`
    /// times, with the identical draw sequence and, bit for bit, the identical
    /// left-to-right float sums. When [`sums_exactly`] holds for the op times
    /// and the busy time so far, the sums are counts times op times; otherwise
    /// each operation's time is added in order.
    pub(crate) fn run_ops(&mut self, ops: u64) -> f64 {
        let op_ns = self.op_ns();
        let start = self.stats.busy_ns;
        let exact = sums_exactly(start, &op_ns, ops);
        let (mut busy, mut total) = (start, 0.0);
        let (mut memory_ops, mut misses) = (0u64, 0u64);
        self.decide(ops, |done, memory, missed| {
            memory_ops += u64::from(memory.count_ones());
            misses += u64::from(missed.count_ones());
            if !exact {
                let mut left = done;
                while left != 0 {
                    let at = left.trailing_zeros();
                    left &= left - 1;
                    let t = op_ns[(memory >> at & 1) as usize + (missed >> at & 1) as usize];
                    busy += t;
                    total += t;
                }
            }
        });
        if exact {
            total = counted_sum(&[ops - memory_ops, memory_ops - misses, misses], &op_ns);
            busy = start + total;
        }
        self.stats.ops += ops;
        self.stats.memory_ops += memory_ops;
        self.stats.cache_misses += misses;
        self.stats.busy_ns = busy;
        total
    }

    /// Decide `ops` operations, handing `f` up to 64 positions at a time as
    /// three masks, in operation order: where an operation ends (a compute
    /// operation or a drawless miss decision at its one word, a memory
    /// operation otherwise at its miss word), and which of those ends are memory
    /// operations and misses. A probability of 0 or 1 draws no word, exactly as
    /// `bernoulli` draws none for it.
    fn decide(&mut self, ops: u64, mut f: impl FnMut(u64, u64, u64)) {
        let mem = BernoulliThreshold::new(self.config.mix.memory_fraction());
        let miss = BernoulliThreshold::new(self.config.p_miss);
        match (mem.fixed(), miss.fixed()) {
            (None, None) => {
                let (mut left, mut carry) = (ops, false);
                while left > 0 {
                    self.stream.raw_window(|words| {
                        // No operation reads more than two words, so the last
                        // `left` end within the next `2 · left`.
                        let words =
                            &words[..(words.len() as u64).min(left.saturating_mul(2)) as usize];
                        let within = low_bits(words.len());
                        let is_mem = mem.mask(words);
                        let (escaped, overflow) = miss_words(is_mem, carry);
                        carry = match words.len() {
                            64 => overflow,
                            len => escaped >> len & 1 == 1,
                        };
                        let escaped = escaped & within;
                        let done = !escaped & !is_mem & within | escaped;
                        let found = u64::from(done.count_ones());
                        // The window holds the last operation: stop at its end.
                        let used = if found < left {
                            words.len()
                        } else {
                            nth_set_bit(done, left - 1) + 1
                        };
                        let within = low_bits(used);
                        let missed = escaped & miss.mask(words) & within;
                        f(done & within, escaped & within, missed);
                        left -= found.min(left);
                        used
                    });
                }
            }
            // Every operation is a memory operation that reads only its miss word.
            (Some(true), None) => self.stream.hit_masks(miss, ops, |is_miss, len| {
                f(low_bits(len), low_bits(len), is_miss)
            }),
            // The miss decision draws nothing (or is never reached): one word per
            // operation at most.
            (_, miss_fixed) => {
                let always = if miss_fixed == Some(true) {
                    u64::MAX
                } else {
                    0
                };
                self.stream.hit_masks(mem, ops, |is_mem, len| {
                    f(low_bits(len), is_mem, is_mem & always)
                });
            }
        }
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
        // Either side of the exactness predicate: a dyadic but fractional clock
        // (2³⁰ + 2⁻²⁰ ns), whose residues round away once sums pass 2³³, and a
        // whole clock (2⁴³ + 1 ns) whose worst-case total passes 2⁵³ within a
        // dozen operations.
        let dyadic = SystemConfig {
            hwp_cycle_ns: 2f64.powi(30) + 2f64.powi(-20),
            ..SystemConfig::table1()
        };
        let huge = SystemConfig {
            hwp_cycle_ns: 2f64.powi(43) + 1.0,
            ..SystemConfig::table1()
        };
        let mut configs = vec![SystemConfig::table1(), fractional, dyadic, huge];
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
            // Batches from a few operations to several 64-word buffers, each on
            // fresh streams after an odd number of prior draws (so windows start
            // unaligned), then all of them back to back on one pair of streams.
            // A memory operation reads two words, so where a batch ends in the
            // buffer depends on its draws: the alignment loop below places a
            // phase's end at every position.
            for prior in [1, 33] {
                for ops in [0u64, 1, 7, 31, 32, 33, 63, 64, 65, 1000] {
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
            for ops in [0u64, 1, 7, 31, 32, 33, 63, 64, 65, 1000] {
                assert_run_ops_matches(&mut bulk, &mut seq, ops);
            }
        }
        // Every alignment of a phase of up to 130 operations against the 64-word
        // buffer: phases that end inside a window, and phases whose last
        // operation is a memory operation with its mix word last in one buffer
        // and its miss word, still pending, first in the next.
        for c in [SystemConfig::table1(), fractional, huge] {
            let (mut inside, mut pending) = (0, 0);
            for prior in 0..64 {
                // A stream per alignment: on one stream the parses from
                // different starts soon agree on where operations begin.
                let stream = || RandomStream::new(7, prior);
                let mut probe = HwpExecution::new(c, stream());
                for _ in 0..prior {
                    probe.stream.uniform01();
                }
                for ops in 1..=130 {
                    let before = probe.stream.draws();
                    probe.sample_op_time_ns();
                    let after = probe.stream.draws();
                    inside += usize::from(!after.is_multiple_of(64));
                    pending += usize::from(after - before == 2 && after % 64 == 1);
                    let mut bulk = HwpExecution::new(c, stream());
                    let mut seq = HwpExecution::new(c, stream());
                    for _ in 0..prior {
                        bulk.stream.uniform01();
                        seq.stream.uniform01();
                    }
                    assert_run_ops_matches(&mut bulk, &mut seq, ops);
                }
            }
            assert!(
                inside > 0 && pending > 0,
                "{inside} inside, {pending} pending"
            );
        }
    }

    #[test]
    fn miss_words_match_a_word_by_word_parse() {
        // The reference: walk the words, an operation's memory decision making
        // the next word its miss word.
        let parse = |mem: u64, carry: bool| {
            let (mut escaped, mut next) = (0u64, carry);
            for i in 0..64 {
                let here = next;
                escaped |= u64::from(here) << i;
                next = !here && mem >> i & 1 == 1;
            }
            (escaped, next)
        };
        let mut s = RandomStream::new(3, 3);
        let mut masks = vec![
            0,
            u64::MAX,
            0x5555_5555_5555_5555,
            0xAAAA_AAAA_AAAA_AAAA,
            1 << 63,
        ];
        masks.extend((0..2000).map(|_| s.below(u64::MAX) & s.below(u64::MAX)));
        for mem in masks {
            for carry in [false, true] {
                assert_eq!(
                    miss_words(mem, carry),
                    parse(mem, carry),
                    "{mem:#x} {carry}"
                );
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
