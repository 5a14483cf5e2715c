//! Sampling of "runs": stretches of local work between consecutive remote accesses.
//!
//! Both the control and the test system alternate between a run of local operations
//! (compute + local memory accesses) and a remote access. The run length in operations
//! is geometric with parameter `p_remote = mix · remote_fraction`; the run duration is
//! the sum of the individual operation times. For long runs the duration is drawn from
//! the normal approximation of that sum (mean `k·μ`, variance `k·σ²`) instead of adding
//! up `k` Bernoulli draws, which keeps the cost of one simulated run O(1) regardless of
//! how rare remote accesses are.
//!
//! A short run's local-memory decisions come as a hit mask that the stream computes
//! once per buffer of 64 raw words and shares among the runs drawn from it. With a
//! whole `local_memory_cycles` small enough that no run's sum can round
//! ([`sums_exactly`]), the run's duration is the count of compute and memory
//! operations times their cycles; otherwise the cycles are added operation by
//! operation, in order.

use crate::config::ParcelConfig;
use desim::random::{counted_sum, ln_one_minus, sums_exactly, BernoulliThreshold, RandomStream};

/// The longest run whose operations [`LocalOpDist::sample_total`] draws one by
/// one; longer runs take the normal approximation.
const EXACT_RUN_OPS: u64 = 64;

/// A sampled run of local work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Run {
    /// Number of local operations completed in the run.
    pub ops: u64,
    /// Duration of the run in cycles.
    pub cycles: f64,
}

/// Per-operation distribution of *local* work, conditioned on the operation not being a
/// remote access.
#[derive(Debug, Clone, Copy)]
pub struct LocalOpDist {
    /// Probability that a local operation is a local memory access (vs pure compute).
    p_local_mem: f64,
    /// `p_local_mem` as a raw-word threshold, for the bulk path of
    /// [`Self::sample_total`].
    local_mem: BernoulliThreshold,
    /// Cycles for a local memory access.
    mem_cycles: f64,
    /// Whether a run of up to `EXACT_RUN_OPS` operations takes counts times
    /// op cycles ([`sums_exactly`]).
    counted: bool,
    /// Mean cycles per local operation.
    mean: f64,
    /// Standard deviation of cycles per local operation.
    std_dev: f64,
}

impl LocalOpDist {
    /// Derive the conditional local-operation distribution from the study configuration.
    pub(crate) fn from_config(config: &ParcelConfig) -> Self {
        let mix = config.mix.memory_fraction();
        let p_compute = 1.0 - mix;
        let p_local_mem = mix * (1.0 - config.remote_fraction);
        let denom = p_compute + p_local_mem;
        if denom <= 0.0 {
            return LocalOpDist {
                p_local_mem: 0.0,
                local_mem: BernoulliThreshold::new(0.0),
                mem_cycles: config.local_memory_cycles,
                counted: false,
                mean: 0.0,
                std_dev: 0.0,
            };
        }
        let p = p_local_mem / denom;
        let m = config.local_memory_cycles;
        let mean = (1.0 - p) * 1.0 + p * m;
        let var = (1.0 - p) * (1.0 - mean) * (1.0 - mean) + p * (m - mean) * (m - mean);
        LocalOpDist {
            p_local_mem: p,
            local_mem: BernoulliThreshold::new(p),
            mem_cycles: m,
            counted: sums_exactly(0.0, &[1.0, m], EXACT_RUN_OPS),
            mean,
            std_dev: var.sqrt(),
        }
    }

    /// Mean cycles per local operation.
    #[cfg(test)]
    fn mean_cycles(&self) -> f64 {
        self.mean
    }

    /// Sample the duration of one local operation in cycles.
    pub fn sample_op(&self, stream: &mut RandomStream) -> f64 {
        if stream.bernoulli(self.p_local_mem) {
            self.mem_cycles
        } else {
            1.0
        }
    }

    /// Sample the total duration of `ops` local operations in cycles.
    ///
    /// Runs of up to `EXACT_RUN_OPS` (64) operations are summed exactly; longer runs
    /// use the normal approximation of the sum.
    pub(crate) fn sample_total(&self, ops: u64, stream: &mut RandomStream) -> f64 {
        if ops == 0 {
            return 0.0;
        }
        if self.mean <= 0.0 {
            return 0.0;
        }
        if ops <= EXACT_RUN_OPS {
            // Bulk form of `(0..ops).map(|_| self.sample_op(stream)).sum()`:
            // the same draws in the same order and, bit for bit, the same sum.
            let op_cycles = [1.0, self.mem_cycles];
            let (mut memory, mut total) = (0, 0.0);
            stream.hit_masks(self.local_mem, ops, |is_mem, len| {
                memory += u64::from(is_mem.count_ones());
                if !self.counted {
                    for i in 0..len {
                        total += op_cycles[(is_mem >> i & 1) as usize];
                    }
                }
            });
            if self.counted {
                total = counted_sum(&[ops - memory, memory], &op_cycles);
            }
            total
        } else {
            let mean = ops as f64 * self.mean;
            let std = (ops as f64).sqrt() * self.std_dev;
            stream.normal(mean, std).max(ops as f64) // at least one cycle per op
        }
    }
}

/// Generator of run lengths for a node or parcel context.
#[derive(Debug)]
pub struct RunSampler {
    p_remote: f64,
    /// [`ln_one_minus`]`(p_remote)`, hoisted out of the per-run geometric draw.
    ln_one_minus_p: f64,
    local: LocalOpDist,
}

impl RunSampler {
    /// Build a sampler from the study configuration.
    pub fn new(config: &ParcelConfig) -> Self {
        let p_remote = config.remote_prob_per_op();
        RunSampler {
            p_remote,
            ln_one_minus_p: ln_one_minus(p_remote),
            local: LocalOpDist::from_config(config),
        }
    }

    /// Expected run duration in cycles (`R` of the multithreading model).
    pub fn expected_run_cycles(&self) -> f64 {
        if self.p_remote <= 0.0 {
            return f64::INFINITY;
        }
        (1.0 - self.p_remote) / self.p_remote * self.local.mean
    }

    /// Sample one run, capped so its duration never exceeds `max_cycles` (the remaining
    /// horizon). When the cap bites, the operation count is prorated and the run is
    /// marked as not ending in a remote access.
    pub(crate) fn sample_run(&self, max_cycles: f64, stream: &mut RandomStream) -> (Run, bool) {
        if max_cycles <= 0.0 {
            return (
                Run {
                    ops: 0,
                    cycles: 0.0,
                },
                false,
            );
        }
        if self.p_remote <= 0.0 {
            // No remote accesses ever: the run fills the remaining horizon.
            let ops = if self.local.mean > 0.0 {
                (max_cycles / self.local.mean).floor() as u64
            } else {
                0
            };
            return (
                Run {
                    ops,
                    cycles: max_cycles,
                },
                false,
            );
        }
        let ops = stream.geometric_with_ln(self.p_remote, self.ln_one_minus_p);
        let cycles = self.local.sample_total(ops, stream);
        if cycles >= max_cycles {
            // Truncate at the horizon; prorate the completed operations.
            let frac = if cycles > 0.0 {
                max_cycles / cycles
            } else {
                0.0
            };
            let done = (ops as f64 * frac).floor() as u64;
            (
                Run {
                    ops: done,
                    cycles: max_cycles,
                },
                false,
            )
        } else {
            (Run { ops, cycles }, true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_workload::InstructionMix;

    fn config(remote_fraction: f64) -> ParcelConfig {
        ParcelConfig {
            remote_fraction,
            ..Default::default()
        }
    }

    #[test]
    fn local_op_distribution_matches_closed_form() {
        let c = config(0.2);
        let d = LocalOpDist::from_config(&c);
        assert!((d.mean_cycles() - c.expected_local_op_cycles()).abs() < 1e-12);
        let mut s = RandomStream::new(1, 1);
        let n = 100_000;
        let mean = (0..n).map(|_| d.sample_op(&mut s)).sum::<f64>() / n as f64;
        assert!((mean - d.mean_cycles()).abs() / d.mean_cycles() < 0.02);
    }

    #[test]
    fn sample_total_exact_and_approximate_agree_in_mean() {
        let d = LocalOpDist::from_config(&config(0.2));
        let mut s = RandomStream::new(2, 1);
        let trials = 4_000;
        let exact: f64 =
            (0..trials).map(|_| d.sample_total(60, &mut s)).sum::<f64>() / trials as f64;
        let approx: f64 = (0..trials)
            .map(|_| d.sample_total(600, &mut s))
            .sum::<f64>()
            / trials as f64;
        assert!((exact - 60.0 * d.mean_cycles()).abs() / (60.0 * d.mean_cycles()) < 0.03);
        assert!((approx - 600.0 * d.mean_cycles()).abs() / (600.0 * d.mean_cycles()) < 0.03);
    }

    #[test]
    fn sample_total_bulk_path_matches_per_op_draws() {
        // The raw-window path must replay exactly the per-op draw sequence:
        // same values, same draw count, bit-identical sum — also when the local
        // memory probability is exactly 0 (no memory mix) or 1 (no compute).
        let all_memory = ParcelConfig {
            mix: InstructionMix::with_memory_fraction(1.0),
            ..config(0.2)
        };
        let no_memory = ParcelConfig {
            mix: InstructionMix::with_memory_fraction(0.0),
            ..config(0.2)
        };
        // Either side of the exactness predicate: a dyadic but fractional access
        // (2⁴⁰ + 2⁻¹⁰ cycles), whose residues round away once sums pass 2⁴³,
        // and a whole one (2⁵⁰ + 1 cycles) whose 64-operation worst case passes
        // 2⁵³.
        let dyadic = ParcelConfig {
            local_memory_cycles: 2f64.powi(40) + 2f64.powi(-10),
            ..config(0.2)
        };
        let huge = ParcelConfig {
            local_memory_cycles: 2f64.powi(50) + 1.0,
            ..config(0.2)
        };
        let exact = |d: &LocalOpDist, ops: u64, bulk: &mut RandomStream, seq: &mut RandomStream| {
            let a = d.sample_total(ops, bulk);
            let b: f64 = (0..ops).map(|_| d.sample_op(seq)).sum();
            assert_eq!(a.to_bits(), b.to_bits(), "{d:?} ops={ops}");
            assert_eq!(bulk.draws(), seq.draws());
        };
        for c in [config(0.2), all_memory, no_memory, dyadic, huge] {
            let d = LocalOpDist::from_config(&c);
            let mut bulk = RandomStream::new(11, 1);
            let mut seq = RandomStream::new(11, 1);
            bulk.uniform01();
            seq.uniform01();
            for ops in [1u64, 2, 5, 31, 32, 33, 64] {
                exact(&d, ops, &mut bulk, &mut seq);
            }
        }
        // Every alignment of a run against the 64-word buffer: runs that end
        // inside a window, runs that end exactly on its edge and runs that span
        // two buffers, each followed by a run length's draw and one more run
        // that reuses the buffer's hit mask.
        for c in [config(0.2), huge] {
            let d = LocalOpDist::from_config(&c);
            for prior in 0..64 {
                for ops in 1..=64 {
                    let mut bulk = RandomStream::new(7, prior);
                    let mut seq = RandomStream::new(7, prior);
                    for _ in 0..prior {
                        bulk.uniform01();
                        seq.uniform01();
                    }
                    exact(&d, ops, &mut bulk, &mut seq);
                    assert_eq!(bulk.uniform01().to_bits(), seq.uniform01().to_bits());
                    exact(&d, 3, &mut bulk, &mut seq);
                }
            }
        }
    }

    #[test]
    fn expected_run_matches_config() {
        let c = config(0.3);
        let r = RunSampler::new(&c);
        assert!((r.expected_run_cycles() - c.expected_run_cycles()).abs() < 1e-9);
    }

    #[test]
    fn sampled_runs_converge_to_expected_length() {
        let c = config(0.4);
        let r = RunSampler::new(&c);
        let mut s = RandomStream::new(3, 1);
        let trials = 20_000;
        let mean: f64 = (0..trials)
            .map(|_| r.sample_run(f64::INFINITY, &mut s).0.cycles)
            .sum::<f64>()
            / trials as f64;
        let expect = r.expected_run_cycles();
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} expect {expect}"
        );
    }

    #[test]
    fn run_is_capped_at_the_horizon() {
        let c = config(0.0001);
        let r = RunSampler::new(&c);
        let mut s = RandomStream::new(4, 1);
        for _ in 0..100 {
            let (run, ended_remote) = r.sample_run(500.0, &mut s);
            assert!(run.cycles <= 500.0 + 1e-9);
            if !ended_remote {
                assert!((run.cycles - 500.0).abs() < 1e-9 || run.cycles == 0.0);
            }
        }
    }

    #[test]
    fn zero_remote_probability_fills_the_horizon() {
        // A remote fraction of 1e-18 puts `p_remote` below 2⁻⁵⁴, where
        // `1.0 - p` rounds to 1: its runs must still fill the horizon, not
        // collapse to zero-length runs that end in a remote access.
        for remote in [0.0, 1e-18] {
            let c = config(remote);
            let r = RunSampler::new(&c);
            let mut s = RandomStream::new(5, 1);
            let (run, ended_remote) = r.sample_run(10_000.0, &mut s);
            assert!(!ended_remote, "remote = {remote:e}");
            assert!((run.cycles - 10_000.0).abs() < 1e-9, "remote = {remote:e}");
            assert!(run.ops > 0, "remote = {remote:e}");
        }
    }

    #[test]
    fn all_remote_config_produces_zero_length_runs() {
        let c = ParcelConfig {
            remote_fraction: 1.0,
            mix: InstructionMix::with_memory_fraction(1.0),
            ..Default::default()
        };
        let r = RunSampler::new(&c);
        let mut s = RandomStream::new(6, 1);
        let (run, ended_remote) = r.sample_run(1000.0, &mut s);
        assert!(ended_remote);
        assert_eq!(run.ops, 0);
        assert_eq!(run.cycles, 0.0);
    }
}
