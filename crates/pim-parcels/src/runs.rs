//! Sampling of "runs": stretches of local work between consecutive remote accesses.
//!
//! Both the control and the test system alternate between a run of local operations
//! (compute + local memory accesses) and a remote access. The run length in operations
//! is geometric with parameter `p_remote = mix · remote_fraction`; the run duration is
//! the sum of the individual operation times. For long runs the duration is drawn from
//! the normal approximation of that sum (mean `k·μ`, variance `k·σ²`) instead of adding
//! up `k` Bernoulli draws, which keeps the cost of one simulated run O(1) regardless of
//! how rare remote accesses are.

use crate::config::ParcelConfig;
use desim::random::{BernoulliThreshold, RandomStream};

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
    /// Cycles for a local memory access.
    mem_cycles: f64,
    /// Mean cycles per local operation.
    mean: f64,
    /// Standard deviation of cycles per local operation.
    std_dev: f64,
}

impl LocalOpDist {
    /// Derive the conditional local-operation distribution from the study configuration.
    pub fn from_config(config: &ParcelConfig) -> Self {
        let mix = config.mix.memory_fraction();
        let p_compute = 1.0 - mix;
        let p_local_mem = mix * (1.0 - config.remote_fraction);
        let denom = p_compute + p_local_mem;
        if denom <= 0.0 {
            return LocalOpDist {
                p_local_mem: 0.0,
                mem_cycles: config.local_memory_cycles,
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
            mem_cycles: m,
            mean,
            std_dev: var.sqrt(),
        }
    }

    /// Mean cycles per local operation.
    pub fn mean_cycles(&self) -> f64 {
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
    /// Runs of up to 64 operations are summed exactly; longer runs use the normal
    /// approximation of the sum.
    pub fn sample_total(&self, ops: u64, stream: &mut RandomStream) -> f64 {
        if ops == 0 {
            return 0.0;
        }
        if self.mean <= 0.0 {
            return 0.0;
        }
        if ops <= 64 {
            // Bulk form of `(0..ops).map(|_| self.sample_op(stream)).sum()`:
            // same draws in the same order, same left-to-right summation, so the
            // result is bit-identical. The decisions come first, as codes, then a
            // table sums them without a data-dependent branch.
            let op_cycles = [1.0, self.mem_cycles];
            let mut codes = [0u8; 64];
            let codes = &mut codes[..ops as usize];
            stream.fill_bernoulli(BernoulliThreshold::new(self.p_local_mem), codes);
            let mut total = 0.0;
            for &code in codes.iter() {
                total += op_cycles[code as usize];
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
    /// `(1 - p_remote).ln()`, hoisted out of the per-run geometric draw.
    ln_one_minus_p: f64,
    local: LocalOpDist,
}

impl RunSampler {
    /// Build a sampler from the study configuration.
    pub fn new(config: &ParcelConfig) -> Self {
        let p_remote = config.remote_prob_per_op();
        RunSampler {
            p_remote,
            ln_one_minus_p: (1.0 - p_remote).ln(),
            local: LocalOpDist::from_config(config),
        }
    }

    /// Probability that an operation is a remote access.
    pub fn p_remote(&self) -> f64 {
        self.p_remote
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
    pub fn sample_run(&self, max_cycles: f64, stream: &mut RandomStream) -> (Run, bool) {
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

    /// Mean cycles of one local operation.
    pub fn mean_local_op_cycles(&self) -> f64 {
        self.local.mean
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
        for c in [config(0.2), all_memory, no_memory] {
            let d = LocalOpDist::from_config(&c);
            let mut bulk = RandomStream::new(11, 1);
            let mut seq = RandomStream::new(11, 1);
            bulk.uniform01();
            seq.uniform01();
            for ops in [1u64, 2, 5, 31, 32, 33, 64] {
                let a = d.sample_total(ops, &mut bulk);
                let b: f64 = (0..ops).map(|_| d.sample_op(&mut seq)).sum();
                assert_eq!(a.to_bits(), b.to_bits(), "ops={ops}");
                assert_eq!(bulk.draws(), seq.draws());
            }
        }
    }

    #[test]
    fn expected_run_matches_config() {
        let c = config(0.3);
        let r = RunSampler::new(&c);
        assert!((r.expected_run_cycles() - c.expected_run_cycles()).abs() < 1e-9);
        assert!((r.p_remote() - c.remote_prob_per_op()).abs() < 1e-12);
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
        let c = config(0.0);
        let r = RunSampler::new(&c);
        let mut s = RandomStream::new(5, 1);
        let (run, ended_remote) = r.sample_run(10_000.0, &mut s);
        assert!(!ended_remote);
        assert!((run.cycles - 10_000.0).abs() < 1e-9);
        assert!(run.ops > 0);
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
