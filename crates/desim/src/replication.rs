//! Independent replications: the standard output-analysis method for terminating and
//! steady-state simulations.
//!
//! A statistical simulation result from a single run is a point estimate with unknown
//! error. Running the same experiment `n` times with decorrelated seeds
//! ([`replication_seed`]) and reporting the mean with a Student-t confidence interval
//! ([`ReplicationSummary::from_samples`]) is the methodology queueing studies
//! (including the paper's) rely on when quoting a number. The replications
//! themselves run wherever the caller schedules them.

use crate::stats::{ConfidenceLevel, Tally};
use serde::{Deserialize, Serialize};

/// Summary of a replicated experiment's scalar output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicationSummary {
    /// Number of replications performed.
    pub replications: u64,
    /// Mean across replications.
    pub mean: f64,
    /// Sample standard deviation across replications.
    pub std_dev: f64,
    /// Half-width of the confidence interval on the mean.
    pub half_width: f64,
    /// Confidence level used for the interval.
    pub level: ConfidenceLevel,
    /// Smallest replication output.
    pub min: f64,
    /// Largest replication output.
    pub max: f64,
}

impl ReplicationSummary {
    /// Summarize already-collected replication outputs (one scalar per replication,
    /// in replication order).
    ///
    /// # Panics
    /// Panics when fewer than two samples are given — a confidence interval needs an
    /// estimate of the variance.
    pub fn from_samples(samples: &[f64], level: ConfidenceLevel) -> ReplicationSummary {
        assert!(
            samples.len() >= 2,
            "need at least two replications for an interval"
        );
        let mut tally = Tally::new();
        for &s in samples {
            tally.record(s);
        }
        ReplicationSummary {
            replications: samples.len() as u64,
            mean: tally.mean(),
            std_dev: tally.std_dev(),
            half_width: tally.confidence_half_width(level),
            level,
            min: tally.min().unwrap_or(0.0),
            max: tally.max().unwrap_or(0.0),
        }
    }
}

/// The seed of replication `index` of an experiment with the given base seed: a pure
/// function of `(base_seed, index)`, so replications can be evaluated out of order
/// (or on different threads) and still reproduce the sequential stream exactly.
pub fn replication_seed(base_seed: u64, index: u64) -> u64 {
    base_seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomStream;

    /// Replications `0..n` of `experiment`, seeded from `base_seed`, in order.
    fn replicate(
        n: u64,
        base_seed: u64,
        level: ConfidenceLevel,
        experiment: impl Fn(u64) -> f64,
    ) -> ReplicationSummary {
        let samples: Vec<f64> = (0..n)
            .map(|r| experiment(replication_seed(base_seed, r)))
            .collect();
        ReplicationSummary::from_samples(&samples, level)
    }

    /// The confidence interval as `(low, high)`.
    fn interval(summary: &ReplicationSummary) -> (f64, f64) {
        (
            summary.mean - summary.half_width,
            summary.mean + summary.half_width,
        )
    }

    /// True when the confidence interval contains `value`.
    fn covers(summary: &ReplicationSummary, value: f64) -> bool {
        let (lo, hi) = interval(summary);
        value >= lo && value <= hi
    }

    #[test]
    fn replication_mean_recovers_known_value() {
        let summary = replicate(64, 7, ConfidenceLevel::P95, |seed| {
            let mut s = RandomStream::new(seed, 1);
            (0..2_000).map(|_| s.exponential(10.0)).sum::<f64>() / 2_000.0
        });
        assert_eq!(summary.replications, 64);
        assert!(
            covers(&summary, 10.0),
            "interval {:?} should cover 10",
            interval(&summary)
        );
        assert!(summary.half_width / summary.mean < 0.02);
        assert!(summary.min <= summary.mean && summary.mean <= summary.max);
    }

    #[test]
    fn deterministic_experiment_has_zero_width_interval() {
        let summary = replicate(8, 1, ConfidenceLevel::P99, |_seed| 42.0);
        assert_eq!(summary.mean, 42.0);
        assert_eq!(summary.half_width, 0.0);
        assert!(covers(&summary, 42.0));
        assert!(!covers(&summary, 41.0));
    }

    #[test]
    fn interval_shrinks_with_more_replications() {
        let run = |n| {
            replicate(n, 3, ConfidenceLevel::P95, |seed| {
                let mut s = RandomStream::new(seed, 2);
                s.normal(5.0, 2.0)
            })
            .half_width
        };
        assert!(run(100) < run(10));
    }

    #[test]
    #[should_panic(expected = "at least two replications")]
    fn single_replication_is_rejected() {
        replicate(1, 0, ConfidenceLevel::P95, |_| 0.0);
    }

    #[test]
    fn from_samples_matches_inline_replication() {
        let experiment = |seed: u64| {
            let mut s = RandomStream::new(seed, 9);
            s.uniform(0.0, 1.0)
        };
        let inline = replicate(12, 77, ConfidenceLevel::P95, experiment);
        // Evaluate the same replications out of order via the exposed seed function.
        let mut samples: Vec<(u64, f64)> = (0..12u64)
            .rev()
            .map(|r| (r, experiment(replication_seed(77, r))))
            .collect();
        samples.sort_by_key(|&(r, _)| r);
        let values: Vec<f64> = samples.into_iter().map(|(_, v)| v).collect();
        let assembled = ReplicationSummary::from_samples(&values, ConfidenceLevel::P95);
        assert_eq!(assembled.replications, inline.replications);
        assert_eq!(assembled.mean, inline.mean);
        assert_eq!(assembled.half_width, inline.half_width);
        assert_eq!(assembled.min, inline.min);
        assert_eq!(assembled.max, inline.max);
    }
}
