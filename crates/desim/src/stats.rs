//! Statistics collection for simulation outputs.
//!
//! The paper's dependent variables — performance gain, response time, throughput,
//! utilization and idle time — are all either *observation* statistics (one sample per
//! completed transaction) or *time-weighted* statistics (a state variable integrated
//! over simulated time). [`Tally`] covers the former and gives Student-t confidence
//! intervals on the mean; the models integrate time-weighted state themselves.

use serde::{Deserialize, Serialize};

/// Observation-based statistic: mean, variance (Welford), min and max.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// New empty tally.
    pub fn new() -> Self {
        Tally {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Half-width of the `level` confidence interval on the mean, using a Student-t
    /// critical value. Returns 0 for fewer than two observations.
    pub(crate) fn confidence_half_width(&self, level: ConfidenceLevel) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let t = student_t_critical(self.count - 1, level);
        t * self.std_dev() / (self.count as f64).sqrt()
    }
}

/// Supported confidence levels for interval estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfidenceLevel {
    /// 90% two-sided.
    P90,
    /// 95% two-sided.
    P95,
    /// 99% two-sided.
    P99,
}

/// Two-sided Student-t critical values for common confidence levels.
///
/// Exact for the tabulated degrees of freedom; interpolates linearly between table
/// rows and converges to the normal quantile for large samples.
pub(crate) fn student_t_critical(dof: u64, level: ConfidenceLevel) -> f64 {
    // (dof, t_90, t_95, t_99)
    const TABLE: &[(u64, f64, f64, f64)] = &[
        (1, 6.314, 12.706, 63.657),
        (2, 2.920, 4.303, 9.925),
        (3, 2.353, 3.182, 5.841),
        (4, 2.132, 2.776, 4.604),
        (5, 2.015, 2.571, 4.032),
        (6, 1.943, 2.447, 3.707),
        (7, 1.895, 2.365, 3.499),
        (8, 1.860, 2.306, 3.355),
        (9, 1.833, 2.262, 3.250),
        (10, 1.812, 2.228, 3.169),
        (12, 1.782, 2.179, 3.055),
        (15, 1.753, 2.131, 2.947),
        (20, 1.725, 2.086, 2.845),
        (25, 1.708, 2.060, 2.787),
        (30, 1.697, 2.042, 2.750),
        (40, 1.684, 2.021, 2.704),
        (60, 1.671, 2.000, 2.660),
        (120, 1.658, 1.980, 2.617),
    ];
    const INF: (f64, f64, f64) = (1.645, 1.960, 2.576);
    let pick = |row: (f64, f64, f64)| match level {
        ConfidenceLevel::P90 => row.0,
        ConfidenceLevel::P95 => row.1,
        ConfidenceLevel::P99 => row.2,
    };
    let dof = dof.max(1);
    if dof >= 200 {
        return pick(INF);
    }
    let mut prev = TABLE[0];
    for &row in TABLE {
        if dof == row.0 {
            return pick((row.1, row.2, row.3));
        }
        if dof < row.0 {
            // Linear interpolation in 1/dof, which is how t-tables behave asymptotically.
            let x0 = 1.0 / prev.0 as f64;
            let x1 = 1.0 / row.0 as f64;
            let x = 1.0 / dof as f64;
            let w = if (x1 - x0).abs() < 1e-12 {
                0.0
            } else {
                (x - x0) / (x1 - x0)
            };
            let a = pick((prev.1, prev.2, prev.3));
            let b = pick((row.1, row.2, row.3));
            return a + w * (b - a);
        }
        prev = row;
    }
    let a = pick((prev.1, prev.2, prev.3));
    let b = pick(INF);
    // Interpolate between the last table row (dof 120) and infinity in 1/dof.
    let x0 = 1.0 / prev.0 as f64;
    let x = 1.0 / dof as f64;
    a + (b - a) * (1.0 - x / x0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_moments() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert!((t.mean() - 5.0).abs() < 1e-12);
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(t.min(), Some(2.0));
        assert_eq!(t.max(), Some(9.0));
    }

    #[test]
    fn tally_empty_is_sane() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
        assert_eq!(t.confidence_half_width(ConfidenceLevel::P95), 0.0);
    }

    #[test]
    fn student_t_table_values() {
        assert!((student_t_critical(1, ConfidenceLevel::P95) - 12.706).abs() < 1e-9);
        assert!((student_t_critical(10, ConfidenceLevel::P90) - 1.812).abs() < 1e-9);
        assert!((student_t_critical(1_000_000, ConfidenceLevel::P99) - 2.576).abs() < 1e-9);
        // Interpolated value lies between its neighbours.
        let t11 = student_t_critical(11, ConfidenceLevel::P95);
        assert!(t11 < student_t_critical(10, ConfidenceLevel::P95));
        assert!(t11 > student_t_critical(12, ConfidenceLevel::P95));
    }

    #[test]
    fn confidence_interval_shrinks_with_samples() {
        let mut small = Tally::new();
        let mut large = Tally::new();
        for i in 0..10 {
            small.record((i % 5) as f64);
        }
        for i in 0..1000 {
            large.record((i % 5) as f64);
        }
        assert!(
            large.confidence_half_width(ConfidenceLevel::P95)
                < small.confidence_half_width(ConfidenceLevel::P95)
        );
    }
}
