//! Validation of the analytical model against the queuing simulation (Section 3.1.2).
//!
//! The paper reports that the analytical model reproduced the simulation results "to an
//! accuracy of between 5% and 18%". Our queuing simulation and analytical model share
//! their parameter definitions exactly (the paper's two tools — SES/Workbench and
//! MATLAB — did not), so the residual error here is sampling noise and the
//! max-of-parallel-threads effect, typically a few percent. [`validate`] reproduces the
//! comparison and reports per-point and aggregate errors.

use crate::hwp_lwp::AnalyticModel;
use pim_core::config::SystemConfig;
use pim_core::experiment::{run_sweep, SweepSpec};
use pim_core::system::EvalMode;
use serde::{Deserialize, Serialize};

/// One compared design point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ValidationRow {
    /// Node count.
    pub nodes: usize,
    /// Lightweight-work fraction.
    pub lwp_fraction: f64,
    /// Simulated test-system time (ns).
    pub simulated_ns: f64,
    /// Analytical test-system time (ns).
    pub analytic_ns: f64,
    /// `|analytic − simulated| / simulated`.
    pub relative_error: f64,
}

/// Aggregate comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Per-point rows.
    pub rows: Vec<ValidationRow>,
    /// Mean relative error across points.
    pub mean_relative_error: f64,
    /// Maximum relative error across points.
    pub max_relative_error: f64,
}

/// Compare the analytical model with the queuing simulation over `spec`.
///
/// `sim_mode` should be a [`EvalMode::Simulated`] variant; passing
/// [`EvalMode::Expected`] degenerates to comparing the formula with itself (zero error),
/// which is still useful as a consistency check.
pub fn validate(
    config: SystemConfig,
    spec: &SweepSpec,
    sim_mode: EvalMode,
    threads: usize,
) -> ValidationReport {
    let sweep = run_sweep(config, spec, sim_mode, threads);
    let simulated: Vec<f64> = sweep.points.iter().map(|p| p.test_ns).collect();
    validation_from_sweep(config, spec, &simulated)
}

/// The comparison half of [`validate`]: score simulated test-system times, one per
/// point of `spec` in [`SweepSpec::points`] order, against the closed form. Split
/// out so callers that schedule the sweep's points themselves (e.g. the
/// `pim-harness` batch runner, which simulates only the test system) can reuse the
/// identical error computation.
pub fn validation_from_sweep(
    config: SystemConfig,
    spec: &SweepSpec,
    simulated_ns: &[f64],
) -> ValidationReport {
    assert_eq!(
        simulated_ns.len(),
        spec.len(),
        "one simulated time per sweep point"
    );
    let analytic = AnalyticModel::new(config);
    let mut rows = Vec::with_capacity(simulated_ns.len());
    for ((nodes, wl), &simulated) in spec.points().into_iter().zip(simulated_ns) {
        let a = analytic.test_time_ns(nodes as f64, wl);
        let err = if simulated > 0.0 {
            (a - simulated).abs() / simulated
        } else {
            0.0
        };
        rows.push(ValidationRow {
            nodes,
            lwp_fraction: wl,
            simulated_ns: simulated,
            analytic_ns: a,
            relative_error: err,
        });
    }
    let mean = if rows.is_empty() {
        0.0
    } else {
        rows.iter().map(|r| r.relative_error).sum::<f64>() / rows.len() as f64
    };
    let max = rows.iter().map(|r| r.relative_error).fold(0.0, f64::max);
    ValidationReport {
        rows,
        mean_relative_error: mean,
        max_relative_error: max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SweepSpec {
        SweepSpec {
            node_counts: vec![1, 4, 16, 64],
            lwp_fractions: vec![0.0, 0.3, 0.7, 1.0],
        }
    }

    #[test]
    fn expected_mode_gives_zero_error() {
        let r = validate(SystemConfig::table1(), &small_spec(), EvalMode::Expected, 2);
        assert_eq!(r.rows.len(), 16);
        assert!(
            r.max_relative_error < 1e-9,
            "max error {}",
            r.max_relative_error
        );
    }

    #[test]
    fn simulated_mode_error_is_small_and_well_within_the_papers_band() {
        // The paper saw 5-18% between its two independently built models; ours share
        // parameter definitions, so the residual (sampling noise) must be well under 5%.
        let r = validate(
            SystemConfig::table1(),
            &small_spec(),
            EvalMode::sampled(7),
            4,
        );
        assert!(
            r.max_relative_error < 0.05,
            "max error {}",
            r.max_relative_error
        );
        assert!(
            r.mean_relative_error < 0.02,
            "mean error {}",
            r.mean_relative_error
        );
        assert!(r.mean_relative_error <= r.max_relative_error);
    }
}
