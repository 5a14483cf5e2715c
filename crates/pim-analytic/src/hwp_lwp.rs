//! The paper's analytical model of the HWP/LWP partitioning study (Section 3.1.2).
//!
//! ```text
//! Time_relative = 1 − %WL · { 1 − (1/N) · [ (TLcycle + mix·(TML − TLcycle))
//!                                           / (1 + mix·(TCH − 1 + Pmiss·TMH)) ] }
//!
//!            NB ≡ (TLcycle + mix·(TML − TLcycle)) / (1 + mix·(TCH − 1 + Pmiss·TMH))
//!
//! Time_relative = 1 − %WL · (1 − NB / N)
//! ```
//!
//! The "remarkable property" the paper reports is that the third parameter `NB` is
//! orthogonal to both `N` and `%WL`: all constant-`%WL` curves coincide at `N = NB`,
//! and for `N > NB` the PIM-augmented system is never slower than the host alone.

use pim_core::config::SystemConfig;
use serde::{Deserialize, Serialize};

/// The closed-form analytical model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalyticModel {
    /// The machine/workload constants the formula consumes.
    pub config: SystemConfig,
}

impl AnalyticModel {
    /// Build the model from a system configuration.
    pub fn new(config: SystemConfig) -> Self {
        config.assert_valid();
        AnalyticModel { config }
    }

    /// Model with the Table 1 constants.
    pub fn table1() -> Self {
        AnalyticModel::new(SystemConfig::table1())
    }

    /// The break-even parameter `NB`.
    pub fn nb(&self) -> f64 {
        self.config.nb()
    }

    /// `Time_relative` for `n` nodes and lightweight-work fraction `wl` (`%WL ∈ [0,1]`).
    /// `n` is a real number so the continuous curves of Figure 7 can be traced.
    pub fn time_relative(&self, n: f64, wl: f64) -> f64 {
        assert!(n > 0.0, "node count must be positive");
        assert!((0.0..=1.0).contains(&wl), "%WL must lie in [0,1]");
        1.0 - wl * (1.0 - self.nb() / n)
    }

    /// Absolute test-system time in nanoseconds for `n` nodes and fraction `wl`.
    pub fn test_time_ns(&self, n: f64, wl: f64) -> f64 {
        self.time_relative(n, wl) * self.control_time_ns()
    }

    /// Absolute control-system time in nanoseconds (all work on the host).
    pub fn control_time_ns(&self) -> f64 {
        self.config.total_ops as f64 * self.config.hwp_op_time_ns()
    }

    /// Performance gain of the test system over the control system.
    pub fn gain(&self, n: f64, wl: f64) -> f64 {
        1.0 / self.time_relative(n, wl)
    }

    /// The smallest integer node count for which the test system is at least as fast as
    /// the control system for *every* `%WL` (i.e. `ceil(NB)`).
    pub fn break_even_nodes(&self) -> usize {
        self.nb().ceil() as usize
    }

    /// Trace the Figure 7 family: for each `%WL` in `wl_values`, the normalized runtime
    /// at each node count in `node_counts`. Returned row-major: `rows[wl][n]`.
    pub fn figure7_series(&self, node_counts: &[usize], wl_values: &[f64]) -> Vec<Vec<f64>> {
        wl_values
            .iter()
            .map(|&wl| {
                node_counts
                    .iter()
                    .map(|&n| self.time_relative(n as f64, wl))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nb_is_orthogonal_to_n_and_wl() {
        let m = AnalyticModel::table1();
        let nb = m.nb();
        assert!((nb - 3.125).abs() < 1e-12);
        // NB depends only on the configuration, never on the sweep variables.
        for wl in [0.0, 0.5, 1.0] {
            for n in [1.0, 8.0, 256.0] {
                let _ = m.time_relative(n, wl);
                assert!((m.nb() - nb).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn curves_coincide_at_n_equals_nb() {
        // The Figure 7 "point of coincidence": at N = NB every %WL curve passes through 1.
        let m = AnalyticModel::table1();
        let nb = m.nb();
        for wl in [0.0, 0.1, 0.3, 0.7, 1.0] {
            assert!((m.time_relative(nb, wl) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pim_never_loses_beyond_nb() {
        let m = AnalyticModel::table1();
        for n in [4.0, 8.0, 64.0, 1024.0] {
            for wl in [0.0, 0.2, 0.5, 1.0] {
                assert!(m.time_relative(n, wl) <= 1.0 + 1e-12, "n={n} wl={wl}");
            }
        }
        // And strictly loses below NB when any work is offloaded.
        assert!(m.time_relative(2.0, 0.5) > 1.0);
    }

    #[test]
    fn gain_matches_figure5_landmarks() {
        let m = AnalyticModel::table1();
        // 32 nodes, all-LWP work: 32 / 3.125 = 10.24x.
        assert!((m.gain(32.0, 1.0) - 10.24).abs() < 1e-9);
        // 256 nodes, all-LWP work: ~82x — the paper's "approaching 100X" extreme.
        assert!((m.gain(256.0, 1.0) - 81.92).abs() < 1e-9);
        // Moderate offload on a large array roughly doubles performance.
        let g = m.gain(64.0, 0.55);
        assert!(g > 2.0 && g < 2.3, "gain {g}");
    }

    #[test]
    fn break_even_nodes_is_ceiling_of_nb() {
        assert_eq!(AnalyticModel::table1().break_even_nodes(), 4);
        let mut config = SystemConfig::table1();
        config.p_miss = 0.3; // worse host cache: NB drops
        let m = AnalyticModel::new(config);
        assert!(m.nb() < 2.0);
        assert_eq!(m.break_even_nodes(), (m.nb().ceil()) as usize);
    }

    #[test]
    fn absolute_times_are_consistent_with_pim_core() {
        let m = AnalyticModel::table1();
        let study = pim_core::system::PartitionStudy::table1();
        for &(n, wl) in &[(1usize, 0.3), (8, 0.6), (64, 1.0)] {
            let analytic = m.test_time_ns(n as f64, wl);
            let expected = study.expected_test_ns(n, wl);
            assert!(
                (analytic - expected).abs() / expected < 1e-9,
                "n={n} wl={wl}: {analytic} vs {expected}"
            );
        }
        assert!((m.control_time_ns() - study.expected_control_ns()).abs() < 1e-6);
    }

    #[test]
    fn figure7_series_shape() {
        let m = AnalyticModel::table1();
        let nodes = [1usize, 2, 4, 8, 16, 32, 64];
        let wls = [0.0, 0.5, 1.0];
        let series = m.figure7_series(&nodes, &wls);
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].len(), 7);
        // %WL = 0 row is flat at 1.
        assert!(series[0].iter().all(|&t| (t - 1.0).abs() < 1e-12));
        // %WL = 1 row decreases monotonically with N.
        assert!(series[2].windows(2).all(|w| w[1] < w[0]));
        // Higher %WL is worse than lower %WL below NB (N = 1, 2) and better above it.
        assert!(series[2][0] > series[1][0]);
        assert!(series[2][6] < series[1][6]);
    }

    #[test]
    #[should_panic(expected = "%WL must lie in [0,1]")]
    fn rejects_invalid_fraction() {
        AnalyticModel::table1().time_relative(8.0, 1.2);
    }
}
