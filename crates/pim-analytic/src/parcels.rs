//! Closed-form model of parcel latency hiding.
//!
//! The paper relates its parcel study to earlier analyses of multithreaded architectures
//! (Saavedra-Barrera et al., cited as \[27\]). The same machine-repairman argument applies
//! directly to split-transaction parcels:
//!
//! * a blocking (control) processor is busy for `R + 1` cycles out of every
//!   `R + 1 + 2L`, where `R` is the mean run of local work between remote accesses and
//!   `L` the one-way latency;
//! * a split-transaction (test) processor with `P` active parcels keeps its execution
//!   unit busy for `min(1, P·(R + 1 + o)/(R + 1 + o + 2L))` of the time, where `o` is
//!   the per-parcel handling overhead;
//! * the ratio of completed work follows by dividing the two work rates.
//!
//! This is the model used to sanity-check the Figure 11 simulation and to locate the
//! saturation point `P* = (R + 1 + o + 2L)/(R + 1 + o)` beyond which extra parallelism
//! buys nothing.

use pim_parcels::config::ParcelConfig;
use serde::{Deserialize, Serialize};

/// Closed-form predictions for one parcel-study configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParcelAnalyticModel {
    /// The configuration the predictions are for.
    pub config: ParcelConfig,
}

impl ParcelAnalyticModel {
    /// Build the model.
    pub fn new(config: ParcelConfig) -> Self {
        config.assert_valid();
        ParcelAnalyticModel { config }
    }

    /// Mean cycles of local work between remote accesses plus the 1-cycle issue (`R + 1`).
    fn busy_per_cycle_control(&self) -> f64 {
        self.config.expected_run_cycles() + 1.0
    }

    /// CPU time per parcel cycle in the test system (`R + 1 + o`).
    fn busy_per_cycle_test(&self) -> f64 {
        self.config.expected_run_cycles() + 1.0 + self.config.parcel_overhead_cycles
    }

    /// Utilization of a blocking control processor.
    pub(crate) fn control_utilization(&self) -> f64 {
        let busy = self.busy_per_cycle_control();
        if !busy.is_finite() {
            return 1.0;
        }
        busy / (busy + self.config.round_trip_cycles())
    }

    /// Utilization of a split-transaction processor with the configured parallelism.
    pub(crate) fn test_utilization(&self) -> f64 {
        let busy = self.busy_per_cycle_test();
        if !busy.is_finite() {
            return 1.0;
        }
        let per_context = busy / (busy + self.config.round_trip_cycles());
        (self.config.parallelism as f64 * per_context).min(1.0)
    }

    /// Idle fraction of the control system.
    pub fn control_idle_fraction(&self) -> f64 {
        1.0 - self.control_utilization()
    }

    /// Idle fraction of the test system.
    pub fn test_idle_fraction(&self) -> f64 {
        1.0 - self.test_utilization()
    }

    /// Predicted ratio of work completed by the test system to the control system
    /// (the Figure 11 y-axis).
    pub fn ops_ratio(&self) -> f64 {
        let run = self.config.expected_run_cycles();
        if !run.is_finite() {
            // No remote accesses: both systems compute flat out.
            return 1.0;
        }
        if run <= 0.0 {
            return 1.0;
        }
        let control_rate = self.control_utilization() * run / self.busy_per_cycle_control();
        let test_rate = self.test_utilization() * run / self.busy_per_cycle_test();
        test_rate / control_rate
    }

    /// The parallelism beyond which the test system's execution unit saturates.
    pub fn saturation_parallelism(&self) -> f64 {
        let busy = self.busy_per_cycle_test();
        if !busy.is_finite() || busy <= 0.0 {
            return 1.0;
        }
        (busy + self.config.round_trip_cycles()) / busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_parcels::experiment::evaluate_point;

    fn config(parallelism: usize, latency: f64, remote: f64) -> ParcelConfig {
        ParcelConfig {
            nodes: 2,
            parallelism,
            latency_cycles: latency,
            remote_fraction: remote,
            horizon_cycles: 400_000.0,
            ..Default::default()
        }
    }

    #[test]
    fn ratio_saturates_at_one_plus_latency_over_run() {
        let m = ParcelAnalyticModel::new(config(10_000, 1_000.0, 0.4));
        // With unbounded parallelism the ratio approaches
        // (R + 1 + 2L)/(R + 1) x (R + 1)/(R + 1 + o) — roughly 1 + 2L/R for small o.
        let run = m.config.expected_run_cycles();
        let upper = (run + 1.0 + m.config.round_trip_cycles())
            / (run + 1.0 + m.config.parcel_overhead_cycles);
        assert!((m.ops_ratio() - upper).abs() < 1e-9);
        assert!(m.ops_ratio() > 10.0);
    }

    #[test]
    fn single_parcel_is_slightly_slower_than_blocking() {
        let m = ParcelAnalyticModel::new(config(1, 100.0, 0.4));
        assert!(m.ops_ratio() < 1.0);
        assert!(m.ops_ratio() > 0.8);
    }

    #[test]
    fn zero_remote_traffic_means_parity() {
        let m = ParcelAnalyticModel::new(config(8, 1_000.0, 0.0));
        assert!((m.ops_ratio() - 1.0).abs() < 1e-12);
        assert!((m.control_utilization() - 1.0).abs() < 1e-12);
        assert!((m.test_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn saturation_point_matches_definition() {
        let m = ParcelAnalyticModel::new(config(4, 1_000.0, 0.4));
        let p_star = m.saturation_parallelism();
        let below = ParcelAnalyticModel::new(config(p_star.floor() as usize - 1, 1_000.0, 0.4));
        let above = ParcelAnalyticModel::new(config(p_star.ceil() as usize + 1, 1_000.0, 0.4));
        assert!(below.test_utilization() < 1.0);
        assert!((above.test_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn model_tracks_the_simulation() {
        // The closed form ignores queueing/convoy effects (synchronized parcel returns
        // queueing behind one execution unit) and horizon end effects, so it runs a
        // little optimistic in the far-from-saturation, long-latency corner. 20% slack
        // covers that while still catching real modeling errors — the paper's own two
        // models differed by 5-18%.
        for (p, l, r) in [
            (1usize, 100.0, 0.2),
            (8, 1_000.0, 0.4),
            (32, 5_000.0, 0.6),
            (4, 10.0, 0.8),
        ] {
            let cfg = ParcelConfig {
                horizon_cycles: 800_000.0,
                ..config(p, l, r)
            };
            let analytic = ParcelAnalyticModel::new(cfg).ops_ratio();
            let simulated = evaluate_point(cfg, 1234).ops_ratio;
            let err = (analytic - simulated).abs() / simulated;
            assert!(
                err < 0.20,
                "P={p} L={l} r={r}: analytic {analytic:.3} vs simulated {simulated:.3} (err {err:.3})"
            );
        }
    }

    #[test]
    fn idle_fractions_are_complementary_to_utilization() {
        let m = ParcelAnalyticModel::new(config(4, 1_000.0, 0.4));
        assert!((m.control_idle_fraction() + m.control_utilization() - 1.0).abs() < 1e-12);
        assert!((m.test_idle_fraction() + m.test_utilization() - 1.0).abs() < 1e-12);
        // The test system is always at least as busy as the control system.
        assert!(m.test_utilization() >= m.control_utilization());
    }
}
