//! High-level interface to study 1: evaluating one `(N, %WL)` design point.
//!
//! A [`PartitionStudy`] evaluates the control system (host only) and the test system
//! (host + N-node PIM array) for a given lightweight-work fraction, in either of two
//! modes:
//!
//! * [`EvalMode::Expected`] — closed-form expected values (instantaneous; this is what
//!   the paper's MATLAB/Excel analytical model computes);
//! * [`EvalMode::Simulated`] — the stochastic queuing model of [`crate::queueing`],
//!   optionally run on a scaled-down operation count and rescaled, which is how the
//!   figures' SES/Workbench data were produced.

use crate::config::SystemConfig;
use crate::queueing::{run_queueing, RunMode};
use pim_workload::WorkPartition;
use serde::{Deserialize, Serialize};

/// How a design point is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EvalMode {
    /// Closed-form expected values.
    Expected,
    /// Stochastic queuing simulation.
    Simulated {
        /// Number of operations actually simulated; the result is rescaled to the
        /// configured total. Use `None` to simulate the full workload.
        sim_ops: Option<u64>,
        /// Operations batched per simulation event.
        ops_per_event: u64,
        /// Random seed.
        seed: u64,
    },
}

impl EvalMode {
    /// A reasonable default for sweeps: 200k sampled operations, batched 64 per event.
    pub fn sampled(seed: u64) -> Self {
        EvalMode::Simulated {
            sim_ops: Some(200_000),
            ops_per_event: 64,
            seed,
        }
    }
}

/// The outcome of evaluating one `(N, %WL)` point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TradeoffPoint {
    /// Number of LWP (PIM) nodes in the test system.
    pub nodes: usize,
    /// Fraction of the work with low temporal locality (`%WL`), in `[0, 1]`.
    pub lwp_fraction: f64,
    /// Control-system time to solution (ns) — all work on the HWP.
    pub control_ns: f64,
    /// Test-system time to solution (ns) — HWP + LWP array.
    pub test_ns: f64,
    /// Performance gain of the test system over the control system (Figure 5's y-axis).
    pub gain: f64,
    /// Test time normalized to the 0%-LWP control time (Figure 7's y-axis).
    pub relative_time: f64,
}

/// Evaluator for the partitioning study.
#[derive(Debug, Clone, Copy)]
pub struct PartitionStudy {
    config: SystemConfig,
}

impl PartitionStudy {
    /// Create a study over the given configuration.
    pub fn new(config: SystemConfig) -> Self {
        config.assert_valid();
        PartitionStudy { config }
    }

    /// Study with the paper's Table 1 parameters.
    pub fn table1() -> Self {
        PartitionStudy::new(SystemConfig::table1())
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Expected control-system time (ns): all `W` operations on the HWP.
    pub fn expected_control_ns(&self) -> f64 {
        self.config.total_ops as f64 * self.config.hwp_op_time_ns()
    }

    /// Expected test-system time (ns) for `nodes` LWPs and lightweight fraction `wl`.
    pub fn expected_test_ns(&self, nodes: usize, wl: f64) -> f64 {
        assert!(nodes > 0, "test system needs at least one node");
        let p = WorkPartition::new(self.config.total_ops, wl);
        let hwp = p.hwp_ops() as f64 * self.config.hwp_op_time_ns();
        let lwp = (p.lwp_ops() as f64 / nodes as f64) * self.config.lwp_op_time_ns();
        hwp + lwp
    }

    /// Simulate the control system; returns the (rescaled) time in ns.
    pub fn simulate_control_ns(&self, sim_ops: Option<u64>, ops_per_event: u64, seed: u64) -> f64 {
        let (ops, scale) = self.scaled_ops(sim_ops);
        let cfg = SystemConfig {
            total_ops: ops,
            ..self.config
        };
        let p = WorkPartition::new(ops, 0.0);
        run_queueing(cfg, p, RunMode::Control, ops_per_event, seed).makespan_ns * scale
    }

    /// Simulate the test system; returns the (rescaled) time in ns.
    pub fn simulate_test_ns(
        &self,
        nodes: usize,
        wl: f64,
        sim_ops: Option<u64>,
        ops_per_event: u64,
        seed: u64,
    ) -> f64 {
        let (ops, scale) = self.scaled_ops(sim_ops);
        let cfg = SystemConfig {
            total_ops: ops,
            ..self.config
        };
        let p = WorkPartition::new(ops, wl);
        run_queueing(cfg, p, RunMode::Test { nodes }, ops_per_event, seed).makespan_ns * scale
    }

    fn scaled_ops(&self, sim_ops: Option<u64>) -> (u64, f64) {
        match sim_ops {
            None => (self.config.total_ops, 1.0),
            Some(s) => {
                let s = s.min(self.config.total_ops).max(1);
                (s, self.config.total_ops as f64 / s as f64)
            }
        }
    }

    /// The test-system time (ns) of one `(nodes, %WL)` point under `mode`, without
    /// the control system: bit for bit [`Self::evaluate`]`(nodes, wl, mode).test_ns`,
    /// for callers that read only the test time.
    pub fn evaluate_test_ns(&self, nodes: usize, wl: f64, mode: EvalMode) -> f64 {
        match mode {
            EvalMode::Expected => self.expected_test_ns(nodes, wl),
            EvalMode::Simulated {
                sim_ops,
                ops_per_event,
                seed,
            } => self.simulate_test_ns(nodes, wl, sim_ops, ops_per_event, seed.wrapping_add(1)),
        }
    }

    /// Evaluate one `(nodes, %WL)` point under `mode`.
    ///
    /// `relative_time` is normalized to the *expected* control time (the paper's
    /// normalization for Figure 7: "time to solution normalized to that of the HWP
    /// alone performing only high temporal locality work").
    pub fn evaluate(&self, nodes: usize, wl: f64, mode: EvalMode) -> TradeoffPoint {
        let control_ns = match mode {
            EvalMode::Expected => self.expected_control_ns(),
            EvalMode::Simulated {
                sim_ops,
                ops_per_event,
                seed,
            } => self.simulate_control_ns(sim_ops, ops_per_event, seed),
        };
        let test_ns = self.evaluate_test_ns(nodes, wl, mode);
        TradeoffPoint {
            nodes,
            lwp_fraction: wl,
            control_ns,
            test_ns,
            gain: control_ns / test_ns,
            relative_time: test_ns / self.expected_control_ns(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_control_time_is_400_million_ns() {
        // 10^8 ops x 4 ns/op.
        let s = PartitionStudy::table1();
        assert!((s.expected_control_ns() - 4.0e8).abs() < 1.0);
    }

    #[test]
    fn expected_test_time_matches_paper_formula() {
        let s = PartitionStudy::table1();
        let c = *s.config();
        for &(n, wl) in &[(1usize, 0.2), (4, 0.5), (32, 0.9), (64, 1.0)] {
            let direct = s.expected_test_ns(n, wl);
            // Time_relative = 1 - %WL (1 - NB/N)  =>  T_test = T_control * Time_relative.
            let relative = 1.0 - wl * (1.0 - c.nb() / n as f64);
            let from_formula = s.expected_control_ns() * relative;
            assert!(
                (direct - from_formula).abs() / from_formula < 1e-6,
                "N={n} wl={wl}: {direct} vs {from_formula}"
            );
        }
    }

    #[test]
    fn evaluate_expected_point_gain_at_full_lwp() {
        let s = PartitionStudy::table1();
        let p = s.evaluate(32, 1.0, EvalMode::Expected);
        // Gain at 100% LWP work = N / NB = 32 / 3.125 = 10.24.
        assert!((p.gain - 10.24).abs() < 1e-6, "gain {}", p.gain);
        assert!((p.relative_time - 1.0 / 10.24).abs() < 1e-6);
    }

    #[test]
    fn simulated_point_tracks_expected_point() {
        let s = PartitionStudy::table1();
        let e = s.evaluate(16, 0.7, EvalMode::Expected);
        let m = s.evaluate(16, 0.7, EvalMode::sampled(99));
        // The test-only entry is bit for bit the full point's test time.
        let test_only = |mode| s.evaluate_test_ns(16, 0.7, mode).to_bits();
        assert_eq!(test_only(EvalMode::Expected), e.test_ns.to_bits());
        assert_eq!(test_only(EvalMode::sampled(99)), m.test_ns.to_bits());
        assert!(
            (m.gain - e.gain).abs() / e.gain < 0.05,
            "simulated gain {} vs expected {}",
            m.gain,
            e.gain
        );
        assert!((m.control_ns - e.control_ns).abs() / e.control_ns < 0.03);
        assert!((m.test_ns - e.test_ns).abs() / e.test_ns < 0.05);
    }

    #[test]
    fn single_node_with_full_lwp_is_slower_than_control() {
        // N = 1 < NB = 3.125, so PIM alone loses to the host: gain < 1.
        let s = PartitionStudy::table1();
        let p = s.evaluate(1, 1.0, EvalMode::Expected);
        assert!(p.gain < 1.0, "gain {}", p.gain);
        assert!(p.relative_time > 1.0);
    }

    #[test]
    fn break_even_at_nb_nodes_is_gain_one_for_any_wl() {
        // At N = NB the relative time is exactly 1 regardless of %WL — the coincidence
        // point visible in Figure 7. NB = 3.125 is not an integer, so we check the
        // formula by passing a fractional node count through the relative-time algebra.
        let s = PartitionStudy::table1();
        let nb = s.config().nb();
        for wl in [0.1, 0.4, 0.8, 1.0] {
            let relative = 1.0 - wl * (1.0 - nb / nb);
            assert!((relative - 1.0).abs() < 1e-12);
        }
        // And the integer node counts bracketing NB straddle gain = 1 at full LWP load.
        assert!(s.evaluate(3, 1.0, EvalMode::Expected).gain < 1.0);
        assert!(s.evaluate(4, 1.0, EvalMode::Expected).gain > 1.0);
    }

    #[test]
    fn zero_lwp_fraction_means_no_change() {
        let s = PartitionStudy::table1();
        let p = s.evaluate(64, 0.0, EvalMode::Expected);
        assert!((p.gain - 1.0).abs() < 1e-12);
        assert!((p.relative_time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_simulation_is_close_to_full_simulation() {
        let mut cfg = SystemConfig::table1();
        cfg.total_ops = 2_000_000; // keep the "full" run cheap for the test
        let s = PartitionStudy::new(cfg);
        let full = s.simulate_test_ns(8, 0.6, None, 256, 5);
        let scaled = s.simulate_test_ns(8, 0.6, Some(100_000), 64, 5);
        assert!(
            (full - scaled).abs() / full < 0.05,
            "full {full} vs scaled {scaled}"
        );
    }

    #[test]
    fn gain_improves_monotonically_with_nodes_expected() {
        let s = PartitionStudy::table1();
        let gains: Vec<f64> = [1, 2, 4, 8, 16, 32, 64]
            .iter()
            .map(|&n| s.evaluate(n, 0.8, EvalMode::Expected).gain)
            .collect();
        assert!(gains.windows(2).all(|w| w[1] > w[0]), "gains {gains:?}");
    }
}
