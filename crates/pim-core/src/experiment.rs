//! The design grid of the partitioning study (Figures 5, 6 and 7).
//!
//! A [`SweepSpec`] names the node counts and lightweight-work fractions to evaluate.
//! Each `(N, %WL)` point is an independent simulation, evaluated with
//! [`PartitionStudy::evaluate`](crate::system::PartitionStudy::evaluate) under
//! [`point_eval_mode`], which derives the point's seed stream from its index alone.
//! The `pim-harness` executor runs the points of every scenario as one work list;
//! [`SweepResult`] collects them back in grid order.

use crate::system::{EvalMode, TradeoffPoint};
use serde::Serialize;

/// The grid of design points to evaluate. `Serialize` renders it into the
/// `params` of the artifacts that sweep it (figures 5 and 6, the validation study).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepSpec {
    /// Node counts for the test system.
    pub node_counts: Vec<usize>,
    /// Lightweight-work fractions (`%WL`) in `[0, 1]`.
    pub lwp_fractions: Vec<f64>,
}

impl SweepSpec {
    /// The grid used for Figures 5 and 6: N ∈ {1, 2, 4, 8, 16, 32, 64},
    /// %WL ∈ {0%, 10%, …, 100%}.
    pub fn figure5_6() -> Self {
        SweepSpec {
            node_counts: vec![1, 2, 4, 8, 16, 32, 64],
            lwp_fractions: (0..=10).map(|i| i as f64 / 10.0).collect(),
        }
    }

    /// An extended grid reaching 256 nodes, where the text's "factor of 100X" extreme
    /// configurations live.
    pub fn extended() -> Self {
        SweepSpec {
            node_counts: vec![1, 2, 4, 8, 16, 32, 64, 128, 256],
            lwp_fractions: (0..=10).map(|i| i as f64 / 10.0).collect(),
        }
    }

    /// Total number of design points in the grid.
    pub fn len(&self) -> usize {
        self.node_counts.len() * self.lwp_fractions.len()
    }

    /// True when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerate the `(nodes, wl)` points in row-major order (by node count, then %WL).
    pub fn points(&self) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(self.len());
        for &n in &self.node_counts {
            for &wl in &self.lwp_fractions {
                out.push((n, wl));
            }
        }
        out
    }
}

/// Results of a sweep, in the same order as [`SweepSpec::points`].
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The grid that was evaluated.
    pub spec: SweepSpec,
    /// One point per grid entry.
    pub points: Vec<TradeoffPoint>,
}

impl SweepResult {
    /// The largest gain anywhere in the sweep.
    pub fn max_gain(&self) -> f64 {
        self.points.iter().map(|p| p.gain).fold(0.0, f64::max)
    }

    /// Look up the point for exactly `(nodes, wl)`.
    pub fn point(&self, nodes: usize, wl: f64) -> Option<&TradeoffPoint> {
        self.points
            .iter()
            .find(|p| p.nodes == nodes && (p.lwp_fraction - wl).abs() < 1e-9)
    }
}

/// The evaluation mode of sweep point `index` (row-major position in
/// [`SweepSpec::points`]): simulated points get decorrelated per-point seeds derived
/// purely from the sweep's base mode and the index, so the points can run in any
/// order, on any worker, and reproduce the same streams.
pub fn point_eval_mode(mode: EvalMode, index: usize) -> EvalMode {
    match mode {
        EvalMode::Expected => EvalMode::Expected,
        EvalMode::Simulated {
            sim_ops,
            ops_per_event,
            seed,
        } => EvalMode::Simulated {
            sim_ops,
            ops_per_event,
            seed: seed.wrapping_add(1 + index as u64 * 7919),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::system::PartitionStudy;

    /// Every point of `spec` under `mode` on the Table 1 study, in grid order.
    fn sweep(spec: &SweepSpec, mode: EvalMode) -> SweepResult {
        let study = PartitionStudy::new(SystemConfig::table1());
        let points = spec
            .points()
            .into_iter()
            .enumerate()
            .map(|(i, (n, wl))| study.evaluate(n, wl, point_eval_mode(mode, i)))
            .collect();
        SweepResult {
            spec: spec.clone(),
            points,
        }
    }

    #[test]
    fn figure5_grid_shape() {
        let spec = SweepSpec::figure5_6();
        assert_eq!(spec.node_counts.len(), 7);
        assert_eq!(spec.lwp_fractions.len(), 11);
        assert_eq!(spec.len(), 77);
        assert!(!spec.is_empty());
        assert_eq!(spec.points().len(), 77);
    }

    #[test]
    fn expected_sweep_reproduces_figure5_shape() {
        let spec = SweepSpec::figure5_6();
        let r = sweep(&spec, EvalMode::Expected);
        assert_eq!(r.points.len(), 77);

        // Gain grows with %WL for a fixed (large) node count...
        let gains: Vec<f64> = r
            .points
            .iter()
            .filter(|p| p.nodes == 64)
            .map(|p| p.gain)
            .collect();
        assert!(gains.windows(2).all(|w| w[1] >= w[0]), "{gains:?}");

        // ...reaches ~2x even for moderate PIM work on large arrays...
        assert!(r.point(64, 0.5).unwrap().gain > 1.9);

        // ...exceeds an order of magnitude for data-intensive work...
        assert!(r.point(64, 1.0).unwrap().gain > 10.0);

        // ...and is below 1 when a single slow PIM node takes all the work.
        assert!(r.point(1, 1.0).unwrap().gain < 1.0);
    }

    #[test]
    fn extended_sweep_approaches_the_100x_claim() {
        let spec = SweepSpec::extended();
        let r = sweep(&spec, EvalMode::Expected);
        // 256 nodes, 100% LWP work: gain = 256 / 3.125 = 81.9x — the same order of
        // magnitude as the text's "factor of 100X" extreme case.
        let g = r.point(256, 1.0).unwrap().gain;
        assert!(g > 50.0 && g < 110.0, "gain {g}");
        assert!((r.max_gain() - g).abs() < 1e-9);
    }

    #[test]
    fn series_selectors_filter_correctly() {
        let spec = SweepSpec::figure5_6();
        let r = sweep(&spec, EvalMode::Expected);
        assert_eq!(r.points.iter().filter(|p| p.nodes == 8).count(), 11);
        assert!(r.point(8, 0.5).is_some());
        assert!(r.point(3, 0.5).is_none());
    }

    #[test]
    fn simulated_sweep_is_close_to_expected_sweep() {
        let spec = SweepSpec {
            node_counts: vec![2, 16, 64],
            lwp_fractions: vec![0.2, 0.8],
        };
        let expected = sweep(&spec, EvalMode::Expected);
        let simulated = sweep(&spec, EvalMode::sampled(17));
        for (e, s) in expected.points.iter().zip(&simulated.points) {
            assert!(
                (e.gain - s.gain).abs() / e.gain < 0.08,
                "N={} wl={}: expected {} simulated {}",
                e.nodes,
                e.lwp_fraction,
                e.gain,
                s.gain
            );
        }
    }
}
