//! Parameter sweeps for the partitioning study (Figures 5, 6 and 7).
//!
//! A [`SweepSpec`] names the node counts and lightweight-work fractions to evaluate;
//! [`run_sweep`] evaluates every `(N, %WL)` point, spreading the work across OS threads
//! via the shared work-stealing map in [`desim::par`] (each point is an independent
//! simulation, so the sweep is embarrassingly parallel — this is where the workspace
//! gets its multi-core speedup, not inside a single simulated run). Callers that
//! schedule points themselves (e.g. the `pim-harness` batch runner, which flattens
//! every scenario's points into one global work list) use [`point_eval_mode`] to
//! reproduce the per-point seed stream exactly.

use crate::config::SystemConfig;
use crate::system::{EvalMode, PartitionStudy, TradeoffPoint};
use serde::{Deserialize, Error, Serialize, Value};

/// The grid of design points to evaluate.
///
/// `Deserialize` is implemented by hand so malformed grids — empty axes, zero node
/// counts, non-finite or out-of-range `%WL` values — are rejected when the spec is
/// parsed (e.g. from a JSON artifact or request) instead of panicking mid-sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepSpec {
    /// Node counts for the test system.
    pub node_counts: Vec<usize>,
    /// Lightweight-work fractions (`%WL`) in `[0, 1]`.
    pub lwp_fractions: Vec<f64>,
}

impl Deserialize for SweepSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| Error::msg(format!("missing field `{name}` in SweepSpec")))
        };
        let spec = SweepSpec {
            node_counts: Deserialize::from_value(field("node_counts")?)?,
            lwp_fractions: Deserialize::from_value(field("lwp_fractions")?)?,
        };
        spec.validate().map_err(Error::msg)?;
        Ok(spec)
    }
}

impl SweepSpec {
    /// Check the grid is non-empty and every point is evaluable: node counts ≥ 1 and
    /// `%WL` values finite within `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        if self.node_counts.is_empty() {
            return Err("SweepSpec.node_counts must not be empty".into());
        }
        if self.lwp_fractions.is_empty() {
            return Err("SweepSpec.lwp_fractions must not be empty".into());
        }
        if self.node_counts.contains(&0) {
            return Err("SweepSpec.node_counts must all be at least 1".into());
        }
        for &wl in &self.lwp_fractions {
            if !wl.is_finite() || !(0.0..=1.0).contains(&wl) {
                return Err(format!(
                    "SweepSpec.lwp_fractions must lie in [0, 1], got {wl}"
                ));
            }
        }
        Ok(())
    }

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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// The grid that was evaluated.
    pub spec: SweepSpec,
    /// One point per grid entry.
    pub points: Vec<TradeoffPoint>,
}

impl SweepResult {
    /// The points for one node count, ordered by `%WL`.
    pub fn series_for_nodes(&self, nodes: usize) -> Vec<&TradeoffPoint> {
        self.points.iter().filter(|p| p.nodes == nodes).collect()
    }

    /// The points for one `%WL`, ordered by node count.
    pub fn series_for_fraction(&self, wl: f64) -> Vec<&TradeoffPoint> {
        self.points
            .iter()
            .filter(|p| (p.lwp_fraction - wl).abs() < 1e-9)
            .collect()
    }

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

/// Evaluate every point of `spec` under `mode`, using up to `threads` worker threads
/// (`0` = one per core) pulling points from a shared work-stealing index.
///
/// Results are identical for every thread count: each point's evaluation mode (and
/// therefore its seed stream) is a pure function of the point's index via
/// [`point_eval_mode`], and results are collected by index.
pub fn run_sweep(
    config: SystemConfig,
    spec: &SweepSpec,
    mode: EvalMode,
    threads: usize,
) -> SweepResult {
    let study = PartitionStudy::new(config);
    let points = spec.points();
    let results = desim::par::work_steal_map(&points, threads, |i, &(n, wl)| {
        study.evaluate(n, wl, point_eval_mode(mode, i))
    });
    SweepResult {
        spec: spec.clone(),
        points: results,
    }
}

/// The evaluation mode of sweep point `index` (row-major position in
/// [`SweepSpec::points`]): simulated points get decorrelated per-point seeds derived
/// purely from the sweep's base mode and the index, so any scheduler — the internal
/// one in [`run_sweep`] or an external point-granular one — reproduces the same
/// streams.
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

    #[test]
    fn spec_round_trips_through_json() {
        let spec = SweepSpec::figure5_6();
        let json = serde_json::to_string(&spec).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn deserialization_rejects_malformed_grids() {
        for (label, json) in [
            ("empty nodes", r#"{"node_counts":[],"lwp_fractions":[0.5]}"#),
            (
                "empty fractions",
                r#"{"node_counts":[1],"lwp_fractions":[]}"#,
            ),
            (
                "zero node count",
                r#"{"node_counts":[4,0],"lwp_fractions":[0.5]}"#,
            ),
            (
                "wl above 1",
                r#"{"node_counts":[1],"lwp_fractions":[0.5,1.5]}"#,
            ),
            (
                "negative wl",
                r#"{"node_counts":[1],"lwp_fractions":[-0.1]}"#,
            ),
            // 1e999 overflows to +inf when parsed; null is how JSON spells NaN.
            (
                "infinite wl",
                r#"{"node_counts":[1],"lwp_fractions":[1e999]}"#,
            ),
            ("nan wl", r#"{"node_counts":[1],"lwp_fractions":[null]}"#),
            ("missing field", r#"{"node_counts":[1]}"#),
        ] {
            let r: Result<SweepSpec, _> = serde_json::from_str(json);
            assert!(r.is_err(), "{label} should be rejected: {json}");
        }
    }

    #[test]
    fn validate_accepts_the_paper_grids() {
        assert!(SweepSpec::figure5_6().validate().is_ok());
        assert!(SweepSpec::extended().validate().is_ok());
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
        let r = run_sweep(SystemConfig::table1(), &spec, EvalMode::Expected, 4);
        assert_eq!(r.points.len(), 77);

        // Gain grows with %WL for a fixed (large) node count...
        let series = r.series_for_nodes(64);
        let gains: Vec<f64> = series.iter().map(|p| p.gain).collect();
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
        let r = run_sweep(SystemConfig::table1(), &spec, EvalMode::Expected, 4);
        // 256 nodes, 100% LWP work: gain = 256 / 3.125 = 81.9x — the same order of
        // magnitude as the text's "factor of 100X" extreme case.
        let g = r.point(256, 1.0).unwrap().gain;
        assert!(g > 50.0 && g < 110.0, "gain {g}");
        assert!((r.max_gain() - g).abs() < 1e-9);
    }

    #[test]
    fn series_selectors_filter_correctly() {
        let spec = SweepSpec::figure5_6();
        let r = run_sweep(SystemConfig::table1(), &spec, EvalMode::Expected, 2);
        assert_eq!(r.series_for_nodes(8).len(), 11);
        assert_eq!(r.series_for_fraction(0.5).len(), 7);
        assert!(r.point(8, 0.5).is_some());
        assert!(r.point(3, 0.5).is_none());
    }

    #[test]
    fn parallel_and_serial_sweeps_agree() {
        let spec = SweepSpec {
            node_counts: vec![1, 4, 16],
            lwp_fractions: vec![0.0, 0.5, 1.0],
        };
        let serial = run_sweep(SystemConfig::table1(), &spec, EvalMode::Expected, 1);
        let parallel = run_sweep(SystemConfig::table1(), &spec, EvalMode::Expected, 8);
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a.nodes, b.nodes);
            assert!((a.gain - b.gain).abs() < 1e-12);
        }
    }

    #[test]
    fn simulated_sweep_is_close_to_expected_sweep() {
        let spec = SweepSpec {
            node_counts: vec![2, 16, 64],
            lwp_fractions: vec![0.2, 0.8],
        };
        let expected = run_sweep(SystemConfig::table1(), &spec, EvalMode::Expected, 4);
        let simulated = run_sweep(SystemConfig::table1(), &spec, EvalMode::sampled(17), 4);
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
