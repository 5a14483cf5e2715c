//! Cross-model consistency: the closed-form analytic model (`pim-analytic`) and the
//! discrete-event queuing path (`pim-core::PartitionStudy`) must agree on a shared
//! `(N, %WL)` grid.
//!
//! The paper quotes agreement "to an accuracy of between 5% and 18%" between its two
//! independently built tools; our two paths share parameter definitions, so the
//! residual is sampling noise and must sit *well inside* that band.

use pim_analytic::AnalyticModel;
use pim_core::prelude::*;
use pim_harness::prelude::*;

const NODE_COUNTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
const WL_FRACTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// In expected-value mode the two implementations evaluate the same formulas, so they
/// must agree to rounding error on times, gains and relative times.
#[test]
fn expected_evaluator_matches_closed_form_exactly() {
    let model = AnalyticModel::table1();
    let study = PartitionStudy::table1();
    for nodes in NODE_COUNTS {
        for wl in WL_FRACTIONS {
            let p = study.evaluate(nodes, wl, EvalMode::Expected);
            let test_ns = model.test_time_ns(nodes as f64, wl);
            let gain = model.gain(nodes as f64, wl);
            let rel = model.time_relative(nodes as f64, wl);
            for (label, a, b) in [
                ("test_ns", p.test_ns, test_ns),
                ("control_ns", p.control_ns, model.control_time_ns()),
                ("gain", p.gain, gain),
                ("relative_time", p.relative_time, rel),
            ] {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "N={nodes} wl={wl}: {label} disagrees ({a} vs {b})"
                );
            }
        }
    }
}

/// In simulated mode the discrete-event path must track the closed form within the
/// paper's stated error band at every grid point (and much closer on average).
#[test]
fn simulated_path_agrees_with_analytic_within_the_papers_band() {
    let spec = SweepSpec {
        node_counts: NODE_COUNTS.to_vec(),
        lwp_fractions: WL_FRACTIONS.to_vec(),
    };
    let mode = EvalMode::Simulated {
        sim_ops: Some(200_000),
        ops_per_event: 64,
        seed: DEFAULT_SEED,
    };
    let study = PartitionStudy::table1();
    let points: Vec<TradeoffPoint> = spec
        .points()
        .into_iter()
        .enumerate()
        .map(|(i, (n, wl))| study.evaluate(n, wl, point_eval_mode(mode, i)))
        .collect();
    let model = AnalyticModel::table1();
    let mut errors = Vec::with_capacity(points.len());
    for p in &points {
        let analytic_ns = model.test_time_ns(p.nodes as f64, p.lwp_fraction);
        let err = (analytic_ns - p.test_ns).abs() / analytic_ns;
        assert!(
            err < 0.05,
            "N={} wl={}: simulated {} vs analytic {} ({:.1}% off; paper band is 5-18%)",
            p.nodes,
            p.lwp_fraction,
            p.test_ns,
            analytic_ns,
            err * 100.0
        );
        errors.push(err);
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(mean < 0.02, "mean relative error {mean} exceeds 2%");
}

/// The same contract holds end-to-end through the registry: the validation scenario's
/// headline metrics must stay inside the band at the pinned default seed.
#[test]
fn validation_scenario_metrics_stay_inside_the_band() {
    let registry = Registry::builtin();
    let report = registry
        .get("validation")
        .unwrap()
        .run(&SeedPolicy::default());
    let mean = report.metric("mean_relative_error").unwrap();
    let max = report.metric("max_relative_error").unwrap();
    assert!(mean < 0.02, "mean relative error {mean}");
    assert!(max < 0.05, "max relative error {max}");
    assert!(mean <= max);
}
