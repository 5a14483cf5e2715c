//! Study-1 scenarios: the HWP/LWP partitioning figures, Table 1, validation,
//! replication confidence intervals and the load-imbalance ablation.
//!
//! The simulation-heavy scenarios decompose into one work unit per grid point (or per
//! replication), seeded from plan-time values only: a sweep point by
//! [`point_eval_mode`], a replication by [`replication_seed`]. The golden files pin
//! the resulting streams.
//!
//! A unit simulates only what its report reads. Figure 5's gain needs the control and
//! the test system (`PartitionStudy::evaluate`); Figure 6 and the validation compare
//! test-system times only, so their units run `PartitionStudy::evaluate_test_ns` and
//! return that one time — bit for bit the full point's `test_ns`.

use crate::cache::UnitKeyer;
use crate::report::{ScenarioReport, Table};
use crate::scenario::{Scenario, ScenarioPlan, SeedPolicy};
use desim::replication::{replication_seed, ReplicationSummary};
use desim::stats::ConfidenceLevel;
use pim_analytic::validation_from_sweep;
use pim_core::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// Operations actually simulated per design point (rescaled to the Table 1 total).
const SIM_OPS: u64 = 400_000;
/// Operations batched per simulation event.
const OPS_PER_EVENT: u64 = 64;

fn simulated_mode(seed: u64) -> EvalMode {
    EvalMode::Simulated {
        sim_ops: Some(SIM_OPS),
        ops_per_event: OPS_PER_EVENT,
        seed,
    }
}

/// Build a per-point plan for a simulated `(N, %WL)` sweep: one unit per grid point
/// running `eval` on the Table 1 study (seeded by [`point_eval_mode`]), with `finish`
/// turning the grid and the unit outputs, in [`SweepSpec::points`] order, into the
/// scenario's report. Units are keyed by grid index under `keyer`, so batches with a
/// `--cache` serve unchanged points from the unit-result cache.
fn sweep_plan<'s, U, E, F>(
    keyer: UnitKeyer,
    seed: u64,
    spec: SweepSpec,
    eval: E,
    finish: F,
) -> ScenarioPlan<'s>
where
    U: Serialize + Deserialize + Send + 'static,
    E: Fn(&PartitionStudy, usize, f64, EvalMode) -> U + Copy + Send + 's,
    F: FnOnce(SweepSpec, Vec<U>) -> ScenarioReport + Send + 's,
{
    let mode = simulated_mode(seed);
    let units: Vec<_> = spec
        .points()
        .into_iter()
        .enumerate()
        .map(|(i, (n, wl))| {
            (keyer.key(i, 0), move || {
                let study = PartitionStudy::new(SystemConfig::table1());
                eval(&study, n, wl, point_eval_mode(mode, i))
            })
        })
        .collect();
    ScenarioPlan::cached_map_reduce(units, move |outputs| finish(spec, outputs))
}

fn sweep_params(spec: &SweepSpec) -> Value {
    Value::Map(vec![
        ("spec".into(), spec.to_value()),
        ("sim_ops".into(), Value::U64(SIM_OPS)),
        ("ops_per_event".into(), Value::U64(OPS_PER_EVENT)),
    ])
}

/// Point lookup that keeps full `f64` precision (rounding to a few decimals would
/// quantize the artifact and blunt the golden tolerance).
fn point_value(sweep: &SweepResult, n: usize, wl: f64, f: impl Fn(&TradeoffPoint) -> f64) -> f64 {
    sweep.point(n, wl).map(f).unwrap_or(f64::NAN)
}

/// Figure 5's wide layout — one `%WL` row, one `gain_nN` column per node count — built
/// directly from the sweep points.
fn figure5_table(name: &str, sweep: &SweepResult) -> Table {
    let spec = &sweep.spec;
    let mut columns = vec!["pct_lwp_work".to_string()];
    columns.extend(spec.node_counts.iter().map(|n| format!("gain_n{n}")));
    let rows = spec
        .lwp_fractions
        .iter()
        .map(|&wl| {
            let mut row = vec![Value::F64(wl * 100.0)];
            for &n in &spec.node_counts {
                row.push(Value::F64(point_value(sweep, n, wl, |p| p.gain)));
            }
            row
        })
        .collect();
    Table {
        name: name.to_string(),
        columns,
        rows,
    }
}

/// Figure 6's wide layout — one `nodes` row, one `rt_ns_wlP` column per `%WL` — built
/// directly from the test-system times, which come in row-major
/// [`SweepSpec::points`] order: one chunk of `%WL` columns per node count.
fn figure6_table(name: &str, spec: &SweepSpec, test_ns: &[f64]) -> Table {
    let mut columns = vec!["nodes".to_string()];
    columns.extend(
        spec.lwp_fractions
            .iter()
            .map(|wl| format!("rt_ns_wl{:.0}", wl * 100.0)),
    );
    let rows = spec
        .node_counts
        .iter()
        .zip(test_ns.chunks(spec.lwp_fractions.len()))
        .map(|(&n, times)| {
            let mut row = vec![Value::U64(n as u64)];
            row.extend(times.iter().map(|&t| Value::F64(t)));
            row
        })
        .collect();
    Table {
        name: name.to_string(),
        columns,
        rows,
    }
}

/// Figure 5: performance gain of the PIM-augmented test system over the host-only
/// control system versus the lightweight-work fraction, for 1–256 nodes.
pub(crate) struct Figure5;

impl Scenario for Figure5 {
    fn name(&self) -> &str {
        "figure5"
    }

    fn description(&self) -> &str {
        "performance gain vs %LWP work, one column per PIM node count (simulation)"
    }

    fn params(&self) -> Value {
        sweep_params(&SweepSpec::extended())
    }

    fn plan<'s>(&'s self, seeds: &SeedPolicy) -> ScenarioPlan<'s> {
        let seed = seeds.scenario_seed(self.name());
        let keyer = UnitKeyer::for_scenario(self, seeds);
        let (name, description, params) = (self.name(), self.description(), self.params());
        sweep_plan(
            keyer,
            seed,
            SweepSpec::extended(),
            PartitionStudy::evaluate,
            move |spec, points| {
                let sweep = SweepResult { spec, points };
                ScenarioReport::new(name, description, seed, params)
                    .with_metric("max_gain", sweep.max_gain())
                    .with_table(figure5_table(name, &sweep))
            },
        )
    }
}

/// Figure 6: unnormalized single-thread/node response time versus the number of smart
/// memory nodes, one curve per lightweight-work percentage.
pub(crate) struct Figure6;

impl Scenario for Figure6 {
    fn name(&self) -> &str {
        "figure6"
    }

    fn description(&self) -> &str {
        "response time (ns) vs number of smart memory nodes, one column per %LWT (simulation)"
    }

    fn params(&self) -> Value {
        sweep_params(&SweepSpec::figure5_6())
    }

    fn plan<'s>(&'s self, seeds: &SeedPolicy) -> ScenarioPlan<'s> {
        let seed = seeds.scenario_seed(self.name());
        let keyer = UnitKeyer::for_scenario(self, seeds);
        let (name, description, params) = (self.name(), self.description(), self.params());
        sweep_plan(
            keyer,
            seed,
            SweepSpec::figure5_6(),
            PartitionStudy::evaluate_test_ns,
            move |spec, test_ns| {
                let worst = spec
                    .points()
                    .into_iter()
                    .zip(&test_ns)
                    .find(|&((n, wl), _)| n == 1 && (wl - 1.0).abs() < 1e-9)
                    .map_or(f64::NAN, |(_, &t)| t);
                ScenarioReport::new(name, description, seed, params)
                    .with_metric("response_ns_n1_wl100", worst)
                    .with_table(figure6_table(name, &spec, &test_ns))
            },
        )
    }
}

/// Table 1: the parametric assumptions, plus the derived per-operation expectations
/// and the break-even parameter `NB` as metrics.
pub(crate) struct Table1;

impl Scenario for Table1 {
    fn name(&self) -> &str {
        "table1"
    }

    fn description(&self) -> &str {
        "Table 1 parametric assumptions (plus derived constants)"
    }

    fn params(&self) -> Value {
        SystemConfig::table1().to_value()
    }

    fn plan<'s>(&'s self, seeds: &SeedPolicy) -> ScenarioPlan<'s> {
        let seed = seeds.scenario_seed(self.name());
        let keyer = UnitKeyer::for_scenario(self, seeds);
        ScenarioPlan::cached_single(keyer.key(0, 0), move || {
            let config = SystemConfig::table1();
            let rows = config
                .table1_rows()
                .into_iter()
                .map(|(p, d, v)| vec![Value::Str(p), Value::Str(d), Value::Str(v)])
                .collect();
            let table = Table {
                name: self.name().to_string(),
                columns: vec!["parameter".into(), "description".into(), "value".into()],
                rows,
            };
            ScenarioReport::new(self.name(), self.description(), seed, self.params())
                .with_metric("t_op_hwp_ns", config.hwp_op_time_ns())
                .with_metric("t_op_lwp_ns", config.lwp_op_time_ns())
                .with_metric("nb", config.nb())
                .with_table(table)
        })
    }
}

/// Section 3.1.2 validation: the analytical model against the queuing simulation over
/// the Figure 5/6 grid (the paper saw 5%–18% between its two models).
pub struct Validation;

impl Scenario for Validation {
    fn name(&self) -> &str {
        "validation"
    }

    fn description(&self) -> &str {
        "analytical vs simulated test-system time per (N, %WL) point"
    }

    fn params(&self) -> Value {
        sweep_params(&SweepSpec::figure5_6())
    }

    fn plan<'s>(&'s self, seeds: &SeedPolicy) -> ScenarioPlan<'s> {
        let seed = seeds.scenario_seed(self.name());
        let keyer = UnitKeyer::for_scenario(self, seeds);
        let (name, description, params) = (self.name(), self.description(), self.params());
        sweep_plan(
            keyer,
            seed,
            SweepSpec::figure5_6(),
            PartitionStudy::evaluate_test_ns,
            move |spec, test_ns| {
                let report = validation_from_sweep(SystemConfig::table1(), &spec, &test_ns);
                let rows = report
                    .rows
                    .iter()
                    .map(|r| {
                        vec![
                            Value::U64(r.nodes as u64),
                            Value::F64(r.lwp_fraction * 100.0),
                            Value::F64(r.simulated_ns),
                            Value::F64(r.analytic_ns),
                            Value::F64(r.relative_error * 100.0),
                        ]
                    })
                    .collect();
                let table = Table {
                    name: name.to_string(),
                    columns: vec![
                        "nodes".into(),
                        "pct_lwp".into(),
                        "simulated_ns".into(),
                        "analytic_ns".into(),
                        "rel_error_pct".into(),
                    ],
                    rows,
                };
                ScenarioReport::new(name, description, seed, params)
                    .with_metric("mean_relative_error", report.mean_relative_error)
                    .with_metric("max_relative_error", report.max_relative_error)
                    .with_table(table)
            },
        )
    }
}

/// E-X6: confidence intervals on the headline simulated gains via independent
/// replications (output-analysis methodology the paper's figures omit).
pub(crate) struct ReplicationCi;

/// The `(nodes, %WL)` corners whose gains get replicated confidence intervals.
const CI_CORNERS: [(usize, f64); 5] = [(4, 0.5), (8, 0.8), (32, 0.9), (32, 1.0), (64, 1.0)];

impl Scenario for ReplicationCi {
    fn name(&self) -> &str {
        "replication_ci"
    }

    fn description(&self) -> &str {
        "replicated simulated gains with 95% confidence intervals vs the closed form"
    }

    fn params(&self) -> Value {
        Value::Map(vec![
            ("replications".into(), Value::U64(24)),
            ("sim_ops".into(), Value::U64(200_000)),
            (
                "corners".into(),
                Value::Seq(
                    CI_CORNERS
                        .iter()
                        .map(|&(n, wl)| Value::Seq(vec![Value::U64(n as u64), Value::F64(wl)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn plan<'s>(&'s self, seeds: &SeedPolicy) -> ScenarioPlan<'s> {
        const REPLICATIONS: u64 = 24;
        const SIM_OPS_CI: u64 = 200_000;
        let seed = seeds.scenario_seed(self.name());
        let (name, description, params) = (self.name(), self.description(), self.params());
        let config = SystemConfig {
            total_ops: 1_000_000,
            ..SystemConfig::table1()
        };
        // One unit per (corner, replication), replication `r` seeded by
        // `replication_seed(seed, r)`.
        let keyer = UnitKeyer::for_scenario(self, seeds);
        let mut units = Vec::with_capacity(CI_CORNERS.len() * REPLICATIONS as usize);
        for (c, &(nodes, wl)) in CI_CORNERS.iter().enumerate() {
            for r in 0..REPLICATIONS {
                units.push((keyer.key(c, r as usize), move || {
                    PartitionStudy::new(config)
                        .evaluate(
                            nodes,
                            wl,
                            EvalMode::Simulated {
                                sim_ops: Some(SIM_OPS_CI),
                                ops_per_event: 64,
                                seed: replication_seed(seed, r),
                            },
                        )
                        .gain
                }));
            }
        }
        ScenarioPlan::cached_map_reduce(units, move |gains: Vec<f64>| {
            let mut table = Table {
                name: name.to_string(),
                columns: vec![
                    "nodes".into(),
                    "pct_lwp".into(),
                    "replications".into(),
                    "mean_gain".into(),
                    "ci95_half_width".into(),
                    "analytic_gain".into(),
                ],
                rows: Vec::new(),
            };
            for (c, &(nodes, wl)) in CI_CORNERS.iter().enumerate() {
                let chunk = &gains[c * REPLICATIONS as usize..(c + 1) * REPLICATIONS as usize];
                let summary = ReplicationSummary::from_samples(chunk, ConfidenceLevel::P95);
                let analytic = 1.0 / (1.0 - wl * (1.0 - config.nb() / nodes as f64));
                table.rows.push(vec![
                    Value::U64(nodes as u64),
                    Value::F64(wl * 100.0),
                    Value::U64(summary.replications),
                    Value::F64(summary.mean),
                    Value::F64(summary.half_width),
                    Value::F64(analytic),
                ]);
            }
            ScenarioReport::new(name, description, seed, params).with_table(table)
        })
    }
}

/// E-X4: sensitivity of the study-1 gains to load imbalance across the LWP threads
/// (the paper assumes perfectly uniform thread lengths).
pub(crate) struct AblationImbalance;

/// Skew factors applied to the per-node thread lengths.
const SKEWS: [f64; 9] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 0.95];
/// The `(nodes, %WL)` corners the skew sweep is repeated at.
const IMBALANCE_CORNERS: [(usize, f64); 3] = [(8, 0.8), (32, 0.9), (64, 1.0)];

impl Scenario for AblationImbalance {
    fn name(&self) -> &str {
        "ablation_imbalance"
    }

    fn description(&self) -> &str {
        "gain vs per-thread load skew (the paper assumes perfectly uniform threads)"
    }

    fn params(&self) -> Value {
        Value::Map(vec![
            (
                "skews".into(),
                Value::Seq(SKEWS.iter().map(|&s| Value::F64(s)).collect()),
            ),
            (
                "corners".into(),
                Value::Seq(
                    IMBALANCE_CORNERS
                        .iter()
                        .map(|&(n, wl)| Value::Seq(vec![Value::U64(n as u64), Value::F64(wl)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn plan<'s>(&'s self, seeds: &SeedPolicy) -> ScenarioPlan<'s> {
        let seed = seeds.scenario_seed(self.name());
        let (name, description, params) = (self.name(), self.description(), self.params());
        let config = SystemConfig {
            total_ops: 2_000_000,
            ..SystemConfig::table1()
        };
        // One unit per (corner, skew), each an independent run at the scenario seed.
        let keyer = UnitKeyer::for_scenario(self, seeds);
        let mut units = Vec::with_capacity(IMBALANCE_CORNERS.len() * SKEWS.len());
        for (c, &(nodes, wl)) in IMBALANCE_CORNERS.iter().enumerate() {
            for (s, &skew) in SKEWS.iter().enumerate() {
                units.push((keyer.key(c * SKEWS.len() + s, 0), move || {
                    (
                        nodes,
                        wl,
                        imbalance_sensitivity(config, nodes, wl, skew, seed),
                    )
                }));
            }
        }
        ScenarioPlan::cached_map_reduce(units, move |rows: Vec<(usize, f64, ImbalanceRow)>| {
            let mut table = Table {
                name: name.to_string(),
                columns: vec![
                    "nodes".into(),
                    "pct_lwp".into(),
                    "skew".into(),
                    "gain".into(),
                    "lwp_idle_fraction".into(),
                ],
                rows: Vec::new(),
            };
            for (nodes, wl, row) in rows {
                table.rows.push(vec![
                    Value::U64(nodes as u64),
                    Value::F64(wl * 100.0),
                    Value::F64(row.skew),
                    Value::F64(row.gain),
                    Value::F64(row.idle_fraction),
                ]);
            }
            ScenarioReport::new(name, description, seed, params).with_table(table)
        })
    }
}
