//! Closed-form scenarios: Figure 7 and the `NB` sensitivity ablation.

use crate::cache::UnitKeyer;
use crate::report::{ScenarioReport, Table};
use crate::scenario::{Scenario, ScenarioPlan, SeedPolicy};
use pim_analytic::{nb_sensitivity, AnalyticModel, SweepParameter};
use serde::Value;

/// Figure 7: the analytical model's normalized runtime versus node count, one curve
/// per %WL, exposing the coincidence point at `N = NB`.
pub(crate) struct Figure7;

/// Node counts along Figure 7's x-axis.
const F7_NODES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

impl Scenario for Figure7 {
    fn name(&self) -> &str {
        "figure7"
    }

    fn description(&self) -> &str {
        "analytical normalized runtime vs node count, one column per %WL"
    }

    fn params(&self) -> Value {
        Value::Map(vec![(
            "node_counts".into(),
            Value::Seq(F7_NODES.iter().map(|&n| Value::U64(n as u64)).collect()),
        )])
    }

    fn plan<'s>(&'s self, seeds: &SeedPolicy) -> ScenarioPlan<'s> {
        let seed = seeds.scenario_seed(self.name());
        let keyer = UnitKeyer::for_scenario(self, seeds);
        ScenarioPlan::cached_single(keyer.key(0, 0), move || self.compute(seed))
    }
}

impl Figure7 {
    /// The closed-form evaluation (milliseconds of work — a single plan unit).
    fn compute(&self, seed: u64) -> ScenarioReport {
        let model = AnalyticModel::table1();
        let wl_values: Vec<f64> = (0..=10).map(|i| f64::from(i) / 10.0).collect();
        let mut columns = vec!["nodes".to_string()];
        for wl in &wl_values {
            columns.push(format!("rel_time_wl{:.0}", wl * 100.0));
        }
        let rows = F7_NODES
            .iter()
            .map(|&n| {
                let mut row = vec![Value::U64(n as u64)];
                for &wl in &wl_values {
                    row.push(Value::F64(model.time_relative(n as f64, wl)));
                }
                row
            })
            .collect();
        let table = Table {
            name: self.name().to_string(),
            columns,
            rows,
        };
        ScenarioReport::new(self.name(), self.description(), seed, self.params())
            .with_metric("nb", model.nb())
            .with_table(table)
    }
}

/// E-X1: sensitivity of the break-even parameter `NB` to each machine constant, one
/// table per swept parameter.
pub(crate) struct AblationNb;

/// The sweeps: parameter, table name, values (the legacy binary's grids).
fn nb_sweeps() -> [(SweepParameter, &'static str, Vec<f64>); 5] {
    [
        (
            SweepParameter::CacheMissRate,
            "ablation_nb_pmiss",
            vec![0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5],
        ),
        (
            SweepParameter::LwpCycleTime,
            "ablation_nb_lwp_clock",
            vec![1.0, 2.0, 3.0, 5.0, 8.0, 10.0, 20.0],
        ),
        (
            SweepParameter::LwpMemoryCycles,
            "ablation_nb_tml",
            vec![10.0, 20.0, 30.0, 45.0, 60.0, 90.0],
        ),
        (
            SweepParameter::HwpMemoryCycles,
            "ablation_nb_tmh",
            vec![30.0, 60.0, 90.0, 150.0, 300.0, 500.0],
        ),
        (
            SweepParameter::MemoryMix,
            "ablation_nb_mix",
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0],
        ),
    ]
}

fn parameter_column(parameter: SweepParameter) -> &'static str {
    match parameter {
        SweepParameter::CacheMissRate => "p_miss",
        SweepParameter::LwpCycleTime => "lwp_cycle_ns",
        SweepParameter::LwpMemoryCycles => "lwp_memory_cycles",
        SweepParameter::HwpMemoryCycles => "hwp_memory_cycles",
        SweepParameter::MemoryMix => "memory_mix",
    }
}

impl Scenario for AblationNb {
    fn name(&self) -> &str {
        "ablation_nb"
    }

    fn description(&self) -> &str {
        "break-even node count NB vs each swept machine constant"
    }

    fn params(&self) -> Value {
        Value::Map(
            nb_sweeps()
                .into_iter()
                .map(|(p, _, values)| {
                    (
                        parameter_column(p).to_string(),
                        Value::Seq(values.into_iter().map(Value::F64).collect()),
                    )
                })
                .collect(),
        )
    }

    fn plan<'s>(&'s self, seeds: &SeedPolicy) -> ScenarioPlan<'s> {
        let seed = seeds.scenario_seed(self.name());
        let keyer = UnitKeyer::for_scenario(self, seeds);
        ScenarioPlan::cached_single(keyer.key(0, 0), move || self.compute(seed))
    }
}

impl AblationNb {
    /// The closed-form sweep (milliseconds of work — a single plan unit).
    fn compute(&self, seed: u64) -> ScenarioReport {
        let mut report = ScenarioReport::new(self.name(), self.description(), seed, self.params());
        for (parameter, table_name, values) in nb_sweeps() {
            let rows = nb_sensitivity(parameter, &values)
                .into_iter()
                .map(|r| {
                    vec![
                        Value::F64(r.value),
                        Value::F64(r.nb),
                        Value::F64(r.gain_32_full),
                    ]
                })
                .collect();
            report = report.with_table(Table {
                name: table_name.to_string(),
                columns: vec![
                    parameter_column(parameter).to_string(),
                    "nb".into(),
                    "gain_n32_wl100".into(),
                ],
                rows,
            });
        }
        report
    }
}
