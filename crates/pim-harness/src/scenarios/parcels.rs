//! Study-2 scenarios: parcel latency hiding (Figures 11 and 12) and the network and
//! parcel-overhead ablations.
//!
//! The two figure scenarios decompose into one work unit per grid point, seeded
//! exactly as `pim_parcels::run_latency_hiding`/`run_idle_time` seed their internal
//! sweeps (via [`pim_parcels::experiment::point_seed`]); the ablations decompose per
//! grid cell.

use crate::cache::UnitKeyer;
use crate::report::{ScenarioReport, Table};
use crate::scenario::{Scenario, ScenarioPlan, SeedPolicy};
use pim_parcels::prelude::*;
use serde::{Serialize, Value};

/// Figure 11: latency hiding with parcels — the test/control work ratio as the
/// system-wide latency sweeps, per (parallelism, remote%) curve.
pub(crate) struct Figure11;

fn figure11_spec(seed: u64) -> LatencyHidingSpec {
    LatencyHidingSpec {
        seed,
        ..LatencyHidingSpec::figure11()
    }
}

impl Scenario for Figure11 {
    fn name(&self) -> &str {
        "figure11"
    }

    fn description(&self) -> &str {
        "test/control work ratio vs latency, per (parallelism, remote%) curve"
    }

    fn params(&self) -> Value {
        // The spec's seed field is overridden per run; report the grid with seed 0 so
        // `params` stays independent of the seed policy.
        figure11_spec(0).to_value()
    }

    fn plan<'s>(&'s self, seeds: &SeedPolicy) -> ScenarioPlan<'s> {
        let seed = seeds.scenario_seed(self.name());
        let (name, description, params) = (self.name(), self.description(), self.params());
        let keyer = UnitKeyer::for_scenario(self, seeds);
        let spec = figure11_spec(seed);
        let units: Vec<_> = spec
            .configs()
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                (keyer.key(i, 0), move || {
                    evaluate_point(c, point_seed(seed, i))
                })
            })
            .collect();
        ScenarioPlan::cached_map_reduce(units, move |points: Vec<LatencyHidingPoint>| {
            let best = points.iter().map(|p| p.ops_ratio).fold(0.0, f64::max);
            let worst = points
                .iter()
                .map(|p| p.ops_ratio)
                .fold(f64::INFINITY, f64::min);
            let rows = points
                .iter()
                .map(|p| {
                    vec![
                        Value::U64(p.parallelism as u64),
                        Value::F64(p.remote_fraction * 100.0),
                        Value::F64(p.latency_cycles),
                        Value::F64(p.ops_ratio),
                        Value::F64(p.test_idle_fraction),
                        Value::F64(p.control_idle_fraction),
                    ]
                })
                .collect();
            let table = Table {
                name: name.to_string(),
                columns: vec![
                    "parallelism".into(),
                    "remote_pct".into(),
                    "latency_cycles".into(),
                    "ops_ratio".into(),
                    "test_idle_frac".into(),
                    "control_idle_frac".into(),
                ],
                rows,
            };
            ScenarioReport::new(name, description, seed, params)
                .with_metric("max_ops_ratio", best)
                .with_metric("min_ops_ratio", worst)
                .with_table(table)
        })
    }
}

/// Figure 12: idle time of the test and control systems versus the degree of
/// parallelism, for system sizes 1–256 (the paper's 16-node set was never completed).
pub(crate) struct Figure12;

fn figure12_spec(seed: u64) -> IdleTimeSpec {
    IdleTimeSpec {
        seed,
        ..IdleTimeSpec::figure12()
    }
}

impl Scenario for Figure12 {
    fn name(&self) -> &str {
        "figure12"
    }

    fn description(&self) -> &str {
        "idle time of test and control systems vs parallelism, per node count"
    }

    fn params(&self) -> Value {
        figure12_spec(0).to_value()
    }

    fn plan<'s>(&'s self, seeds: &SeedPolicy) -> ScenarioPlan<'s> {
        let seed = seeds.scenario_seed(self.name());
        let (name, description, params) = (self.name(), self.description(), self.params());
        let keyer = UnitKeyer::for_scenario(self, seeds);
        let spec = figure12_spec(seed);
        let units: Vec<_> = spec
            .configs()
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                (keyer.key(i, 0), move || {
                    evaluate_idle_point(c, point_seed(seed, i))
                })
            })
            .collect();
        ScenarioPlan::cached_map_reduce(units, move |points: Vec<IdleTimePoint>| {
            let max_test_idle_saturated = points
                .iter()
                .filter(|p| p.parallelism >= 64)
                .map(|p| p.test_idle_fraction)
                .fold(0.0, f64::max);
            let min_control_idle = points
                .iter()
                .map(|p| p.control_idle_fraction)
                .fold(f64::INFINITY, f64::min);
            let rows = points
                .iter()
                .map(|p| {
                    vec![
                        Value::U64(p.nodes as u64),
                        Value::U64(p.parallelism as u64),
                        Value::F64(p.test_idle_cycles),
                        Value::F64(p.control_idle_cycles),
                        Value::F64(p.test_idle_fraction),
                        Value::F64(p.control_idle_fraction),
                    ]
                })
                .collect();
            let table = Table {
                name: name.to_string(),
                columns: vec![
                    "nodes".into(),
                    "parallelism".into(),
                    "test_idle_cycles".into(),
                    "control_idle_cycles".into(),
                    "test_idle_frac".into(),
                    "control_idle_frac".into(),
                ],
                rows,
            };
            ScenarioReport::new(name, description, seed, params)
                .with_metric("max_test_idle_frac_saturated", max_test_idle_saturated)
                .with_metric("min_control_idle_frac", min_control_idle)
                .with_table(table)
        })
    }
}

/// E-X2: repeats a slice of the Figure 11 sweep under mesh/torus hop-count networks
/// (mean latency matched to the flat value) and message-driven remote servicing.
pub(crate) struct AblationNetwork;

impl Scenario for AblationNetwork {
    fn name(&self) -> &str {
        "ablation_network"
    }

    fn description(&self) -> &str {
        "parcel latency hiding under flat vs mesh vs torus networks and message-driven servicing"
    }

    fn params(&self) -> Value {
        Value::Map(vec![
            ("nodes".into(), Value::U64(16)),
            (
                "parallelism".into(),
                Value::Seq(vec![Value::U64(2), Value::U64(8), Value::U64(32)]),
            ),
            (
                "latencies".into(),
                Value::Seq(vec![Value::F64(100.0), Value::F64(1000.0)]),
            ),
            ("remote_fraction".into(), Value::F64(0.4)),
        ])
    }

    fn plan<'s>(&'s self, seeds: &SeedPolicy) -> ScenarioPlan<'s> {
        let seed = seeds.scenario_seed(self.name());
        let (name, description, params) = (self.name(), self.description(), self.params());
        // One unit per (parallelism, latency) cell; each produces the cell's four
        // rows (flat, mesh, torus, flat+msg-driven) in the table's row order.
        let keyer = UnitKeyer::for_scenario(self, seeds);
        let mut units = Vec::with_capacity(6);
        for &parallelism in &[2usize, 8, 32] {
            for &latency in &[100.0, 1000.0] {
                let key = keyer.key(units.len(), 0);
                units.push((key, move || network_cell_rows(parallelism, latency, seed)));
            }
        }
        ScenarioPlan::cached_map_reduce(units, move |cells: Vec<Vec<Vec<Value>>>| {
            let table = Table {
                name: name.to_string(),
                columns: vec![
                    "network".into(),
                    "parallelism".into(),
                    "remote_pct".into(),
                    "mean_latency_cycles".into(),
                    "ops_ratio".into(),
                    "test_idle_frac".into(),
                ],
                rows: cells.into_iter().flatten().collect(),
            };
            ScenarioReport::new(name, description, seed, params).with_table(table)
        })
    }
}

/// The four `ablation_network` rows of one (parallelism, latency) cell: flat, mesh
/// and torus networks with matched mean latency, plus message-driven servicing.
fn network_cell_rows(parallelism: usize, latency: f64, seed: u64) -> Vec<Vec<Value>> {
    let nodes = 16;
    let config = ParcelConfig {
        nodes,
        parallelism,
        latency_cycles: latency,
        remote_fraction: 0.4,
        horizon_cycles: 500_000.0,
        ..Default::default()
    };
    // The control system is the same flat-network baseline for all four rows.
    let control = run_control(config, seed.wrapping_add(1));
    let mut rows = Vec::with_capacity(4);
    let mut run_with =
        |kind: &str, network: Box<dyn NetworkModel + Send>, service: RemoteService| {
            let test = run_test_with_options(config, network, service, seed);
            rows.push(vec![
                Value::Str(kind.to_string()),
                Value::U64(config.parallelism as u64),
                Value::F64(config.remote_fraction * 100.0),
                Value::F64(config.latency_cycles),
                Value::F64(test.total_work_ops as f64 / control.total_work_ops as f64),
                Value::F64(test.idle_fraction()),
            ]);
        };
    // Choose per-hop costs so mesh/torus mean latency equals the flat value.
    let mesh_hops = MeshNetwork::for_nodes(nodes, 0.0, 1.0).mean_latency_cycles(nodes);
    let torus_hops = TorusNetwork::for_nodes(nodes, 0.0, 1.0).mean_latency_cycles(nodes);
    run_with(
        "flat",
        Box::new(FlatLatency::new(latency)),
        RemoteService::MemorySide,
    );
    run_with(
        "mesh",
        Box::new(MeshNetwork::for_nodes(nodes, 0.0, latency / mesh_hops)),
        RemoteService::MemorySide,
    );
    run_with(
        "torus",
        Box::new(TorusNetwork::for_nodes(nodes, 0.0, latency / torus_hops)),
        RemoteService::MemorySide,
    );
    run_with(
        "flat+msg-driven",
        Box::new(FlatLatency::new(latency)),
        RemoteService::OnCpu,
    );
    rows
}

/// E-X5: sweeps the per-parcel handling overhead, showing where the split-transaction
/// advantage erodes and reverses ("efficient parcel handling mechanisms are required").
pub(crate) struct AblationOverhead;

impl Scenario for AblationOverhead {
    fn name(&self) -> &str {
        "ablation_overhead"
    }

    fn description(&self) -> &str {
        "work ratio vs per-parcel handling overhead (efficient parcel handling is required)"
    }

    fn params(&self) -> Value {
        Value::Map(vec![
            (
                "parallelism".into(),
                Value::Seq(vec![Value::U64(1), Value::U64(4), Value::U64(16)]),
            ),
            (
                "latencies".into(),
                Value::Seq(vec![
                    Value::F64(50.0),
                    Value::F64(500.0),
                    Value::F64(5000.0),
                ]),
            ),
            (
                "overheads".into(),
                Value::Seq(vec![
                    Value::F64(0.0),
                    Value::F64(2.0),
                    Value::F64(8.0),
                    Value::F64(32.0),
                    Value::F64(128.0),
                ]),
            ),
        ])
    }

    fn plan<'s>(&'s self, seeds: &SeedPolicy) -> ScenarioPlan<'s> {
        let seed = seeds.scenario_seed(self.name());
        let (name, description, params) = (self.name(), self.description(), self.params());
        // One unit per (parallelism, latency, overhead) point.
        let keyer = UnitKeyer::for_scenario(self, seeds);
        let mut units = Vec::with_capacity(3 * 3 * 5);
        for &parallelism in &[1usize, 4, 16] {
            for &latency in &[50.0, 500.0, 5_000.0] {
                for &overhead in &[0.0, 2.0, 8.0, 32.0, 128.0] {
                    let key = keyer.key(units.len(), 0);
                    units.push((key, move || {
                        let config = ParcelConfig {
                            nodes: 4,
                            parallelism,
                            latency_cycles: latency,
                            remote_fraction: 0.4,
                            parcel_overhead_cycles: overhead,
                            horizon_cycles: 600_000.0,
                            ..Default::default()
                        };
                        let point = evaluate_point(config, seed);
                        vec![
                            Value::U64(parallelism as u64),
                            Value::F64(latency),
                            Value::F64(overhead),
                            Value::F64(point.ops_ratio),
                        ]
                    }));
                }
            }
        }
        ScenarioPlan::cached_map_reduce(units, move |rows: Vec<Vec<Value>>| {
            let table = Table {
                name: name.to_string(),
                columns: vec![
                    "parallelism".into(),
                    "latency_cycles".into(),
                    "overhead_cycles".into(),
                    "ops_ratio".into(),
                ],
                rows,
            };
            ScenarioReport::new(name, description, seed, params).with_table(table)
        })
    }
}
