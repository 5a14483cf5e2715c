//! Memory-technology scenario: the Section 2.1 DRAM bandwidth claims that motivate
//! PIM, plus trace-calibrated host cache miss rates.

use crate::cache::UnitKeyer;
use crate::report::{ScenarioReport, Table};
use crate::scenario::{Scenario, ScenarioPlan, SeedPolicy};
use desim::random::RandomStream;
use pim_mem::{DramTiming, SetAssociativeCache};
use pim_workload::ReuseProfile;
use serde::Value;

/// E-X3: "a single on-chip DRAM macro could sustain a bandwidth of over 50 Gbit/s …
/// an on-chip peak memory bandwidth of greater than 1 Tbit/s is possible per chip."
pub(crate) struct BandwidthClaims;

/// Node counts for the per-chip aggregate bandwidth rows.
const CHIP_NODES: [usize; 5] = [8, 16, 32, 64, 128];

impl Scenario for BandwidthClaims {
    fn name(&self) -> &str {
        "bandwidth_claims"
    }

    fn description(&self) -> &str {
        "Section 2.1 DRAM bandwidth claims and trace-calibrated cache miss rates"
    }

    fn params(&self) -> Value {
        Value::Map(vec![
            (
                "chip_nodes".into(),
                Value::Seq(CHIP_NODES.iter().map(|&n| Value::U64(n as u64)).collect()),
            ),
            ("trace_addresses".into(), Value::U64(200_000)),
            ("cache_bytes".into(), Value::U64(64 * 1024)),
        ])
    }

    fn plan<'s>(&'s self, seeds: &SeedPolicy) -> ScenarioPlan<'s> {
        let seed = seeds.scenario_seed(self.name());
        let keyer = UnitKeyer::for_scenario(self, seeds);
        ScenarioPlan::cached_single(keyer.key(0, 0), move || self.compute(seed))
    }
}

impl BandwidthClaims {
    /// The bandwidth table and trace-calibrated miss rates (a single plan unit —
    /// the trace run takes ~30 ms).
    fn compute(&self, seed: u64) -> ScenarioReport {
        let timing = DramTiming::default();
        let mut table = Table {
            name: self.name().to_string(),
            columns: vec!["quantity".into(), "value".into(), "unit".into()],
            rows: Vec::new(),
        };
        let mut push = |quantity: &str, value: f64, unit: &str| {
            table.rows.push(vec![
                Value::Str(quantity.to_string()),
                Value::F64(value),
                Value::Str(unit.to_string()),
            ]);
        };
        push(
            "macro_peak_bandwidth",
            timing.peak_bandwidth_gbit_per_s(),
            "Gbit/s",
        );
        push(
            "macro_worst_case_bandwidth",
            timing.worst_case_bandwidth_gbit_per_s(),
            "Gbit/s",
        );
        // A chip's nodes stream concurrently, each from its own macro, so its
        // peak is the macro's peak times the node count (Gbit/s → Tbit/s).
        for nodes in CHIP_NODES {
            push(
                &format!("chip_peak_bandwidth_n{nodes}"),
                timing.peak_bandwidth_gbit_per_s() * nodes as f64 / 1e3,
                "Tbit/s",
            );
        }

        // Calibrate the Table 1 cache miss rate from synthetic address streams: a
        // high-reuse stream against a 64 KiB host cache lands near the paper's
        // Pmiss = 0.1, while a no-reuse stream misses nearly always.
        for (i, (label, reuse)) in [("high_locality", 0.93), ("no_locality", 0.0)]
            .into_iter()
            .enumerate()
        {
            let mut profile =
                ReuseProfile::new(reuse, 128, 64, RandomStream::new(seed, i as u64 + 1));
            let mut cache = SetAssociativeCache::new(64 * 1024, 64, 4);
            for addr in profile.addresses(200_000) {
                cache.access(addr);
            }
            push(
                &format!("measured_pmiss_{label}"),
                cache.miss_rate(),
                "fraction",
            );
        }
        ScenarioReport::new(self.name(), self.description(), seed, self.params()).with_table(table)
    }
}
