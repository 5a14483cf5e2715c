//! Integration of the substrate crates: the memory models against the paper's
//! Section 2.1 bandwidth claims and against the workload generators.

use pim_repro::desim::random::RandomStream;
use pim_repro::pim_harness::prelude::{Registry, ScenarioReport, SeedPolicy};
use pim_repro::pim_mem::SetAssociativeCache;
use pim_repro::pim_workload::ReuseProfile;

/// The value of `bandwidth_claims`' row for `quantity`; its rows are
/// `[quantity, value, unit]`.
fn claim(report: &ScenarioReport, quantity: &str) -> f64 {
    let label = format!("\"{quantity}\"");
    report.tables[0]
        .rows
        .iter()
        .find(|row| serde_json::to_string(&row[0]).is_ok_and(|json| json == label))
        .and_then(|row| row[1].as_f64())
        .unwrap_or_else(|| panic!("bandwidth_claims has no {quantity} row"))
}

#[test]
fn dram_macro_bandwidth_claims_from_section_2_1() {
    let report = Registry::builtin()
        .get("bandwidth_claims")
        .expect("bandwidth_claims is a builtin scenario")
        .run(&SeedPolicy::default());
    assert!(claim(&report, "macro_peak_bandwidth") > 50.0);
    let n32 = claim(&report, "chip_peak_bandwidth_n32");
    assert!(n32 > 1.0);
    // Bandwidth is proportional to node count (the paper's claim).
    assert!((claim(&report, "chip_peak_bandwidth_n64") / n32 - 2.0).abs() < 1e-9);
}

#[test]
fn workload_locality_knob_reproduces_table1_miss_rate_regime() {
    // A reuse probability can be found for which a 64 KiB host cache sees roughly the
    // paper's Pmiss = 0.1; the no-reuse stream justifies sending that work to the LWPs.
    let mut warm = ReuseProfile::new(0.93, 128, 64, RandomStream::new(2, 2));
    let mut cache = SetAssociativeCache::new(64 * 1024, 64, 4);
    for addr in warm.addresses(150_000) {
        cache.access(addr);
    }
    assert!(
        cache.miss_rate() > 0.03 && cache.miss_rate() < 0.2,
        "calibrated miss rate {} should be near the Table 1 Pmiss of 0.1",
        cache.miss_rate()
    );

    let mut cold = ReuseProfile::new(0.0, 128, 64, RandomStream::new(2, 3));
    let mut cache = SetAssociativeCache::new(64 * 1024, 64, 4);
    for addr in cold.addresses(50_000) {
        cache.access(addr);
    }
    assert!(
        cache.miss_rate() > 0.95,
        "no-reuse miss rate {}",
        cache.miss_rate()
    );
}
