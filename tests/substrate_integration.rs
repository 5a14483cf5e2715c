//! Integration of the substrate crates: the memory models against the paper's
//! Section 2.1 bandwidth claims and against the workload generators.

use pim_repro::desim::random::RandomStream;
use pim_repro::pim_mem::{CacheModel, DramTiming, PimChip, SetAssociativeCache};
use pim_repro::pim_workload::ReuseProfile;

#[test]
fn dram_macro_bandwidth_claims_from_section_2_1() {
    let timing = DramTiming::default();
    assert!(timing.peak_bandwidth_gbit_per_s() > 50.0);
    let chip = PimChip::with_nodes(32);
    assert!(chip.peak_bandwidth_tbit_per_s() > 1.0);
    // Bandwidth is proportional to node count (the paper's claim).
    let chip64 = PimChip::with_nodes(64);
    assert!(
        (chip64.peak_bandwidth_tbit_per_s() / chip.peak_bandwidth_tbit_per_s() - 2.0).abs() < 1e-9
    );
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

#[test]
fn pim_chip_streaming_accesses_hit_open_rows() {
    let mut chip = PimChip::with_nodes(4);
    let per_node = chip.capacity_bytes() / 4;
    // Stream within one node's memory: after the first access every page hits the open row.
    let mut total_latency = 0.0;
    for i in 0..64u64 {
        let (node, latency) = chip.access(i * 32);
        assert_eq!(node, 0);
        total_latency += latency;
    }
    assert!(
        total_latency < 64.0 * 5.0,
        "streaming should average close to the 2 ns page access"
    );
    // Touch another node: independent row buffer, so it misses once then hits.
    let (node, first) = chip.access(per_node + 7);
    assert_eq!(node, 1);
    assert!(first > 20.0);
}
