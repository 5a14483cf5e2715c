//! Property-based tests of the parcel-study invariants.

use pim_parcels::prelude::*;
use proptest::prelude::*;

fn small_config() -> impl Strategy<Value = ParcelConfig> {
    (
        1usize..8,       // nodes
        1usize..48,      // parallelism
        0u32..=100,      // remote %
        0.0f64..3_000.0, // latency
        0.0f64..16.0,    // overhead
    )
        .prop_map(
            |(nodes, parallelism, remote_pct, latency, overhead)| ParcelConfig {
                nodes,
                parallelism,
                remote_fraction: remote_pct as f64 / 100.0,
                latency_cycles: latency,
                parcel_overhead_cycles: overhead,
                horizon_cycles: 60_000.0,
                ..Default::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-node accounting always satisfies busy + idle = horizon, and fractions stay
    /// inside [0, 1], for both systems and any configuration.
    #[test]
    fn accounting_is_conserved(config in small_config(), seed in any::<u64>()) {
        for outcome in [run_control(config, seed), run_test(config, seed)] {
            prop_assert_eq!(outcome.node_count(), config.nodes);
            for n in &outcome.nodes {
                prop_assert!(n.busy_cycles >= -1e-9 && n.busy_cycles <= config.horizon_cycles + 1e-6);
                prop_assert!((n.busy_cycles + n.idle_cycles - config.horizon_cycles).abs() < 1e-6);
            }
            prop_assert!(outcome.busy_fraction() >= 0.0 && outcome.busy_fraction() <= 1.0 + 1e-9);
            prop_assert!(outcome.idle_fraction() >= 0.0 && outcome.idle_fraction() <= 1.0 + 1e-9);
        }
    }

    /// The split-transaction system cannot complete more than `parallelism` times the
    /// blocking system's work, and with zero parcel overhead it never completes
    /// (meaningfully) less.
    #[test]
    fn ops_ratio_is_bounded(config in small_config(), seed in any::<u64>()) {
        // Stretch the horizon to cover at least ~200 blocking cycles so sampling noise
        // is small enough for the bounds below to be meaningful (short horizons with
        // multi-thousand-cycle latencies otherwise see only a handful of runs per node).
        let cycle = config.expected_run_cycles() + 1.0 + config.round_trip_cycles();
        let horizon = if cycle.is_finite() { (200.0 * cycle).clamp(60_000.0, 3_000_000.0) } else { 60_000.0 };
        let config = ParcelConfig { horizon_cycles: horizon, ..config };

        let point = evaluate_point(config, seed);
        if point.control_work > 2_000 {
            prop_assert!(point.ops_ratio > 0.0);
            // Upper bound: P contexts cannot do more than P times a blocking node's work
            // (plus a sliver of sampling noise).
            prop_assert!(
                point.ops_ratio <= config.parallelism as f64 * 1.2 + 0.2,
                "ratio {} with parallelism {}",
                point.ops_ratio,
                config.parallelism
            );
        }
        // With no parcel-handling overhead, split transactions strictly dominate
        // blocking: the ratio stays at or above parity, modulo sampling noise.
        let free = ParcelConfig { parcel_overhead_cycles: 0.0, ..config };
        let free_point = evaluate_point(free, seed);
        if free_point.control_work > 2_000 {
            prop_assert!(
                free_point.ops_ratio > 0.8,
                "overhead-free ratio {} should not fall below parity",
                free_point.ops_ratio
            );
        }
    }

    /// The test system's idle fraction never exceeds the control system's by more than
    /// noise: split transactions only ever remove waiting.
    #[test]
    fn test_system_is_never_more_idle(config in small_config(), seed in any::<u64>()) {
        let test = run_test(config, seed);
        let control = run_control(config, seed);
        prop_assert!(
            test.idle_fraction() <= control.idle_fraction() + 0.12,
            "test idle {} vs control idle {}",
            test.idle_fraction(),
            control.idle_fraction()
        );
    }

    /// Runs are deterministic in the seed: the same configuration and seed always give
    /// identical work counts.
    #[test]
    fn runs_are_deterministic(config in small_config(), seed in any::<u64>()) {
        let a = evaluate_point(config, seed);
        let b = evaluate_point(config, seed);
        prop_assert_eq!(a.test_work, b.test_work);
        prop_assert_eq!(a.control_work, b.control_work);
    }

    /// Network models are symmetric, zero on the diagonal and non-negative everywhere.
    #[test]
    fn networks_are_metrics(nodes in 1usize..128, latency in 0.0f64..10_000.0) {
        let models: Vec<Box<dyn NetworkModel>> = vec![
            Box::new(FlatLatency::new(latency)),
            Box::new(MeshNetwork::for_nodes(nodes, 3.0, 2.0)),
            Box::new(TorusNetwork::for_nodes(nodes, 3.0, 2.0)),
        ];
        for m in &models {
            for s in (0..nodes).step_by((nodes / 8).max(1)) {
                prop_assert_eq!(m.latency_cycles(s, s), 0.0);
                for d in (0..nodes).step_by((nodes / 8).max(1)) {
                    let a = m.latency_cycles(s, d);
                    let b = m.latency_cycles(d, s);
                    prop_assert!(a >= 0.0);
                    prop_assert!((a - b).abs() < 1e-9);
                }
            }
        }
    }
}
