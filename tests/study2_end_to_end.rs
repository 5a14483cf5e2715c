//! End-to-end integration of study 2: parcels, networks, both systems, the analytic
//! multithreading model and the report tables.

use pim_repro::pim_analytic::ParcelAnalyticModel;
use pim_repro::pim_parcels::prelude::*;

fn base() -> ParcelConfig {
    ParcelConfig {
        nodes: 4,
        horizon_cycles: 400_000.0,
        ..Default::default()
    }
}

#[test]
fn figure11_prose_claims_hold() {
    // "with sufficient parallelism and for systems with significant system-wide latency,
    // the parcel split-transaction test systems perform much better than the control
    // system, sometimes exceeding an order of magnitude in delivered performance."
    let big = evaluate_point(
        ParcelConfig {
            parallelism: 32,
            latency_cycles: 10_000.0,
            remote_fraction: 0.6,
            ..base()
        },
        5,
    );
    assert!(big.ops_ratio > 10.0, "ratio {}", big.ops_ratio);

    // "it also exposes certain operational regions where performance advantage is small
    // or in fact reversed … when there is little parallelism and short system latencies."
    let small = evaluate_point(
        ParcelConfig {
            parallelism: 1,
            latency_cycles: 10.0,
            remote_fraction: 0.6,
            ..base()
        },
        5,
    );
    assert!(small.ops_ratio < 1.0, "ratio {}", small.ops_ratio);
}

#[test]
fn figure12_prose_claims_hold() {
    // "for sufficient parallelism, the idle time drops virtually to zero for the test
    // systems while the control system experiences relatively high idle time."
    let spec = IdleTimeSpec {
        base: ParcelConfig {
            latency_cycles: 1_000.0,
            remote_fraction: 0.4,
            ..base()
        },
        node_counts: vec![1, 8, 64],
        parallelism: vec![1, 64],
        seed: 7,
    };
    let points: Vec<IdleTimePoint> = spec
        .configs()
        .into_iter()
        .enumerate()
        .map(|(i, c)| evaluate_idle_point(c, point_seed(spec.seed, i)))
        .collect();
    for p in &points {
        assert!(
            p.control_idle_fraction > 0.5,
            "control idle {}",
            p.control_idle_fraction
        );
        if p.parallelism == 64 {
            assert!(
                p.test_idle_fraction < 0.05,
                "test idle {}",
                p.test_idle_fraction
            );
        }
    }
    // Idle time is reported per node count; larger systems accumulate more total idle
    // cycles in the control system (the figure's x-axis trend).
    let one = points
        .iter()
        .find(|p| p.nodes == 1 && p.parallelism == 64)
        .unwrap();
    let many = points
        .iter()
        .find(|p| p.nodes == 64 && p.parallelism == 64)
        .unwrap();
    assert!(many.control_idle_cycles > 10.0 * one.control_idle_cycles);
}

#[test]
fn analytic_multithreading_model_tracks_simulation_across_the_grid() {
    let mut worst: f64 = 0.0;
    for &parallelism in &[1usize, 4, 16] {
        for &latency in &[100.0, 1_000.0] {
            for &remote in &[0.2, 0.6] {
                let config = ParcelConfig {
                    parallelism,
                    latency_cycles: latency,
                    remote_fraction: remote,
                    ..base()
                };
                let sim = evaluate_point(config, 17).ops_ratio;
                let analytic = ParcelAnalyticModel::new(config).ops_ratio();
                worst = worst.max((sim - analytic).abs() / sim);
            }
        }
    }
    assert!(worst < 0.2, "worst analytic-vs-simulation error {worst}");
}

#[test]
fn network_ablation_keeps_the_qualitative_conclusion() {
    // Replacing the flat network with a mesh or torus of equal mean latency does not
    // change the headline: sufficient parallelism still hides the latency.
    let nodes = 16;
    let config = ParcelConfig {
        nodes,
        parallelism: 64,
        latency_cycles: 1_000.0,
        remote_fraction: 0.4,
        horizon_cycles: 300_000.0,
        ..Default::default()
    };
    let mesh_hops = Network::mesh(nodes, 0.0, 1.0).mean_latency_cycles(&config);
    let torus_hops = Network::torus(nodes, 0.0, 1.0).mean_latency_cycles(&config);
    let flat = run_test(config, 3);
    let mesh = run_test_with_options(
        config,
        Network::mesh(nodes, 0.0, config.latency_cycles / mesh_hops),
        RemoteService::MemorySide,
        3,
    );
    let torus = run_test_with_options(
        config,
        Network::torus(nodes, 0.0, config.latency_cycles / torus_hops),
        RemoteService::MemorySide,
        3,
    );
    // The flat network saturates cleanly; the mesh/torus have longer worst-case paths
    // (corner-to-corner is ~2x the mean), so they retain a little more idle time but
    // still hide the bulk of the latency.
    assert!(
        flat.idle_fraction() < 0.05,
        "flat idle {}",
        flat.idle_fraction()
    );
    assert!(
        mesh.idle_fraction() < 0.25,
        "mesh idle {}",
        mesh.idle_fraction()
    );
    assert!(
        torus.idle_fraction() < 0.25,
        "torus idle {}",
        torus.idle_fraction()
    );
    let spread = (mesh.total_work_ops as f64 - flat.total_work_ops as f64).abs()
        / flat.total_work_ops as f64;
    assert!(spread < 0.2, "mesh vs flat work spread {spread}");
    let spread_t = (torus.total_work_ops as f64 - flat.total_work_ops as f64).abs()
        / flat.total_work_ops as f64;
    assert!(spread_t < 0.2, "torus vs flat work spread {spread_t}");
}

#[test]
fn message_driven_mode_services_parcels_remotely() {
    // In the Figure 9 mode the destination spends cycles servicing incoming parcels, so
    // system-wide busy time rises relative to memory-side servicing.
    let config = ParcelConfig {
        nodes: 8,
        parallelism: 8,
        latency_cycles: 500.0,
        remote_fraction: 0.5,
        horizon_cycles: 300_000.0,
        ..Default::default()
    };
    let memory_side = run_test(config, 9);
    let on_cpu = run_test_with_options(config, Network::Flat, RemoteService::OnCpu, 9);
    assert!(on_cpu.busy_fraction() > memory_side.busy_fraction());
}
