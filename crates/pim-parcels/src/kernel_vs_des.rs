//! Differential suite: the per-node kernel must reproduce the discrete-event
//! models driven through `desim::Simulation` bit for bit — every `NodeOutcome`
//! field, every f64 by `to_bits`. The kernel runs the test system whenever
//! `run_test_with_options` gets the flat network with memory-side servicing
//! (`run_test` always), and it runs every `run_control`.
//!
//! The test system's engine model is the library's [`TestSystem`]. The control
//! system's engine model, [`ControlSystem`], is the test-only `control` module:
//! production runs that system only on the kernel. It needs the crate-private run
//! sampler and outcome constructors, which is why this suite is a module of the
//! crate rather than an integration test.
//!
//! ```text
//! cargo test --release -p pim-parcels --lib kernel_vs_des
//! ```

use crate::config::ParcelConfig;
use crate::control::ControlSystem;
use crate::experiment::run_control;
use crate::outcome::SystemOutcome;
use crate::test_system::{run_test, TestSystem};
use desim::prelude::*;
use pim_workload::InstructionMix;
use proptest::prelude::*;

/// Run `model` through the engine to the horizon of `config`.
fn run_des<M: Model>(
    model: M,
    config: &ParcelConfig,
    start: impl FnOnce(&mut M, &mut Scheduler<M::Event>),
) -> Simulation<M> {
    let mut sim = Simulation::new(model);
    sim.set_horizon(SimTime::from_ns_f64(config.horizon_ns()));
    sim.init(start);
    sim.run();
    sim
}

fn assert_bit_identical(kernel: &SystemOutcome, des: &SystemOutcome, what: &str) {
    assert_eq!(
        kernel.horizon_cycles.to_bits(),
        des.horizon_cycles.to_bits(),
        "{what}"
    );
    assert_eq!(kernel.nodes.len(), des.nodes.len(), "{what}");
    for (i, (k, d)) in kernel.nodes.iter().zip(&des.nodes).enumerate() {
        assert_eq!(k.work_ops, d.work_ops, "{what}: node {i} work_ops");
        assert_eq!(
            k.busy_cycles.to_bits(),
            d.busy_cycles.to_bits(),
            "{what}: node {i} busy_cycles {} vs {}",
            k.busy_cycles,
            d.busy_cycles
        );
        assert_eq!(
            k.idle_cycles.to_bits(),
            d.idle_cycles.to_bits(),
            "{what}: node {i} idle_cycles {} vs {}",
            k.idle_cycles,
            d.idle_cycles
        );
        assert_eq!(
            k.remote_accesses, d.remote_accesses,
            "{what}: node {i} remote_accesses"
        );
    }
    assert_eq!(kernel.total_work_ops, des.total_work_ops, "{what}");
    assert_eq!(
        kernel.total_remote_accesses, des.total_remote_accesses,
        "{what}"
    );
}

/// Run both systems through the public entry points, which take the kernel on the
/// flat network, and through the engine, and demand identical outcomes.
fn check(config: ParcelConfig, seed: u64) {
    let what = format!("{config:?} seed={seed}");
    let test = run_des(TestSystem::new(config, seed), &config, |m, sched| {
        m.start(sched)
    });
    assert_bit_identical(
        &run_test(config, seed),
        &test.model().outcome(),
        &format!("test system, {what}"),
    );
    let control = run_des(ControlSystem::new(config, seed), &config, |m, sched| {
        m.start(sched)
    });
    assert_bit_identical(
        &run_control(config, seed),
        &control.model().outcome(),
        &format!("control system, {what}"),
    );
}

/// Configurations concentrated on the corners where an order or rounding slip
/// would show: zero latency (replies land on the tick that issued them), zero
/// overhead, all-remote and never-remote runs, fractional clocks and horizons.
/// Half the cases move the latency off its corner, to `corner / 2 + 3`.
fn corner_config() -> impl Strategy<Value = ParcelConfig> {
    (
        (0usize..3, 0usize..3),
        (0usize..4, 0.0f64..3_000.0),
        (0usize..2, 0.0f64..16.0),
        (0usize..4, 0.05f64..5.0),
        1.0f64..20_000.0,
        (0usize..3, 0.0f64..1.0),
        (0usize..3, 0.0f64..1.0),
        0usize..2,
    )
        .prop_map(
            |(
                (nodes, parallelism),
                (latency, any_latency),
                (overhead, any_overhead),
                (cycle, any_cycle),
                horizon_cycles,
                (remote, any_remote),
                (memory, any_memory),
                off_corner,
            )| {
                let corner = [0.0, 10.0, 1_000.0, any_latency][latency];
                ParcelConfig {
                    nodes: [1, 2, 16][nodes],
                    parallelism: [1, 2, 64][parallelism],
                    latency_cycles: if off_corner == 1 {
                        corner * 0.5 + 3.0
                    } else {
                        corner
                    },
                    parcel_overhead_cycles: [0.0, any_overhead][overhead],
                    cycle_ns: [1.0, 0.7, 3.3, any_cycle][cycle],
                    horizon_cycles,
                    remote_fraction: [0.0, 1.0, any_remote][remote],
                    mix: InstructionMix::with_memory_fraction([0.0, 1.0, any_memory][memory]),
                    ..Default::default()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160).with_rng_seed(0xF1A7_0012))]

    #[test]
    fn kernel_matches_the_engine_bitwise(config in corner_config(), seed in any::<u64>()) {
        check(config, seed);
    }
}

/// The paper's operating points at full Figure 11/12 horizons, where the test
/// system keeps thousands of replies in flight.
#[test]
fn kernel_matches_the_engine_on_paper_points() {
    for (nodes, parallelism, latency, remote) in [
        (4, 32, 10_000.0, 0.8),
        (8, 64, 1_000.0, 0.4),
        (1, 8, 100.0, 0.2),
    ] {
        let config = ParcelConfig {
            nodes,
            parallelism,
            latency_cycles: latency,
            remote_fraction: remote,
            horizon_cycles: 400_000.0,
            ..Default::default()
        };
        check(config, 0xF12);
    }
}

/// All-remote points whose events fall on a fixed lattice of ticks, with horizons
/// placed on, just past and just short of a lattice point: the `> horizon` stop
/// rule and the sub-tick residue then decide whether one more run starts.
#[test]
fn kernel_matches_the_engine_when_events_land_on_the_horizon_tick() {
    for cycle_ns in [1.0, 0.7, 3.3] {
        for (latency_cycles, parcel_overhead_cycles) in
            [(0.0, 0.0), (2.5, 0.0), (0.0, 1.5), (4.0, 2.0)]
        {
            // One control period (1-cycle issue + round trip) and one test-system
            // period at parallelism 1 (issue + overhead + round trip).
            let control_period = 1.0 + 2.0 * latency_cycles;
            let test_period = 1.0 + parcel_overhead_cycles + 2.0 * latency_cycles;
            for period in [control_period, test_period] {
                for k in 1..24 {
                    for eps in [-1e-4, 0.0, 1e-4] {
                        for parallelism in [1, 3] {
                            let config = ParcelConfig {
                                nodes: 2,
                                parallelism,
                                cycle_ns,
                                latency_cycles,
                                parcel_overhead_cycles,
                                horizon_cycles: k as f64 * period + eps,
                                remote_fraction: 1.0,
                                mix: InstructionMix::with_memory_fraction(1.0),
                                ..Default::default()
                            };
                            check(config, 5);
                        }
                    }
                }
            }
        }
    }
}

/// Never-remote points across the sub-tick quantization residues of fractional
/// clocks and horizons: the run that fills the horizon lands on the horizon tick,
/// and whether further contexts start there depends on the residue.
#[test]
fn kernel_matches_the_engine_on_the_never_remote_grid() {
    let mut checked = 0;
    for (cycle_ns, horizon_cycles) in [(1.0, 100_000.0), (0.7, 123_456.789), (3.3, 99_999.5)] {
        for parallelism in [1usize, 4] {
            for nodes in [1usize, 4] {
                // A zero remote fraction and a zero memory fraction both make the
                // remote probability zero.
                for (remote_fraction, memory_fraction) in [(0.0, 0.3), (0.5, 0.0)] {
                    let config = ParcelConfig {
                        nodes,
                        parallelism,
                        cycle_ns,
                        horizon_cycles,
                        remote_fraction,
                        mix: InstructionMix::with_memory_fraction(memory_fraction),
                        ..Default::default()
                    };
                    assert!(config.remote_prob_per_op() <= 0.0);
                    for seed in [77, 91] {
                        check(config, seed);
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 3 * 2 * 2 * 2 * 2);
}
