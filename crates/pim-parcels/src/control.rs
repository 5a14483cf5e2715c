//! The control system: conventional blocking message-passing processors.
//!
//! "Each processor is in one of three states: performing useful operations, performing
//! local memory access, or waiting for a response to a message it has sent. In this
//! third state, the processor is considered to be idle." (Section 4.2.)
//!
//! Each node alternates between a run of local work and a blocked wait of one network
//! round trip. Issuing the remote access itself costs one cycle of busy (but unproductive)
//! time, which also guarantees the simulation makes forward progress even with a
//! zero-latency network. Nodes are independent: the paper's flat-latency network has no
//! contention, and remote requests are serviced by the destination's memory without
//! consuming its processor.

use crate::config::ParcelConfig;
use crate::outcome::{NodeOutcome, OpenJob, SystemOutcome};
use crate::runs::RunSampler;
use desim::prelude::*;

/// Events of the control-system model.
#[derive(Debug, Clone, Copy)]
pub enum ControlEvent {
    /// Node finished a run of local work and issued a remote request.
    RunDone(usize),
    /// The reply to node's outstanding remote request arrived.
    ReplyArrived(usize),
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Executing a run that will complete `ops` operations over `cycles` cycles.
    Busy {
        started_cycles: f64,
        ops: u64,
        cycles: f64,
    },
    /// Blocked waiting for a remote reply.
    Waiting,
    /// Past the horizon / never started.
    Done,
}

struct ControlNode {
    phase: Phase,
    work_ops: u64,
    busy_cycles: f64,
    remote_accesses: u64,
}

/// Discrete-event model of the control system.
pub struct ControlSystem {
    config: ParcelConfig,
    sampler: RunSampler,
    nodes: Vec<ControlNode>,
    streams: Vec<RandomStream>,
}

impl ControlSystem {
    /// Build the model with the paper's flat-latency network.
    pub fn new(config: ParcelConfig, seed: u64) -> Self {
        config.assert_valid();
        ControlSystem {
            sampler: RunSampler::new(&config),
            nodes: (0..config.nodes)
                .map(|_| ControlNode {
                    phase: Phase::Done,
                    work_ops: 0,
                    busy_cycles: 0.0,
                    remote_accesses: 0,
                })
                .collect(),
            streams: (0..config.nodes)
                .map(|i| RandomStream::new(seed, 0x1000 + i as u64))
                .collect(),
            config,
        }
    }

    fn cycles_of(&self, t: SimTime) -> f64 {
        t.as_ns_f64() / self.config.cycle_ns
    }

    fn remaining_cycles(&self, now_cycles: f64) -> f64 {
        (self.config.horizon_cycles - now_cycles).max(0.0)
    }

    fn start_run(&mut self, node: usize, now: SimTime, sched: &mut Scheduler<ControlEvent>) {
        let now_cycles = self.cycles_of(now);
        let remaining = self.remaining_cycles(now_cycles);
        if remaining <= 0.0 {
            self.nodes[node].phase = Phase::Done;
            return;
        }
        let (run, _ends_remote) = self.sampler.sample_run(remaining, &mut self.streams[node]);
        self.nodes[node].phase = Phase::Busy {
            started_cycles: now_cycles,
            ops: run.ops,
            cycles: run.cycles,
        };
        sched.schedule_in(
            SimDuration::from_ns_f64(run.cycles * self.config.cycle_ns),
            ControlEvent::RunDone(node),
        );
    }

    /// Seed the initial run of every node.
    pub fn start(&mut self, sched: &mut Scheduler<ControlEvent>) {
        for node in 0..self.config.nodes {
            self.start_run(node, SimTime::ZERO, sched);
        }
    }

    /// Collect the outcome, pro-rating any period cut off by the horizon.
    pub fn outcome(&self) -> SystemOutcome {
        let horizon = self.config.horizon_cycles;
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                let open = match n.phase {
                    Phase::Busy {
                        started_cycles,
                        ops,
                        cycles,
                    } => Some(OpenJob {
                        started_cycles,
                        duration_cycles: cycles,
                        ops,
                    }),
                    Phase::Waiting | Phase::Done => None,
                };
                NodeOutcome::at_horizon(horizon, n.work_ops, n.busy_cycles, n.remote_accesses, open)
            })
            .collect();
        SystemOutcome::from_nodes(horizon, nodes)
    }
}

impl Model for ControlSystem {
    type Event = ControlEvent;

    fn handle(&mut self, now: SimTime, event: ControlEvent, sched: &mut Scheduler<ControlEvent>) {
        match event {
            ControlEvent::RunDone(node) => {
                let now_cycles = self.cycles_of(now);
                // Credit the completed run.
                if let Phase::Busy { ops, cycles, .. } = self.nodes[node].phase {
                    self.nodes[node].work_ops += ops;
                    self.nodes[node].busy_cycles += cycles;
                }
                if self.remaining_cycles(now_cycles) <= 0.0 {
                    self.nodes[node].phase = Phase::Done;
                    return;
                }
                // Issue the remote request: one busy cycle, then block for the round trip.
                self.nodes[node].remote_accesses += 1;
                self.nodes[node].busy_cycles += 1.0;
                let round_trip = self.config.round_trip_cycles();
                self.nodes[node].phase = Phase::Waiting;
                sched.schedule_in(
                    SimDuration::from_ns_f64((1.0 + round_trip) * self.config.cycle_ns),
                    ControlEvent::ReplyArrived(node),
                );
            }
            ControlEvent::ReplyArrived(node) => {
                self.start_run(node, now, sched);
            }
        }
    }
}

/// Run the control system to its horizon and return the outcome.
///
/// No node's behaviour depends on another's, so it runs on the per-node kernel
/// (bit-identical to the discrete-event [`ControlSystem`], no global event queue).
pub fn run_control(config: ParcelConfig, seed: u64) -> SystemOutcome {
    crate::kernel::run_control(&config, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config() -> ParcelConfig {
        ParcelConfig {
            nodes: 4,
            horizon_cycles: 200_000.0,
            ..Default::default()
        }
    }

    #[test]
    fn idle_fraction_matches_run_latency_ratio() {
        // Utilization of a blocking node is R / (R + 1 + 2L).
        let config = ParcelConfig {
            latency_cycles: 500.0,
            remote_fraction: 0.3,
            ..base_config()
        };
        let out = run_control(config, 11);
        let r = config.expected_run_cycles();
        let expect_busy = (r + 1.0) / (r + 1.0 + config.round_trip_cycles());
        let busy_frac = out.busy_fraction();
        assert!(
            (busy_frac - expect_busy).abs() < 0.05,
            "busy fraction {busy_frac} vs expected {expect_busy}"
        );
        assert!((out.idle_fraction() + busy_frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_remote_accesses_means_no_idle_time() {
        let config = ParcelConfig {
            remote_fraction: 0.0,
            ..base_config()
        };
        let out = run_control(config, 3);
        assert!(out.idle_fraction() < 1e-9, "idle {}", out.idle_fraction());
        assert_eq!(out.total_remote_accesses, 0);
        assert!(out.total_work_ops > 0);
    }

    #[test]
    fn higher_latency_means_less_work() {
        let near = run_control(
            ParcelConfig {
                latency_cycles: 10.0,
                ..base_config()
            },
            5,
        );
        let far = run_control(
            ParcelConfig {
                latency_cycles: 5_000.0,
                ..base_config()
            },
            5,
        );
        assert!(
            far.total_work_ops < near.total_work_ops / 2,
            "far {} near {}",
            far.total_work_ops,
            near.total_work_ops
        );
        // A round trip past the end of representable time saturates: each node
        // blocks on its first remote access for the rest of the run.
        let beyond = run_control(
            ParcelConfig {
                latency_cycles: 1e16,
                ..base_config()
            },
            5,
        );
        assert!(
            beyond.total_work_ops < far.total_work_ops,
            "beyond {} far {}",
            beyond.total_work_ops,
            far.total_work_ops
        );
        assert!(beyond.idle_fraction() > 0.99, "{}", beyond.idle_fraction());
    }

    #[test]
    fn work_scales_linearly_with_nodes() {
        // Nodes are independent, so the per-node work rate is the same regardless of
        // the system size (up to sampling noise). One run+block period is ~2100 cycles
        // here, so the horizon must be long enough that a single node completes a few
        // thousand runs — at 500k cycles (~230 runs) the per-node rate still wobbles
        // by ~7% and the 10% bound below is under-powered.
        let cfg = ParcelConfig {
            horizon_cycles: 5_000_000.0,
            ..base_config()
        };
        let one = run_control(ParcelConfig { nodes: 1, ..cfg }, 7);
        let eight = run_control(ParcelConfig { nodes: 8, ..cfg }, 7);
        let ratio = eight.work_rate() / one.work_rate();
        assert!(
            (ratio - 1.0).abs() < 0.1,
            "per-node work-rate ratio {ratio}"
        );
    }

    #[test]
    fn busy_plus_idle_equals_horizon_per_node() {
        let out = run_control(base_config(), 13);
        for n in &out.nodes {
            assert!((n.busy_cycles + n.idle_cycles - base_config().horizon_cycles).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_remote_closed_form_matches_the_engine_bitwise() {
        // A never-remote run is a fixed event pattern; the per-node kernel that
        // `run_control` runs must reproduce the DES outcome exactly — including
        // the sub-tick quantization residue cases — across clock rates, horizons
        // and node counts. Both a zero remote fraction and a zero memory
        // fraction make the remote probability zero.
        let mut checked = 0;
        for (cycle_ns, horizon_cycles) in [(1.0, 100_000.0), (0.7, 123_456.789), (3.3, 99_999.5)] {
            for nodes in [1usize, 4] {
                for (remote_fraction, memory_fraction) in [(0.0, 0.3), (0.5, 0.0)] {
                    let config = ParcelConfig {
                        nodes,
                        cycle_ns,
                        horizon_cycles,
                        remote_fraction,
                        mix: pim_workload::InstructionMix::with_memory_fraction(memory_fraction),
                        ..Default::default()
                    };
                    assert!(config.remote_prob_per_op() <= 0.0);
                    let fast = run_control(config, 77);
                    let model = ControlSystem::new(config, 77);
                    let mut sim = Simulation::new(model);
                    sim.set_horizon(SimTime::from_ns_f64(config.horizon_ns()));
                    sim.init(|m, sched| m.start(sched));
                    sim.run();
                    let slow = sim.model().outcome();
                    assert_eq!(fast, slow, "config {config:?}");
                    for (a, b) in fast.nodes.iter().zip(&slow.nodes) {
                        assert_eq!(a.busy_cycles.to_bits(), b.busy_cycles.to_bits());
                        assert_eq!(a.idle_cycles.to_bits(), b.idle_cycles.to_bits());
                    }
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 3 * 2 * 2);
    }

    #[test]
    fn zero_latency_network_still_makes_progress() {
        let config = ParcelConfig {
            latency_cycles: 0.0,
            remote_fraction: 0.5,
            ..base_config()
        };
        let out = run_control(config, 17);
        assert!(out.total_work_ops > 0);
        // With zero latency the only non-work time is the 1-cycle issue per remote access.
        assert!(out.idle_fraction() < 0.05);
    }
}
