//! The control system's discrete-event model: conventional blocking
//! message-passing processors, driven through `desim::Simulation`.
//!
//! "Each processor is in one of three states: performing useful operations, performing
//! local memory access, or waiting for a response to a message it has sent. In this
//! third state, the processor is considered to be idle." (Section 4.2.)
//!
//! Each node alternates between a run of local work and a blocked wait of one network
//! round trip. Issuing the remote access itself costs one cycle of busy (but unproductive)
//! time, which also guarantees the simulation makes forward progress even with a
//! zero-latency network.
//!
//! Production runs the control system only on the per-node kernel
//! ([`run_control`](crate::experiment::run_control)); this model is the oracle the
//! kernel is checked against, here and in the `kernel_vs_des` suite. It needs the
//! crate-private run sampler and outcome constructors, so it is test code of the
//! crate rather than an integration test.

use crate::config::ParcelConfig;
use crate::outcome::{NodeOutcome, OpenJob, SystemOutcome};
use crate::runs::RunSampler;
use desim::prelude::*;

/// Events of the control-system model.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ControlEvent {
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
pub(crate) struct ControlSystem {
    config: ParcelConfig,
    sampler: RunSampler,
    nodes: Vec<ControlNode>,
    streams: Vec<RandomStream>,
}

impl ControlSystem {
    /// Build the model with the paper's flat-latency network.
    pub(crate) fn new(config: ParcelConfig, seed: u64) -> Self {
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
    pub(crate) fn start(&mut self, sched: &mut Scheduler<ControlEvent>) {
        for node in 0..self.config.nodes {
            self.start_run(node, SimTime::ZERO, sched);
        }
    }

    /// Collect the outcome, pro-rating any period cut off by the horizon.
    pub(crate) fn outcome(&self) -> SystemOutcome {
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

mod tests {
    use super::*;
    use crate::experiment::run_control;

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
}
