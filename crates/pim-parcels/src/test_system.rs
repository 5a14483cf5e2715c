//! The test system: split-transaction parcel processing.
//!
//! "Each processor in this model also operates in three states: performing useful
//! operations servicing an active parcel, performing local memory access also on
//! behalf of an active parcel, or idle due to an absence of active parcels to service."
//! (Section 4.2.)
//!
//! Each node runs `parallelism` parcel contexts over a single execution unit. A context
//! executes a run of local work, then issues a remote parcel (paying one issue cycle
//! plus the configured parcel-handling overhead on the node's execution unit) and
//! suspends until the reply returns one network round trip later. While a context is
//! suspended the node services any other ready context; it idles only when every
//! context is in flight — this is the split-transaction latency hiding the study
//! quantifies. A node's contexts are interchangeable (no decision reads which one
//! runs), so jobs and events carry node indices only, as in the per-node kernel.
//!
//! Two remote-servicing modes are provided:
//!
//! * **memory-side** (default, matching the paper's three-state model): a remote
//!   request is satisfied by the destination's memory after a flat round-trip delay and
//!   consumes no destination processor time;
//! * **message-driven** ([`RemoteService::OnCpu`], the Figure 9 behaviour): the request
//!   parcel travels one way, is serviced by a thread on the destination node's
//!   execution unit (competing with that node's own contexts), and the reply travels
//!   back. This is the ablation that shows when incoming-parcel service begins to eat
//!   into a node's own throughput.

use crate::config::ParcelConfig;
use crate::network::Network;
use crate::outcome::{NodeOutcome, OpenJob, SystemOutcome};
use crate::runs::RunSampler;
use desim::prelude::*;
use std::collections::VecDeque;

/// How remote requests are serviced at their destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteService {
    /// Satisfied by the destination memory; pure round-trip delay (the paper's model).
    MemorySide,
    /// Serviced by a parcel handler on the destination processor (message-driven
    /// computation, Figure 9).
    OnCpu,
}

/// Events of the test-system model. They name nodes only; node indices are
/// `u32`, which keeps the event at 12 bytes, and `ParcelConfig::validate` bounds
/// the node count by `u32::MAX`, so the narrowing never truncates.
#[derive(Debug, Clone, Copy)]
pub enum TestEvent {
    /// The execution unit at `node` finished its current job.
    ServiceDone(u32),
    /// The reply to one of `node`'s contexts arrived back at `node`.
    ParcelReturn(u32),
    /// A request parcel from `src` arrived at `node` (message-driven mode).
    ParcelArrive(u32, u32),
}

/// A job the execution unit can run.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// Run local work for a context.
    Local,
    /// Service an incoming request parcel and reply to `reply_node`.
    Remote { reply_node: usize },
}

/// What happens when the running job completes.
#[derive(Debug, Clone, Copy)]
enum Completion {
    /// Nothing further (context exhausted the horizon).
    None,
    /// The context issues a remote parcel and suspends.
    IssueRemote,
    /// Send the reply parcel back to `node`.
    Reply { node: usize },
}

#[derive(Debug, Clone, Copy)]
struct RunningJob {
    started_cycles: f64,
    duration_cycles: f64,
    ops: u64,
    completion: Completion,
}

struct TestNode {
    ready: VecDeque<Job>,
    running: Option<RunningJob>,
    work_ops: u64,
    busy_cycles: f64,
    remote_accesses: u64,
}

/// Discrete-event model of the split-transaction test system.
pub struct TestSystem {
    config: ParcelConfig,
    sampler: RunSampler,
    network: Network,
    remote_service: RemoteService,
    nodes: Vec<TestNode>,
    streams: Vec<RandomStream>,
    dest_stream: RandomStream,
}

impl TestSystem {
    /// Build the model with the paper's flat-latency network and memory-side servicing.
    pub fn new(config: ParcelConfig, seed: u64) -> Self {
        Self::with_options(config, Network::Flat, RemoteService::MemorySide, seed)
    }

    /// Build the model with an explicit network and remote-servicing mode.
    pub(crate) fn with_options(
        config: ParcelConfig,
        network: Network,
        remote_service: RemoteService,
        seed: u64,
    ) -> Self {
        config.assert_valid();
        TestSystem {
            sampler: RunSampler::new(&config),
            network,
            remote_service,
            nodes: (0..config.nodes)
                .map(|_| TestNode {
                    ready: VecDeque::new(),
                    running: None,
                    work_ops: 0,
                    busy_cycles: 0.0,
                    remote_accesses: 0,
                })
                .collect(),
            streams: (0..config.nodes)
                .map(|i| RandomStream::new(seed, 0x2000 + i as u64))
                .collect(),
            dest_stream: RandomStream::new(seed, 0x7E57),
            config,
        }
    }

    fn cycles_of(&self, t: SimTime) -> f64 {
        t.as_ns_f64() / self.config.cycle_ns
    }

    fn remaining_cycles(&self, now_cycles: f64) -> f64 {
        (self.config.horizon_cycles - now_cycles).max(0.0)
    }

    /// Pick the destination node of a remote access from `src`. A single-node system
    /// still issues remote accesses (to memory outside the modeled array), so `src`
    /// itself is returned and the caller applies the configured latency.
    fn pick_destination(&mut self, src: usize) -> usize {
        let n = self.config.nodes;
        if n <= 1 {
            return src;
        }
        let mut d = self.dest_stream.below(n as u64 - 1) as usize;
        if d >= src {
            d += 1;
        }
        d
    }

    /// One-way latency from `src` to `dst`, falling back to the configured latency
    /// for self-targeted accesses in single-node systems.
    fn one_way_latency(&self, src: usize, dst: usize) -> f64 {
        if src == dst {
            self.config.latency_cycles
        } else {
            self.network.latency_cycles(&self.config, src, dst)
        }
    }

    /// Start `job` on `node`'s execution unit (which must be free).
    fn start_job(
        &mut self,
        node: usize,
        job: Job,
        now_cycles: f64,
        sched: &mut Scheduler<TestEvent>,
    ) {
        debug_assert!(
            self.nodes[node].running.is_none(),
            "execution unit already busy"
        );
        let remaining = self.remaining_cycles(now_cycles);
        if remaining <= 0.0 {
            return;
        }
        let running = match job {
            Job::Local => {
                let (run, ends_remote) =
                    self.sampler.sample_run(remaining, &mut self.streams[node]);
                let issue = if ends_remote {
                    1.0 + self.config.parcel_overhead_cycles
                } else {
                    0.0
                };
                RunningJob {
                    started_cycles: now_cycles,
                    duration_cycles: run.cycles + issue,
                    ops: run.ops,
                    completion: if ends_remote {
                        Completion::IssueRemote
                    } else {
                        Completion::None
                    },
                }
            }
            Job::Remote { reply_node } => RunningJob {
                started_cycles: now_cycles,
                duration_cycles: self.config.local_memory_cycles
                    + self.config.parcel_overhead_cycles,
                ops: 1,
                completion: Completion::Reply { node: reply_node },
            },
        };
        sched.schedule_in(
            SimDuration::from_ns_f64(running.duration_cycles * self.config.cycle_ns),
            TestEvent::ServiceDone(node as u32),
        );
        self.nodes[node].running = Some(running);
    }

    /// Make `job` runnable on `node`: start it if the unit is free, otherwise queue it.
    fn make_ready(
        &mut self,
        node: usize,
        job: Job,
        now_cycles: f64,
        sched: &mut Scheduler<TestEvent>,
    ) {
        if self.nodes[node].running.is_none() {
            self.start_job(node, job, now_cycles, sched);
        } else {
            self.nodes[node].ready.push_back(job);
        }
    }

    /// Seed every context of every node as ready at time zero.
    pub fn start(&mut self, sched: &mut Scheduler<TestEvent>) {
        for node in 0..self.config.nodes {
            for _ in 0..self.config.parallelism {
                self.make_ready(node, Job::Local, 0.0, sched);
            }
        }
    }

    /// Collect the outcome, pro-rating any job cut off by the horizon.
    pub fn outcome(&self) -> SystemOutcome {
        let horizon = self.config.horizon_cycles;
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                NodeOutcome::at_horizon(
                    horizon,
                    n.work_ops,
                    n.busy_cycles,
                    n.remote_accesses,
                    n.running.map(|run| OpenJob {
                        started_cycles: run.started_cycles,
                        duration_cycles: run.duration_cycles,
                        ops: run.ops,
                    }),
                )
            })
            .collect();
        SystemOutcome::from_nodes(horizon, nodes)
    }
}

impl Model for TestSystem {
    type Event = TestEvent;

    fn handle(&mut self, now: SimTime, event: TestEvent, sched: &mut Scheduler<TestEvent>) {
        let now_cycles = self.cycles_of(now);
        match event {
            TestEvent::ServiceDone(node) => {
                let node = node as usize;
                #[expect(
                    clippy::expect_used,
                    reason = "a ServiceDone event is only scheduled while a job occupies the node"
                )]
                let finished = self.nodes[node]
                    .running
                    .take()
                    .expect("service-done without a job");
                self.nodes[node].work_ops += finished.ops;
                self.nodes[node].busy_cycles += finished.duration_cycles;
                match finished.completion {
                    Completion::None => {}
                    Completion::IssueRemote => {
                        self.nodes[node].remote_accesses += 1;
                        let dst = self.pick_destination(node);
                        let one_way = self.one_way_latency(node, dst);
                        match self.remote_service {
                            RemoteService::MemorySide => {
                                sched.schedule_in(
                                    SimDuration::from_ns_f64(2.0 * one_way * self.config.cycle_ns),
                                    TestEvent::ParcelReturn(node as u32),
                                );
                            }
                            RemoteService::OnCpu => {
                                sched.schedule_in(
                                    SimDuration::from_ns_f64(one_way * self.config.cycle_ns),
                                    TestEvent::ParcelArrive(dst as u32, node as u32),
                                );
                            }
                        }
                    }
                    Completion::Reply { node: reply_node } => {
                        let one_way = self.one_way_latency(node, reply_node);
                        sched.schedule_in(
                            SimDuration::from_ns_f64(one_way * self.config.cycle_ns),
                            TestEvent::ParcelReturn(reply_node as u32),
                        );
                    }
                }
                // Start the next ready job, if any.
                if let Some(job) = self.nodes[node].ready.pop_front() {
                    self.start_job(node, job, now_cycles, sched);
                }
            }
            TestEvent::ParcelReturn(node) => {
                self.make_ready(node as usize, Job::Local, now_cycles, sched);
            }
            TestEvent::ParcelArrive(node, src) => {
                self.make_ready(
                    node as usize,
                    Job::Remote {
                        reply_node: src as usize,
                    },
                    now_cycles,
                    sched,
                );
            }
        }
    }
}

/// Run the test system to its horizon over the flat network with memory-side
/// remote servicing.
pub fn run_test(config: ParcelConfig, seed: u64) -> SystemOutcome {
    run_test_with_options(config, Network::Flat, RemoteService::MemorySide, seed)
}

/// Run the test system with an explicit network and remote-servicing mode.
///
/// A flat network with memory-side servicing never couples two nodes, so those
/// inputs run on the per-node kernel (bit-identical, no global event
/// queue); every other combination runs the discrete-event [`TestSystem`].
pub fn run_test_with_options(
    config: ParcelConfig,
    network: Network,
    remote_service: RemoteService,
    seed: u64,
) -> SystemOutcome {
    if let (Network::Flat, RemoteService::MemorySide) = (network, remote_service) {
        return crate::kernel::run_test(&config, seed);
    }
    let horizon = SimTime::from_ns_f64(config.horizon_ns());
    let model = TestSystem::with_options(config, network, remote_service, seed);
    let mut sim = Simulation::new(model);
    sim.set_horizon(horizon);
    sim.init(|m, sched| m.start(sched));
    sim.run();
    sim.model().outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_control;

    fn base_config() -> ParcelConfig {
        ParcelConfig {
            nodes: 4,
            horizon_cycles: 300_000.0,
            ..Default::default()
        }
    }

    #[test]
    fn enough_parallelism_drives_idle_time_to_zero() {
        // Saturation needs roughly (R + round trip) / R ≈ 37 contexts here; 64 is ample.
        let config = ParcelConfig {
            parallelism: 64,
            latency_cycles: 1000.0,
            remote_fraction: 0.3,
            ..base_config()
        };
        let out = run_test(config, 21);
        assert!(
            out.idle_fraction() < 0.02,
            "idle fraction {}",
            out.idle_fraction()
        );
    }

    #[test]
    fn single_context_behaves_like_the_control_system_modulo_overhead() {
        let config = ParcelConfig {
            parallelism: 1,
            latency_cycles: 500.0,
            ..base_config()
        };
        let test = run_test(config, 23);
        let control = run_control(config, 23);
        let ratio = test.total_work_ops as f64 / control.total_work_ops as f64;
        // One context cannot hide any latency; the parcel overhead makes it slightly
        // slower than the blocking control system (the paper's "reversed" region).
        assert!(ratio <= 1.0 + 1e-9, "ratio {ratio}");
        assert!(ratio > 0.9, "ratio {ratio}");
    }

    #[test]
    fn parallelism_increases_completed_work_up_to_saturation() {
        // With a 500-cycle latency the node saturates around 8 contexts: below that,
        // work grows nearly linearly with parallelism; beyond it, extra contexts add
        // almost nothing.
        let mk = |p| ParcelConfig {
            parallelism: p,
            latency_cycles: 500.0,
            ..base_config()
        };
        let w1 = run_test(mk(1), 31).total_work_ops;
        let w4 = run_test(mk(4), 31).total_work_ops;
        let w16 = run_test(mk(16), 31).total_work_ops;
        let w64 = run_test(mk(64), 31).total_work_ops;
        assert!(w4 > 3 * w1, "w1={w1} w4={w4}");
        assert!(w16 as f64 > 1.5 * w4 as f64, "w4={w4} w16={w16}");
        let gain_64_over_16 = w64 as f64 / w16 as f64;
        assert!(
            gain_64_over_16 < 1.2,
            "saturated regime gain {gain_64_over_16}"
        );
    }

    #[test]
    fn latency_hiding_ratio_exceeds_one_with_parallelism_and_latency() {
        let config = ParcelConfig {
            parallelism: 16,
            latency_cycles: 5000.0,
            remote_fraction: 0.4,
            ..base_config()
        };
        let test = run_test(config, 41);
        let control = run_control(config, 41);
        let ratio = test.total_work_ops as f64 / control.total_work_ops as f64;
        assert!(
            ratio > 5.0,
            "split transactions should win big here, ratio {ratio}"
        );
    }

    #[test]
    fn a_round_trip_beyond_representable_time_leaves_nodes_idle() {
        // 1e16 cycles each way is more than u64::MAX ticks: the reply time
        // saturates past the horizon instead of wrapping back into the run.
        let config = ParcelConfig {
            nodes: 2,
            parallelism: 1,
            latency_cycles: 1e16,
            remote_fraction: 0.5,
            ..base_config()
        };
        let out = run_test(config, 43);
        assert!(out.idle_fraction() > 0.99, "{}", out.idle_fraction());
    }

    #[test]
    fn no_remote_accesses_make_both_systems_equal() {
        let config = ParcelConfig {
            remote_fraction: 0.0,
            parallelism: 8,
            ..base_config()
        };
        let test = run_test(config, 51);
        let control = run_control(config, 51);
        let ratio = test.total_work_ops as f64 / control.total_work_ops as f64;
        assert!((ratio - 1.0).abs() < 0.05, "ratio {ratio}");
        assert!(test.idle_fraction() < 1e-9);
    }

    #[test]
    fn busy_plus_idle_equals_horizon_per_node() {
        let out = run_test(base_config(), 61);
        for n in &out.nodes {
            assert!((n.busy_cycles + n.idle_cycles - base_config().horizon_cycles).abs() < 1e-6);
        }
    }

    #[test]
    fn message_driven_servicing_consumes_destination_cpu() {
        let config = ParcelConfig {
            parallelism: 4,
            remote_fraction: 0.5,
            latency_cycles: 200.0,
            ..base_config()
        };
        let memory_side =
            run_test_with_options(config, Network::Flat, RemoteService::MemorySide, 71);
        let on_cpu = run_test_with_options(config, Network::Flat, RemoteService::OnCpu, 71);
        // Servicing incoming parcels keeps nodes busier...
        assert!(on_cpu.busy_fraction() >= memory_side.busy_fraction() - 1e-9);
        // ...but that busy time displaces the node's own local runs, so the *local*
        // work completed per node does not exceed the memory-side mode by much.
        assert!(on_cpu.total_work_ops as f64 <= memory_side.total_work_ops as f64 * 1.35);
    }

    #[test]
    fn zero_remote_closed_form_matches_the_engine_bitwise() {
        // A never-remote run is a fixed event pattern; the per-node kernel that
        // `run_test_with_options` takes for a flat network must reproduce the
        // DES outcome exactly — including the sub-tick quantization residue
        // cases — across clock rates, horizons, parallelism degrees and node
        // counts, whichever remote-servicing mode the engine runs (no parcel is
        // ever serviced). Both a zero remote fraction and a zero memory fraction
        // make the remote probability zero.
        let mut checked = 0;
        for (cycle_ns, horizon_cycles) in [(1.0, 100_000.0), (0.7, 123_456.789), (3.3, 99_999.5)] {
            for parallelism in [1usize, 4] {
                for nodes in [1usize, 4] {
                    for (remote_fraction, memory_fraction) in [(0.0, 0.3), (0.5, 0.0)] {
                        let config = ParcelConfig {
                            nodes,
                            parallelism,
                            cycle_ns,
                            horizon_cycles,
                            remote_fraction,
                            mix: pim_workload::InstructionMix::with_memory_fraction(
                                memory_fraction,
                            ),
                            ..Default::default()
                        };
                        assert!(config.remote_prob_per_op() <= 0.0);
                        for service in [RemoteService::MemorySide, RemoteService::OnCpu] {
                            let fast = crate::kernel::run_test(&config, 91);
                            let model =
                                TestSystem::with_options(config, Network::Flat, service, 91);
                            let mut sim = Simulation::new(model);
                            sim.set_horizon(SimTime::from_ns_f64(config.horizon_ns()));
                            sim.init(|m, sched| m.start(sched));
                            sim.run();
                            let slow = sim.model().outcome();
                            assert_eq!(fast, slow, "config {config:?} service {service:?}");
                            for (a, b) in fast.nodes.iter().zip(&slow.nodes) {
                                assert_eq!(a.busy_cycles.to_bits(), b.busy_cycles.to_bits());
                                assert_eq!(a.idle_cycles.to_bits(), b.idle_cycles.to_bits());
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 3 * 2 * 2 * 2 * 2);
    }

    #[test]
    fn remote_accesses_are_counted() {
        let config = ParcelConfig {
            remote_fraction: 0.5,
            parallelism: 4,
            ..base_config()
        };
        let out = run_test(config, 81);
        assert!(out.total_remote_accesses > 100);
    }

    #[test]
    fn mesh_network_hides_less_latency_than_flat_with_equal_mean() {
        // Same mean latency, but the mesh's variance means some parcels return late;
        // the work totals should still be in the same ballpark.
        let config = ParcelConfig {
            parallelism: 8,
            nodes: 16,
            ..base_config()
        };
        let flat = run_test(config, 91);
        let mesh = run_test_with_options(
            config,
            Network::mesh(16, config.latency_cycles, 10.0),
            RemoteService::MemorySide,
            91,
        );
        let ratio = mesh.total_work_ops as f64 / flat.total_work_ops as f64;
        assert!(ratio > 0.5 && ratio < 1.5, "ratio {ratio}");
    }
}
