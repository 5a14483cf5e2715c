//! Per-node kernel for the flat-latency parcel models.
//!
//! With the paper's flat network ("latency … flat (fixed delay) for this study") the
//! two parcel systems decompose into independent nodes:
//!
//! * the destination of a remote access cannot change a flat latency, so the
//!   destination draw is dead work;
//! * with memory-side servicing (and always in the control system) a remote access
//!   schedules no event on another node, so no event ever crosses nodes;
//! * every node draws its run lengths from its own stream (`0x2000 + i` in the test
//!   system, `0x1000 + i` in the control system).
//!
//! So each node can run on its own, without the global event queue. What remains
//! is dispatch order *within* a node. The engine orders events by `(time, seq)`,
//! and `seq` counts schedule calls. A node's events are scheduled only while
//! handling that node's own earlier events, so their relative `seq` order is the
//! order the node itself scheduled them in: a per-node counter reproduces it
//! exactly.
//!
//! The kernel keeps every arithmetic step of [`crate::test_system::TestSystem`] and
//! [`crate::control::ControlSystem`] — the same `SimDuration::from_ns_f64`
//! quantization, the same `> horizon` stop rule, the same RNG draws and the same
//! horizon proration ([`NodeOutcome::at_horizon`]) — so its outcomes are
//! bit-identical to the engine's. The differential suite
//! (`tests/kernel_vs_des.rs`) checks that field by field.

use crate::config::ParcelConfig;
use crate::outcome::{NodeOutcome, OpenJob, SystemOutcome};
use crate::runs::RunSampler;
use desim::prelude::*;
use std::collections::VecDeque;

/// The one-way latency of every remote access. A single-node system still issues
/// remote accesses (to memory outside the modeled array), at the configured latency.
fn one_way_cycles(config: &ParcelConfig, flat_cycles: f64) -> f64 {
    if config.nodes <= 1 {
        config.latency_cycles
    } else {
        flat_cycles
    }
}

/// A job occupying a test-system node's execution unit.
#[derive(Clone, Copy)]
struct Running {
    job: OpenJob,
    issues_remote: bool,
    done: SimTime,
    seq: u64,
}

/// One node of the split-transaction test system: a single execution unit, a count
/// of ready contexts (contexts are interchangeable, so their identities do not
/// matter) and the in-flight replies. The round trip is constant and jobs complete
/// in time order, so replies come back in issue order: a FIFO of `(time, seq)`.
struct TestNode<'a> {
    config: &'a ParcelConfig,
    sampler: &'a RunSampler,
    stream: RandomStream,
    running: Option<Running>,
    ready: usize,
    replies: VecDeque<(SimTime, u64)>,
    seq: u64,
    work_ops: u64,
    busy_cycles: f64,
    remote_accesses: u64,
}

impl TestNode<'_> {
    /// `TestSystem::start_job`: sample a run and occupy the unit, unless the
    /// horizon has already passed (the job is then dropped).
    fn start_job(&mut self, now: SimTime, now_cycles: f64) {
        let remaining = (self.config.horizon_cycles - now_cycles).max(0.0);
        if remaining <= 0.0 {
            return;
        }
        let (run, ends_remote) = self.sampler.sample_run(remaining, &mut self.stream);
        let issue = if ends_remote {
            1.0 + self.config.parcel_overhead_cycles
        } else {
            0.0
        };
        let duration_cycles = run.cycles + issue;
        self.running = Some(Running {
            job: OpenJob {
                started_cycles: now_cycles,
                duration_cycles,
                ops: run.ops,
            },
            issues_remote: ends_remote,
            done: now + SimDuration::from_ns_f64(duration_cycles * self.config.cycle_ns),
            seq: self.next_seq(),
        });
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// `TestSystem::make_ready`: start a context if the unit is free, else queue it.
    fn make_ready(&mut self, now: SimTime, now_cycles: f64) {
        if self.running.is_none() {
            self.start_job(now, now_cycles);
        } else {
            self.ready += 1;
        }
    }

    /// Dispatch this node's events up to `horizon` and close its books.
    fn run(mut self, horizon: SimTime, round_trip: SimDuration) -> NodeOutcome {
        for _ in 0..self.config.parallelism {
            self.make_ready(SimTime::ZERO, 0.0);
        }
        loop {
            let reply = self.replies.front().copied();
            let (now, is_reply) = match (self.running, reply) {
                (Some(r), Some(rep)) if rep < (r.done, r.seq) => (rep.0, true),
                (Some(r), _) => (r.done, false),
                (None, Some(rep)) => (rep.0, true),
                (None, None) => break,
            };
            if now > horizon {
                break;
            }
            let now_cycles = now.as_ns_f64() / self.config.cycle_ns;
            if is_reply {
                self.replies.pop_front();
                self.make_ready(now, now_cycles);
                continue;
            }
            if let Some(done) = self.running.take() {
                self.work_ops += done.job.ops;
                self.busy_cycles += done.job.duration_cycles;
                if done.issues_remote {
                    self.remote_accesses += 1;
                    let seq = self.next_seq();
                    self.replies.push_back((now + round_trip, seq));
                }
            }
            if self.ready > 0 {
                self.ready -= 1;
                self.start_job(now, now_cycles);
            }
        }
        NodeOutcome::at_horizon(
            self.config.horizon_cycles,
            self.work_ops,
            self.busy_cycles,
            self.remote_accesses,
            self.running.map(|r| r.job),
        )
    }
}

/// The split-transaction test system with memory-side servicing over a flat network
/// of `flat_cycles` one-way latency, run node by node. Bit-identical to the
/// [`crate::test_system::TestSystem`] engine run on the same inputs.
pub(crate) fn run_test(config: &ParcelConfig, flat_cycles: f64, seed: u64) -> SystemOutcome {
    config.assert_valid();
    let horizon = SimTime::from_ns_f64(config.horizon_ns());
    let round_trip =
        SimDuration::from_ns_f64(2.0 * one_way_cycles(config, flat_cycles) * config.cycle_ns);
    let sampler = RunSampler::new(config);
    let nodes = (0..config.nodes)
        .map(|i| {
            TestNode {
                config,
                sampler: &sampler,
                stream: RandomStream::new(seed, 0x2000 + i as u64),
                running: None,
                ready: 0,
                replies: VecDeque::with_capacity(config.parallelism),
                seq: 0,
                work_ops: 0,
                busy_cycles: 0.0,
                remote_accesses: 0,
            }
            .run(horizon, round_trip)
        })
        .collect();
    SystemOutcome::from_nodes(config.horizon_cycles, nodes)
}

/// The blocking control system over a flat network of `flat_cycles` one-way
/// latency, run node by node: each node has exactly one pending event at a time, so
/// it is a straight loop. Bit-identical to the [`crate::control::ControlSystem`]
/// engine run on the same inputs.
pub(crate) fn run_control(config: &ParcelConfig, flat_cycles: f64, seed: u64) -> SystemOutcome {
    config.assert_valid();
    let horizon = SimTime::from_ns_f64(config.horizon_ns());
    let round_trip = 2.0 * one_way_cycles(config, flat_cycles);
    let reply_delay = SimDuration::from_ns_f64((1.0 + round_trip) * config.cycle_ns);
    let sampler = RunSampler::new(config);
    let nodes = (0..config.nodes)
        .map(|i| {
            let mut stream = RandomStream::new(seed, 0x1000 + i as u64);
            let (mut work_ops, mut busy_cycles, mut remote_accesses) = (0, 0.0, 0);
            let mut open = None;
            let mut now = SimTime::ZERO;
            loop {
                // `ControlSystem::start_run`.
                let now_cycles = now.as_ns_f64() / config.cycle_ns;
                let remaining = (config.horizon_cycles - now_cycles).max(0.0);
                if remaining <= 0.0 {
                    break;
                }
                let (run, _ends_remote) = sampler.sample_run(remaining, &mut stream);
                open = Some(OpenJob {
                    started_cycles: now_cycles,
                    duration_cycles: run.cycles,
                    ops: run.ops,
                });
                let run_done = now + SimDuration::from_ns_f64(run.cycles * config.cycle_ns);
                if run_done > horizon {
                    break;
                }
                // `RunDone`: credit the run, then issue the remote request.
                now = run_done;
                open = None;
                work_ops += run.ops;
                busy_cycles += run.cycles;
                if config.horizon_cycles - now.as_ns_f64() / config.cycle_ns <= 0.0 {
                    break;
                }
                remote_accesses += 1;
                busy_cycles += 1.0;
                let reply = now + reply_delay;
                if reply > horizon {
                    break;
                }
                now = reply;
            }
            NodeOutcome::at_horizon(
                config.horizon_cycles,
                work_ops,
                busy_cycles,
                remote_accesses,
                open,
            )
        })
        .collect();
    SystemOutcome::from_nodes(config.horizon_cycles, nodes)
}
