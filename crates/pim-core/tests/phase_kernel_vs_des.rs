//! Differential suite: the study-1 phase kernel (`run_queueing`) must reproduce a
//! discrete-event reference bit for bit — every `QueueingResult` field, every f64
//! by `to_bits`, the event count included.
//!
//! The reference is the queuing model as a `desim::engine::Model`: one event per
//! operation batch, scheduled `SimDuration::from_ns_f64(batch time)` ahead, with
//! the HWP phase first and the LWP batches of all nodes interleaved by the event
//! queue. It samples every operation through the per-operation path
//! (`sample_op_time_ns`, i.e. `RandomStream::bernoulli`), so it checks the kernel's
//! raw-word sampling windows as well as its phase arithmetic.

use desim::prelude::*;
use pim_core::prelude::*;
use pim_workload::{InstructionMix, ThreadBalance, ThreadPartition, WorkPartition};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum PhaseEvent {
    HwpBatchDone,
    LwpBatchDone(usize),
}

struct QueueingModel {
    hwp: HwpExecution,
    lwps: Vec<LwpExecution>,
    hwp_ops_remaining: u64,
    lwp_ops_remaining: Vec<u64>,
    ops_per_event: u64,
    active_lwps: usize,
    hwp_phase_end: Option<SimTime>,
    lwp_node_end: Vec<Option<SimTime>>,
    finish: Option<SimTime>,
}

/// The summed time of `batch` operations, drawn one operation at a time.
fn batch_ns(batch: u64, mut sample_op: impl FnMut() -> f64) -> f64 {
    let mut total = 0.0;
    for _ in 0..batch {
        total += sample_op();
    }
    total
}

impl QueueingModel {
    fn new(
        config: SystemConfig,
        partition: WorkPartition,
        mode: RunMode,
        ops_per_event: u64,
        seed: u64,
    ) -> Self {
        let (hwp_ops, lwp_threads) = match mode {
            RunMode::Control => (partition.total_ops, Vec::new()),
            RunMode::Test { nodes } => {
                let split =
                    ThreadPartition::new(partition.lwp_ops(), nodes, ThreadBalance::Uniform);
                (partition.hwp_ops(), split.ops_per_node().to_vec())
            }
        };
        QueueingModel {
            hwp: HwpExecution::new(config, RandomStream::new(seed, 1)),
            lwps: (0..lwp_threads.len())
                .map(|i| LwpExecution::new(config, RandomStream::new(seed, 100 + i as u64)))
                .collect(),
            active_lwps: lwp_threads.iter().filter(|&&o| o > 0).count(),
            lwp_node_end: vec![None; lwp_threads.len()],
            hwp_ops_remaining: hwp_ops,
            lwp_ops_remaining: lwp_threads,
            ops_per_event,
            hwp_phase_end: None,
            finish: None,
        }
    }

    fn schedule_hwp_batch(&mut self, sched: &mut Scheduler<PhaseEvent>) {
        let batch = self.hwp_ops_remaining.min(self.ops_per_event);
        let dur = batch_ns(batch, || self.hwp.sample_op_time_ns());
        self.hwp_ops_remaining -= batch;
        sched.schedule_in(SimDuration::from_ns_f64(dur), PhaseEvent::HwpBatchDone);
    }

    fn schedule_lwp_batch(&mut self, node: usize, sched: &mut Scheduler<PhaseEvent>) {
        let batch = self.lwp_ops_remaining[node].min(self.ops_per_event);
        let lwp = &mut self.lwps[node];
        let dur = batch_ns(batch, || lwp.sample_op_time_ns());
        self.lwp_ops_remaining[node] -= batch;
        sched.schedule_in(
            SimDuration::from_ns_f64(dur),
            PhaseEvent::LwpBatchDone(node),
        );
    }

    fn start_lwp_phase(&mut self, now: SimTime, sched: &mut Scheduler<PhaseEvent>) {
        self.hwp_phase_end = Some(now);
        if self.active_lwps == 0 {
            self.finish = Some(now);
            return;
        }
        for node in 0..self.lwp_ops_remaining.len() {
            if self.lwp_ops_remaining[node] > 0 {
                self.schedule_lwp_batch(node, sched);
            }
        }
    }

    fn start(&mut self, sched: &mut Scheduler<PhaseEvent>) {
        if self.hwp_ops_remaining > 0 {
            self.schedule_hwp_batch(sched);
        } else {
            self.start_lwp_phase(SimTime::ZERO, sched);
        }
    }

    fn result(&self, events: u64) -> QueueingResult {
        let finish = self.finish.unwrap_or(SimTime::ZERO);
        let hwp_end = self.hwp_phase_end.unwrap_or(finish);
        let mut lwp_merged = LwpStats::default();
        let mut busy = Vec::with_capacity(self.lwps.len());
        let mut idle = Vec::with_capacity(self.lwps.len());
        for (i, l) in self.lwps.iter().enumerate() {
            let s = l.stats();
            lwp_merged.merge(&s);
            busy.push(s.busy_ns);
            let node_end = self.lwp_node_end[i].unwrap_or(hwp_end);
            idle.push(finish.saturating_since(node_end).as_ns_f64());
        }
        QueueingResult {
            makespan_ns: finish.as_ns_f64(),
            hwp_phase_ns: hwp_end.as_ns_f64(),
            lwp_phase_ns: finish.saturating_since(hwp_end).as_ns_f64(),
            hwp: self.hwp.stats(),
            lwp: lwp_merged,
            lwp_busy_ns: busy,
            lwp_idle_ns: idle,
            events,
        }
    }
}

impl Model for QueueingModel {
    type Event = PhaseEvent;

    fn handle(&mut self, now: SimTime, event: PhaseEvent, sched: &mut Scheduler<PhaseEvent>) {
        match event {
            PhaseEvent::HwpBatchDone => {
                if self.hwp_ops_remaining > 0 {
                    self.schedule_hwp_batch(sched);
                } else {
                    self.start_lwp_phase(now, sched);
                }
            }
            PhaseEvent::LwpBatchDone(node) => {
                if self.lwp_ops_remaining[node] > 0 {
                    self.schedule_lwp_batch(node, sched);
                } else {
                    self.lwp_node_end[node] = Some(now);
                    self.active_lwps -= 1;
                    if self.active_lwps == 0 {
                        self.finish = Some(now);
                    }
                }
            }
        }
    }
}

fn des_queueing(
    config: SystemConfig,
    partition: WorkPartition,
    mode: RunMode,
    ops_per_event: u64,
    seed: u64,
) -> QueueingResult {
    let mut sim = Simulation::new(QueueingModel::new(
        config,
        partition,
        mode,
        ops_per_event,
        seed,
    ));
    sim.init(|m, sched| m.start(sched));
    let events = sim.run().events_processed;
    sim.model().result(events)
}

fn assert_f64s(kernel: &[f64], des: &[f64], what: &str) {
    assert_eq!(kernel.len(), des.len(), "{what}");
    for (i, (k, d)) in kernel.iter().zip(des).enumerate() {
        assert_eq!(k.to_bits(), d.to_bits(), "{what}[{i}]: {k} vs {d}");
    }
}

/// Run both forms and demand identical results, field by field.
fn check(config: SystemConfig, wl: f64, mode: RunMode, ops_per_event: u64, seed: u64) {
    let what = format!("{config:?} wl={wl} {mode:?} ops_per_event={ops_per_event} seed={seed}");
    let partition = WorkPartition::new(config.total_ops, wl);
    let kernel = run_queueing(config, partition, mode, ops_per_event, seed);
    let des = des_queueing(config, partition, mode, ops_per_event, seed);
    // Makespan, the two phases, and the HWP and merged LWP busy times.
    let times = |r: &QueueingResult| {
        [
            r.makespan_ns,
            r.hwp_phase_ns,
            r.lwp_phase_ns,
            r.hwp.busy_ns,
            r.lwp.busy_ns,
        ]
    };
    assert_f64s(&times(&kernel), &times(&des), &format!("times, {what}"));
    assert_eq!(kernel.hwp, des.hwp, "hwp stats, {what}");
    assert_eq!(kernel.lwp, des.lwp, "lwp stats, {what}");
    assert_f64s(
        &kernel.lwp_busy_ns,
        &des.lwp_busy_ns,
        &format!("node busy, {what}"),
    );
    assert_f64s(
        &kernel.lwp_idle_ns,
        &des.lwp_idle_ns,
        &format!("node idle, {what}"),
    );
    assert_eq!(kernel.events, des.events, "events, {what}");
}

/// Machines with integer times, the non-integer 0.7 ns clock and 29.1-cycle LWP
/// memory, and times with sub-picosecond residues (one tick is 1 ps) so that the
/// per-batch quantization shows; probabilities at 0, inside and at 1.
fn machine() -> impl Strategy<Value = SystemConfig> {
    (
        1u64..3_000,
        0usize..3,
        0usize..3,
        0usize..2,
        (0usize..3, 0.0f64..1.0),
        (0usize..3, 0.0f64..1.0),
    )
        .prop_map(
            |(total_ops, clock, lwp_memory, residue, (miss, any_miss), (mix, any_mix))| {
                SystemConfig {
                    total_ops,
                    hwp_cycle_ns: [1.0, 0.7, 0.700_123][clock],
                    lwp_memory_cycles: [30.0, 29.1, 29.100_07][lwp_memory],
                    lwp_cycle_ns: [5.0, 4.300_04][residue],
                    hwp_cache_cycles: [2.0, 2.000_3][residue],
                    hwp_memory_cycles: [90.0, 91.3][residue],
                    p_miss: [0.0, any_miss, 1.0][miss],
                    mix: InstructionMix::with_memory_fraction([0.0, any_mix, 1.0][mix]),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256).with_rng_seed(0x5713_0013))]

    #[test]
    fn phase_kernel_matches_the_engine_bitwise(
        config in machine(),
        wl in 0usize..4,
        nodes in 0usize..6,
        ops_per_event in 0usize..3,
        seed in any::<u64>(),
    ) {
        // Zero nodes stands for the host-only control run. With more nodes than
        // LWP operations, some threads are empty.
        let mode = match [0, 1, 2, 3, 64, 257][nodes] {
            0 => RunMode::Control,
            nodes => RunMode::Test { nodes },
        };
        check(config, [0.0, 0.1, 0.5, 1.0][wl], mode, [1, 7, 64][ops_per_event], seed);
    }
}

/// The paper's operating points at the sweeps' sampled size (200k operations, 64
/// per event), from one node to the 256 of the widest node sweep.
#[test]
fn phase_kernel_matches_the_engine_on_paper_points() {
    let config = SystemConfig {
        total_ops: 200_000,
        ..SystemConfig::table1()
    };
    for (nodes, wl) in [(1, 1.0), (8, 0.3), (32, 0.9), (256, 0.5)] {
        check(
            config,
            wl,
            RunMode::Test { nodes },
            64,
            0x5EED + nodes as u64,
        );
    }
    check(config, 0.0, RunMode::Control, 64, 0x5EED);
}
