//! The queuing model of the HWP + LWP-array system (Figures 2–4).
//!
//! The model reproduces the structure of the paper's SES/Workbench model:
//!
//! * a single heavyweight processor executes the high-locality work `WH` sequentially
//!   (Figure 2);
//! * the low-locality work `WL` is split into one uniform thread per LWP node, and the
//!   array executes those threads concurrently (Figure 3);
//! * at any one time either the HWP or the LWP array is executing, never both, and the
//!   run ends when the last LWP thread completes (the Figure 4 timeline);
//! * bank conflicts are not modeled — each LWP owns its memory bank — exactly as the
//!   paper states.
//!
//! Operation service times are drawn stochastically (cache miss and instruction-mix
//! Bernoulli draws per operation), so the parallel phase ends at the *maximum* of the
//! per-node completion times rather than at their mean; this is the behaviour the
//! queuing simulation captures and the closed-form model of `pim-analytic` does not.
//!
//! Operations run in batches of `ops_per_event`, and each batch's duration is
//! quantized to whole simulation ticks (`SimDuration::from_ns_f64`), as when every
//! batch was one event of a discrete-event model. Batching only keeps that event count
//! tractable for the full 10^8-operation workload; it does not change the sampled
//! operations, because a batch executes back-to-back on one processor.
//!
//! [`run_queueing`] is a phase kernel rather than an event loop: the HWP batches, then
//! each node's batches. That is exact: every node draws from its own stream
//! (`100 + i`, the HWP `1`), no event of one processor ever touches another, and a
//! phase ends at the sum of its quantized batch durations — so the per-processor
//! timelines an event queue would interleave are simply laid end to end. The
//! differential suite `tests/phase_kernel_vs_des.rs` checks every result field, bit
//! for bit, against a discrete-event reference run on `desim::engine`.

use crate::config::SystemConfig;
use crate::hwp::{HwpExecution, HwpStats};
use crate::lwp::{LwpExecution, LwpStats};
use desim::prelude::*;
use pim_workload::{ThreadBalance, ThreadPartition, WorkPartition};
use serde::{Deserialize, Serialize};

/// Whether the run is the control configuration (host only) or the PIM-augmented test
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunMode {
    /// All work on the heavyweight processor.
    Control,
    /// High-locality work on the HWP, low-locality work on the LWP array.
    Test {
        /// Number of lightweight PIM nodes.
        nodes: usize,
    },
}

/// Result of one queuing-model run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueueingResult {
    /// Total time to solution in nanoseconds (the paper's response time).
    pub makespan_ns: f64,
    /// Duration of the sequential HWP phase (ns).
    pub hwp_phase_ns: f64,
    /// Duration of the parallel LWP phase (ns).
    pub lwp_phase_ns: f64,
    /// HWP execution counters.
    pub hwp: HwpStats,
    /// Merged LWP execution counters across nodes.
    pub lwp: LwpStats,
    /// Busy time of each LWP node (ns).
    pub lwp_busy_ns: Vec<f64>,
    /// Idle time of each LWP node while the parallel phase was still running (ns).
    pub lwp_idle_ns: Vec<f64>,
    /// Number of operation batches run (one per event of the discrete-event form).
    pub events: u64,
}

impl QueueingResult {
    /// Fraction of the parallel phase the average LWP node spent idle.
    pub fn mean_lwp_idle_fraction(&self) -> f64 {
        if self.lwp_idle_ns.is_empty() || self.lwp_phase_ns <= 0.0 {
            return 0.0;
        }
        let mean_idle = self.lwp_idle_ns.iter().sum::<f64>() / self.lwp_idle_ns.len() as f64;
        mean_idle / self.lwp_phase_ns
    }
}

/// Run `ops` operations in batches of `ops_per_event` and return the phase length:
/// the sum of the batch durations, each quantized to whole ticks. Counts the batches
/// into `events`.
fn run_batches(
    ops: u64,
    ops_per_event: u64,
    events: &mut u64,
    mut run_ops: impl FnMut(u64) -> f64,
) -> SimDuration {
    let mut elapsed = SimDuration::ZERO;
    let mut left = ops;
    while left > 0 {
        let batch = left.min(ops_per_event);
        elapsed += SimDuration::from_ns_f64(run_ops(batch));
        left -= batch;
        *events += 1;
    }
    elapsed
}

/// Run the queuing model for `partition` of the configured work under `mode`.
///
/// `ops_per_event` batches operations (1 = every operation quantized on its own);
/// `seed` drives all stochastic draws.
pub fn run_queueing(
    config: SystemConfig,
    partition: WorkPartition,
    mode: RunMode,
    ops_per_event: u64,
    seed: u64,
) -> QueueingResult {
    assert!(ops_per_event > 0, "ops_per_event must be positive");
    config.assert_valid();
    let (hwp_ops, lwp_threads) = match mode {
        RunMode::Control => (partition.total_ops, Vec::new()),
        RunMode::Test { nodes } => {
            assert!(nodes > 0, "test mode needs at least one LWP node");
            let split = ThreadPartition::new(partition.lwp_ops(), nodes, ThreadBalance::Uniform);
            (partition.hwp_ops(), split.ops_per_node().to_vec())
        }
    };
    let mut events = 0;
    let mut hwp = HwpExecution::new(config, RandomStream::new(seed, 1));
    let hwp_end =
        SimTime::ZERO + run_batches(hwp_ops, ops_per_event, &mut events, |b| hwp.run_ops(b));
    // A node with no work ends with the HWP phase; the run ends with the last node.
    let mut lwp = LwpStats::default();
    let mut busy = Vec::with_capacity(lwp_threads.len());
    let mut node_end = Vec::with_capacity(lwp_threads.len());
    for (i, &ops) in lwp_threads.iter().enumerate() {
        let mut node = LwpExecution::new(config, RandomStream::new(seed, 100 + i as u64));
        node_end.push(hwp_end + run_batches(ops, ops_per_event, &mut events, |b| node.run_ops(b)));
        let stats = node.stats();
        lwp.merge(&stats);
        busy.push(stats.busy_ns);
    }
    let finish = node_end.iter().copied().fold(hwp_end, SimTime::max);
    QueueingResult {
        makespan_ns: finish.as_ns_f64(),
        hwp_phase_ns: hwp_end.as_ns_f64(),
        lwp_phase_ns: finish.saturating_since(hwp_end).as_ns_f64(),
        hwp: hwp.stats(),
        lwp,
        lwp_busy_ns: busy,
        lwp_idle_ns: node_end
            .iter()
            .map(|&end| finish.saturating_since(end).as_ns_f64())
            .collect(),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SystemConfig {
        SystemConfig {
            total_ops: 100_000,
            ..SystemConfig::table1()
        }
    }

    #[test]
    fn control_run_time_matches_expectation() {
        let c = small_config();
        let p = WorkPartition::new(c.total_ops, 0.0);
        let r = run_queueing(c, p, RunMode::Control, 64, 42);
        let expect = c.total_ops as f64 * c.hwp_op_time_ns();
        assert!(
            (r.makespan_ns - expect).abs() / expect < 0.02,
            "control makespan {} vs expected {expect}",
            r.makespan_ns
        );
        assert_eq!(r.hwp.ops, c.total_ops);
        assert_eq!(r.lwp.ops, 0);
        assert!(r.lwp_phase_ns.abs() < 1e-9);
    }

    #[test]
    fn test_run_splits_work_between_hwp_and_lwps() {
        let c = small_config();
        let p = WorkPartition::new(c.total_ops, 0.4);
        let r = run_queueing(c, p, RunMode::Test { nodes: 8 }, 64, 42);
        assert_eq!(r.hwp.ops, 60_000);
        assert_eq!(r.lwp.ops, 40_000);
        assert_eq!(r.lwp_busy_ns.len(), 8);
        // Makespan = HWP phase + parallel LWP phase.
        assert!((r.makespan_ns - (r.hwp_phase_ns + r.lwp_phase_ns)).abs() < 1e-6);
        let expect = 60_000.0 * c.hwp_op_time_ns() + 40_000.0 / 8.0 * c.lwp_op_time_ns();
        assert!(
            (r.makespan_ns - expect).abs() / expect < 0.05,
            "test makespan {} vs expected {expect}",
            r.makespan_ns
        );
    }

    #[test]
    fn more_nodes_shorten_the_parallel_phase() {
        let c = small_config();
        let p = WorkPartition::new(c.total_ops, 0.8);
        let r2 = run_queueing(c, p, RunMode::Test { nodes: 2 }, 64, 7);
        let r16 = run_queueing(c, p, RunMode::Test { nodes: 16 }, 64, 7);
        assert!(
            r16.lwp_phase_ns < r2.lwp_phase_ns / 4.0,
            "16 nodes ({}) should be much faster than 2 ({})",
            r16.lwp_phase_ns,
            r2.lwp_phase_ns
        );
    }

    #[test]
    fn pure_lwp_workload_has_no_hwp_phase() {
        let c = small_config();
        let p = WorkPartition::new(c.total_ops, 1.0);
        let r = run_queueing(c, p, RunMode::Test { nodes: 4 }, 64, 3);
        assert_eq!(r.hwp.ops, 0);
        assert!(r.hwp_phase_ns.abs() < 1e-9);
        assert_eq!(r.lwp.ops, c.total_ops);
    }

    #[test]
    fn zero_lwp_workload_in_test_mode_equals_control() {
        let c = small_config();
        let p = WorkPartition::new(c.total_ops, 0.0);
        let test = run_queueing(c, p, RunMode::Test { nodes: 8 }, 64, 5);
        let control = run_queueing(c, p, RunMode::Control, 64, 5);
        assert!((test.makespan_ns - control.makespan_ns).abs() < 1e-9);
        assert_eq!(test.lwp.ops, 0);
    }

    #[test]
    fn gain_is_consistent_with_figure5_shape() {
        // With 100% LWP work and N nodes, gain approaches N / NB.
        let c = small_config();
        let p = WorkPartition::new(c.total_ops, 1.0);
        let control = run_queueing(c, p, RunMode::Control, 64, 9);
        let test = run_queueing(c, p, RunMode::Test { nodes: 32 }, 64, 9);
        let gain = control.makespan_ns / test.makespan_ns;
        let predicted = 32.0 / c.nb();
        assert!(
            (gain - predicted).abs() / predicted < 0.05,
            "gain {gain} vs predicted {predicted}"
        );
    }

    #[test]
    fn idle_time_is_small_for_uniform_threads() {
        let c = small_config();
        let p = WorkPartition::new(c.total_ops, 0.5);
        let r = run_queueing(c, p, RunMode::Test { nodes: 8 }, 64, 11);
        // Uniform threads with stochastic service: nodes finish within a few percent of
        // one another, so mean idle is a small fraction of the parallel phase.
        assert!(
            r.mean_lwp_idle_fraction() < 0.1,
            "idle fraction {}",
            r.mean_lwp_idle_fraction()
        );
    }

    #[test]
    fn batching_does_not_change_the_makespan_materially() {
        let c = small_config();
        let p = WorkPartition::new(c.total_ops, 0.6);
        let fine = run_queueing(c, p, RunMode::Test { nodes: 4 }, 1, 21);
        let coarse = run_queueing(c, p, RunMode::Test { nodes: 4 }, 1024, 21);
        assert!(
            (fine.makespan_ns - coarse.makespan_ns).abs() / fine.makespan_ns < 0.03,
            "fine {} vs coarse {}",
            fine.makespan_ns,
            coarse.makespan_ns
        );
        assert!(coarse.events < fine.events / 100);
    }
}
