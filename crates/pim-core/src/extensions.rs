//! Extensions beyond the paper's baseline model.
//!
//! The paper's workload assumptions are deliberately simple: a single HWP phase followed
//! by a single, perfectly balanced LWP phase. Two of those assumptions are relaxed here
//! so their impact can be quantified (they are the "future work" knobs a Cascade-era
//! designer would ask about first):
//!
//! * **Phased execution** ([`PhasedOptions::rounds`]): the Figure 4 timeline actually
//!   shows the machine *alternating* between host and PIM phases; this module executes
//!   `rounds` such alternations. Because neither processor class is shared across
//!   phases, the expected total time is unchanged — the extension demonstrates (and the
//!   tests verify) that the single-phase simplification is harmless.
//! * **Load imbalance** ([`PhasedOptions::balance`]): the per-node LWP threads need not
//!   be uniform. The parallel phase ends at the slowest node, so skew directly stretches
//!   the LWP phase and erodes the gain; [`imbalance_sensitivity`] sweeps that effect.
//!
//! A third helper, [`replicated_gain`], wraps the stochastic evaluation in independent
//! replications (via `desim::replication`) so a gain can be quoted with a confidence
//! interval rather than as a single draw.

use crate::config::SystemConfig;
use crate::hwp::HwpExecution;
use crate::lwp::LwpExecution;
use crate::system::{EvalMode, PartitionStudy};
use desim::random::RandomStream;
use desim::replication::{replicate, ReplicationSummary};
use desim::stats::ConfidenceLevel;
use pim_workload::{ThreadBalance, ThreadPartition, WorkPartition};
use serde::{Deserialize, Serialize};

/// Options for the phased/imbalanced execution model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct PhasedOptions {
    /// Number of HWP-phase / LWP-phase alternations (Figure 4 rounds). Must be ≥ 1.
    pub rounds: usize,
    /// How the LWP work of each round is spread over the nodes.
    pub balance: ThreadBalance,
}

impl Default for PhasedOptions {
    fn default() -> Self {
        PhasedOptions {
            rounds: 1,
            balance: ThreadBalance::Uniform,
        }
    }
}

/// Result of a phased run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct PhasedResult {
    /// Total time to solution (ns).
    pub makespan_ns: f64,
    /// Total time spent in HWP phases (ns).
    pub hwp_ns: f64,
    /// Total time spent in LWP phases (ns).
    pub lwp_ns: f64,
    /// Time the *average* LWP node spent idle inside LWP phases while waiting for the
    /// slowest node (ns) — the price of imbalance.
    pub mean_node_idle_ns: f64,
    /// Number of rounds executed.
    pub rounds: usize,
}

impl PhasedResult {
    /// Fraction of the LWP-phase time the average node spent idle.
    pub fn idle_fraction(&self) -> f64 {
        if self.lwp_ns <= 0.0 {
            0.0
        } else {
            self.mean_node_idle_ns / self.lwp_ns
        }
    }
}

/// Execute `partition` on `nodes` LWPs under `options`, sampling every operation.
///
/// The computation follows the queuing model of [`crate::queueing`] (there is no
/// cross-phase resource contention, so phase lengths simply add) without its
/// per-batch tick quantization; it is separate so that rounds and non-uniform thread
/// partitions can be expressed without growing the core model.
pub(crate) fn run_phased(
    config: SystemConfig,
    partition: WorkPartition,
    nodes: usize,
    options: PhasedOptions,
    seed: u64,
) -> PhasedResult {
    assert!(nodes > 0, "need at least one LWP node");
    assert!(options.rounds >= 1, "need at least one round");
    config.assert_valid();

    let mut hwp = HwpExecution::new(config, RandomStream::new(seed, 1));
    let mut lwps: Vec<LwpExecution> = (0..nodes)
        .map(|i| LwpExecution::new(config, RandomStream::new(seed, 100 + i as u64)))
        .collect();

    // Split both work pools as evenly as possible across rounds.
    let hwp_rounds =
        ThreadPartition::new(partition.hwp_ops(), options.rounds, ThreadBalance::Uniform);
    let lwp_rounds =
        ThreadPartition::new(partition.lwp_ops(), options.rounds, ThreadBalance::Uniform);

    let mut hwp_ns = 0.0;
    let mut lwp_ns = 0.0;
    let mut idle_ns = 0.0;
    for round in 0..options.rounds {
        hwp_ns += hwp.run_ops(hwp_rounds.ops_per_node()[round]);
        let node_share =
            ThreadPartition::new(lwp_rounds.ops_per_node()[round], nodes, options.balance);
        let busy: Vec<f64> = node_share
            .ops_per_node()
            .iter()
            .zip(lwps.iter_mut())
            .map(|(&ops, lwp)| lwp.run_ops(ops))
            .collect();
        let phase = busy.iter().copied().fold(0.0, f64::max);
        lwp_ns += phase;
        idle_ns += busy.iter().map(|b| phase - b).sum::<f64>() / nodes as f64;
    }
    PhasedResult {
        makespan_ns: hwp_ns + lwp_ns,
        hwp_ns,
        lwp_ns,
        mean_node_idle_ns: idle_ns,
        rounds: options.rounds,
    }
}

/// One row of the imbalance-sensitivity sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ImbalanceRow {
    /// The skew factor applied to the per-node thread lengths.
    pub skew: f64,
    /// Resulting gain over the host-only control system.
    pub gain: f64,
    /// Fraction of the LWP phase the average node spent idle.
    pub idle_fraction: f64,
}

/// Sweep the thread-length skew and report how the gain degrades.
pub fn imbalance_sensitivity(
    config: SystemConfig,
    nodes: usize,
    wl: f64,
    skews: &[f64],
    seed: u64,
) -> Vec<ImbalanceRow> {
    let study = PartitionStudy::new(config);
    let control = study.expected_control_ns();
    skews
        .iter()
        .map(|&skew| {
            let balance = if skew <= 0.0 {
                ThreadBalance::Uniform
            } else {
                ThreadBalance::Skewed { skew }
            };
            let result = run_phased(
                config,
                WorkPartition::new(config.total_ops, wl),
                nodes,
                PhasedOptions { rounds: 1, balance },
                seed,
            );
            ImbalanceRow {
                skew,
                gain: control / result.makespan_ns,
                idle_fraction: result.idle_fraction(),
            }
        })
        .collect()
}

/// Evaluate the simulated gain of one `(nodes, wl)` point across independent
/// replications and return its confidence interval.
pub fn replicated_gain(
    config: SystemConfig,
    nodes: usize,
    wl: f64,
    replications: u64,
    sim_ops: u64,
    base_seed: u64,
) -> ReplicationSummary {
    let study = PartitionStudy::new(config);
    replicate(replications, base_seed, ConfidenceLevel::P95, |seed| {
        study
            .evaluate(
                nodes,
                wl,
                EvalMode::Simulated {
                    sim_ops: Some(sim_ops),
                    ops_per_event: 64,
                    seed,
                },
            )
            .gain
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SystemConfig {
        SystemConfig {
            total_ops: 200_000,
            ..SystemConfig::table1()
        }
    }

    #[test]
    fn single_round_matches_the_queuing_model() {
        let config = small_config();
        let partition = WorkPartition::new(config.total_ops, 0.6);
        let phased = run_phased(config, partition, 8, PhasedOptions::default(), 5);
        let des = crate::queueing::run_queueing(
            config,
            partition,
            crate::queueing::RunMode::Test { nodes: 8 },
            64,
            5,
        );
        let err = (phased.makespan_ns - des.makespan_ns).abs() / des.makespan_ns;
        assert!(
            err < 0.02,
            "phased {} vs DES {} (err {err})",
            phased.makespan_ns,
            des.makespan_ns
        );
    }

    #[test]
    fn splitting_into_rounds_does_not_change_the_total_time() {
        let config = small_config();
        let partition = WorkPartition::new(config.total_ops, 0.7);
        let one = run_phased(
            config,
            partition,
            16,
            PhasedOptions {
                rounds: 1,
                ..Default::default()
            },
            9,
        );
        let many = run_phased(
            config,
            partition,
            16,
            PhasedOptions {
                rounds: 10,
                ..Default::default()
            },
            9,
        );
        let err = (one.makespan_ns - many.makespan_ns).abs() / one.makespan_ns;
        assert!(
            err < 0.02,
            "1 round {} vs 10 rounds {}",
            one.makespan_ns,
            many.makespan_ns
        );
        assert_eq!(many.rounds, 10);
    }

    #[test]
    fn skew_stretches_the_lwp_phase_and_creates_idle_time() {
        let config = small_config();
        let partition = WorkPartition::new(config.total_ops, 1.0);
        let uniform = run_phased(config, partition, 16, PhasedOptions::default(), 3);
        let skewed = run_phased(
            config,
            partition,
            16,
            PhasedOptions {
                rounds: 1,
                balance: ThreadBalance::Skewed { skew: 0.5 },
            },
            3,
        );
        assert!(skewed.makespan_ns > 1.3 * uniform.makespan_ns);
        assert!(
            skewed.idle_fraction() > 0.2,
            "idle {}",
            skewed.idle_fraction()
        );
        assert!(uniform.idle_fraction() < 0.05);
    }

    #[test]
    fn imbalance_sweep_degrades_gain_monotonically() {
        let rows = imbalance_sensitivity(small_config(), 32, 0.9, &[0.0, 0.2, 0.4, 0.6, 0.8], 7);
        assert_eq!(rows.len(), 5);
        assert!(
            rows.windows(2).all(|w| w[1].gain <= w[0].gain + 0.02),
            "{rows:?}"
        );
        // A 50%+ skew costs a meaningful share of the paper's headline gain.
        assert!(rows[0].gain / rows[4].gain > 1.3);
    }

    #[test]
    fn replicated_gain_tracks_the_analytic_value_with_a_small_makespan_bias() {
        // The simulated parallel phase ends at the *slowest* of the 32 nodes, so the
        // simulated gain sits a few percent below the closed form (which uses the mean
        // thread length) — the same kind of gap the paper reports between its two
        // models. The replication machinery should resolve that bias: a tight interval
        // lying just below the analytic value.
        let config = small_config();
        let summary = replicated_gain(config, 32, 1.0, 16, 50_000, 13);
        let analytic = 32.0 / config.nb();
        assert!(summary.relative_precision() < 0.05);
        assert!(
            summary.mean < analytic,
            "simulated mean {} must sit below {analytic}",
            summary.mean
        );
        assert!(
            summary.mean > 0.9 * analytic,
            "simulated mean {} should be within 10% of {analytic}",
            summary.mean
        );
        assert!(!summary.covers(analytic * 1.2));
    }

    #[test]
    fn zero_lwp_work_is_all_hwp_regardless_of_options() {
        let config = small_config();
        let result = run_phased(
            config,
            WorkPartition::new(config.total_ops, 0.0),
            8,
            PhasedOptions {
                rounds: 4,
                balance: ThreadBalance::Skewed { skew: 0.9 },
            },
            1,
        );
        assert!(result.lwp_ns < 1e-9);
        assert!((result.makespan_ns - result.hwp_ns).abs() < 1e-9);
        assert_eq!(result.idle_fraction(), 0.0);
    }
}
