//! Outcome records shared by the control and test systems.
//!
//! The paper's dependent variables are the total work completed within a fixed
//! simulated time (useful operations plus local memory accesses) and the idle time of
//! the processors. [`SystemOutcome`] aggregates those per-node numbers.

use serde::{Deserialize, Serialize};

/// Per-node accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeOutcome {
    /// Useful operations plus local memory accesses completed.
    pub work_ops: u64,
    /// Cycles spent busy (working or handling parcels/messages).
    pub busy_cycles: f64,
    /// Cycles spent idle (blocked on a reply, or with no active parcel to service).
    pub idle_cycles: f64,
    /// Remote accesses issued.
    pub remote_accesses: u64,
}

/// A job still running when the horizon cut the run off.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpenJob {
    /// Cycle at which the job started.
    pub started_cycles: f64,
    /// Full duration of the job in cycles.
    pub duration_cycles: f64,
    /// Operations the job completes if it runs to the end.
    pub ops: u64,
}

impl NodeOutcome {
    /// Close a node's books at the horizon, pro-rating the job cut off by it (if
    /// any). Every parcel model — the discrete-event systems and the per-node
    /// kernel — ends its run through this one function.
    pub(crate) fn at_horizon(
        horizon: f64,
        work_ops: u64,
        busy_cycles: f64,
        remote_accesses: u64,
        open: Option<OpenJob>,
    ) -> Self {
        let mut work = work_ops;
        let mut busy = busy_cycles;
        if let Some(job) = open {
            let elapsed = (horizon - job.started_cycles)
                .max(0.0)
                .min(job.duration_cycles);
            busy += elapsed;
            if job.duration_cycles > 0.0 {
                work += (job.ops as f64 * elapsed / job.duration_cycles).floor() as u64;
            }
        }
        NodeOutcome {
            work_ops: work,
            busy_cycles: busy.min(horizon),
            idle_cycles: (horizon - busy).max(0.0),
            remote_accesses,
        }
    }
}

/// Whole-system accounting for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemOutcome {
    /// Simulated horizon in cycles.
    pub horizon_cycles: f64,
    /// Per-node detail.
    pub nodes: Vec<NodeOutcome>,
    /// Total work across nodes.
    pub total_work_ops: u64,
    /// Total remote accesses across nodes.
    pub total_remote_accesses: u64,
}

impl SystemOutcome {
    /// Aggregate per-node records.
    pub(crate) fn from_nodes(horizon_cycles: f64, nodes: Vec<NodeOutcome>) -> Self {
        let total_work_ops = nodes.iter().map(|n| n.work_ops).sum();
        let total_remote_accesses = nodes.iter().map(|n| n.remote_accesses).sum();
        SystemOutcome {
            horizon_cycles,
            nodes,
            total_work_ops,
            total_remote_accesses,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Mean busy fraction across nodes.
    pub fn busy_fraction(&self) -> f64 {
        if self.nodes.is_empty() || self.horizon_cycles <= 0.0 {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.busy_cycles).sum::<f64>()
            / (self.horizon_cycles * self.nodes.len() as f64)
    }

    /// Mean idle fraction across nodes (1 − busy fraction).
    pub fn idle_fraction(&self) -> f64 {
        if self.nodes.is_empty() || self.horizon_cycles <= 0.0 {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.idle_cycles).sum::<f64>()
            / (self.horizon_cycles * self.nodes.len() as f64)
    }

    /// Total idle cycles across nodes (the raw quantity plotted in Figure 12).
    pub(crate) fn total_idle_cycles(&self) -> f64 {
        self.nodes.iter().map(|n| n.idle_cycles).sum()
    }

    /// Work completed per node per cycle (a throughput measure).
    #[cfg(test)]
    pub(crate) fn work_rate(&self) -> f64 {
        if self.nodes.is_empty() || self.horizon_cycles <= 0.0 {
            return 0.0;
        }
        self.total_work_ops as f64 / (self.horizon_cycles * self.nodes.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(work: u64, busy: f64, idle: f64) -> NodeOutcome {
        NodeOutcome {
            work_ops: work,
            busy_cycles: busy,
            idle_cycles: idle,
            remote_accesses: 2,
        }
    }

    #[test]
    fn aggregation_sums_nodes() {
        let o = SystemOutcome::from_nodes(100.0, vec![node(10, 60.0, 40.0), node(30, 80.0, 20.0)]);
        assert_eq!(o.total_work_ops, 40);
        assert_eq!(o.total_remote_accesses, 4);
        assert_eq!(o.node_count(), 2);
        assert!((o.busy_fraction() - 0.7).abs() < 1e-12);
        assert!((o.idle_fraction() - 0.3).abs() < 1e-12);
        assert!((o.total_idle_cycles() - 60.0).abs() < 1e-12);
        assert!((o.work_rate() - 40.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn empty_outcome_is_zero() {
        let o = SystemOutcome::from_nodes(100.0, vec![]);
        assert_eq!(o.total_work_ops, 0);
        assert_eq!(o.busy_fraction(), 0.0);
        assert_eq!(o.idle_fraction(), 0.0);
        assert_eq!(o.work_rate(), 0.0);
    }
}
