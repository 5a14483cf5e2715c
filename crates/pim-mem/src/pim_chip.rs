//! A PIM chip: many memory banks, each fronted by a lightweight processor.
//!
//! Section 2.1: "The memory capacity on a single PIM chip may be partitioned into many
//! separate memory banks, each with its own arithmetic and control logic. Each such
//! bank, or node, is capable of independent and concurrent action thereby enabling an
//! on-chip peak memory bandwidth proportional to the number of such nodes. Using
//! current technology, an on-chip peak memory bandwidth of greater than 1 Tbit/s is
//! possible per chip."

use crate::dram::{DramMacro, Interleave};
use crate::timing::{DramTiming, ProcessorTiming};
use serde::{Deserialize, Serialize};

/// One PIM node: a DRAM macro plus the lightweight processor attached to its row buffer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PimNode {
    /// Node index within its chip.
    pub id: usize,
    /// The node's local memory.
    pub memory: DramMacro,
    /// The lightweight processor's timing parameters.
    pub processor: ProcessorTiming,
}

impl PimNode {
    /// Perform a local page access; returns latency in ns.
    pub(crate) fn access_local(&mut self, addr: u64) -> f64 {
        self.memory.access(addr).1
    }

    /// The node's nominal local memory latency in ns as seen by the paper's queuing
    /// model (TML × TLcycle), independent of row-buffer state.
    #[cfg(test)]
    fn nominal_local_latency_ns(&self) -> f64 {
        self.processor.memory_access_ns()
    }
}

/// A PIM chip: `nodes` independent (bank + lightweight processor) pairs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PimChip {
    nodes: Vec<PimNode>,
    timing: DramTiming,
}

impl PimChip {
    /// Build a chip with `nodes` nodes, each owning `rows_per_node` DRAM rows.
    pub fn new(
        nodes: usize,
        rows_per_node: u64,
        timing: DramTiming,
        processor: ProcessorTiming,
    ) -> Self {
        assert!(nodes > 0, "a PIM chip needs at least one node");
        PimChip {
            nodes: (0..nodes)
                .map(|id| PimNode {
                    id,
                    memory: DramMacro::new(timing, 1, rows_per_node, Interleave::Blocked),
                    processor,
                })
                .collect(),
            timing,
        }
    }

    /// A chip with the paper's default timing and the given node count.
    pub fn with_nodes(nodes: usize) -> Self {
        PimChip::new(
            nodes,
            8192,
            DramTiming::default(),
            ProcessorTiming::lightweight(),
        )
    }

    /// Total chip capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.memory.capacity_bytes()).sum()
    }

    /// Peak on-chip memory bandwidth with all nodes streaming concurrently, in Gbit/s.
    pub fn peak_bandwidth_gbit_per_s(&self) -> f64 {
        self.timing.peak_bandwidth_gbit_per_s() * self.nodes.len() as f64
    }

    /// Peak on-chip memory bandwidth in Tbit/s.
    pub fn peak_bandwidth_tbit_per_s(&self) -> f64 {
        self.peak_bandwidth_gbit_per_s() / 1e3
    }

    /// The node that owns byte address `addr` under a blocked (node-major) map.
    fn node_of(&self, addr: u64) -> usize {
        let per_node = (self.capacity_bytes() / self.nodes.len() as u64).max(1);
        ((addr / per_node) as usize).min(self.nodes.len() - 1)
    }

    /// Access memory at `addr` from its owning node; returns `(node, latency ns)`.
    pub fn access(&mut self, addr: u64) -> (usize, f64) {
        let per_node = (self.capacity_bytes() / self.nodes.len() as u64).max(1);
        let node = self.node_of(addr);
        let local = addr % per_node;
        (node, self.nodes[node].access_local(local))
    }

    /// Immutable access to a node.
    pub fn node(&self, i: usize) -> &PimNode {
        &self.nodes[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_bandwidth_scales_with_nodes() {
        let c8 = PimChip::with_nodes(8);
        let c16 = PimChip::with_nodes(16);
        assert!(
            (c16.peak_bandwidth_gbit_per_s() - 2.0 * c8.peak_bandwidth_gbit_per_s()).abs() < 1e-9
        );
    }

    #[test]
    fn terabit_claim_with_enough_nodes() {
        // Paper §2.1: > 1 Tbit/s per chip is possible with current (2004) technology.
        // With ~57 Gbit/s per node, 32 nodes exceed 1 Tbit/s.
        let chip = PimChip::with_nodes(32);
        assert!(
            chip.peak_bandwidth_tbit_per_s() > 1.0,
            "32-node chip peak {} Tbit/s should exceed 1 Tbit/s",
            chip.peak_bandwidth_tbit_per_s()
        );
        // A very small chip does not reach it.
        assert!(PimChip::with_nodes(4).peak_bandwidth_tbit_per_s() < 1.0);
    }

    #[test]
    fn node_address_partitioning() {
        let chip = PimChip::with_nodes(4);
        let per_node = chip.capacity_bytes() / 4;
        assert_eq!(chip.node_of(0), 0);
        assert_eq!(chip.node_of(per_node - 1), 0);
        assert_eq!(chip.node_of(per_node), 1);
        assert_eq!(chip.node_of(chip.capacity_bytes() - 1), 3);
    }

    #[test]
    fn access_goes_to_owning_node() {
        let mut chip = PimChip::with_nodes(2);
        let per_node = chip.capacity_bytes() / 2;
        let (n0, l0) = chip.access(0);
        let (n1, _) = chip.access(per_node + 64);
        assert_eq!(n0, 0);
        assert_eq!(n1, 1);
        assert!(l0 > 0.0);
        assert_eq!(chip.node(0).memory.accesses(), 1);
        assert_eq!(chip.node(1).memory.accesses(), 1);
    }

    #[test]
    fn nominal_latency_matches_table1() {
        let chip = PimChip::with_nodes(1);
        // TML = 30 LWP cycles at 5 ns = 150 ns.
        assert!((chip.node(0).nominal_local_latency_ns() - 150.0).abs() < 1e-12);
    }
}
