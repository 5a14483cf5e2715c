//! Interconnection-network latency models.
//!
//! The paper treats system-wide latency as "flat (fixed delay) for this study". That is
//! [`FlatLatency`]. To explore how sensitive the conclusions are to that simplification
//! (the `ablation_network` scenario; see ARCHITECTURE.md), hop-count models of a 2-D mesh and a 2-D torus are also
//! provided: latency = base + hops × per-hop cost, with nodes laid out on a near-square
//! grid.

use serde::{Deserialize, Serialize};

/// A network model maps a (source, destination) node pair to a one-way latency in cycles.
pub trait NetworkModel {
    /// One-way latency from `src` to `dst` in cycles.
    fn latency_cycles(&self, src: usize, dst: usize) -> f64;

    /// Average one-way latency over all ordered pairs of distinct nodes.
    fn mean_latency_cycles(&self, nodes: usize) -> f64 {
        if nodes < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut count = 0u64;
        for s in 0..nodes {
            for d in 0..nodes {
                if s != d {
                    total += self.latency_cycles(s, d);
                    count += 1;
                }
            }
        }
        total / count as f64
    }

    /// The one-way latency between *every* pair of distinct nodes, when it does not
    /// depend on the endpoints (`None` otherwise). A flat network cannot couple
    /// nodes through the destination a remote access picks, which is what lets the
    /// parcel models run each node on its own (see
    /// [`crate::test_system::run_test_with_options`]).
    fn flat_cycles(&self) -> Option<f64> {
        None
    }
}

/// The paper's flat, fixed-delay network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlatLatency {
    /// One-way latency in cycles, independent of the endpoints.
    pub cycles: f64,
}

impl FlatLatency {
    /// Create a flat-latency network.
    pub fn new(cycles: f64) -> Self {
        assert!(cycles >= 0.0, "latency cannot be negative");
        FlatLatency { cycles }
    }
}

impl NetworkModel for FlatLatency {
    fn latency_cycles(&self, src: usize, dst: usize) -> f64 {
        if src == dst {
            0.0
        } else {
            self.cycles
        }
    }

    fn flat_cycles(&self) -> Option<f64> {
        Some(self.cycles)
    }
}

/// Helper: lay `nodes` out on the most-square grid possible.
fn grid_dims(nodes: usize) -> (usize, usize) {
    let mut w = (nodes as f64).sqrt().floor() as usize;
    while w > 1 && !nodes.is_multiple_of(w) {
        w -= 1;
    }
    let w = w.max(1);
    (w, nodes / w)
}

/// A 2-D mesh with dimension-ordered routing: latency = base + hops × per_hop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeshNetwork {
    /// Router/NIC overhead per message in cycles.
    pub base_cycles: f64,
    /// Cycles per hop.
    pub per_hop_cycles: f64,
    /// Grid width (columns).
    pub width: usize,
    /// Grid height (rows).
    pub height: usize,
}

impl MeshNetwork {
    /// Build a near-square mesh for `nodes` nodes.
    pub fn for_nodes(nodes: usize, base_cycles: f64, per_hop_cycles: f64) -> Self {
        assert!(nodes > 0, "mesh needs at least one node");
        let (width, height) = grid_dims(nodes);
        MeshNetwork {
            base_cycles,
            per_hop_cycles,
            width,
            height,
        }
    }

    fn coords(&self, node: usize) -> (isize, isize) {
        ((node % self.width) as isize, (node / self.width) as isize)
    }

    fn hops(&self, src: usize, dst: usize) -> f64 {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        ((sx - dx).abs() + (sy - dy).abs()) as f64
    }
}

impl NetworkModel for MeshNetwork {
    fn latency_cycles(&self, src: usize, dst: usize) -> f64 {
        if src == dst {
            return 0.0;
        }
        self.base_cycles + self.hops(src, dst) * self.per_hop_cycles
    }
}

/// A 2-D torus (mesh with wraparound links).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TorusNetwork {
    /// Router/NIC overhead per message in cycles.
    pub base_cycles: f64,
    /// Cycles per hop.
    pub per_hop_cycles: f64,
    /// Grid width (columns).
    pub width: usize,
    /// Grid height (rows).
    pub height: usize,
}

impl TorusNetwork {
    /// Build a near-square torus for `nodes` nodes.
    pub fn for_nodes(nodes: usize, base_cycles: f64, per_hop_cycles: f64) -> Self {
        assert!(nodes > 0, "torus needs at least one node");
        let (width, height) = grid_dims(nodes);
        TorusNetwork {
            base_cycles,
            per_hop_cycles,
            width,
            height,
        }
    }

    fn hops(&self, src: usize, dst: usize) -> f64 {
        let (sx, sy) = ((src % self.width) as isize, (src / self.width) as isize);
        let (dx, dy) = ((dst % self.width) as isize, (dst / self.width) as isize);
        let w = self.width as isize;
        let h = self.height as isize;
        let xd = (sx - dx).abs().min(w - (sx - dx).abs());
        let yd = (sy - dy).abs().min(h - (sy - dy).abs());
        (xd + yd) as f64
    }
}

impl NetworkModel for TorusNetwork {
    fn latency_cycles(&self, src: usize, dst: usize) -> f64 {
        if src == dst {
            return 0.0;
        }
        self.base_cycles + self.hops(src, dst) * self.per_hop_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_latency_is_uniform_and_zero_to_self() {
        let n = FlatLatency::new(500.0);
        assert_eq!(n.latency_cycles(0, 0), 0.0);
        assert_eq!(n.latency_cycles(0, 7), 500.0);
        assert_eq!(n.latency_cycles(7, 0), 500.0);
        assert!((n.mean_latency_cycles(16) - 500.0).abs() < 1e-12);
    }

    #[test]
    fn grid_dimensions_are_near_square() {
        assert_eq!(grid_dims(16), (4, 4));
        assert_eq!(grid_dims(64), (8, 8));
        assert_eq!(grid_dims(12), (3, 4));
        assert_eq!(grid_dims(1), (1, 1));
        assert_eq!(grid_dims(7), (1, 7));
    }

    #[test]
    fn mesh_latency_grows_with_distance() {
        let m = MeshNetwork::for_nodes(16, 10.0, 5.0);
        // Node 0 is (0,0); node 3 is (3,0); node 15 is (3,3).
        assert_eq!(m.latency_cycles(0, 0), 0.0);
        assert!((m.latency_cycles(0, 3) - (10.0 + 3.0 * 5.0)).abs() < 1e-12);
        assert!((m.latency_cycles(0, 15) - (10.0 + 6.0 * 5.0)).abs() < 1e-12);
        assert_eq!(m.latency_cycles(0, 15), m.latency_cycles(15, 0));
    }

    #[test]
    fn torus_wraparound_shortens_edges() {
        let mesh = MeshNetwork::for_nodes(16, 0.0, 1.0);
        let torus = TorusNetwork::for_nodes(16, 0.0, 1.0);
        // Corner to corner: 6 hops on the mesh, 2 on the torus.
        assert_eq!(mesh.latency_cycles(0, 15), 6.0);
        assert_eq!(torus.latency_cycles(0, 15), 2.0);
        // And the torus never has a longer path than the mesh.
        for s in 0..16 {
            for d in 0..16 {
                assert!(torus.latency_cycles(s, d) <= mesh.latency_cycles(s, d) + 1e-12);
            }
        }
    }

    #[test]
    fn mean_latency_orders_flat_torus_mesh_consistently() {
        let nodes = 64;
        let flat = FlatLatency::new(8.0);
        let mesh = MeshNetwork::for_nodes(nodes, 0.0, 1.0);
        let torus = TorusNetwork::for_nodes(nodes, 0.0, 1.0);
        assert!(torus.mean_latency_cycles(nodes) < mesh.mean_latency_cycles(nodes));
        assert!((flat.mean_latency_cycles(nodes) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn only_the_flat_network_reports_a_flat_latency() {
        assert_eq!(FlatLatency::new(250.0).flat_cycles(), Some(250.0));
        assert_eq!(MeshNetwork::for_nodes(16, 5.0, 2.0).flat_cycles(), None);
        assert_eq!(TorusNetwork::for_nodes(16, 5.0, 2.0).flat_cycles(), None);
    }

    #[test]
    fn single_node_mean_latency_is_zero() {
        assert_eq!(FlatLatency::new(5.0).mean_latency_cycles(1), 0.0);
    }
}
