//! Interconnection-network latency models.
//!
//! The paper treats system-wide latency as "flat (fixed delay) for this study". That is
//! [`Network::Flat`], whose one-way latency is the configuration's
//! [`ParcelConfig::latency_cycles`]. To explore how sensitive the conclusions are to
//! that simplification (the `ablation_network` scenario; see ARCHITECTURE.md), hop-count
//! models of a 2-D mesh and a 2-D torus are also provided: latency = base + hops ×
//! per-hop cost, with nodes laid out on a near-square [`Grid`].

use crate::config::ParcelConfig;

/// The network a parcel system's remote accesses cross.
#[derive(Debug, Clone, Copy)]
pub enum Network {
    /// The paper's flat, fixed-delay network: every remote access takes
    /// [`ParcelConfig::latency_cycles`] each way, whatever its endpoints.
    Flat,
    /// A 2-D mesh with dimension-ordered routing.
    Mesh(Grid),
    /// A 2-D torus: a mesh with wraparound links.
    Torus(Grid),
}

/// The layout and per-message costs of a mesh or torus.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    /// Router/NIC overhead per message in cycles.
    base_cycles: f64,
    /// Cycles per hop.
    per_hop_cycles: f64,
    /// Grid width (columns).
    width: usize,
    /// Grid height (rows).
    height: usize,
}

impl Grid {
    /// Lay `nodes` out on the most-square grid possible.
    fn for_nodes(nodes: usize, base_cycles: f64, per_hop_cycles: f64) -> Self {
        assert!(nodes > 0, "a grid network needs at least one node");
        let mut width = (nodes as f64).sqrt().floor() as usize;
        while width > 1 && !nodes.is_multiple_of(width) {
            width -= 1;
        }
        let width = width.max(1);
        Grid {
            base_cycles,
            per_hop_cycles,
            width,
            height: nodes / width,
        }
    }

    /// Hops between two nodes, along each axis the short way round when `wrap`.
    fn hops(&self, src: usize, dst: usize, wrap: bool) -> f64 {
        let axis = |a: usize, b: usize, len: usize| {
            let d = a.abs_diff(b);
            if wrap {
                d.min(len - d)
            } else {
                d
            }
        };
        let x = axis(src % self.width, dst % self.width, self.width);
        let y = axis(src / self.width, dst / self.width, self.height);
        (x + y) as f64
    }
}

impl Network {
    /// A near-square mesh of `nodes` nodes.
    pub fn mesh(nodes: usize, base_cycles: f64, per_hop_cycles: f64) -> Self {
        Network::Mesh(Grid::for_nodes(nodes, base_cycles, per_hop_cycles))
    }

    /// A near-square torus of `nodes` nodes.
    pub fn torus(nodes: usize, base_cycles: f64, per_hop_cycles: f64) -> Self {
        Network::Torus(Grid::for_nodes(nodes, base_cycles, per_hop_cycles))
    }

    /// One-way latency in cycles from `src` to `dst` under `config`: zero to
    /// itself, the configured latency on the flat network, base + hops × per-hop
    /// cost on a grid.
    pub fn latency_cycles(&self, config: &ParcelConfig, src: usize, dst: usize) -> f64 {
        if src == dst {
            return 0.0;
        }
        match self {
            Network::Flat => config.latency_cycles,
            Network::Mesh(grid) => {
                grid.base_cycles + grid.hops(src, dst, false) * grid.per_hop_cycles
            }
            Network::Torus(grid) => {
                grid.base_cycles + grid.hops(src, dst, true) * grid.per_hop_cycles
            }
        }
    }

    /// Mean one-way latency over all ordered pairs of distinct nodes of `config`.
    pub fn mean_latency_cycles(&self, config: &ParcelConfig) -> f64 {
        let nodes = config.nodes;
        if nodes < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        for s in 0..nodes {
            for d in (0..nodes).filter(|&d| d != s) {
                total += self.latency_cycles(config, s, d);
            }
        }
        total / (nodes * (nodes - 1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(nodes: usize, latency_cycles: f64) -> ParcelConfig {
        ParcelConfig {
            nodes,
            latency_cycles,
            ..Default::default()
        }
    }

    #[test]
    fn flat_latency_is_uniform_and_zero_to_self() {
        let c = config(16, 500.0);
        assert_eq!(Network::Flat.latency_cycles(&c, 0, 0), 0.0);
        assert_eq!(Network::Flat.latency_cycles(&c, 0, 7), 500.0);
        assert_eq!(Network::Flat.latency_cycles(&c, 7, 0), 500.0);
        assert!((Network::Flat.mean_latency_cycles(&c) - 500.0).abs() < 1e-12);
    }

    #[test]
    fn grid_dimensions_are_near_square() {
        let dims = |nodes| {
            let g = Grid::for_nodes(nodes, 0.0, 1.0);
            (g.width, g.height)
        };
        assert_eq!(dims(16), (4, 4));
        assert_eq!(dims(64), (8, 8));
        assert_eq!(dims(12), (3, 4));
        assert_eq!(dims(1), (1, 1));
        assert_eq!(dims(7), (1, 7));
    }

    #[test]
    fn mesh_latency_grows_with_distance() {
        let c = config(16, 700.0);
        let m = Network::mesh(16, 10.0, 5.0);
        // Node 0 is (0,0); node 3 is (3,0); node 15 is (3,3).
        assert_eq!(m.latency_cycles(&c, 0, 0), 0.0);
        assert!((m.latency_cycles(&c, 0, 3) - (10.0 + 3.0 * 5.0)).abs() < 1e-12);
        assert!((m.latency_cycles(&c, 0, 15) - (10.0 + 6.0 * 5.0)).abs() < 1e-12);
        assert_eq!(m.latency_cycles(&c, 0, 15), m.latency_cycles(&c, 15, 0));
    }

    #[test]
    fn torus_wraparound_shortens_edges() {
        let c = config(16, 0.0);
        let mesh = Network::mesh(16, 0.0, 1.0);
        let torus = Network::torus(16, 0.0, 1.0);
        // Corner to corner: 6 hops on the mesh, 2 on the torus.
        assert_eq!(mesh.latency_cycles(&c, 0, 15), 6.0);
        assert_eq!(torus.latency_cycles(&c, 0, 15), 2.0);
        // And the torus never has a longer path than the mesh.
        for s in 0..16 {
            for d in 0..16 {
                assert!(torus.latency_cycles(&c, s, d) <= mesh.latency_cycles(&c, s, d) + 1e-12);
            }
        }
    }

    #[test]
    fn mean_latency_orders_flat_torus_mesh_consistently() {
        let c = config(64, 8.0);
        let mesh = Network::mesh(64, 0.0, 1.0);
        let torus = Network::torus(64, 0.0, 1.0);
        assert!(torus.mean_latency_cycles(&c) < mesh.mean_latency_cycles(&c));
        assert!((Network::Flat.mean_latency_cycles(&c) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn single_node_mean_latency_is_zero() {
        assert_eq!(Network::Flat.mean_latency_cycles(&config(1, 5.0)), 0.0);
    }
}
