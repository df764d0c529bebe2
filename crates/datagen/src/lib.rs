//! # datagen
//!
//! Synthetic graph generators and benchmark workloads standing in for the
//! datasets of the RedisGraph paper's evaluation:
//!
//! * [`rmat`] — the Graph500 RMAT/Kronecker generator (the paper's "Graph500"
//!   dataset, 2.4 M vertices / 67 M edges at scale 21–22) with the official
//!   probabilities A=0.57, B=0.19, C=0.19, D=0.05.
//! * [`powerlaw`] — a preferential-attachment generator producing the
//!   heavy-tailed in-degree distribution of the paper's "Twitter" dataset
//!   (41.6 M vertices / 1.47 B edges), at a configurable, smaller scale.
//! * [`workload`] — the TigerGraph k-hop neighbourhood-count benchmark driver:
//!   seed selection (300 seeds for k = 1, 2; 10 seeds for k = 3, 6) and the
//!   per-dataset query mix.
//!
//! The generators emit plain edge lists (`Vec<(u64, u64)>`) so every engine in
//! this workspace (GraphBLAS-backed RedisGraph core, the adjacency-list
//! baseline) loads identical graphs.

pub mod powerlaw;
pub mod rmat;
pub mod workload;

pub use powerlaw::{twitter_like, PowerLawConfig};
pub use rmat::{graph500, RmatConfig};
pub use workload::{
    KhopWorkload, SeedSelection, TIGERGRAPH_SEEDS_LARGE_K, TIGERGRAPH_SEEDS_SMALL_K,
};

/// An edge list together with its vertex count — the interchange format
/// between generators and the engines under test.
#[derive(Debug, Clone)]
pub struct EdgeList {
    /// Number of vertices (vertex ids are `0..num_vertices`).
    pub num_vertices: u64,
    /// Directed edges `(source, destination)`. May contain duplicates and
    /// self-loops, exactly like the raw Graph500 generator output; engines
    /// decide how to handle them (RedisGraph keeps one matrix entry per pair).
    pub edges: Vec<(u64, u64)>,
}

impl EdgeList {
    /// Number of (possibly duplicate) generated edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Out-degree of every vertex (counting duplicate edges once).
    pub fn out_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.num_vertices as usize];
        let mut e = self.edges.clone();
        e.sort_unstable();
        e.dedup();
        for (s, _) in e {
            deg[s as usize] += 1;
        }
        deg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_degrees_counts_unique_neighbours() {
        let el = EdgeList { num_vertices: 3, edges: vec![(0, 1), (0, 1), (0, 2), (2, 0)] };
        assert_eq!(el.out_degrees(), vec![2, 0, 1]);
    }
}
