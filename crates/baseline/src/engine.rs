//! A conventional adjacency-list graph engine (the "other graph databases"
//! architecture in the paper's comparison).
//!
//! Nodes keep an explicit `Vec` out-neighbour list and a property map;
//! traversal is pointer chasing over those lists, and k-hop neighbourhood
//! counting is a queue-based BFS with a visited bitmap. Unlike the RedisGraph
//! core there is no sparse-matrix representation and no linear algebra — this
//! is exactly the design the paper positions RedisGraph against.

use std::collections::HashMap;
use std::collections::VecDeque;

/// A property value stored on nodes of the baseline engine.
pub type PropValue = i64;

/// One node record: out-neighbour list plus properties.
#[derive(Debug, Clone, Default)]
struct NodeRecord {
    out_edges: Vec<u64>,
    properties: HashMap<String, PropValue>,
}

/// An adjacency-list, pointer-chasing property graph.
#[derive(Debug, Clone, Default)]
pub struct AdjacencyListGraph {
    nodes: Vec<NodeRecord>,
    edge_count: usize,
}

impl AdjacencyListGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a graph from a generated edge list (same interchange format the
    /// RedisGraph core loads, so both engines see identical graphs).
    /// Duplicate edges and self-loops are dropped.
    pub fn from_edge_list(num_vertices: u64, edges: &[(u64, u64)]) -> Self {
        let mut g = AdjacencyListGraph {
            nodes: vec![NodeRecord::default(); num_vertices as usize],
            edge_count: 0,
        };
        let mut dedup: Vec<(u64, u64)> = edges
            .iter()
            .copied()
            .filter(|&(s, d)| s != d && s < num_vertices && d < num_vertices)
            .collect();
        dedup.sort_unstable();
        dedup.dedup();
        for (s, d) in dedup {
            g.nodes[s as usize].out_edges.push(d);
            g.edge_count += 1;
        }
        for (id, node) in g.nodes.iter_mut().enumerate() {
            node.properties.insert("id".to_string(), id as i64);
        }
        g
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (deduplicated) edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self) -> u64 {
        self.nodes.push(NodeRecord::default());
        (self.nodes.len() - 1) as u64
    }

    /// Add a directed edge between existing nodes.
    pub fn add_edge(&mut self, src: u64, dst: u64) {
        self.nodes[src as usize].out_edges.push(dst);
        self.edge_count += 1;
    }

    /// Read a node property.
    pub fn property(&self, node: u64, key: &str) -> Option<PropValue> {
        self.nodes.get(node as usize)?.properties.get(key).copied()
    }

    /// Out-neighbours of a node.
    pub fn out_neighbors(&self, node: u64) -> &[u64] {
        &self.nodes[node as usize].out_edges
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, node: u64) -> usize {
        self.nodes[node as usize].out_edges.len()
    }

    /// Count the distinct vertices reachable from `source` within `k` hops
    /// following outgoing edges — the TigerGraph k-hop benchmark query,
    /// implemented the way a traversal engine implements it: queue-based BFS
    /// with a visited bitmap, dereferencing per-node adjacency lists.
    pub fn khop_count(&self, source: u64, k: u32) -> u64 {
        if (source as usize) >= self.nodes.len() {
            return 0;
        }
        let mut visited = vec![false; self.nodes.len()];
        visited[source as usize] = true;
        let mut queue: VecDeque<(u64, u32)> = VecDeque::new();
        queue.push_back((source, 0));
        let mut reached = 0u64;
        while let Some((node, depth)) = queue.pop_front() {
            if depth == k {
                continue;
            }
            for &next in &self.nodes[node as usize].out_edges {
                if !visited[next as usize] {
                    visited[next as usize] = true;
                    reached += 1;
                    queue.push_back((next, depth + 1));
                }
            }
        }
        reached
    }

    /// The full set of vertices reachable within `k` hops (used by tests to
    /// cross-check against the matrix engine).
    pub fn khop_set(&self, source: u64, k: u32) -> Vec<u64> {
        let mut visited = vec![false; self.nodes.len()];
        visited[source as usize] = true;
        let mut queue: VecDeque<(u64, u32)> = VecDeque::new();
        queue.push_back((source, 0));
        let mut out = Vec::new();
        while let Some((node, depth)) = queue.pop_front() {
            if depth == k {
                continue;
            }
            for &next in &self.nodes[node as usize].out_edges {
                if !visited[next as usize] {
                    visited[next as usize] = true;
                    out.push(next);
                    queue.push_back((next, depth + 1));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> AdjacencyListGraph {
        // 0→1, 0→2, 1→3, 2→3, 3→4
        AdjacencyListGraph::from_edge_list(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    }

    #[test]
    fn builds_from_edge_list_with_dedup() {
        let g = AdjacencyListGraph::from_edge_list(3, &[(0, 1), (0, 1), (1, 1), (1, 2)]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_neighbors(0), &[1]);
    }

    #[test]
    fn khop_counts_match_hand_computation() {
        let g = diamond();
        assert_eq!(g.khop_count(0, 1), 2); // {1,2}
        assert_eq!(g.khop_count(0, 2), 3); // {1,2,3}
        assert_eq!(g.khop_count(0, 3), 4); // {1,2,3,4}
        assert_eq!(g.khop_count(0, 6), 4);
        assert_eq!(g.khop_count(4, 3), 0);
        assert_eq!(g.khop_count(99, 1), 0);
    }

    #[test]
    fn khop_set_is_sorted_and_distinct() {
        let g = diamond();
        assert_eq!(g.khop_set(0, 2), vec![1, 2, 3]);
    }

    #[test]
    fn properties_and_lookup() {
        let g = diamond();
        assert_eq!(g.property(3, "id"), Some(3));
        assert_eq!(g.property(3, "weight"), None);
        assert_eq!(g.property(99, "id"), None);
    }

    #[test]
    fn incremental_construction() {
        let mut g = AdjacencyListGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.khop_count(a, 1), 1);
    }
}
