//! Property test of `CALL algo.bfs` against the queue BFS of
//! `baseline::algorithms`, on random RMAT (Graph500-shaped) graphs from
//! `datagen`, whose hubs make the direction-optimising BFS take pull steps.
//!
//! Half the edges are bulk-loaded as `:LINK`; the rest are added one at a
//! time with the flush threshold out of reach, so they stay pending in the
//! delta buffers, every other one under a second type `:ALT` (a pair may
//! then be stored under both types). The procedure reads the union of every
//! type, folded and pending; the oracle reads the plain edge list.

use proptest::prelude::*;
use proptest::strategy::StrategyExt;
use redisgraph_core::{Graph, Value};

/// A random small RMAT graph: vertex count plus its raw edge list,
/// self-loops and repeats included.
fn rmat_graph() -> impl Strategy<Value = (u64, Vec<(u64, u64)>)> {
    ((4u32..7), (1u32..7), any::<u64>()).prop_map(|(scale, edge_factor, seed)| {
        let el = datagen::rmat::generate(&datagen::RmatConfig {
            scale,
            edge_factor,
            seed,
            ..datagen::RmatConfig::default()
        });
        (el.num_vertices, el.edges)
    })
}

proptest! {
    #[test]
    fn bfs_levels_match_queue_bfs(graph in rmat_graph(), source_pick in any::<u64>()) {
        let (n, edges) = graph;
        let (folded, pending) = edges.split_at(edges.len() / 2);
        let mut g = Graph::new("bfs-proptest");
        g.bulk_load(n, folded);
        g.set_flush_threshold(usize::MAX);
        for (k, &(s, d)) in pending.iter().enumerate() {
            g.add_edge(s, d, if k % 2 == 0 { "LINK" } else { "ALT" }, vec![]).expect("live endpoints");
        }

        let source = source_pick % n;
        let naive = baseline::algorithms::bfs_levels(n, &edges, source);
        let query = format!("CALL algo.bfs({source}) YIELD node, level RETURN node, level");
        let rs = g.query_readonly(&query).expect("algo.bfs runs");
        let mut got = vec![-1; n as usize];
        for row in &rs.rows {
            let [Value::Node(node), level] = row else { panic!("row {row:?}") };
            prop_assert_eq!(got[*node as usize], -1, "vertex {} listed twice", node);
            got[*node as usize] = level.as_i64().expect("an integer level");
        }
        prop_assert_eq!(got, naive);
    }
}
