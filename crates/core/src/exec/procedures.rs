//! The `CALL algo.*` procedure registry: whole-graph algorithms from
//! `crates/algo` exposed as row-streaming procedures that plug into the
//! normal record pipeline (composable with `WHERE` / `ORDER BY` / `LIMIT`).
//!
//! Every procedure reads the stored relation matrices in place, as `MATCH`
//! traversals do (`algo.bfs` is their own bitmap BFS), so analytics and
//! queries share one representation and one way to read it, which is the
//! paper's core argument.

use crate::error::QueryError;
use crate::exec::record::RecordBatch;
use crate::store::graph::Graph;
use crate::value::Value;
use crate::NodeId;

/// The shape of a procedure implementation: evaluated arguments in, result
/// rows out (one record per row, one slot per yield column).
pub type ProcedureFn = fn(&Graph, &[Value]) -> Result<RecordBatch, QueryError>;

/// A registered procedure: fixed name, output columns, arity bounds, and the
/// function that produces its rows.
#[derive(Debug)]
pub struct Procedure {
    /// Canonical dotted name (`algo.pagerank`); matched case-insensitively.
    pub name: &'static str,
    /// Output column names, in row order.
    pub yields: &'static [&'static str],
    /// Minimum number of arguments.
    pub min_args: usize,
    /// Maximum number of arguments.
    pub max_args: usize,
    /// Produce the result rows for the given evaluated arguments.
    pub run: ProcedureFn,
}

/// All registered procedures.
pub static PROCEDURES: &[Procedure] = &[
    Procedure {
        name: "algo.bfs",
        yields: &["node", "level"],
        min_args: 1,
        max_args: 1,
        run: proc_bfs,
    },
    Procedure {
        name: "algo.sssp",
        yields: &["node", "distance"],
        min_args: 1,
        max_args: 2,
        run: proc_sssp,
    },
    Procedure {
        name: "algo.pagerank",
        yields: &["node", "score"],
        min_args: 0,
        max_args: 2,
        run: proc_pagerank,
    },
    Procedure {
        name: "algo.wcc",
        yields: &["node", "component"],
        min_args: 0,
        max_args: 0,
        run: proc_wcc,
    },
    Procedure {
        name: "algo.triangles",
        yields: &["triangles"],
        min_args: 0,
        max_args: 0,
        run: proc_triangles,
    },
];

/// Look up a procedure by (case-insensitive) dotted name.
pub fn find(name: &str) -> Option<&'static Procedure> {
    PROCEDURES.iter().find(|p| p.name.eq_ignore_ascii_case(name))
}

/// Extract an integer argument (floats are rejected rather than silently
/// truncated, so `algo.bfs(1.9)` is a type error, not a BFS from node 1).
fn int_arg(value: &Value, what: &str) -> Result<i64, QueryError> {
    match value {
        Value::Int(i) => Ok(*i),
        other => Err(QueryError::Type(format!("{what} must be an integer, got {other}"))),
    }
}

/// Extract a node id argument, checking the node exists.
fn node_arg(graph: &Graph, value: &Value, procedure: &str) -> Result<NodeId, QueryError> {
    let id = int_arg(value, &format!("{procedure} node id"))?;
    if id < 0 || graph.node_attributes(id as NodeId).is_none() {
        return Err(QueryError::Type(format!("{procedure}: node {id} does not exist")));
    }
    Ok(id as NodeId)
}

fn proc_bfs(graph: &Graph, args: &[Value]) -> Result<RecordBatch, QueryError> {
    let source = node_arg(graph, &args[0], "algo.bfs")?;
    let levels = graph.bfs_levels(source);
    Ok(levels
        .into_iter()
        .map(|(node, level)| [Value::Node(node), Value::Int(level.into())])
        .collect())
}

fn proc_sssp(graph: &Graph, args: &[Value]) -> Result<RecordBatch, QueryError> {
    let source = node_arg(graph, &args[0], "algo.sssp")?;
    let weight_prop = match args.get(1) {
        None => "weight".to_string(),
        Some(Value::Str(s)) => s.clone(),
        Some(other) => {
            return Err(QueryError::Type(format!(
                "algo.sssp expects a property name as its second argument, got {other}"
            )))
        }
    };
    let forward = graph.relations();
    let dist = algo::sssp(&forward, graph.cell_weight(&weight_prop, 1.0), source);
    Ok(dist.into_iter().map(|(node, d)| [Value::Node(node), Value::Float(d)]).collect())
}

fn proc_pagerank(graph: &Graph, args: &[Value]) -> Result<RecordBatch, QueryError> {
    let mut config = algo::PageRankConfig::default();
    if let Some(damping) = args.first() {
        let d = damping.as_f64().ok_or_else(|| {
            QueryError::Type(format!("algo.pagerank damping must be numeric, got {damping}"))
        })?;
        if !(0.0..=1.0).contains(&d) {
            return Err(QueryError::Type(format!(
                "algo.pagerank damping must be in [0, 1], got {d}"
            )));
        }
        config.damping = d;
    }
    if let Some(iters) = args.get(1) {
        let n = int_arg(iters, "algo.pagerank iteration cap")?;
        config.max_iterations = u32::try_from(n).ok().filter(|&n| n > 0).ok_or_else(|| {
            QueryError::Type(format!(
                "algo.pagerank iteration cap must be in 1..={}, got {n}",
                u32::MAX
            ))
        })?;
    }
    let nodes = graph.all_node_ids();
    let result = algo::pagerank(&graph.transposes(), &nodes, &config);
    Ok(result
        .scores
        .into_iter()
        .map(|(node, score)| [Value::Node(node), Value::Float(score)])
        .collect())
}

fn proc_wcc(graph: &Graph, _args: &[Value]) -> Result<RecordBatch, QueryError> {
    let nodes = graph.all_node_ids();
    let labels = algo::wcc(&graph.relations(), &nodes);
    Ok(labels
        .into_iter()
        .map(|(node, component)| [Value::Node(node), Value::Int(component as i64)])
        .collect())
}

fn proc_triangles(graph: &Graph, _args: &[Value]) -> Result<RecordBatch, QueryError> {
    let count = algo::triangle_count(&graph.relations());
    Ok([[Value::Int(count as i64)]].into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_graph() -> Graph {
        let mut g = Graph::new("p");
        let a = g.add_node(&["Node"], vec![]);
        let b = g.add_node(&["Node"], vec![]);
        let c = g.add_node(&["Node"], vec![]);
        g.add_edge(a, b, "L", vec![("weight", Value::Float(2.0))]).unwrap();
        g.add_edge(b, c, "L", vec![("weight", Value::Float(3.0))]).unwrap();
        g.add_edge(c, a, "L", vec![]).unwrap();
        g.sync_matrices();
        g
    }

    #[test]
    fn registry_lookup_is_case_insensitive() {
        assert!(find("algo.pagerank").is_some());
        assert!(find("ALGO.PageRank").is_some());
        assert!(find("algo.nope").is_none());
    }

    #[test]
    fn bfs_rows_carry_nodes_and_levels() {
        let g = triangle_graph();
        let rows = proc_bfs(&g, &[Value::Int(0)]).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.to_vec().contains(&vec![Value::Node(0), Value::Int(0)]));
        assert!(rows.to_vec().contains(&vec![Value::Node(2), Value::Int(2)]));
    }

    #[test]
    fn sssp_reads_the_weight_property_with_default() {
        let g = triangle_graph();
        let rows = proc_sssp(&g, &[Value::Int(0)]).unwrap();
        // 0→1 (2.0), 0→1→2 (5.0); the unweighted edge 2→0 defaults to 1.0.
        assert!(rows.to_vec().contains(&vec![Value::Node(1), Value::Float(2.0)]));
        assert!(rows.to_vec().contains(&vec![Value::Node(2), Value::Float(5.0)]));
    }

    #[test]
    fn pagerank_validates_arguments() {
        let g = triangle_graph();
        assert!(proc_pagerank(&g, &[Value::Float(1.5)]).is_err());
        assert!(proc_pagerank(&g, &[Value::Float(0.85), Value::Int(0)]).is_err());
        let rows = proc_pagerank(&g, &[]).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn missing_nodes_are_type_errors() {
        let g = triangle_graph();
        assert!(matches!(proc_bfs(&g, &[Value::Int(99)]), Err(QueryError::Type(_))));
        assert!(matches!(proc_bfs(&g, &[Value::Str("x".into())]), Err(QueryError::Type(_))));
    }

    #[test]
    fn wcc_and_triangles_on_the_cycle() {
        let g = triangle_graph();
        let labels = proc_wcc(&g, &[]).unwrap();
        assert!(labels.iter().all(|row| row[1] == Value::Int(0)));
        let tri = proc_triangles(&g, &[]).unwrap();
        assert_eq!(tri, vec![vec![Value::Int(1)]]);
    }
}
