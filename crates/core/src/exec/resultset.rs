//! Query result sets and execution statistics, mirroring what `GRAPH.QUERY`
//! returns to a Redis client (header, rows, statistics footer).
//!
//! The rows are the executor's last [`RecordBatch`], one slot per column:
//! one flat buffer the reply encoder walks row by row (`rows.iter()` yields
//! each row as a `&[Value]`, `rows[i][j]` indexes a cell, and
//! `rows.to_vec()` copies them out as one `Vec` per row).

use crate::exec::record::RecordBatch;
use crate::value::Value;
use std::time::Duration;

/// Mutation statistics reported after a query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// Nodes created by the query.
    pub nodes_created: usize,
    /// Relationships created by the query.
    pub relationships_created: usize,
    /// Properties set by the query.
    pub properties_set: usize,
    /// Nodes deleted by the query.
    pub nodes_deleted: usize,
    /// Relationships deleted by the query.
    pub relationships_deleted: usize,
    /// Labels added to nodes.
    pub labels_added: usize,
    /// Wall-clock execution time.
    pub execution_time: Duration,
    /// Whether the execution reused a cached plan skeleton instead of
    /// parsing and planning the query text from scratch. Set by the server's
    /// plan cache; always `false` for plans built directly by [`crate::Graph`].
    pub cached: bool,
}

/// The result of executing a query.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    /// Column names, in projection order. Empty for pure-write queries.
    pub columns: Vec<String>,
    /// Result rows; each row has one value per column.
    pub rows: RecordBatch,
    /// Mutation/timing statistics.
    pub stats: QueryStats,
}

impl ResultSet {
    /// Create an empty result set (write-only query).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single scalar of a one-row one-column result (e.g. `RETURN count(t)`),
    /// if the shape matches.
    pub fn scalar(&self) -> Option<&Value> {
        if self.rows.len() == 1 && self.rows.width() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }

    /// Render as an aligned text table (used by the examples and the server's
    /// verbose replies).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if !self.columns.is_empty() {
            out.push_str(&self.columns.join(" | "));
            out.push('\n');
            out.push_str(&"-".repeat(self.columns.join(" | ").len().max(4)));
            out.push('\n');
            for row in &self.rows {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                out.push_str(&cells.join(" | "));
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "{} row(s); created {} nodes, {} relationships; set {} properties; deleted {} nodes, {} relationships; {:.3} ms\n",
            self.rows.len(),
            self.stats.nodes_created,
            self.stats.relationships_created,
            self.stats.properties_set,
            self.stats.nodes_deleted,
            self.stats.relationships_deleted,
            self.stats.execution_time.as_secs_f64() * 1e3,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_extraction() {
        let rs = ResultSet {
            columns: vec!["count(t)".into()],
            rows: [[Value::Int(7)]].into_iter().collect(),
            stats: QueryStats::default(),
        };
        assert_eq!(rs.scalar(), Some(&Value::Int(7)));
        assert_eq!(rs.len(), 1);

        let multi = ResultSet {
            columns: vec!["a".into()],
            rows: [[Value::Int(1)], [Value::Int(2)]].into_iter().collect(),
            stats: QueryStats::default(),
        };
        assert_eq!(multi.scalar(), None);
    }

    #[test]
    fn table_rendering_includes_header_and_stats() {
        let rs = ResultSet {
            columns: vec!["name".into(), "age".into()],
            rows: [[Value::Str("ann".into()), Value::Int(34)]].into_iter().collect(),
            stats: QueryStats { nodes_created: 2, ..Default::default() },
        };
        let table = rs.to_table();
        assert!(table.contains("name | age"));
        assert!(table.contains("ann | 34"));
        assert!(table.contains("created 2 nodes"));
    }

    #[test]
    fn empty_result_set() {
        let rs = ResultSet::empty();
        assert!(rs.is_empty());
        assert!(rs.to_table().contains("0 row(s)"));
    }
}
