//! End-to-end query tests: Cypher text in, result rows out, exercising the
//! full parse → plan → execute pipeline against the matrix-backed store.

use redisgraph_core::{ExecutionPlan, Graph, GraphAccess, Params, Value};
use std::time::Instant;

/// A small social graph used by most tests.
fn social_graph() -> Graph {
    let mut g = Graph::new("social");
    g.query(
        "CREATE (ann:Person {name: 'Ann', age: 34}), \
                (bob:Person {name: 'Bob', age: 28}), \
                (cat:Person {name: 'Cat', age: 41}), \
                (dan:Person {name: 'Dan', age: 23}), \
                (acme:Company {name: 'Acme'}), \
                (ann)-[:KNOWS {since: 2015}]->(bob), \
                (bob)-[:KNOWS {since: 2019}]->(cat), \
                (cat)-[:KNOWS {since: 2020}]->(dan), \
                (ann)-[:WORKS_AT]->(acme), \
                (bob)-[:WORKS_AT]->(acme)",
    )
    .unwrap();
    g
}

#[test]
fn create_reports_statistics() {
    let mut g = Graph::new("t");
    let rs = g.query("CREATE (:A {x: 1})-[:R {w: 2}]->(:B)").unwrap();
    assert_eq!(rs.stats.nodes_created, 2);
    assert_eq!(rs.stats.relationships_created, 1);
    assert_eq!(rs.stats.properties_set, 2);
    assert_eq!(g.node_count(), 2);
    assert_eq!(g.edge_count(), 1);
}

#[test]
fn match_all_nodes() {
    let mut g = social_graph();
    let rs = g.query("MATCH (n) RETURN n").unwrap();
    assert_eq!(rs.rows.len(), 5);
}

#[test]
fn match_by_label() {
    let mut g = social_graph();
    let rs = g.query("MATCH (p:Person) RETURN p.name ORDER BY p.name").unwrap();
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["Ann", "Bob", "Cat", "Dan"]);
}

#[test]
fn match_with_inline_properties() {
    let mut g = social_graph();
    let rs = g.query("MATCH (p:Person {name: 'Bob'}) RETURN p.age").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(28)));
}

#[test]
fn single_hop_traversal_with_type() {
    let mut g = social_graph();
    let rs = g.query("MATCH (a:Person {name: 'Ann'})-[:KNOWS]->(b) RETURN b.name").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Str("Bob".into())));
}

#[test]
fn traversal_direction_matters() {
    let mut g = social_graph();
    let out = g.query("MATCH (a {name: 'Bob'})-[:KNOWS]->(b) RETURN b.name").unwrap();
    assert_eq!(out.scalar(), Some(&Value::Str("Cat".into())));
    let incoming = g.query("MATCH (a {name: 'Bob'})<-[:KNOWS]-(b) RETURN b.name").unwrap();
    assert_eq!(incoming.scalar(), Some(&Value::Str("Ann".into())));
    let both =
        g.query("MATCH (a {name: 'Bob'})-[:KNOWS]-(b) RETURN b.name ORDER BY b.name").unwrap();
    assert_eq!(both.rows.len(), 2);
}

#[test]
fn multi_hop_chained_pattern() {
    let mut g = social_graph();
    let rs =
        g.query("MATCH (a:Person {name: 'Ann'})-[:KNOWS]->()-[:KNOWS]->(c) RETURN c.name").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Str("Cat".into())));
}

#[test]
fn variable_length_traversal() {
    let mut g = social_graph();
    let rs = g
        .query("MATCH (a:Person {name: 'Ann'})-[:KNOWS*1..3]->(b) RETURN b.name ORDER BY b.name")
        .unwrap();
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["Bob", "Cat", "Dan"]);

    let rs = g.query("MATCH (a:Person {name: 'Ann'})-[:KNOWS*2..2]->(b) RETURN b.name").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Str("Cat".into())));
}

#[test]
fn khop_count_query_matches_library_fast_path() {
    let mut g = Graph::new("k");
    g.query("CREATE (a:Node), (b:Node), (c:Node), (d:Node), (a)-[:LINK]->(b), (b)-[:LINK]->(c), (c)-[:LINK]->(d), (a)-[:LINK]->(c)").unwrap();
    let rs = g.query("MATCH (s)-[*1..2]->(t) WHERE id(s) = 0 RETURN count(t)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(3)));
    assert_eq!(g.khop_count(0, 2), 3);
    let rs6 = g.query("MATCH (s)-[*1..6]->(t) WHERE id(s) = 0 RETURN count(t)").unwrap();
    assert_eq!(rs6.scalar(), Some(&Value::Int(3)));
}

#[test]
fn where_filters_with_boolean_logic() {
    let mut g = social_graph();
    let rs = g
        .query("MATCH (p:Person) WHERE p.age > 25 AND p.age < 40 RETURN p.name ORDER BY p.name")
        .unwrap();
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["Ann", "Bob"]);

    let rs =
        g.query("MATCH (p:Person) WHERE p.name = 'Ann' OR p.name = 'Dan' RETURN count(p)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn aggregations_with_grouping() {
    let mut g = social_graph();
    // group people by whether they work at Acme
    let rs = g.query("MATCH (p:Person)-[:WORKS_AT]->(c:Company) RETURN c.name, count(p)").unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Str("Acme".into()));
    assert_eq!(rs.rows[0][1], Value::Int(2));

    let rs =
        g.query("MATCH (p:Person) RETURN min(p.age), max(p.age), avg(p.age), sum(p.age)").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(23));
    assert_eq!(rs.rows[0][1], Value::Int(41));
    assert_eq!(rs.rows[0][2], Value::Float(31.5));
    assert_eq!(rs.rows[0][3], Value::Int(126));
}

#[test]
fn count_star_and_distinct() {
    let mut g = social_graph();
    let rs = g.query("MATCH (p:Person) RETURN count(*)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(4)));
    let rs = g.query("MATCH (:Person)-[:WORKS_AT]->(c) RETURN count(DISTINCT c)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(1)));
}

#[test]
fn order_skip_limit() {
    let mut g = social_graph();
    let rs = g.query("MATCH (p:Person) RETURN p.name ORDER BY p.age DESC SKIP 1 LIMIT 2").unwrap();
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    // ages desc: Cat(41), Ann(34), Bob(28), Dan(23); skip 1, limit 2 → Ann, Bob
    assert_eq!(names, vec!["Ann", "Bob"]);
}

#[test]
fn distinct_rows() {
    let mut g = social_graph();
    let rs = g.query("MATCH (p:Person)-[:WORKS_AT]->(c:Company) RETURN DISTINCT c.name").unwrap();
    assert_eq!(rs.rows.len(), 1);
}

#[test]
fn set_updates_properties() {
    let mut g = social_graph();
    let rs = g
        .query("MATCH (p:Person {name: 'Ann'}) SET p.age = 35, p.title = 'engineer' RETURN p.age")
        .unwrap();
    assert_eq!(rs.stats.properties_set, 2);
    assert_eq!(rs.scalar(), Some(&Value::Int(35)));
    assert_eq!(g.node_property(0, "title"), Value::Str("engineer".into()));
}

#[test]
fn delete_removes_nodes_and_edges() {
    let mut g = social_graph();
    let before_edges = g.edge_count();
    let rs = g.query("MATCH (p:Person {name: 'Bob'}) DETACH DELETE p").unwrap();
    assert_eq!(rs.stats.nodes_deleted, 1);
    assert!(rs.stats.relationships_deleted >= 2);
    assert_eq!(g.node_count(), 4);
    assert!(g.edge_count() < before_edges);
    // Bob is gone from label scans and traversals.
    let rs = g.query("MATCH (p:Person) RETURN count(p)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(3)));
}

#[test]
fn unwind_produces_one_row_per_element() {
    let mut g = Graph::new("u");
    let rs = g.query("UNWIND [1, 2, 3] AS x RETURN x * 10 ORDER BY x").unwrap();
    let values: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(values, vec![10, 20, 30]);
}

#[test]
fn with_chains_projections() {
    let mut g = social_graph();
    let rs =
        g.query("MATCH (p:Person) WITH p.age AS age WHERE age > 30 RETURN count(age)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn scalar_functions_in_projections() {
    let mut g = social_graph();
    let rs =
        g.query("MATCH (p:Person {name: 'Ann'}) RETURN id(p), labels(p), size(labels(p))").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(0));
    assert_eq!(rs.rows[0][1], Value::List(vec![Value::Str("Person".into())]));
    assert_eq!(rs.rows[0][2], Value::Int(1));
}

#[test]
fn relationship_property_filter() {
    let mut g = social_graph();
    let rs = g
        .query("MATCH (a)-[k:KNOWS]->(b) WHERE k.since >= 2019 RETURN b.name ORDER BY b.name")
        .unwrap();
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["Cat", "Dan"]);
}

#[test]
fn relationship_inline_property_map() {
    let mut g = social_graph();
    let rs = g.query("MATCH (a)-[:KNOWS {since: 2015}]->(b) RETURN b.name").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Str("Bob".into())));
}

#[test]
fn nonexistent_relationship_type_matches_nothing() {
    let mut g = social_graph();
    let rs = g.query("MATCH (a)-[:NOPE]->(b) RETURN count(b)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(0)));
}

#[test]
fn a_multi_type_pattern_matches_the_types_that_exist() {
    // `S` is named but never created: `[:R|S]` must give what `[:R]` gives
    // on a single hop, the `*1..2` count pushdown and a fused 2-hop.
    let mut g = Graph::new("types");
    g.query("CREATE (a:N {id: 0})-[:R]->(b:N {id: 1})-[:R]->(c:N {id: 2}), (a)-[:R]->(c)").unwrap();
    let shapes = [
        ("MATCH (a)-[:R]->(b) RETURN count(b)", "Aggregate", vec![vec![Value::Int(3)]]),
        (
            "MATCH (a)-[:R*1..2]->(b) WHERE id(a) = 0 RETURN count(DISTINCT b)",
            "Aggregate pushdown",
            vec![vec![Value::Int(2)]],
        ),
        (
            "MATCH (a)-[:R]->()-[:R]->(c) RETURN a.id, c.id",
            "(a)·A_R",
            vec![vec![Value::Int(0), Value::Int(2)]],
        ),
    ];
    for (typed, op, want) in shapes {
        let multi = typed.replace(":R", ":R|S");
        assert!(g.explain(&multi).unwrap().join("\n").contains(op), "{multi} plans {op}");
        assert_eq!(g.query(typed).unwrap().rows, want, "{typed}");
        assert_eq!(g.query(&multi).unwrap().rows, want, "{multi}");
    }
    // Only when no named type exists does the pattern match nothing.
    let rs = g.query("MATCH (a)-[:S|T]->(b) RETURN count(b)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(0)));
}

#[test]
fn an_aggregate_inside_an_expression_is_an_error() {
    let mut g = social_graph();
    for query in [
        "MATCH (n) RETURN count(n) + 1",
        "MATCH (n) RETURN abs(count(n))",
        "MATCH (n) RETURN sum(count(n))",
    ] {
        let err = g.query(query).unwrap_err();
        assert!(
            err.to_string().contains("aggregate inside an expression is not supported"),
            "{query}: {err}"
        );
    }
    // The graph still serves the next query.
    let rs = g.query("MATCH (n) RETURN count(n)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(5)));
}

#[test]
fn cartesian_product_of_patterns() {
    let mut g = social_graph();
    let rs = g.query("MATCH (p:Person), (c:Company) RETURN count(*)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(4)));
}

#[test]
fn match_after_create_sees_new_data() {
    let mut g = Graph::new("rw");
    g.query("CREATE (:X {v: 1})").unwrap();
    g.query("CREATE (:X {v: 2})").unwrap();
    let rs = g.query("MATCH (x:X) RETURN sum(x.v)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(3)));
}

#[test]
fn match_then_create_connects_existing_nodes() {
    let mut g = social_graph();
    g.query("MATCH (a:Person {name: 'Ann'}), (d:Person {name: 'Dan'}) CREATE (a)-[:KNOWS {since: 2024}]->(d)").unwrap();
    let rs = g.query("MATCH (a {name: 'Ann'})-[:KNOWS]->(b) RETURN count(b)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn explain_lists_plan_operations() {
    let g = social_graph();
    let plan = g.explain("MATCH (s:Node)-[*1..3]->(t) WHERE id(s) = 7 RETURN count(t)").unwrap();
    let text = plan.join("\n");
    assert!(text.contains("Node By Id Seek"));
    assert!(text.contains("Conditional Traverse"));
    assert!(text.contains("Aggregate"));
}

#[test]
fn syntax_errors_are_reported() {
    let mut g = Graph::new("err");
    let err = g.query("MATCH (a RETURN a").unwrap_err();
    assert!(matches!(err, redisgraph_core::QueryError::Syntax(_)));
    let err = g.query("MATCH (a) DELETE zz").unwrap_err();
    assert!(matches!(err, redisgraph_core::QueryError::UnknownVariable(_)));
}

#[test]
fn return_without_match_evaluates_expressions() {
    let mut g = Graph::new("expr");
    let rs = g.query("RETURN 1 + 2 * 3 AS x, 'a' + 'b' AS s").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(7));
    assert_eq!(rs.rows[0][1], Value::Str("ab".into()));
    assert_eq!(rs.columns, vec!["x", "s"]);
}

#[test]
fn a_write_after_return_is_an_error() {
    let mut g = social_graph();
    let err = g.query("MATCH (n) RETURN count(n) CREATE (q:Q)").unwrap_err();
    assert!(matches!(err, redisgraph_core::QueryError::Syntax(_)), "{err}");
    assert_eq!(g.node_count(), 5);
}

#[test]
fn a_second_return_is_an_error() {
    let mut g = Graph::new("t");
    let err = g.query("RETURN 1 AS a RETURN 2 AS b").unwrap_err();
    assert!(matches!(err, redisgraph_core::QueryError::Syntax(_)), "{err}");
}

#[test]
fn create_over_no_matched_record_creates_nothing() {
    let mut g = Graph::new("t");
    g.query("CREATE (:Node)").unwrap();
    let query = "MATCH (x:Node),(y:Node) WHERE id(x)=5 AND id(y)=6 CREATE (x)-[:LINK]->(y)";
    let stats = g.query(query).unwrap().stats;
    assert_eq!((stats.nodes_created, stats.relationships_created), (0, 0));
    assert_eq!((g.node_count(), g.edge_count()), (1, 0));
}

#[test]
fn create_after_an_empty_unwind_creates_nothing() {
    let mut g = Graph::new("t");
    assert_eq!(g.query("UNWIND [] AS x CREATE (:M)").unwrap().stats.nodes_created, 0);
    assert_eq!(g.node_count(), 0);
    // A bare CREATE runs once, on the one record every plan starts from.
    assert_eq!(g.query("CREATE (:M)").unwrap().stats.nodes_created, 1);
    assert_eq!(g.node_count(), 1);
}

#[test]
fn a_write_only_plan_returns_no_columns_and_no_rows() {
    let mut g = social_graph();
    for query in ["CREATE (:M {v: 1})", "MATCH (m:M) SET m.v = 2", "MATCH (m:M) DELETE m"] {
        let rs = g.query(query).unwrap();
        assert!(rs.columns.is_empty() && rs.rows.is_empty(), "{query}: {rs:?}");
    }
    assert_eq!(g.node_count(), 5);
}

#[test]
fn execution_time_is_recorded() {
    let mut g = social_graph();
    let rs = g.query("MATCH (p:Person) RETURN count(p)").unwrap();
    assert!(rs.stats.execution_time.as_nanos() > 0);
}

// ---------------------------------------------------------------- CALL algo.*

/// A two-component graph for the algorithm procedures: a 4-cycle with a chord
/// (one triangle) plus an isolated pair.
fn algo_graph() -> Graph {
    let mut g = Graph::new("algos");
    g.query(
        "CREATE (a:Node {id: 0}), (b:Node {id: 1}), (c:Node {id: 2}), (d:Node {id: 3}), \
                (x:Node {id: 4}), (y:Node {id: 5}), \
                (a)-[:LINK {weight: 1.0}]->(b), \
                (b)-[:LINK {weight: 2.0}]->(c), \
                (c)-[:LINK {weight: 4.0}]->(a), \
                (c)-[:LINK {weight: 1.0}]->(d), \
                (x)-[:LINK]->(y)",
    )
    .unwrap();
    g
}

#[test]
fn call_bfs_yields_levels_composable_with_where() {
    let mut g = algo_graph();
    let rs = g
        .query("CALL algo.bfs(0) YIELD node, level WHERE level > 0 RETURN node ORDER BY level")
        .unwrap();
    // 0 is excluded by WHERE; reachable are 1 (level 1), 2 (level 2), 3 (level 3).
    assert_eq!(rs.rows.len(), 3);
    assert_eq!(rs.rows[0][0], Value::Node(1));
    assert_eq!(rs.rows[2][0], Value::Node(3));
}

#[test]
fn call_sssp_uses_edge_weights() {
    let mut g = algo_graph();
    let rs = g
        .query("CALL algo.sssp(0) YIELD node, distance RETURN node, distance ORDER BY distance")
        .unwrap();
    // 0 (0.0), 1 (1.0), 2 (3.0), 3 (4.0)
    assert_eq!(rs.rows.len(), 4);
    assert_eq!(rs.rows[3], vec![Value::Node(3), Value::Float(4.0)]);
}

#[test]
fn call_pagerank_top_scores_through_order_by_limit() {
    let mut g = algo_graph();
    let rs = g
        .query(
            "CALL algo.pagerank() YIELD node, score \
             RETURN node, score ORDER BY score DESC LIMIT 5",
        )
        .unwrap();
    assert_eq!(rs.columns, vec!["node", "score"]);
    assert_eq!(rs.rows.len(), 5);
    // Scores are sorted descending and sum (over all 6 nodes) to 1.
    let scores: Vec<f64> = rs.rows.iter().filter_map(|r| r[1].as_f64()).collect();
    assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    let all = g.query("CALL algo.pagerank() YIELD score RETURN sum(score)").unwrap();
    let total = all.scalar().and_then(|v| v.as_f64()).unwrap();
    assert!((total - 1.0).abs() < 1e-6, "total = {total}");
}

#[test]
fn call_wcc_counts_components() {
    let mut g = algo_graph();
    let rs =
        g.query("CALL algo.wcc() YIELD node, component RETURN count(DISTINCT component)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn call_triangles_counts_the_chorded_cycle() {
    let mut g = algo_graph();
    let rs = g.query("CALL algo.triangles() YIELD triangles RETURN triangles").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(1)));
}

#[test]
fn call_yield_aliases_rebind_columns() {
    let mut g = algo_graph();
    let rs = g
        .query("CALL algo.bfs(0) YIELD node AS n, level AS hops RETURN n, hops ORDER BY hops")
        .unwrap();
    assert_eq!(rs.columns, vec!["n", "hops"]);
    assert_eq!(rs.rows[0], vec![Value::Node(0), Value::Int(0)]);
}

#[test]
fn call_runs_on_the_readonly_path() {
    let g = algo_graph();
    let rs = g.query_readonly("CALL algo.pagerank() YIELD node, score RETURN count(node)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(6)));
}

#[test]
fn unknown_procedure_is_caught_at_plan_time() {
    let g = algo_graph();
    let err = g.explain("CALL algo.nope() YIELD x RETURN x").unwrap_err();
    assert!(matches!(err, redisgraph_core::QueryError::UnknownProcedure(p) if p == "algo.nope"));
}

#[test]
fn bad_yield_column_and_arity_are_plan_errors() {
    let g = algo_graph();
    let err = g.explain("CALL algo.pagerank() YIELD node, rank RETURN rank").unwrap_err();
    assert!(matches!(err, redisgraph_core::QueryError::Type(m) if m.contains("does not yield")));
    let err = g.explain("CALL algo.wcc(1) YIELD node RETURN node").unwrap_err();
    assert!(matches!(err, redisgraph_core::QueryError::Type(m) if m.contains("arguments")));
}

#[test]
fn procedure_call_appears_in_explain() {
    let g = algo_graph();
    let plan = g.explain("CALL algo.pagerank() YIELD node, score RETURN node").unwrap();
    assert!(plan.join("\n").contains("ProcedureCall | algo.pagerank"));
}

#[test]
fn yield_cannot_shadow_an_existing_variable() {
    let g = algo_graph();
    // `level` is already bound by UNWIND; YIELD must not silently clobber it.
    let err = g
        .explain("UNWIND [10, 20] AS level CALL algo.bfs(0) YIELD node, level RETURN level")
        .unwrap_err();
    assert!(
        matches!(err, redisgraph_core::QueryError::Type(ref m) if m.contains("already declared")),
        "got {err:?}"
    );
    // Renaming with AS resolves the collision.
    let plan = g
        .explain("UNWIND [10, 20] AS level CALL algo.bfs(0) YIELD node, level AS hops RETURN hops")
        .unwrap();
    assert!(plan.join("\n").contains("ProcedureCall"));
}

#[test]
fn fractional_node_ids_are_rejected_not_truncated() {
    let mut g = algo_graph();
    let err = g.query("CALL algo.bfs(1.9) YIELD node RETURN node").unwrap_err();
    assert!(
        matches!(err, redisgraph_core::QueryError::Type(ref m) if m.contains("integer")),
        "got {err:?}"
    );
    let err = g.query("CALL algo.pagerank(0.85, 2.7) YIELD node RETURN node").unwrap_err();
    assert!(matches!(err, redisgraph_core::QueryError::Type(ref m) if m.contains("integer")));
}

#[test]
fn pagerank_iteration_caps_outside_u32_are_type_errors() {
    // A cap of 2^32 once wrapped to 0 rounds (uniform scores) and 2^32 + 1
    // to one; every cap outside 1..=u32::MAX is the same error as 0.
    let mut g = algo_graph();
    for cap in ["0", "-1", "4294967296", "4294967297", "9223372036854775807"] {
        let err = g.query(&format!("CALL algo.pagerank(0.85, {cap}) YIELD node RETURN node"));
        assert!(
            matches!(err, Err(redisgraph_core::QueryError::Type(ref m)) if m.contains("iteration cap")),
            "cap {cap}: {err:?}"
        );
    }
    let rs = g.query("CALL algo.pagerank(0.85, 4294967295) YIELD node RETURN count(node)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(6)));
}

/// A pair stored under two relation types is one edge of the union the
/// procedures read: `u→v` under `R` and `S` plus `u→w` under `R`, with `z`
/// deleted below the top id.
fn two_type_graph() -> (Graph, [u64; 4]) {
    let mut g = Graph::new("two-types");
    let [u, z, v, w] = ["u", "z", "v", "w"]
        .map(|name| g.add_node(&["N"], vec![("name", Value::Str(name.into()))]));
    g.add_edge(u, v, "R", vec![("weight", Value::Float(5.0))]).unwrap();
    g.add_edge(u, v, "S", vec![("weight", Value::Float(2.0))]).unwrap();
    g.add_edge(u, w, "R", vec![]).unwrap();
    g.add_edge(v, w, "S", vec![]).unwrap();
    g.add_edge(w, u, "S", vec![]).unwrap();
    assert!(g.delete_node(z));
    (g, [u, z, v, w])
}

#[test]
fn procedures_read_a_pair_stored_under_two_types_as_one_edge() {
    let (g, [u, z, v, w]) = two_type_graph();
    let rows = |q: &str| g.query_readonly(q).unwrap().rows.to_vec();
    // u's out-degree is 2, not 3: v and w get equal shares of it, and the
    // deleted z, below the top id, is no vertex.
    let scores = rows("CALL algo.pagerank() YIELD node, score RETURN node, score");
    let score =
        |n: u64| scores.iter().find(|r| r[0] == Value::Node(n)).map(|r| r[1].as_f64().unwrap());
    assert_eq!(score(z), None);
    assert_eq!(scores.len(), 3);
    let (su, sv, sw) = (score(u).unwrap(), score(v).unwrap(), score(w).unwrap());
    assert!((su + sv + sw - 1.0).abs() < 1e-12);
    // v is reached from u alone; w from u and from v, which passes on its
    // whole score: w - v = 0.85 * v once u's share to each is equal.
    assert!((sw - sv - 0.85 * sv).abs() < 1e-9, "{su} {sv} {sw}");
    // The duplicate u→v is one side of the triangle u, v, w.
    let tri = rows("CALL algo.triangles() YIELD triangles RETURN triangles");
    assert_eq!(tri, vec![vec![Value::Int(1)]]);
    // The cheaper of the two u→v types wins; the untyped-weight edges weigh 1.
    let dist = rows("CALL algo.sssp(0) YIELD node, distance RETURN node, distance");
    assert_eq!(
        dist,
        vec![
            vec![Value::Node(u), Value::Float(0.0)],
            vec![Value::Node(v), Value::Float(2.0)],
            vec![Value::Node(w), Value::Float(1.0)],
        ]
    );
    let levels = rows("CALL algo.bfs(0) YIELD node, level RETURN node, level");
    assert_eq!(
        levels,
        vec![
            vec![Value::Node(u), Value::Int(0)],
            vec![Value::Node(v), Value::Int(1)],
            vec![Value::Node(w), Value::Int(1)]
        ]
    );
    let components = rows("CALL algo.wcc() YIELD node, component RETURN node, component");
    assert!(components.iter().all(|r| r[1] == Value::Int(0)) && components.len() == 3);
}

// --- Expression depth budget ---------------------------------------------
//
// Each shape below once aborted the whole process with a stack overflow, even
// on an 8 MB main-thread stack. They run on a thread with the 2 MiB stack Rust
// gives spawned threads by default: the deepest accepted expression must still
// parse, plan, evaluate and drop there, and one level past it must come back
// as an `E_RECURSION_LIMIT` error.

/// Run `query` through the whole pipeline on a fresh 2 MiB-stack thread.
fn query_on_small_stack(query: String) -> Result<Value, String> {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let rs = Graph::new("deep").query(&query).map_err(|e| e.to_string())?;
            Ok(rs.scalar().cloned().expect("one value"))
        })
        .expect("spawn")
        .join()
        .expect("no panic")
}

/// Expect `deep` rejected with the depth diagnostic, and `deepest` answered.
fn assert_depth_budget(deep: String, deepest: String, answer: Value) {
    let err = query_on_small_stack(deep).expect_err("past the budget");
    assert!(err.contains("E_RECURSION_LIMIT"), "got {err}");
    assert_eq!(query_on_small_stack(deepest), Ok(answer));
}

#[test]
fn deeply_parenthesised_expressions_are_rejected_not_a_stack_overflow() {
    let nest = |n: usize| format!("RETURN {}1{}", "(".repeat(n), ")".repeat(n));
    assert_depth_budget(nest(200_000), nest(127), Value::Int(1));
}

#[test]
fn long_operator_chains_are_rejected_not_a_stack_overflow() {
    // A left-associative chain is built in a loop, not by recursion, but the
    // tree it builds is as deep as the chain is long.
    let chain = |n: usize| format!("RETURN 1{}", "+1".repeat(n));
    assert_depth_budget(chain(100_000), chain(127), Value::Int(128));
}

#[test]
fn long_not_chains_are_rejected_not_a_stack_overflow() {
    let nots = |n: usize| format!("RETURN {}true", "NOT ".repeat(n));
    assert_depth_budget(nots(100_000), nots(127), Value::Bool(false));
}

/// Six `:N` nodes, ids 0–5, each with `v` equal to its id.
fn six_nodes() -> Graph {
    let mut g = Graph::new("six");
    g.query("CREATE (:N {v: 0}), (:N {v: 1}), (:N {v: 2}), (:N {v: 3}), (:N {v: 4}), (:N {v: 5})")
        .unwrap();
    g
}

/// The rows of `query` with `params` bound, read-only, asserting that the
/// optimized and the unoptimized plan agree.
fn rows_of_both_builds(g: &Graph, query: &str, params: &Params) -> Vec<Vec<Value>> {
    let ast = cypher::parse(query).unwrap();
    let run = |plan: ExecutionPlan| {
        let values = plan.bind(params).unwrap();
        plan.run(GraphAccess::Read(g), &values, Instant::now(), None).unwrap().rows.to_vec()
    };
    let rows = run(ExecutionPlan::build(&ast).unwrap());
    assert_eq!(rows, run(ExecutionPlan::build_unoptimized(&ast).unwrap()), "{query}");
    rows
}

#[test]
fn a_where_seeks_only_in_its_own_segment() {
    let g = six_nodes();
    // The later segment's `id(s) = 2` must not narrow the first scan of `s`.
    let query = "MATCH (s) WITH count(s) AS c MATCH (s) WHERE id(s) = 2 RETURN id(s), c";
    assert_eq!(rows_of_both_builds(&g, query, &Params::new()), [[Value::Int(2), Value::Int(6)]]);
    // After the `WITH`, `s` is node 0 (the least `v`): `id(s) = 5` keeps nothing.
    let query = "MATCH (s) WITH s ORDER BY s.v LIMIT 1 WHERE id(s) = 5 RETURN id(s)";
    assert!(rows_of_both_builds(&g, query, &Params::new()).is_empty());
}

#[test]
fn an_id_seek_answers_its_equality_exactly() {
    let g = six_nodes();
    let node_3 = vec![vec![Value::Int(3)]];
    for (literal, value, expected) in [
        ("3", Value::Int(3), node_3.clone()),
        ("3.0", Value::Float(3.0), node_3),
        ("3.5", Value::Float(3.5), vec![]),
        ("-1", Value::Int(-1), vec![]),
        ("'3'", Value::Str("3".into()), vec![]),
        ("null", Value::Null, vec![]),
        ("99", Value::Int(99), vec![]),
    ] {
        let query = format!("MATCH (s) WHERE id(s) = {literal} RETURN id(s)");
        assert_eq!(rows_of_both_builds(&g, &query, &Params::new()), expected, "{query}");
        // As a parameter (`-1` included, which the parser reads as a negation
        // rather than a literal), the seek alone answers the equality.
        let query = "MATCH (s) WHERE id(s) = $v RETURN id(s)";
        let params = Params::from([("v".to_string(), value)]);
        assert_eq!(rows_of_both_builds(&g, query, &params), expected, "$v = {literal}");
    }
    let plan = g.explain("MATCH (s) WHERE id(s) = $v RETURN id(s)").unwrap();
    assert_eq!(plan, ["Node By Id Seek | (s)", "Project"]);
}

#[test]
fn zero_width_records_still_count() {
    // `RETURN 1` projects from one record of no slots; `UNWIND []` from none.
    let g = Graph::new("w0");
    assert_eq!(g.query_readonly("RETURN 1").unwrap().rows, vec![vec![Value::Int(1)]]);
    assert_eq!(
        g.query_readonly("RETURN 1, 'a'").unwrap().rows,
        vec![vec![Value::Int(1), Value::Str("a".into())]]
    );
    assert_eq!(g.query_readonly("RETURN count(*)").unwrap().rows, vec![vec![Value::Int(1)]]);
    assert!(g.query_readonly("UNWIND [] AS x RETURN x").unwrap().rows.is_empty());
}

#[test]
fn heap_values_pass_unchanged_through_filter_with_distinct_and_order_by() {
    let mut g = Graph::new("heap");
    g.query("CREATE (:P {name: 'b'}), (:P {name: 'a'}), (:P {name: 'c'}), (:P {name: 'a'})")
        .unwrap();
    g.query("MATCH (p:P) SET p.tags = [p.name, 'x']").unwrap();
    assert!(g.has_pending_deltas(), "the snapshot must read through pending deltas");
    let snapshot = g.snapshot();
    let s = |v: &str| Value::Str(v.into());
    let tags = |v: &str| Value::List(vec![s(v), s("x")]);
    // The record widens across `WITH` (one slot, then two); the filter
    // compacts records holding strings and lists.
    let rs = snapshot
        .query_readonly(
            "MATCH (p:P) WITH p.name AS name, p.tags AS tags WHERE name <> 'c' \
             RETURN DISTINCT name, tags ORDER BY name DESC",
        )
        .unwrap();
    assert_eq!(rs.rows, vec![vec![s("b"), tags("b")], vec![s("a"), tags("a")]]);
    let rs = snapshot
        .query_readonly(
            "UNWIND [['y', 'z'], [], ['w']] AS l WITH l, size(l) AS n WHERE n > 0 \
             RETURN l ORDER BY n",
        )
        .unwrap();
    let list = |items: &[&str]| Value::List(items.iter().map(|v| s(v)).collect());
    assert_eq!(rs.rows, vec![vec![list(&["w"])], vec![list(&["y", "z"])]]);
}

/// `ORDER BY … SKIP … LIMIT` selects the first `skip + limit` rows before
/// sorting only those; the rows must equal a full stable sort of the
/// unordered rows, over keys with many ties, projected or not. Without
/// `ORDER BY` (no keys) `SKIP` and `LIMIT` cut the rows in input order.
#[test]
fn order_by_skip_limit_matches_a_full_stable_sort() {
    let mut g = Graph::new("topk");
    let nodes: Vec<String> = (0..60)
        .map(|i| format!("(:N {{i: {i}, k: {}, j: {}}})", (i * 37) % 60 % 3, (i * 7) % 4))
        .collect();
    g.query(&format!("CREATE {}", nodes.join(", "))).unwrap();
    let columns = ["n.k", "n.j", "n.i"];
    let base = g.query_readonly("MATCH (n:N) RETURN n.k, n.j, n.i").unwrap().rows.to_vec();
    // ORDER BY keys as (column, descending), and the projected columns.
    let orders: [&[(usize, bool)]; 5] =
        [&[], &[(0, false)], &[(0, true)], &[(0, false), (1, true)], &[(1, true), (0, false)]];
    let projections: [&[usize]; 4] = [&[0, 2], &[2], &[0, 1], &[1]];
    for order in orders {
        for projection in projections {
            for distinct in [false, true] {
                for skip in [None, Some(0), Some(3), Some(100)] {
                    for limit in [None, Some(0), Some(1), Some(7), Some(100)] {
                        let query = format!(
                            "MATCH (n:N) RETURN {}{}{}{}{}{}",
                            if distinct { "DISTINCT " } else { "" },
                            projection.iter().map(|&c| columns[c]).collect::<Vec<_>>().join(", "),
                            if order.is_empty() { "" } else { " ORDER BY " },
                            order
                                .iter()
                                .map(|&(c, desc)| format!(
                                    "{}{}",
                                    columns[c],
                                    if desc { " DESC" } else { "" }
                                ))
                                .collect::<Vec<_>>()
                                .join(", "),
                            skip.map_or(String::new(), |s| format!(" SKIP {s}")),
                            limit.map_or(String::new(), |l| format!(" LIMIT {l}")),
                        );
                        let mut sorted = base.clone();
                        sorted.sort_by(|a, b| {
                            order
                                .iter()
                                .map(|&(c, desc)| {
                                    let o = a[c].sort_cmp(&b[c]);
                                    if desc {
                                        o.reverse()
                                    } else {
                                        o
                                    }
                                })
                                .find(|o| o.is_ne())
                                .unwrap_or(std::cmp::Ordering::Equal)
                        });
                        let mut expected: Vec<Vec<Value>> = sorted
                            .iter()
                            .map(|row| projection.iter().map(|&c| row[c].clone()).collect())
                            .collect();
                        if distinct {
                            let mut seen = Vec::new();
                            expected.retain(|row| {
                                let first = !seen.contains(row);
                                seen.push(row.clone());
                                first
                            });
                        }
                        let expected: Vec<Vec<Value>> = expected
                            .into_iter()
                            .skip(skip.unwrap_or(0))
                            .take(limit.unwrap_or(usize::MAX))
                            .collect();
                        let rows = g.query_readonly(&query).unwrap().rows;
                        assert_eq!(rows, expected, "{query}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_repeated_label_is_one_label_and_labels_come_in_label_id_order() {
    let mut g = Graph::new("labels");
    let rs = g.query("CREATE (n:A:A) RETURN labels(n)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::List(vec![Value::Str("A".into())])));
    g.query("CREATE (:B)").unwrap();
    let rs = g.query("CREATE (n:C:B) RETURN labels(n)").unwrap();
    let names = ["B", "C"].map(|l| Value::Str(l.into())).to_vec();
    assert_eq!(rs.scalar(), Some(&Value::List(names)));
}

/// An edge deleted in a query whose later `CREATE` reuses its id: the
/// deleted edge's value must not read, or write, the new edge.
#[test]
fn a_deleted_edge_does_not_read_as_the_edge_that_reuses_its_id() {
    let reuse = "MATCH (a)-[e:R]->(b) DELETE e CREATE (a)-[:S {w: 2}]->(b)";
    let mut g = Graph::new("reuse");
    g.query("CREATE (:N)-[:R {w: 1}]->(:N)").unwrap();
    let rs = g.query(&format!("{reuse} RETURN type(e), e.w")).unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0], [Value::Null, Value::Null]);

    let mut g = Graph::new("reuse");
    g.query("CREATE (:N)-[:R {w: 1}]->(:N)").unwrap();
    let rs = g.query(&format!("{reuse} SET e.w = 5")).unwrap();
    assert_eq!(rs.stats.properties_set, 1, "only the CREATE sets a property");
    let rs = g.query("MATCH ()-[s:S]->() RETURN s.w").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn a_repeated_label_is_added_once() {
    let mut g = Graph::new("labels-added");
    let rs = g.query("CREATE (n:A:A) RETURN labels(n)").unwrap();
    assert_eq!(rs.stats.labels_added, 1);
    assert_eq!(rs.scalar(), Some(&Value::List(vec![Value::Str("A".into())])));
    let rs = g.query("CREATE (:B:A:B), (:C)").unwrap();
    assert_eq!((rs.stats.nodes_created, rs.stats.labels_added), (2, 3));
}

/// An edge id freed by a delete and reused by the next create: the new
/// edge reads no property of the deleted one, whether it was created
/// through `Graph::add_edge` or through Cypher `CREATE`.
#[test]
fn a_reused_edge_id_reads_no_property_of_the_deleted_edge() {
    let mut g = Graph::new("reuse-props");
    let [a, b] = [(); 2].map(|_| g.add_node(&["N"], vec![]));
    let old = g.add_edge(a, b, "R", vec![("w", Value::Int(1)), ("x", Value::Int(2))]).unwrap();
    let rel = g.schema.rel_type_id("R").unwrap() as u32;
    assert!(g.delete_edge(&Value::Edge { id: old, src: a, dst: b, rel }));
    let new = g.add_edge(b, a, "R", vec![]).unwrap();
    assert_eq!(new, old, "the freed id is reused");
    assert!(g.edge_attributes(new).is_none());
    let rs = g.query("MATCH ()-[r:R]->() RETURN id(r), r.w, r.x").unwrap();
    assert_eq!(rs.rows.to_vec(), vec![vec![Value::Int(new as i64), Value::Null, Value::Null]]);

    let mut g = Graph::new("reuse-props-cypher");
    let rs = g.query("CREATE (:N {k: 1})-[r:R {w: 5}]->(:N {k: 2}) RETURN id(r)").unwrap();
    let old = rs.scalar().cloned();
    g.query("MATCH ()-[r:R]->() DELETE r").unwrap();
    let rs = g
        .query("MATCH (a:N {k: 2}), (b:N {k: 1}) CREATE (a)-[r:R]->(b) RETURN id(r), r.w")
        .unwrap();
    assert_eq!(rs.rows.to_vec(), vec![vec![old.unwrap(), Value::Null]]);
    let rs = g.query("MATCH ()-[r:R]->() RETURN r.w").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Null));
}

/// `algo.sssp` on a bulk-loaded graph, whose edges have no weight and so
/// weigh the default 1, equals its answer on the same graph with every
/// weight set to 1 explicitly.
#[test]
fn sssp_over_default_weights_equals_sssp_over_explicit_ones() {
    let n = 200;
    let edges: Vec<(u64, u64)> =
        (0..n).flat_map(|v| [(v, (v * 7 + 1) % n), (v, (v * 13 + 5) % n)]).collect();
    let mut loaded = Graph::new("default-weights");
    loaded.bulk_load(n, &edges);
    let mut weighted = Graph::new("explicit-weights");
    weighted.bulk_load(n, &edges);
    let rs = weighted.query("MATCH ()-[r]->() SET r.weight = 1.0").unwrap();
    assert_eq!(rs.stats.properties_set, weighted.edge_count());
    for source in [0, 17, n - 1] {
        let query = format!(
            "CALL algo.sssp({source}) YIELD node, distance RETURN node, distance ORDER BY node"
        );
        let defaulted = loaded.query_readonly(&query).unwrap().rows;
        assert!(defaulted.len() > 100, "source {source} reaches {} nodes", defaulted.len());
        assert_eq!(defaulted, weighted.query_readonly(&query).unwrap().rows, "source {source}");
    }
}
