//! Differential proptest for parameterized queries: a `CYPHER p=… ` header
//! binding `$p` at execution time must be observationally identical to the
//! same query with the value spliced into the text as a literal — both cold
//! (first execution plans from scratch) and warm (second execution reuses
//! the cached skeleton and re-binds).
//!
//! The comparison runs through the full in-process server so the plan cache
//! sits in the loop: a cache that leaked one binding's value into another
//! execution, or a substitution pass that missed an expression position
//! (filters, projections, ORDER BY, UNWIND lists, aggregate arguments),
//! would diverge from the literal-inlined reference. Row order is not part
//! of the contract between the two spellings, so rows are sorted before
//! comparing; headers must match exactly.

use proptest::prelude::*;
use redisgraph_server::{RedisGraphServer, RespValue, ServerConfig};

/// Seeded server: a ring of `nodes` labelled nodes with ids, names, and a
/// chord so 2-hop traversals fan out.
fn seeded_server(nodes: u64) -> RedisGraphServer {
    let server = RedisGraphServer::new(ServerConfig::default());
    let mut create = String::from("CREATE ");
    for k in 0..nodes {
        if k > 0 {
            create.push_str(", ");
        }
        create.push_str(&format!("(p{k}:Node {{id: {k}, name: 'n{k}'}})"));
    }
    let reply = server.query("g", &create);
    assert!(!matches!(reply, RespValue::Error(_)), "seed failed: {reply}");
    for k in 0..nodes {
        for other in [(k + 1) % nodes, (k + 3) % nodes] {
            let reply = server.query(
                "g",
                &format!(
                    "MATCH (a:Node {{id: {k}}}), (b:Node {{id: {other}}}) CREATE (a)-[:LINK]->(b)"
                ),
            );
            assert!(!matches!(reply, RespValue::Error(_)), "seed failed: {reply}");
        }
    }
    server
}

/// Header plus order-insensitive rows; panics on error replies so a binding
/// bug can never pass as "both sides errored identically by accident".
fn header_and_sorted_rows(reply: &RespValue) -> (RespValue, Vec<String>) {
    let RespValue::Array(sections) = reply else { panic!("not a query reply: {reply}") };
    let RespValue::Array(rows) = &sections[1] else { panic!("no rows section: {reply}") };
    let mut sorted: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    sorted.sort();
    (sections[0].clone(), sorted)
}

fn cached_flag(reply: &RespValue) -> bool {
    let RespValue::Array(sections) = reply else { panic!("not a query reply: {reply}") };
    let RespValue::Array(stats) = &sections[2] else { panic!("no stats footer: {reply}") };
    stats
        .iter()
        .find_map(|l| match l {
            RespValue::BulkString(s) => s.strip_prefix("Cached: ").map(|v| v == "true"),
            _ => None,
        })
        .expect("stats footer must carry a Cached line")
}

/// The query shapes under test, as (parameter spelling, literal spelling)
/// pairs covering every expression position `ExecutionPlan::bind`
/// substitutes into.
fn query_pairs(int_v: i64, name: &str, list: &[i64]) -> Vec<(String, String)> {
    let list_lit =
        format!("[{}]", list.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", "));
    vec![
        // Point filter.
        (
            format!("CYPHER p={int_v} MATCH (n:Node) WHERE n.id = $p RETURN n.id"),
            format!("MATCH (n:Node) WHERE n.id = {int_v} RETURN n.id"),
        ),
        // Range filter over a traversal.
        (
            format!(
                "CYPHER p={int_v} MATCH (s:Node)-[:LINK]->(t) WHERE s.id > $p RETURN s.id, t.id"
            ),
            format!("MATCH (s:Node)-[:LINK]->(t) WHERE s.id > {int_v} RETURN s.id, t.id"),
        ),
        // String equality.
        (
            format!("CYPHER p='{name}' MATCH (n:Node) WHERE n.name = $p RETURN n.id"),
            format!("MATCH (n:Node) WHERE n.name = '{name}' RETURN n.id"),
        ),
        // UNWIND over a list parameter.
        (
            format!("CYPHER p={list_lit} UNWIND $p AS x RETURN x"),
            format!("UNWIND {list_lit} AS x RETURN x"),
        ),
        // Aggregate over a fused 2-hop chain.
        (
            format!(
                "CYPHER p={int_v} MATCH (s:Node)-[:LINK]->()-[:LINK]->(t) \
                 WHERE s.id = $p RETURN count(t)"
            ),
            format!("MATCH (s:Node)-[:LINK]->()-[:LINK]->(t) WHERE s.id = {int_v} RETURN count(t)"),
        ),
        // Parameter in the projection itself, under ORDER BY.
        (
            format!("CYPHER p={int_v} MATCH (n:Node) RETURN n.id, $p ORDER BY n.id"),
            format!("MATCH (n:Node) RETURN n.id, {int_v} ORDER BY n.id"),
        ),
    ]
}

proptest! {
    #[test]
    fn parameterized_matches_literal_inlined_cold_and_cached(
        nodes in 4u64..14,
        int_v in -4i64..14,
        name_sel in 0u64..16,
        list in prop::collection::vec(-10i64..10, 0..5),
    ) {
        // `name` sometimes misses every node on purpose: empty results must
        // agree too.
        let name = format!("n{name_sel}");
        let server = seeded_server(nodes);
        for (param_text, literal_text) in query_pairs(int_v, &name, &list) {
            let cold = server.query("g", &param_text);
            prop_assert!(!cached_flag(&cold), "first execution must miss: {param_text}");
            let warm = server.query("g", &param_text);
            prop_assert!(cached_flag(&warm), "second execution must hit: {param_text}");
            let reference = server.query("g", &literal_text);

            let cold = header_and_sorted_rows(&cold);
            let warm = header_and_sorted_rows(&warm);
            let reference = header_and_sorted_rows(&reference);
            prop_assert_eq!(&cold, &reference, "cold parameterized run diverged: {}", param_text);
            prop_assert_eq!(&warm, &reference, "cached parameterized run diverged: {}", param_text);
        }
    }
}
