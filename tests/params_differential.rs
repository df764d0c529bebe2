//! Differential tests for parameterized queries, spelled either way.
//!
//! A `CYPHER p=… ` header binding `$p` at execution time must be
//! observationally identical to the same query with the value spliced into
//! the text as a literal — both cold (first execution plans from scratch) and
//! warm (second execution reuses the cached skeleton and re-binds). And a
//! literal-spelled query, whose literals the server lifts out of the plan
//! cache key and binds like parameters, must answer exactly as a server with
//! the plan cache off (`PLAN_CACHE_SIZE 0`) does, even when a different value
//! of its shape planned the skeleton it runs.
//!
//! The comparisons run through the full in-process server so the plan cache
//! sits in the loop: a cache that leaked one binding's value into another
//! execution, or a compile step that missed a parameter in some expression
//! position (filters, projections, ORDER BY, UNWIND lists, SET values,
//! procedure and aggregate arguments), would diverge from the reference.

use proptest::prelude::*;
use redisgraph_server::{RedisGraphServer, RespValue, ServerConfig, DEFAULT_PLAN_CACHE_SIZE};

/// Seeded server: a ring of `nodes` labelled nodes with ids, names, and a
/// chord so 2-hop traversals fan out, caching up to `plan_cache_size` plans.
fn seeded_server(nodes: u64, plan_cache_size: usize) -> RedisGraphServer {
    let server = RedisGraphServer::new(ServerConfig { plan_cache_size, ..ServerConfig::default() });
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

/// Header plus order-insensitive rows (row order is not part of the contract
/// between the two spellings); panics on error replies so a binding bug can
/// never pass as "both sides errored identically by accident".
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
/// pairs covering every expression position a `$name` is read from.
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
        let server = seeded_server(nodes, DEFAULT_PLAN_CACHE_SIZE);
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

/// A reply with the two statistics lines that differ between servers by
/// design removed: `Cached:` and the execution time.
fn comparable(reply: &RespValue) -> RespValue {
    let RespValue::Array(sections) = reply else { return reply.clone() };
    let mut sections = sections.clone();
    if let Some(RespValue::Array(stats)) = sections.get_mut(2) {
        stats.retain(|line| {
            !matches!(line, RespValue::BulkString(s)
                if s.starts_with("Cached: ") || s.starts_with("Query internal execution time"))
        });
    }
    RespValue::Array(sections)
}

/// One value of every literal-spelled shape under test, covering filters,
/// projections, ORDER BY keys, UNWIND lists, SET values and procedure
/// arguments. A negative number is `-` and the number, and a list literal
/// one placeholder per item, so a number's sign and a list's length are
/// part of the shape: `neg` is always spelled negative, every other number
/// never is, and `list` always holds three items.
fn literal_queries(a: u64, b: u64, neg: u64, f: f64, name: &str, list: &[u64]) -> Vec<String> {
    let list = list.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
    let modulus = b % 4 + 1;
    vec![
        format!("MATCH (n:Node) WHERE n.id >= {a} AND n.id < {b} RETURN n.id ORDER BY n.id"),
        format!("MATCH (n:Node) WHERE n.name = '{name}' OR n.id * 1.5 > {f:.2} RETURN count(n)"),
        format!(
            "MATCH (n:Node) WHERE n.id = {a} RETURN n.id + {b} AS s, '{name}' AS t, -{f:.2} AS u"
        ),
        format!("MATCH (n:Node) RETURN n.id, n.id % {modulus} AS m ORDER BY n.id % {modulus} DESC, n.id"),
        format!("UNWIND [{list}] AS x RETURN x, x - {a} AS y, -{neg} AS z ORDER BY y, x"),
        format!(
            "MATCH (s:Node)-[:LINK]->()-[:LINK]->(t) WHERE s.id = {a} AND t.id > -{neg} \
             RETURN count(t), {b}"
        ),
        format!("MATCH (n:Node) WHERE n.id = {a} SET n.score = -{neg} RETURN n.id, n.score"),
        format!("MATCH (n:Node) WHERE n.id = {b} SET n.tag = '{name}' RETURN n.tag"),
        format!("CALL algo.bfs({a}) YIELD node, level RETURN level, count(node) ORDER BY level"),
        format!(
            "CALL algo.pagerank({damping:.2}, {iterations}) YIELD node, score \
             RETURN count(node)",
            damping = f.fract(),
            iterations = b % 5 + 1
        ),
    ]
}

/// The values one round of [`literal_queries`] is spelled with.
fn values() -> impl Strategy<Value = (u64, u64, u64, f64, u64, Vec<u64>)> {
    (0u64..12, 0u64..12, 1u64..6, 0.0f64..9.0, 0u64..12, prop::collection::vec(0u64..9, 3..4))
}

proptest! {
    #[test]
    fn literal_spelled_queries_run_warm_match_an_uncached_server(
        nodes in 4u64..10,
        warm in values(),
        now in values(),
    ) {
        let cached = seeded_server(nodes, DEFAULT_PLAN_CACHE_SIZE);
        let reference = seeded_server(nodes, 0);
        let spell = |(a, b, neg, f, name, list): &(u64, u64, u64, f64, u64, Vec<u64>)| {
            literal_queries(*a, *b, *neg, *f, &format!("n{name}"), list)
        };
        for (warming, query) in spell(&warm).iter().zip(&spell(&now)) {
            // Another value of the shape plans it on the caching server;
            // both servers run it, so writes leave them in step.
            let warm_reply = cached.query("g", warming);
            prop_assert_eq!(comparable(&warm_reply), comparable(&reference.query("g", warming)));
            let got = cached.query("g", query);
            if let RespValue::Array(_) = got {
                prop_assert!(cached_flag(&got), "{} did not reuse the plan of {}", query, warming);
            }
            prop_assert_eq!(comparable(&got), comparable(&reference.query("g", query)), "{}", query);
        }
    }
}

/// The integer `key` of a `GRAPH.INFO` reply.
fn info(server: &RedisGraphServer, key: &str) -> i64 {
    let RespValue::Array(sections) = server.handle(&RespValue::command(&["GRAPH.INFO"])) else {
        panic!("GRAPH.INFO is an array")
    };
    for section in &sections {
        let RespValue::Array(parts) = section else { continue };
        let Some(RespValue::Array(pairs)) = parts.get(1) else { continue };
        for pair in pairs.chunks(2) {
            if let [RespValue::BulkString(k), RespValue::Integer(v)] = pair {
                if k == key {
                    return *v;
                }
            }
        }
    }
    panic!("GRAPH.INFO has no `{key}`")
}

#[test]
fn literal_spellings_share_a_plan_but_plan_shaping_literals_do_not() {
    let server = seeded_server(8, DEFAULT_PLAN_CACHE_SIZE);
    let reference = seeded_server(8, 0);
    // Runs `first` then `second` and returns how many plan-cache entries
    // they added and whether `second` was served from the cache; each reply
    // must be what the uncached server answers.
    let pair = |first: &str, second: &str| -> (i64, bool) {
        let before = info(&server, "plan_cache_entries");
        let mut replies = Vec::new();
        for query in [first, second] {
            let reply = server.query("g", query);
            assert!(matches!(reply, RespValue::Array(_)), "{query}: {reply}");
            assert_eq!(comparable(&reply), comparable(&reference.query("g", query)), "{query}");
            replies.push(reply);
        }
        (info(&server, "plan_cache_entries") - before, cached_flag(&replies[1]))
    };

    // Two values of one shape: one plan, the second execution a hit.
    for (first, second) in [
        (
            "MATCH (n:Node) WHERE n.id = 3 RETURN n.name",
            "MATCH (n:Node) WHERE n.id = 5 RETURN n.name",
        ),
        (
            "MATCH (n:Node) WHERE n.name = 'n1' RETURN n.id",
            "MATCH (n:Node) WHERE n.name = \"n2\" RETURN n.id",
        ),
        ("UNWIND [-1, 2.5, 'x'] AS v RETURN v", "UNWIND [-4, 0.5, 'y'] AS v RETURN v"),
        (
            "CALL algo.bfs(0) YIELD node RETURN count(node)",
            "CALL algo.bfs(6) YIELD node RETURN count(node)",
        ),
    ] {
        assert_eq!(pair(first, second), (1, true), "{first} / {second}");
    }

    // Literals that shape the plan keep one entry per value.
    for (first, second) in [
        (
            "MATCH (n:Node) RETURN n.id ORDER BY n.id LIMIT 2",
            "MATCH (n:Node) RETURN n.id ORDER BY n.id LIMIT 3",
        ),
        (
            "MATCH (n:Node) RETURN n.id ORDER BY n.id SKIP 1",
            "MATCH (n:Node) RETURN n.id ORDER BY n.id SKIP 4",
        ),
        (
            "MATCH (s:Node)-[:LINK*1..1]->(t) WHERE s.id = 0 RETURN count(t)",
            "MATCH (s:Node)-[:LINK*1..2]->(t) WHERE s.id = 0 RETURN count(t)",
        ),
        (
            "MATCH (s:Node)-[:LINK*2]->(t) WHERE s.id = 0 RETURN count(t)",
            "MATCH (s:Node)-[:LINK*3]->(t) WHERE s.id = 0 RETURN count(t)",
        ),
        ("MATCH (n:Node {id: 1}) RETURN n.name", "MATCH (n:Node {id: 2}) RETURN n.name"),
        ("MATCH (n:Node {id: -1}) RETURN n.name", "MATCH (n:Node {id: -2}) RETURN n.name"),
        ("MATCH (n:Node {name: 'n1'}) RETURN n.id", "MATCH (n:Node {name: 'n2'}) RETURN n.id"),
        (
            "MATCH (n:Node) WHERE (n.id < 3) = TRUE RETURN count(n)",
            "MATCH (n:Node) WHERE (n.id < 3) = FALSE RETURN count(n)",
        ),
    ] {
        assert_eq!(pair(first, second), (2, false), "{first} / {second}");
    }
}

#[test]
fn a_header_parameter_spelled_like_a_placeholder_does_not_collide_with_one() {
    let server = seeded_server(4, DEFAULT_PLAN_CACHE_SIZE);
    let row = |query: &str| -> Vec<RespValue> {
        let reply = server.query("g", query);
        let RespValue::Array(sections) = &reply else { panic!("{query}: {reply}") };
        let RespValue::Array(rows) = &sections[1] else { panic!("{query}: {reply}") };
        let RespValue::Array(row) = &rows[0] else { panic!("{query}: {reply}") };
        row.clone()
    };
    // Lifted literals are bound as `?0`, `?1`, …: a header can only spell
    // that name back-quoted, and then the body's own literal still wins.
    assert_eq!(
        row("CYPHER `?0`=99 p0=7 RETURN 5 AS lit, $p0 AS p"),
        [RespValue::Integer(5), RespValue::Integer(7)]
    );
    assert_eq!(
        row("CYPHER `?1`=99 `?0`=98 RETURN 6 AS lit, 8 AS other"),
        [RespValue::Integer(6), RespValue::Integer(8)]
    );
    // A body cannot reference one: `$?0` is not a parameter but a lexer
    // error, reported as such rather than served from the cached shape.
    let reply = server.query("g", "RETURN $?0 AS lit");
    let RespValue::Error(message) = reply else { panic!("expected an error, got {reply}") };
    assert!(message.contains("E_EMPTY_PARAMETER"), "{message}");
}

#[test]
fn names_created_after_a_plan_was_cached_are_read() {
    // A cached plan names property keys and labels by index into its own
    // name table; each execution resolves that table against the graph it
    // reads. A key or label created after the plan was cached must be read
    // by the next execution of the cached plan, exactly as a server that
    // plans every query afresh reads it.
    let cached = seeded_server(6, DEFAULT_PLAN_CACHE_SIZE);
    let reference = seeded_server(6, 0);
    let reads = [
        "MATCH (n:Node) WHERE n.id = 1 RETURN n.fresh",
        "MATCH (n:Node) WHERE n.fresh = 7 RETURN n.id ORDER BY n.id",
        "MATCH (n:Node:Fresh) RETURN n.id, n.fresh ORDER BY n.id",
        "MATCH (a:Node)-[:LINK]->(b:Node:Fresh) RETURN a.id, b.id ORDER BY a.id",
        // A label scan, a single hop, a fused 2-hop and a count pushdown,
        // each on a label or relationship type the graph does not have yet.
        "MATCH (n:Fresh) RETURN n.id ORDER BY n.id",
        "MATCH (a:Node)-[:FRESH]->(b) RETURN a.id, b.id ORDER BY a.id",
        "MATCH (a:Node)-[:FRESH]->()-[:LINK]->(c) RETURN a.id, c.id ORDER BY a.id, c.id",
        "MATCH (a:Node)-[:FRESH*1..2]->(b) RETURN count(DISTINCT b)",
        // A multi-type pattern naming a type the graph does not have yet
        // matches the types it has.
        "MATCH (a:Node)-[:LINK|FRESH]->(b) RETURN count(b)",
    ];
    let run_reads = |pass: &str| -> Vec<RespValue> {
        reads
            .iter()
            .map(|query| {
                let got = cached.query("g", query);
                assert_eq!(cached_flag(&got), pass == "after", "{pass}: {query}");
                assert_eq!(comparable(&got), comparable(&reference.query("g", query)), "{query}");
                got
            })
            .collect()
    };
    let rows = |reply: &RespValue| {
        let RespValue::Array(sections) = reply else { panic!("not a query reply: {reply}") };
        sections[1].clone()
    };
    let int = RespValue::Integer;
    let row = |values: Vec<RespValue>| RespValue::Array(values);
    let before = run_reads("before");
    let empty = RespValue::Array(vec![]);
    assert!(before[1..7].iter().all(|r| rows(r) == empty), "{before:?}");
    assert_eq!(rows(&before[7]), row(vec![row(vec![int(0)])]));
    assert_eq!(rows(&before[8]), row(vec![row(vec![int(12)])]));
    for write in [
        "MATCH (n:Node) WHERE n.id = 1 SET n.fresh = 7",
        "MATCH (a:Node) WHERE a.id = 0 CREATE (a)-[:LINK]->(:Node:Fresh {id: 100, fresh: 7})",
        "MATCH (a:Node), (b:Node), (c:Node) WHERE a.id = 1 AND b.id = 2 AND c.id = 3 \
         CREATE (a)-[:FRESH]->(b)-[:FRESH]->(c)",
    ] {
        assert_eq!(comparable(&cached.query("g", write)), comparable(&reference.query("g", write)));
    }
    let after = run_reads("after");
    let pairs =
        |pairs: &[(i64, i64)]| row(pairs.iter().map(|&(a, b)| row(vec![int(a), int(b)])).collect());
    assert_eq!(rows(&after[0]), row(vec![row(vec![int(7)])]));
    assert_eq!(rows(&after[1]), row(vec![row(vec![int(1)]), row(vec![int(100)])]));
    assert_eq!(rows(&after[2]), row(vec![row(vec![int(100), int(7)])]));
    assert_eq!(rows(&after[3]), pairs(&[(0, 100)]));
    assert_eq!(rows(&after[4]), row(vec![row(vec![int(100)])]));
    assert_eq!(rows(&after[5]), pairs(&[(1, 2), (2, 3)]));
    // The ring's LINKs run k → k+1 and k → k+3 (mod 6).
    assert_eq!(rows(&after[6]), pairs(&[(1, 3), (1, 5), (2, 0), (2, 4)]));
    assert_eq!(rows(&after[7]), row(vec![row(vec![int(2)])]));
    assert_eq!(rows(&after[8]), row(vec![row(vec![int(15)])]));
}

#[test]
fn an_id_seek_served_from_one_cached_plan_answers_each_value_exactly() {
    // The four spellings share one skeleton (the value is lifted out of the
    // key), and the seek alone answers `id(s) = value`: `3.0` is node 3,
    // `3.5` and `'3'` are no node.
    let server = seeded_server(6, DEFAULT_PLAN_CACHE_SIZE);
    let reference = seeded_server(6, 0);
    for (value, count, cached) in
        [("3", 1, false), ("3.5", 0, true), ("3.0", 1, true), ("'3'", 0, true)]
    {
        let query = format!("MATCH (s:Node) WHERE id(s) = {value} RETURN id(s)");
        let reply = server.query("g", &query);
        assert_eq!(cached_flag(&reply), cached, "{query}");
        assert_eq!(header_and_sorted_rows(&reply).1.len(), count, "{query}");
        assert_eq!(comparable(&reply), comparable(&reference.query("g", &query)), "{query}");
    }
}
