//! Cross-crate integration tests: generated datasets flow through both engines,
//! the Cypher path agrees with the algebraic fast path and with the baseline,
//! and the server substrate serves the benchmark workload correctly under
//! concurrency.

use baseline::AdjacencyListGraph;
use datagen::{EdgeList, KhopWorkload, PowerLawConfig, RmatConfig, SeedSelection};
use redisgraph_core::{Graph, Value};
use redisgraph_server::{RedisGraphServer, RespValue, ServerConfig};
use std::sync::Arc;

/// A generated graph loaded into both engines under test.
struct Loaded {
    edges: EdgeList,
    redisgraph: Graph,
    baseline: AdjacencyListGraph,
}

fn load(name: &str, edges: EdgeList) -> Loaded {
    let mut redisgraph = Graph::new(name);
    redisgraph.bulk_load(edges.num_vertices, &edges.edges);
    let baseline = AdjacencyListGraph::from_edge_list(edges.num_vertices, &edges.edges);
    Loaded { edges, redisgraph, baseline }
}

/// The Graph500 RMAT graph at ≈28 edges per vertex, as in the TigerGraph
/// benchmark's instance.
fn graph500(scale: u32, seed: u64) -> Loaded {
    let config = RmatConfig { scale, edge_factor: 28, seed, ..RmatConfig::default() };
    load("Graph500", datagen::rmat::generate(&config))
}

/// The Twitter-like power-law graph at ≈35 edges per vertex.
fn twitter(scale: u32, seed: u64) -> Loaded {
    let config = PowerLawConfig {
        num_vertices: 1u64 << scale,
        edges_per_vertex: 35,
        random_fraction: 0.15,
        seed,
    };
    load("Twitter", datagen::powerlaw::generate(&config))
}

/// The three implementations of the k-hop count — baseline BFS, algebraic BFS,
/// and the full Cypher query — must agree on every seed and every k.
#[test]
fn khop_agreement_across_all_three_paths() {
    let loaded = graph500(9, 5);
    let degrees = loaded.edges.out_degrees();
    let workload = KhopWorkload::with_seed_count(
        2,
        loaded.edges.num_vertices,
        &degrees,
        SeedSelection::NonIsolated,
        3,
        8,
    );
    for &seed in &workload.seeds {
        for k in [1u32, 2, 3, 6] {
            let algebraic = loaded.redisgraph.khop_count(seed, k);
            let pointer_chasing = loaded.baseline.khop_count(seed, k);
            assert_eq!(algebraic, pointer_chasing, "seed {seed} k {k}");

            let query =
                format!("MATCH (s:Node)-[*1..{k}]->(t) WHERE id(s) = {seed} RETURN count(t)");
            let rs = loaded.redisgraph.query_readonly(&query).unwrap();
            let via_cypher = rs.scalar().and_then(|v| v.as_i64()).unwrap() as u64;
            assert_eq!(via_cypher, algebraic, "cypher path diverged at seed {seed} k {k}");
        }
    }
}

/// `*0..n` variable-length patterns include the start node (hop 0) all the
/// way through parser → planner → executor.
/// Regression: the k-hop BFS started its hop loop at 1 and silently dropped
/// the source from the reached set.
#[test]
fn zero_min_hops_includes_the_start_node_end_to_end() {
    let mut g = Graph::new("zero-hop");
    // path 0→1→2 plus an isolated node 3
    g.query("CREATE (:Node {id: 0})-[:LINK]->(:Node {id: 1})-[:LINK]->(:Node {id: 2})").unwrap();
    g.query("CREATE (:Node {id: 3})").unwrap();

    // *0..2 from node 0 reaches {0, 1, 2}.
    let rs = g.query("MATCH (s:Node)-[*0..2]->(t) WHERE id(s) = 0 RETURN count(t)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(3)));
    // *0 (exactly zero hops) matches only the start node, even isolated.
    let rs = g.query("MATCH (s:Node)-[*0]->(t) WHERE id(s) = 3 RETURN count(t)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(1)));
    // Typed zero-min patterns take the typed-BFS path.
    let rs = g.query("MATCH (s:Node)-[:LINK*0..1]->(t) WHERE id(s) = 1 RETURN count(t)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
    // min ≥ 1 still excludes the start node.
    let rs = g.query("MATCH (s:Node)-[*1..2]->(t) WHERE id(s) = 0 RETURN count(t)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

/// The Twitter-like dataset behaves the same way (denser, heavy-tailed).
#[test]
fn khop_agreement_on_twitter_dataset() {
    let loaded = twitter(9, 6);
    for seed in [1u64, 7, 63, 200] {
        for k in [1u32, 2, 3] {
            assert_eq!(
                loaded.redisgraph.khop_count(seed, k),
                loaded.baseline.khop_count(seed, k),
                "seed {seed} k {k}"
            );
        }
    }
}

/// Graph mutations through Cypher stay consistent with the matrices: counts
/// reported by queries match the store after interleaved writes and deletes.
#[test]
fn interleaved_writes_keep_matrices_consistent() {
    let mut g = Graph::new("consistency");
    // build a ring of 20 nodes
    g.query("CREATE (:Node {id: 0})").unwrap();
    for i in 1..20 {
        g.query(&format!("CREATE (:Node {{id: {i}}})")).unwrap();
    }
    for i in 0..20u64 {
        let j = (i + 1) % 20;
        g.query(&format!(
            "MATCH (a:Node {{id: {i}}}), (b:Node {{id: {j}}}) CREATE (a)-[:NEXT]->(b)"
        ))
        .unwrap();
    }
    assert_eq!(g.node_count(), 20);
    assert_eq!(g.edge_count(), 20);
    // every node reaches every other node in ≤ 19 hops around the ring
    assert_eq!(g.khop_count(0, 19), 19);
    // the Cypher count agrees
    let rs = g.query("MATCH (s:Node {id: 0})-[*1..19]->(t) RETURN count(t)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(19)));

    // break the ring and check reachability drops
    g.query("MATCH (a:Node {id: 9})-[r:NEXT]->(b) DELETE r").unwrap();
    assert_eq!(g.edge_count(), 19);
    assert_eq!(g.khop_count(0, 19), 9, "nodes past the cut are unreachable");

    // delete a node: its incident edges disappear from traversals
    g.query("MATCH (n:Node {id: 5}) DETACH DELETE n").unwrap();
    assert_eq!(g.node_count(), 19);
    assert_eq!(g.khop_count(0, 19), 4, "reachability stops at the deleted node");
}

/// The RMAT generator, bulk load, and the benchmark's Cypher query all work
/// through the server substrate, concurrently, with consistent answers.
#[test]
fn server_serves_benchmark_workload_concurrently() {
    let el = datagen::rmat::generate(&RmatConfig {
        scale: 8,
        edge_factor: 8,
        seed: 3,
        ..Default::default()
    });
    let server = Arc::new(RedisGraphServer::new(ServerConfig {
        thread_count: 4,
        ..ServerConfig::default()
    }));
    server.graph("bench").write().bulk_load(el.num_vertices, &el.edges);

    // Expected answers straight from the core library.
    let expected: Vec<(u64, u64)> =
        (0..16u64).map(|seed| (seed, server.graph("bench").read().khop_count(seed, 2))).collect();

    let mut clients = Vec::new();
    for chunk in expected.chunks(4) {
        let server = Arc::clone(&server);
        let chunk = chunk.to_vec();
        clients.push(std::thread::spawn(move || {
            for (seed, expected_count) in chunk {
                let query =
                    format!("MATCH (s:Node)-[*1..2]->(t) WHERE id(s) = {seed} RETURN count(t)");
                let reply = server.query("bench", &query);
                let RespValue::Array(sections) = reply else { panic!("bad reply") };
                let RespValue::Array(rows) = &sections[1] else { panic!("bad rows") };
                let RespValue::Array(row) = &rows[0] else { panic!("bad row") };
                let RespValue::Integer(count) = row[0] else { panic!("bad count") };
                assert_eq!(count as u64, expected_count, "seed {seed}");
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }
}

/// Writes and reads interleave correctly through the server's lock discipline.
#[test]
fn server_mixes_reads_and_writes() {
    let server = RedisGraphServer::new(ServerConfig { thread_count: 2, ..ServerConfig::default() });
    server.query("g", "CREATE (:Counter {n: 0})");
    for i in 1..=10 {
        let reply = server.query("g", &format!("MATCH (c:Counter) SET c.n = {i} RETURN c.n"));
        assert!(!matches!(reply, RespValue::Error(_)), "write {i} failed: {reply}");
        let read = server.query("g", "MATCH (c:Counter) RETURN c.n");
        let RespValue::Array(sections) = read else { panic!() };
        let RespValue::Array(rows) = &sections[1] else { panic!() };
        let RespValue::Array(row) = &rows[0] else { panic!() };
        assert_eq!(row[0], RespValue::Integer(i));
    }
}

/// The workload generator's query text is accepted verbatim by the engine —
/// i.e. the benchmark driver and the query language stay in sync.
#[test]
fn workload_queries_parse_and_execute() {
    let loaded = graph500(8, 11);
    let degrees = loaded.edges.out_degrees();
    let suite = KhopWorkload::full_suite(
        loaded.edges.num_vertices,
        &degrees,
        SeedSelection::NonIsolated,
        13,
    );
    for workload in suite.iter() {
        let seed = workload.seeds[0];
        let rs = loaded
            .redisgraph
            .query_readonly(&workload.cypher_query(seed))
            .unwrap_or_else(|e| panic!("workload query failed for k={}: {e}", workload.k));
        let count = rs.scalar().and_then(|v| v.as_i64()).unwrap();
        assert_eq!(count as u64, loaded.redisgraph.khop_count(seed, workload.k));
    }
}

/// The `CALL algo.*` procedures, the direct `algo` crate entry points, and
/// the naive baseline oracles must agree on a generated RMAT graph — the
/// full "analytics on the query engine's matrices" loop, end to end.
#[test]
fn algo_procedures_agree_with_direct_calls_and_baseline() {
    let el = datagen::rmat::generate(&RmatConfig {
        scale: 7,
        edge_factor: 4,
        seed: 23,
        ..RmatConfig::default()
    });
    let mut g = Graph::new("algo-e2e");
    g.bulk_load(el.num_vertices, &el.edges);

    // Triangles: Cypher CALL == algo crate == baseline oracle.
    let via_cypher = g
        .query_readonly("CALL algo.triangles() YIELD triangles RETURN triangles")
        .unwrap()
        .scalar()
        .and_then(|v| v.as_i64())
        .unwrap() as u64;
    let adj = graphblas::DeltaMatrix::from_matrix(g.adjacency_matrix().into_owned());
    assert_eq!(via_cypher, algo::triangle_count(&[&adj]));
    assert_eq!(via_cypher, baseline::algorithms::triangle_count(el.num_vertices, &el.edges));

    // WCC: component count agrees with the union-find oracle.
    let rs = g
        .query_readonly("CALL algo.wcc() YIELD component RETURN count(DISTINCT component)")
        .unwrap();
    let via_cypher = rs.scalar().and_then(|v| v.as_i64()).unwrap() as usize;
    let mut oracle = baseline::algorithms::wcc(el.num_vertices, &el.edges);
    oracle.sort_unstable();
    oracle.dedup();
    assert_eq!(via_cypher, oracle.len());

    // BFS levels through the record pipeline match the queue-BFS oracle.
    let oracle_levels = baseline::algorithms::bfs_levels(el.num_vertices, &el.edges, 0);
    let rs = g
        .query_readonly("CALL algo.bfs(0) YIELD node, level RETURN node, level ORDER BY level")
        .unwrap();
    assert_eq!(rs.rows.len(), oracle_levels.iter().filter(|&&l| l >= 0).count());
    for row in &rs.rows {
        let Value::Node(node) = row[0] else { panic!("expected a node") };
        assert_eq!(row[1].as_i64().unwrap(), oracle_levels[node as usize]);
    }
}

/// `algo.sssp` over parallel weighted edges of two types, some folded and
/// some pending, some without the weight property and some deleted through
/// Cypher: the weight matrix keeps each pair's cheapest live edge, as the
/// Bellman–Ford oracle over the edge list does.
#[test]
fn sssp_over_parallel_weighted_edges_matches_the_baseline() {
    let n = 12u64;
    let mut g = Graph::new("sssp-parallel");
    g.set_flush_threshold(1_000_000);
    for _ in 0..n {
        g.add_node(&["N"], vec![]);
    }
    let mut state = 7u64;
    let mut next = |bound: u64| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    // (src, dst, type, weight property), then the explicit parallel pairs.
    let mut edges: Vec<(u64, u64, &str, Option<f64>)> = (0..80)
        .map(|i| {
            let (src, dst, w) = (next(n), next(n), next(9) as f64 * 0.5 + 0.25);
            (src, dst, ["R", "S"][i % 2], (i % 5 != 0).then_some(w))
        })
        .collect();
    edges.extend([(0, 1, "R", Some(4.0)), (0, 1, "R", Some(0.5)), (0, 1, "R", None)]);
    edges.extend([(1, 2, "S", Some(3.0)), (1, 2, "S", Some(0.125)), (1, 2, "R", Some(2.0))]);
    let mut live = Vec::new();
    for (i, &(src, dst, rel, w)) in edges.iter().enumerate() {
        let props = w.map(|w| vec![("w", Value::Float(w))]).unwrap_or_default();
        live.push((g.add_edge(src, dst, rel, props).unwrap(), src, dst, w.unwrap_or(1.0)));
        if i == 40 {
            g.sync_matrices();
        }
    }
    // Delete the cheap parallel edge 1 -[:S]-> 2 and a few others.
    for victim in [live[84].0, live[3].0, live[50].0] {
        let rs = g.query(&format!("MATCH ()-[e]->() WHERE id(e) = {victim} DELETE e")).unwrap();
        assert_eq!(rs.stats.relationships_deleted, 1);
        live.retain(|&(id, ..)| id != victim);
    }
    let oracle: Vec<(u64, u64, f64)> = live.iter().map(|&(_, s, d, w)| (s, d, w)).collect();
    for source in 0..n {
        let expect = baseline::algorithms::sssp(n, &oracle, source);
        let text =
            format!("CALL algo.sssp({source}, 'w') YIELD node, distance RETURN node, distance");
        let rs = g.query_readonly(&text).unwrap();
        assert_eq!(rs.rows.len(), expect.iter().filter(|d| d.is_finite()).count(), "from {source}");
        for row in &rs.rows {
            let Value::Node(node) = row[0] else { panic!("expected a node") };
            let got = row[1].as_f64().unwrap();
            assert!((got - expect[node as usize]).abs() < 1e-9, "{source} → {node}: {got}");
        }
    }
}
