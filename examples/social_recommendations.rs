//! Real-time recommendation engine — one of the use cases the paper's
//! introduction motivates ("real-time recommendation engines,
//! personalization, … social networking").
//!
//! A Twitter-like follower graph is generated, loaded, and each query
//! recommends new accounts to follow: accounts followed by the accounts you
//! follow, ranked by how many of your follows follow them, excluding the ones
//! you already follow.
//!
//! ```text
//! cargo run --release --example social_recommendations
//! ```

use datagen::PowerLawConfig;
use redisgraph_core::{Graph, Value};
use std::time::Instant;

fn main() {
    // A scaled-down follower network with the real graph's degree shape.
    let network = datagen::powerlaw::generate(&PowerLawConfig {
        num_vertices: 2_000,
        edges_per_vertex: 12,
        random_fraction: 0.15,
        seed: 11,
    });
    let mut g = Graph::new("followers");
    g.bulk_load(network.num_vertices, &network.edges);
    println!("loaded follower graph: {} accounts, {} follow edges", g.node_count(), g.edge_count());

    // Recommend for a handful of accounts.
    for account in [5u64, 42, 300] {
        let start = Instant::now();
        // friends-of-friends, grouped and ranked by the number of common follows
        let recs = g
            .query_readonly(&format!(
                "MATCH (me)-[:LINK]->(friend)-[:LINK]->(candidate) \
                 WHERE id(me) = {account} AND NOT id(candidate) = {account} \
                 RETURN id(candidate), count(friend) AS strength \
                 ORDER BY strength DESC LIMIT 5"
            ))
            .expect("recommendation query succeeds");
        let elapsed = start.elapsed();

        println!(
            "\naccount {account}: top follow recommendations ({:.2} ms)",
            elapsed.as_secs_f64() * 1e3
        );
        if recs.rows.is_empty() {
            println!("    (no second-degree connections)");
        }
        for row in &recs.rows {
            let candidate = &row[0];
            let strength = row[1].as_i64().unwrap_or(0);
            println!("    account {candidate:<8} followed by {strength} of your follows");
        }

        // Cross-check the candidate pool size with the algebraic 2-hop reach.
        let pool = g.khop_count(account, 2);
        let direct = g.khop_count(account, 1);
        println!(
            "    candidate pool: {} accounts within 2 hops ({} followed directly)",
            pool, direct
        );
        assert!(pool >= direct);
    }

    // A personalization-style query: accounts that both 5 and 42 can reach in
    // one hop (shared interests).
    let shared = g
        .query_readonly(
            "MATCH (a)-[:LINK]->(x)<-[:LINK]-(b) WHERE id(a) = 5 AND id(b) = 42 RETURN count(x)",
        )
        .expect("shared-interest query succeeds");
    if let Some(Value::Int(n)) = shared.scalar() {
        println!("\naccounts followed by both 5 and 42: {n}");
    }

    // Who are the most influential accounts overall? PageRank over the exact
    // same adjacency matrices the recommendation queries traversed, via the
    // CALL procedure surface — analytics as a by-product of the query engine.
    let start = Instant::now();
    let influencers = g
        .query_readonly(
            "CALL algo.pagerank() YIELD node, score \
             RETURN node, score ORDER BY score DESC LIMIT 5",
        )
        .expect("pagerank procedure succeeds");
    println!(
        "\nmost influential accounts by PageRank ({:.2} ms):",
        start.elapsed().as_secs_f64() * 1e3
    );
    for row in &influencers.rows {
        let account = &row[0];
        let score = row[1].as_f64().unwrap_or(0.0);
        println!("    account {account:<12} score {score:.5}");
    }

    // Cross-check: how fragmented is the follower graph?
    let components = g
        .query_readonly("CALL algo.wcc() YIELD component RETURN count(DISTINCT component)")
        .expect("wcc procedure succeeds");
    if let Some(Value::Int(n)) = components.scalar() {
        println!("\nweakly connected components in the follower graph: {n}");
    }
}
