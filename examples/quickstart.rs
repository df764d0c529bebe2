//! Quickstart: create a graph, run Cypher queries, inspect the execution plan.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use redisgraph_core::Graph;

fn main() {
    // A graph is an in-process object; the server crate adds the Redis keyspace
    // and RESP protocol on top of it (see the `redis_server_session` example).
    let mut g = Graph::new("quickstart");

    // Write queries mutate the graph and report statistics.
    let created = g
        .query(
            "CREATE (ann:Person {name: 'Ann', age: 34}), \
                    (bob:Person {name: 'Bob', age: 28}), \
                    (cat:Person {name: 'Cat', age: 41}), \
                    (acme:Company {name: 'Acme'}), \
                    (ann)-[:KNOWS {since: 2015}]->(bob), \
                    (bob)-[:KNOWS {since: 2019}]->(cat), \
                    (ann)-[:WORKS_AT]->(acme), \
                    (cat)-[:WORKS_AT]->(acme)",
        )
        .expect("create succeeds");
    println!("-- CREATE statistics --");
    println!("{}", created.to_table());

    // Read queries: traversals become sparse-matrix operations internally.
    let friends_of_friends = g
        .query(
            "MATCH (a:Person {name: 'Ann'})-[:KNOWS*1..2]->(p) RETURN p.name, p.age ORDER BY p.age",
        )
        .expect("query succeeds");
    println!("-- Ann's 1..2-hop KNOWS neighbourhood --");
    println!("{}", friends_of_friends.to_table());

    let colleagues = g
        .query(
            "MATCH (a:Person)-[:WORKS_AT]->(c:Company)<-[:WORKS_AT]-(b:Person) \
             WHERE a.name < b.name RETURN a.name, b.name, c.name",
        )
        .expect("query succeeds");
    println!("-- colleagues (same company) --");
    println!("{}", colleagues.to_table());

    let stats = g
        .query("MATCH (p:Person) RETURN count(p), avg(p.age), min(p.age), max(p.age)")
        .expect("query succeeds");
    println!("-- aggregate over people --");
    println!("{}", stats.to_table());

    // GRAPH.EXPLAIN equivalent: show how a query compiles to plan operations.
    println!("-- execution plan for the k-hop benchmark query --");
    for line in g
        .explain("MATCH (s:Node)-[*1..6]->(t) WHERE id(s) = 0 RETURN count(t)")
        .expect("explain succeeds")
    {
        println!("    {line}");
    }
}
