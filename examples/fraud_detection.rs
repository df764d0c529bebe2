//! Fraud detection — another use case from the paper's introduction.
//!
//! Builds a payment network of customers, cards, merchants and devices, then:
//!
//! 1. finds *card sharing rings* — distinct customers using the same card;
//! 2. finds *device collusion* — customers transacting with a flagged merchant
//!    through a device also used by another customer;
//! 3. computes the *blast radius* of a flagged account: every entity within
//!    k hops, using the same variable-length traversal the k-hop benchmark
//!    measures.
//!
//! ```text
//! cargo run --release --example fraud_detection
//! ```

use redisgraph_core::{Graph, Value};

fn main() {
    let mut g = Graph::new("payments");

    // Customers, cards, devices, merchants.
    g.query(
        "CREATE (:Customer {name: 'alice', risk: 1}), (:Customer {name: 'bob', risk: 2}), \
                (:Customer {name: 'carol', risk: 8}), (:Customer {name: 'dave', risk: 3}), \
                (:Card {number: 'C-100'}), (:Card {number: 'C-200'}), \
                (:Device {fingerprint: 'D-1'}), (:Device {fingerprint: 'D-2'}), \
                (:Merchant {name: 'GoodShop'}), (:Merchant {name: 'ShadyShop', flagged: true})",
    )
    .unwrap();

    // Relationships: who holds which card, which device was used, where money went.
    for (a, rel, b) in [
        ("alice", "HOLDS", "C-100"),
        ("bob", "HOLDS", "C-100"), // same card as alice → ring
        ("carol", "HOLDS", "C-200"),
        ("dave", "HOLDS", "C-200"),
    ] {
        g.query(&format!(
            "MATCH (c:Customer {{name: '{a}'}}), (k:Card {{number: '{b}'}}) CREATE (c)-[:{rel}]->(k)"
        ))
        .unwrap();
    }
    for (customer, device) in [("alice", "D-1"), ("carol", "D-2"), ("dave", "D-2")] {
        g.query(&format!(
            "MATCH (c:Customer {{name: '{customer}'}}), (d:Device {{fingerprint: '{device}'}}) CREATE (c)-[:USED]->(d)"
        ))
        .unwrap();
    }
    for (customer, merchant, amount) in [
        ("alice", "GoodShop", 30),
        ("carol", "ShadyShop", 900),
        ("dave", "ShadyShop", 850),
        ("bob", "GoodShop", 12),
    ] {
        g.query(&format!(
            "MATCH (c:Customer {{name: '{customer}'}}), (m:Merchant {{name: '{merchant}'}}) \
             CREATE (c)-[:PAID {{amount: {amount}}}]->(m)"
        ))
        .unwrap();
    }
    println!("payment network: {} nodes, {} edges\n", g.node_count(), g.edge_count());

    // 1. Card-sharing rings: two different customers holding the same card.
    let rings = g
        .query(
            "MATCH (a:Customer)-[:HOLDS]->(card:Card)<-[:HOLDS]-(b:Customer) \
             WHERE a.name < b.name \
             RETURN a.name, b.name, card.number",
        )
        .unwrap();
    println!("card-sharing rings:");
    println!("{}", rings.to_table());
    assert!(!rings.rows.is_empty());

    // 2. Device collusion around flagged merchants: customers paying a flagged
    //    merchant from a device that another customer also used.
    let collusion = g
        .query(
            "MATCH (m:Merchant {flagged: true})<-[p:PAID]-(c:Customer)-[:USED]->(d:Device)<-[:USED]-(other:Customer) \
             WHERE p.amount > 500 AND c.name <> other.name \
             RETURN c.name, other.name, d.fingerprint, p.amount ORDER BY p.amount DESC",
        )
        .unwrap();
    println!("device collusion near flagged merchants:");
    println!("{}", collusion.to_table());

    // 3. Blast radius of the riskiest customer: everything reachable in ≤3 hops
    //    in either direction (the k-hop primitive of the paper's benchmark).
    let risky = g.query("MATCH (c:Customer) RETURN c.name ORDER BY c.risk DESC LIMIT 1").unwrap();
    let name = risky.rows[0][0].to_string();
    let blast = g
        .query(&format!(
            "MATCH (c:Customer {{name: '{name}'}})-[*1..3]-(entity) RETURN count(DISTINCT entity)"
        ))
        .unwrap();
    if let Some(Value::Int(n)) = blast.scalar() {
        println!("blast radius of '{name}' (≤3 hops, any direction): {n} entities");
        assert!(*n > 0);
    }
}
