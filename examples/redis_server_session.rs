//! A client session against the Redis-like server substrate: commands are
//! framed in RESP exactly as a Redis client would send them, dispatched by the
//! single main thread, and executed on the module threadpool — the
//! architecture §II of the paper describes.
//!
//! ```text
//! cargo run --release --example redis_server_session
//! ```

use redisgraph_server::{RedisGraphServer, RespValue, ServerConfig, StreamDecoder};

fn send(server: &RedisGraphServer, parts: &[&str]) -> RespValue {
    let command = RespValue::command(parts);
    // Round-trip through the wire encoding to demonstrate the protocol layer:
    // the bytes a client would write, through the decoder a connection runs.
    let bytes = command.encode();
    let (mut frames, _, _) = StreamDecoder::new().feed(&bytes);
    let decoded = frames.pop().expect("well-formed frame");
    let reply = server.handle(&decoded);
    println!("> {}", parts.join(" "));
    println!("{reply}\n");
    reply
}

fn main() {
    // THREAD_COUNT 4: the module loads with a four-worker query pool.
    let server = RedisGraphServer::new(ServerConfig { thread_count: 4, ..ServerConfig::default() });

    send(&server, &["PING"]);

    send(
        &server,
        &[
            "GRAPH.QUERY",
            "motogp",
            "CREATE (:Rider {name: 'Valentino Rossi'})-[:rides]->(:Team {name: 'Yamaha'}), \
                    (:Rider {name: 'Dani Pedrosa'})-[:rides]->(:Team {name: 'Honda'}), \
                    (:Rider {name: 'Andrea Dovizioso'})-[:rides]->(:Team {name: 'Ducati'})",
        ],
    );

    let reply = send(
        &server,
        &[
            "GRAPH.QUERY",
            "motogp",
            "MATCH (r:Rider)-[:rides]->(t:Team) WHERE t.name = 'Yamaha' RETURN r.name, t.name",
        ],
    );
    assert!(matches!(reply, RespValue::Array(_)));

    send(
        &server,
        &["GRAPH.EXPLAIN", "motogp", "MATCH (r:Rider)-[:rides]->(t:Team) RETURN count(r)"],
    );

    send(&server, &["GRAPH.QUERY", "motogp", "MATCH (r:Rider) RETURN count(r)"]);

    send(&server, &["GRAPH.LIST"]);
    send(&server, &["GRAPH.DELETE", "motogp"]);
    send(&server, &["GRAPH.LIST"]);

    // The same session over a *real* socket: bind the TCP server on an
    // ephemeral loopback port, connect the blocking client, and let the
    // bytes cross an actual network stack — framing loop, worker pool,
    // pipelined replies and all.
    println!("--- over TCP ---\n");
    let net = redisgraph_server::GraphServer::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    println!("listening on {}\n", net.local_addr());
    let mut client =
        redisgraph_server::RespClient::connect(net.local_addr()).expect("connect to self");
    for (graph, query) in [
        ("motogp", "CREATE (:Rider {name: 'Marc Marquez'})-[:rides]->(:Team {name: 'Honda'})"),
        ("motogp", "MATCH (r:Rider)-[:rides]->(t:Team) RETURN r.name, t.name"),
    ] {
        let reply = client.query(graph, query).expect("round-trip");
        println!("> GRAPH.QUERY {graph} '{query}'");
        println!("{reply}\n");
    }
    // A pipelined burst: three commands in one write, three replies in order.
    let replies = client
        .pipeline(&[
            RespValue::command(&["PING"]),
            RespValue::command(&["GRAPH.QUERY", "motogp", "MATCH (r:Rider) RETURN count(r)"]),
            RespValue::command(&["GRAPH.CONFIG", "GET", "MAX_QUERY_BUFFER"]),
        ])
        .expect("pipelined round-trip");
    for reply in &replies {
        println!("(pipelined) {reply}");
    }
    net.shutdown(); // drains in-flight queries, closes every connection
    println!("\nserver shut down cleanly");
}
