//! End-to-end network suite: real TCP sockets against [`GraphServer`] — the
//! byte-level interface RedisGraph clients speak — including the hostile
//! clients the framing loop exists to survive.
//!
//! What it proves:
//!
//! * **byte-level equivalence** — a pipelined 5 000-command workload of
//!   every command kind sent over TCP returns exactly the replies the
//!   in-process dispatcher returns for the same commands, in pipeline order,
//!   timing figures aside;
//! * **slowloris resilience** — a client trickling one byte at a time (frames
//!   split at every position, including exactly between a bulk trailer's
//!   `\r` and `\n`) is served correctly, never disconnected, never misparsed;
//! * **bounded buffering** — a declared 512MB bulk cannot grow the retained
//!   buffer past `MAX_QUERY_BUFFER`: the connection is closed at the bound;
//! * **protocol errors close** — a garbage (non-RESP, non-inline) prefix
//!   gets a `-ERR Protocol error` reply and a closed connection;
//! * **no reply splitting** — client-supplied CR/LF echoed in an error line
//!   (`GRAPH.DELETE "x\r\n+INJECTED"`) cannot end the reply early and answer
//!   the *next* command with attacker-chosen text;
//! * **inline commands** — Redis' `telnet`-friendly form (`PING\r\n` with no
//!   RESP framing, quoting per `sdssplitargs`) round-trips, mixes with
//!   framed commands on one connection, ignores blank lines, and is bounded:
//!   unbalanced quotes and newline-free floods past 64KB close the
//!   connection;
//! * **connection cap** — client `max_connections + 1` is greeted with an
//!   error and refused;
//! * **graceful shutdown** — `SHUTDOWN` over the wire (and the in-process
//!   handle) drains in-flight replies, then the listener stops accepting;
//! * **pipeline execution order** — like Redis, a pipeline saves round
//!   trips without reordering execution: a pipelined write is visible to
//!   every later command of the same pipeline (queries, admin commands, and
//!   `GRAPH.DELETE` included);
//! * **observability over the wire** — `GRAPH.PROFILE` returns the annotated
//!   operator tree for pipelined queries, `GRAPH.SLOWLOG` captures queries
//!   over the runtime-set threshold and `RESET` empties it, and the
//!   `GRAPH.INFO` counters stay consistent across a 5 000-command pipeline
//!   without leaking active-connection slots;
//! * **parameterized queries & the plan cache** — a pipeline rotating
//!   `CYPHER k=… ` headers over one query shape gets per-binding answers
//!   while every execution after the first reports `Cached: true`, with the
//!   hit/miss counters visible in `GRAPH.INFO`.

use redisgraph_server::{GraphServer, RedisGraphServer, RespClient, RespValue, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Strip the statistics section (its execution-time line differs run to
/// run): equivalence is judged on header + rows.
fn header_and_rows(reply: &RespValue) -> (RespValue, RespValue) {
    match reply {
        RespValue::Array(sections) if sections.len() == 3 => {
            (sections[0].clone(), sections[1].clone())
        }
        other => (other.clone(), RespValue::Null),
    }
}

/// `reply` with its timing figures blanked: the statistics footer's `Query
/// internal execution time` line and each PROFILE line's `Execution time`.
/// They are the only parts of a reply that differ from run to run.
fn redact_timings(reply: &RespValue) -> RespValue {
    match reply {
        RespValue::Array(items) => RespValue::Array(items.iter().map(redact_timings).collect()),
        RespValue::BulkString(s) if s.starts_with("Query internal execution time: ") => {
            RespValue::BulkString("Query internal execution time: <redacted>".into())
        }
        RespValue::BulkString(s) => match s.find("Execution time: ") {
            Some(at) => RespValue::BulkString(format!("{}Execution time: <redacted>", &s[..at])),
            None => reply.clone(),
        },
        other => other.clone(),
    }
}

/// The CREATE statements both servers are seeded with: a little social graph
/// with enough fan-out that 2-hop queries return several rows.
fn seed_statements() -> Vec<String> {
    let mut stmts = Vec::new();
    // A ring of 40 people with chords, so ids are deterministic: person k
    // gets node id k.
    let mut create = String::from("CREATE ");
    for k in 0..40 {
        if k > 0 {
            create.push_str(", ");
        }
        create.push_str(&format!("(p{k}:Node {{id: {k}}})"));
    }
    stmts.push(create);
    for k in 0..40u64 {
        let next = (k + 1) % 40;
        let chord = (k + 7) % 40;
        stmts.push(format!(
            "MATCH (a:Node {{id: {k}}}), (b:Node {{id: {next}}}) CREATE (a)-[:LINK]->(b)"
        ));
        stmts.push(format!(
            "MATCH (a:Node {{id: {k}}}), (b:Node {{id: {chord}}}) CREATE (a)-[:LINK]->(b)"
        ));
    }
    stmts
}

/// The read workload: a deterministic rotation over point reads, 2-hop
/// traversals, admin commands, and deliberate errors (which must also be
/// delivered in pipeline order).
fn workload_commands(n: usize) -> Vec<RespValue> {
    (0..n)
        .map(|i| {
            let k = (i * 13) % 40;
            match i % 5 {
                0 => RespValue::command(&[
                    "GRAPH.QUERY",
                    "g",
                    &format!("MATCH (s:Node)-[:LINK]->(t) WHERE id(s) = {k} RETURN id(t)"),
                ]),
                1 => RespValue::command(&[
                    "GRAPH.QUERY",
                    "g",
                    &format!(
                        "MATCH (s:Node)-[:LINK]->()-[:LINK]->(t) WHERE id(s) = {k} \
                         RETURN count(t)"
                    ),
                ]),
                2 => RespValue::command(&[
                    "GRAPH.QUERY",
                    "g",
                    &format!("MATCH (s:Node)-[*1..2]->(t) WHERE id(s) = {k} RETURN count(t)"),
                ]),
                3 => RespValue::command(&["PING"]),
                _ => RespValue::command(&["GRAPH.QUERY", "g", "MATCH (a RETURN a"]),
            }
        })
        .collect()
}

/// The command kinds besides queries and PING, one per call in rotation: a
/// profiled query, an explained one, the configuration, the slowlog, and an
/// error that echoes the client's CR/LF.
fn other_command(i: usize) -> RespValue {
    let k = (i * 17) % 40;
    match i % 5 {
        0 => RespValue::command(&[
            "GRAPH.PROFILE",
            "g",
            &format!("MATCH (s:Node)-[:LINK]->(t) WHERE id(s) = {k} RETURN id(t)"),
        ]),
        1 => RespValue::command(&[
            "GRAPH.EXPLAIN",
            "g",
            &format!("MATCH (s:Node)-[*1..2]->(t) WHERE id(s) = {k} RETURN count(t)"),
        ]),
        2 => RespValue::command(&["GRAPH.CONFIG", "GET", "*"]),
        3 => RespValue::command(&["GRAPH.SLOWLOG", "g"]),
        _ => RespValue::command(&["GRAPH.DELETE", "x\r\n+INJECTED"]),
    }
}

#[test]
fn pipelined_tcp_workload_matches_in_process_dispatcher_row_for_row() {
    // A slowlog threshold no query reaches keeps `GRAPH.SLOWLOG` replies
    // free of timestamps.
    let config = ServerConfig {
        thread_count: 4,
        slowlog_time_threshold_ms: 3_600_000,
        ..ServerConfig::default()
    };
    let net = GraphServer::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let inproc = RedisGraphServer::new(config);

    // Seed both servers with identical writes — the TCP one through the
    // socket, so even graph construction crosses the wire.
    let mut client = RespClient::connect(net.local_addr()).expect("connect");
    for stmt in seed_statements() {
        let over_tcp = client.query("g", &stmt).expect("seed over tcp");
        let in_process = inproc.query("g", &stmt);
        assert!(!matches!(over_tcp, RespValue::Error(_)), "seed failed over tcp: {over_tcp}");
        assert_eq!(redact_timings(&over_tcp), redact_timings(&in_process));
    }

    // One 5 000-command pipeline in a single burst: replies must come back
    // 1:1, in order, and identical to the in-process path. Both servers run
    // the same commands in the same order, so even the `Cached:` footer
    // lines agree.
    let commands: Vec<RespValue> = workload_commands(4_000)
        .into_iter()
        .enumerate()
        .flat_map(|(i, command)| {
            let other = (i % 4 == 3).then(|| other_command(i / 4));
            std::iter::once(command).chain(other)
        })
        .collect();
    assert_eq!(commands.len(), 5_000);
    let replies = client.pipeline(&commands).expect("pipeline");
    assert_eq!(replies.len(), commands.len());
    for (i, (command, over_tcp)) in commands.iter().zip(&replies).enumerate() {
        assert_eq!(
            redact_timings(over_tcp),
            redact_timings(&inproc.handle(command)),
            "command #{i} diverged between TCP and the in-process dispatcher: {command}"
        );
    }
    // The same engine without the socket: the TCP server's own `handle`
    // agrees with the reference, command for command.
    for (i, command) in commands.iter().enumerate() {
        assert_eq!(
            redact_timings(&net.server().handle(command)),
            redact_timings(&inproc.handle(command)),
            "command #{i} diverged between the TCP server's handle() and the reference: {command}"
        );
    }
    net.shutdown();
}

#[test]
fn slowloris_one_byte_at_a_time_is_served_not_disconnected() {
    let net = GraphServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    net.server().query("g", "CREATE (:Node {id: 1})-[:LINK]->(:Node {id: 2})");

    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    let frame =
        RespValue::command(&["GRAPH.QUERY", "g", "MATCH (a:Node)-[:LINK]->(b) RETURN id(b)"])
            .encode();
    // Feed the frame one byte at a time: the server sees every possible
    // split, including between the bulk trailer's `\r` and `\n`. A misparse
    // or a premature `Malformed` classification would error or disconnect.
    for &byte in &frame {
        stream.write_all(&[byte]).expect("server closed mid-frame");
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut client = RespClient::from_stream(stream);
    let reply = client.read_reply().expect("reply after slow frame");
    let expected = net.server().query("g", "MATCH (a:Node)-[:LINK]->(b) RETURN id(b)");
    assert_eq!(header_and_rows(&reply), header_and_rows(&expected));

    // The connection is still healthy: a second (fast) command round-trips.
    let pong = client.command(&["PING"]).expect("second command");
    assert_eq!(pong, RespValue::SimpleString("PONG".into()));
    net.shutdown();
}

#[test]
fn declared_512mb_bulk_is_closed_at_the_buffer_bound() {
    // 64KB cap: far below the declared bulk, far above one read chunk.
    let net = GraphServer::bind(
        "127.0.0.1:0",
        ServerConfig { max_query_buffer: 64 * 1024, ..ServerConfig::default() },
    )
    .expect("bind");
    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    stream.set_write_timeout(Some(Duration::from_secs(2))).unwrap();

    // A command array declaring a 512MB argument (just under the decoder's
    // own cap, so only MAX_QUERY_BUFFER can stop it), then a stream of
    // payload the server must refuse to retain.
    stream.write_all(b"*2\r\n$4\r\nPING\r\n$536870912\r\n").expect("header");
    let chunk = [b'a'; 1024];
    let mut sent = 0usize;
    let closed_early = loop {
        match stream.write_all(&chunk) {
            Ok(()) => {
                sent += chunk.len();
                // Well past the cap plus both sockets' kernel buffers: if the
                // server were retaining without bound we would still be
                // writing successfully at 8MB.
                if sent > 8 * 1024 * 1024 {
                    break false;
                }
            }
            Err(_) => break true,
        }
    };
    assert!(closed_early, "server kept reading a 512MB bulk past 8MB with a 64KB MAX_QUERY_BUFFER");
    net.shutdown();
}

#[test]
fn garbage_prefix_gets_protocol_error_and_close() {
    let net = GraphServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    // A TLS ClientHello is neither RESP nor a UTF-8 inline line: hopeless.
    stream.write_all(b"\x16\x03\x01\x00\xc8\x01\n").expect("write");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read until close");
    let text = String::from_utf8_lossy(&reply);
    assert!(
        text.starts_with("-ERR Protocol error"),
        "expected a protocol error before close, got {text:?}"
    );
    // read_to_end returning proves the server closed the connection.
    net.shutdown();
}

#[test]
fn crlf_in_an_echoed_argument_cannot_split_the_reply() {
    // The error names the graph the client asked for. Written raw, the
    // argument's CRLF ended the error line and `+INJECTED…` sat in the
    // stream as the reply to whatever the client sent next — the classic
    // response-splitting shape. The line is now one reply, and PING gets PONG.
    let net = GraphServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = RespClient::connect(net.local_addr()).expect("connect");
    client.stream().set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let first = client.command(&["GRAPH.DELETE", "x\r\n+INJECTED"]).expect("delete reply");
    assert_eq!(first, RespValue::Error("ERR graph `x  +INJECTED` does not exist".into()));
    let second = client.command(&["PING"]).expect("ping reply");
    assert_eq!(second, RespValue::SimpleString("PONG".into()));
    // Same bytes through a query error (a parse error echoes the text).
    let replies = client
        .pipeline(&[
            RespValue::command(&["GRAPH.QUERY", "g", "RETURN\r\n+INJECTED\r\n("]),
            RespValue::command(&["PING"]),
        ])
        .expect("query + ping");
    assert!(matches!(replies[0], RespValue::Error(_)), "got {}", replies[0]);
    assert_eq!(replies[1], RespValue::SimpleString("PONG".into()));
    net.shutdown();
}

#[test]
fn inline_commands_round_trip_and_mix_with_resp_framing() {
    let net = GraphServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");

    // Bare `PING\r\n`, the way telnet sends it — blank lines ignored first.
    stream.write_all(b"\r\n\r\nPING\r\n").expect("inline ping");
    let mut client = RespClient::from_stream(stream);
    assert_eq!(client.read_reply().expect("pong"), RespValue::SimpleString("PONG".into()));

    // A quoted inline GRAPH.QUERY: the whole Cypher statement is one
    // argument thanks to sdssplitargs-style double quotes.
    let mut raw = client.stream().try_clone().expect("clone stream");
    raw.write_all(b"GRAPH.QUERY inl \"CREATE (:Node {id: 7})\"\r\n").expect("inline create");
    let created = client.read_reply().expect("create reply");
    assert!(!matches!(created, RespValue::Error(_)), "inline create failed: {created}");

    // RESP framing still works on the very same connection, and sees the
    // inline command's write.
    let reply = client
        .command(&["GRAPH.QUERY", "inl", "MATCH (n:Node) RETURN n.id"])
        .expect("framed query");
    let RespValue::Array(sections) = &reply else { panic!("not a query reply: {reply}") };
    let RespValue::Array(rows) = &sections[1] else { panic!() };
    assert_eq!(rows.len(), 1, "framed read must see the inline write");

    // And back to inline again, pipelined two-in-one-burst with a framed
    // command: replies come back in order.
    let mut raw = client.stream().try_clone().expect("clone stream");
    let mut burst = b"PING\r\n".to_vec();
    burst.extend_from_slice(&RespValue::command(&["PING"]).encode());
    raw.write_all(&burst).expect("mixed burst");
    assert_eq!(client.read_reply().unwrap(), RespValue::SimpleString("PONG".into()));
    assert_eq!(client.read_reply().unwrap(), RespValue::SimpleString("PONG".into()));
    net.shutdown();
}

#[test]
fn inline_unknown_command_errs_without_closing_the_connection() {
    // `GET foo` is a *valid inline frame* for a command this server does not
    // implement: the right behaviour is an `unknown command` error and a
    // live connection — not a protocol error, not a close.
    let net = GraphServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    stream.write_all(b"GET foo\r\n").expect("write");
    let mut client = RespClient::from_stream(stream);
    let reply = client.read_reply().expect("error reply");
    let RespValue::Error(message) = &reply else { panic!("expected an error, got {reply}") };
    assert!(message.contains("unknown command"), "got {message:?}");
    // The connection survives to serve the next command.
    assert_eq!(client.command(&["PING"]).unwrap(), RespValue::SimpleString("PONG".into()));
    net.shutdown();
}

#[test]
fn deeply_nested_queries_get_an_error_reply_and_the_connection_survives() {
    // Each of these once overflowed the parsing thread's stack and aborted
    // the whole server process.
    let net = GraphServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = RespClient::connect(net.local_addr()).expect("connect");
    let deep = [
        format!("RETURN {}1{}", "(".repeat(200_000), ")".repeat(200_000)),
        format!("RETURN 1{}", "+1".repeat(100_000)),
        format!("RETURN {}true", "NOT ".repeat(100_000)),
        format!("CYPHER p={}1{} RETURN $p", "[".repeat(200_000), "]".repeat(200_000)),
    ];
    let expected = net.server().query("g", "RETURN 1 + 1");
    for query in &deep {
        let reply = client.query("g", query).expect("an error reply, not a closed connection");
        let RespValue::Error(message) = &reply else { panic!("expected an error, got {reply}") };
        assert!(message.contains("E_RECURSION_LIMIT"), "got {message:?}");
        // The next command on the same connection is served.
        let next = client.query("g", "RETURN 1 + 1").expect("next command");
        assert_eq!(header_and_rows(&next), header_and_rows(&expected));
    }
    net.shutdown();
}

#[test]
fn inline_unbalanced_quotes_get_protocol_error_and_close() {
    let net = GraphServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    stream.write_all(b"GRAPH.QUERY g \"oops no closing quote\r\n").expect("write");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read until close");
    let text = String::from_utf8_lossy(&reply);
    assert!(
        text.starts_with("-ERR Protocol error"),
        "unbalanced quotes must be a protocol error, got {text:?}"
    );
    net.shutdown();
}

#[test]
fn inline_newline_free_flood_is_closed_at_the_line_cap() {
    // A client pushing printable bytes with no newline can never finish an
    // inline command; past the 64KB line cap the server must close rather
    // than buffer forever.
    let net = GraphServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    stream.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Just over the cap, in one burst the server fully drains before it
    // condemns the line (writing far past the cap would race the server's
    // close and turn the error reply into a TCP reset).
    let flood = vec![b'a'; 66 * 1024];
    let _ = stream.write_all(&flood);
    let mut reply = Vec::new();
    match stream.read_to_end(&mut reply) {
        Ok(_) => {
            let text = String::from_utf8_lossy(&reply);
            assert!(
                text.starts_with("-ERR Protocol error"),
                "newline-free flood must be a protocol error, got {text:?}"
            );
        }
        // A reset still proves the server closed at the bound; only a read
        // *timeout* would mean it sat there buffering.
        Err(e) => {
            assert_ne!(e.kind(), std::io::ErrorKind::WouldBlock, "server kept buffering: {e}");
            assert_ne!(e.kind(), std::io::ErrorKind::TimedOut, "server kept buffering: {e}");
        }
    }
    net.shutdown();
}

#[test]
fn connection_cap_refuses_excess_clients() {
    let net = GraphServer::bind(
        "127.0.0.1:0",
        ServerConfig { max_connections: 2, ..ServerConfig::default() },
    )
    .expect("bind");
    let mut a = RespClient::connect(net.local_addr()).expect("client a");
    let mut b = RespClient::connect(net.local_addr()).expect("client b");
    // Round-trips prove both are being served (not just queued in accept).
    assert_eq!(a.command(&["PING"]).unwrap(), RespValue::SimpleString("PONG".into()));
    assert_eq!(b.command(&["PING"]).unwrap(), RespValue::SimpleString("PONG".into()));

    let mut c = RespClient::connect(net.local_addr()).expect("tcp connect still succeeds");
    let refusal = c.read_reply().expect("refusal reply");
    assert_eq!(refusal, RespValue::Error("ERR max number of clients reached".into()));
    assert!(c.read_reply().is_err(), "connection must be closed after the refusal");

    // The two admitted clients are unaffected.
    assert_eq!(a.command(&["PING"]).unwrap(), RespValue::SimpleString("PONG".into()));
    drop(a);
    drop(b);
    // A freed slot is reusable (give the server a tick to notice the close).
    std::thread::sleep(Duration::from_millis(200));
    let mut d = RespClient::connect(net.local_addr()).expect("client d");
    assert_eq!(d.command(&["PING"]).unwrap(), RespValue::SimpleString("PONG".into()));
    net.shutdown();
}

#[test]
fn shutdown_command_drains_replies_then_stops_the_listener() {
    let net = GraphServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    net.server().query("g", "CREATE (:Node {id: 1})-[:LINK]->(:Node {id: 2})");
    let addr = net.local_addr();

    let mut client = RespClient::connect(addr).expect("connect");
    // Pipeline a query *behind* the SHUTDOWN ack: both replies must arrive
    // (drain before close), in order.
    let replies = client
        .pipeline(&[
            RespValue::command(&["GRAPH.QUERY", "g", "MATCH (n:Node) RETURN count(n)"]),
            RespValue::command(&["SHUTDOWN"]),
        ])
        .expect("pipelined shutdown");
    assert!(matches!(replies[0], RespValue::Array(_)), "query reply must drain: {}", replies[0]);
    assert_eq!(replies[1], RespValue::SimpleString("OK".into()));
    assert!(client.read_reply().is_err(), "server must close after SHUTDOWN");

    assert!(net.is_shutdown_requested());
    net.shutdown(); // joins accept + connection threads
    assert!(TcpStream::connect(addr).is_err(), "listener must be gone after graceful shutdown");
}

#[test]
fn pipelined_commands_execute_strictly_in_order() {
    // Redis pipeline semantics: one burst, but each command sees every
    // earlier command's effects — writes before reads, admin commands
    // interleaved, delete last.
    let net = GraphServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = RespClient::connect(net.local_addr()).expect("connect");
    let replies = client
        .pipeline(&[
            RespValue::command(&["GRAPH.QUERY", "ord", "CREATE (:Node {id: 1})"]),
            RespValue::command(&["GRAPH.QUERY", "ord", "MATCH (n:Node) RETURN count(n)"]),
            RespValue::command(&["GRAPH.QUERY", "ord", "CREATE (:Node {id: 2})"]),
            RespValue::command(&["GRAPH.QUERY", "ord", "MATCH (n:Node) RETURN count(n)"]),
            RespValue::command(&["GRAPH.CONFIG", "SET", "MAX_QUERY_BUFFER", "4096"]),
            RespValue::command(&["GRAPH.CONFIG", "GET", "MAX_QUERY_BUFFER"]),
            RespValue::command(&["GRAPH.DELETE", "ord"]),
            RespValue::command(&["GRAPH.LIST"]),
        ])
        .expect("ordered pipeline");
    let count = |reply: &RespValue| -> i64 {
        let RespValue::Array(sections) = reply else { panic!("not a query reply: {reply}") };
        let RespValue::Array(rows) = &sections[1] else { panic!() };
        let RespValue::Array(row) = &rows[0] else { panic!() };
        let RespValue::Integer(n) = row[0] else { panic!() };
        n
    };
    assert_eq!(count(&replies[1]), 1, "first CREATE must be visible to the pipelined MATCH");
    assert_eq!(count(&replies[3]), 2, "second CREATE must be visible to the second MATCH");
    assert_eq!(replies[4], RespValue::SimpleString("OK".into()));
    assert_eq!(
        replies[5],
        RespValue::Array(vec![
            RespValue::BulkString("MAX_QUERY_BUFFER".into()),
            RespValue::Integer(4096),
        ])
    );
    assert_eq!(replies[6], RespValue::SimpleString("OK".into()), "delete of existing graph");
    assert_eq!(replies[7], RespValue::Array(vec![]), "graph must be gone by GRAPH.LIST time");
    net.shutdown();
}

#[test]
fn pipelined_delete_is_observable_by_the_next_command() {
    // GRAPH.DELETE semantics under pipelining: once the delete's OK is on
    // the wire, no later command of any pipeline may observe the old graph.
    // A query naming the deleted graph transparently creates a *fresh* one
    // (Redis-style create-on-use), so the count must be zero — not the 3
    // nodes the orphan held. Epoch snapshots make this subtle: a stale
    // GraphEntry would happily keep serving the orphan forever.
    let net = GraphServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = RespClient::connect(net.local_addr()).expect("connect");
    let replies = client
        .pipeline(&[
            RespValue::command(&[
                "GRAPH.QUERY",
                "del",
                "CREATE (:N {id: 1}), (:N {id: 2}), (:N {id: 3})",
            ]),
            RespValue::command(&["GRAPH.QUERY", "del", "MATCH (n:N) RETURN count(n)"]),
            RespValue::command(&["GRAPH.DELETE", "del"]),
            RespValue::command(&["GRAPH.QUERY", "del", "MATCH (n:N) RETURN count(n)"]),
            RespValue::command(&["GRAPH.LIST"]),
        ])
        .expect("delete pipeline");
    let count = |reply: &RespValue| -> i64 {
        let RespValue::Array(sections) = reply else { panic!("not a query reply: {reply}") };
        let RespValue::Array(rows) = &sections[1] else { panic!() };
        let RespValue::Array(row) = &rows[0] else { panic!() };
        let RespValue::Integer(n) = row[0] else { panic!() };
        n
    };
    assert_eq!(count(&replies[1]), 3, "writes visible before the delete");
    assert_eq!(replies[2], RespValue::SimpleString("OK".into()), "delete must succeed");
    assert_eq!(count(&replies[3]), 0, "post-delete read must see a fresh empty graph");
    // The fresh graph was re-created by the read, so it is listed again.
    assert_eq!(
        replies[4],
        RespValue::Array(vec![RespValue::BulkString("del".into())]),
        "create-on-use after delete"
    );
    net.shutdown();
}

/// Flatten a `GRAPH.INFO` reply (array of `[section-name, [k, v, ...]]`)
/// into one `field -> value` map for assertions.
fn info_fields(reply: &RespValue) -> std::collections::HashMap<String, RespValue> {
    let RespValue::Array(sections) = reply else { panic!("GRAPH.INFO not an array: {reply}") };
    let mut fields = std::collections::HashMap::new();
    for section in sections {
        let RespValue::Array(parts) = section else { panic!("section not an array: {section}") };
        let RespValue::Array(kvs) = &parts[1] else { panic!("section body not an array") };
        for pair in kvs.chunks(2) {
            let RespValue::BulkString(key) = &pair[0] else { panic!("key not a string") };
            fields.insert(key.clone(), pair[1].clone());
        }
    }
    fields
}

fn info_int(fields: &std::collections::HashMap<String, RespValue>, key: &str) -> i64 {
    match fields.get(key) {
        Some(RespValue::Integer(n)) => *n,
        other => panic!("GRAPH.INFO field {key} missing or non-integer: {other:?}"),
    }
}

#[test]
fn pipelined_profile_returns_annotated_operator_trees() {
    let net = GraphServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = RespClient::connect(net.local_addr()).expect("connect");
    let replies = client
        .pipeline(&[
            RespValue::command(&[
                "GRAPH.QUERY",
                "prof",
                "CREATE (:Node {id: 1})-[:LINK]->(:Node {id: 2})-[:LINK]->(:Node {id: 3})",
            ]),
            RespValue::command(&[
                "GRAPH.PROFILE",
                "prof",
                "MATCH (a:Node)-[:LINK]->(b) RETURN id(b)",
            ]),
            RespValue::command(&["GRAPH.PROFILE", "prof", "MATCH (n:Node) RETURN count(n)"]),
        ])
        .expect("profile pipeline");
    assert!(matches!(replies[0], RespValue::Array(_)), "seed CREATE failed: {}", replies[0]);

    // Each PROFILE reply is a flat array of annotated operator lines.
    for reply in &replies[1..] {
        let RespValue::Array(lines) = reply else { panic!("PROFILE not an array: {reply}") };
        assert!(!lines.is_empty());
        for line in lines {
            let RespValue::BulkString(text) = line else { panic!("line not a string: {line}") };
            assert!(
                text.contains("Records produced: ") && text.contains("Execution time: "),
                "unannotated profile line: {text:?}"
            );
        }
    }
    // The traversal profile names its operators with real record counts: the
    // scan produced 3 nodes, the traversal narrowed them to 2 sources.
    let RespValue::Array(lines) = &replies[1] else { unreachable!() };
    let text: Vec<String> = lines
        .iter()
        .map(|l| match l {
            RespValue::BulkString(s) => s.clone(),
            other => panic!("{other}"),
        })
        .collect();
    assert!(
        text.iter().any(|l| l.contains("Label Scan") && l.contains("Records produced: 3")),
        "missing scan line: {text:?}"
    );
    assert!(
        text.iter().any(|l| l.contains("Traverse") && l.contains("Records produced: 2")),
        "missing traverse line: {text:?}"
    );
    net.shutdown();
}

#[test]
fn slowlog_captures_slow_queries_and_reset_empties_it_over_the_wire() {
    let net = GraphServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = RespClient::connect(net.local_addr()).expect("connect");

    // Default threshold (10ms) keeps fast queries out of the log.
    let _ = client.query("slow", "CREATE (:Node {id: 1})").expect("seed");
    assert_eq!(
        client.command(&["GRAPH.SLOWLOG", "slow"]).unwrap(),
        RespValue::Array(vec![]),
        "a fast CREATE must not enter the slowlog at the default threshold"
    );

    // Threshold 0 logs everything that runs after it is set.
    assert_eq!(
        client.command(&["GRAPH.CONFIG", "SET", "SLOWLOG_TIME_THRESHOLD", "0"]).unwrap(),
        RespValue::SimpleString("OK".into())
    );
    let _ = client.query("slow", "MATCH (n:Node) RETURN count(n)").expect("read");
    let entries = client.command(&["GRAPH.SLOWLOG", "slow", "GET"]).expect("slowlog get");
    let RespValue::Array(entries) = entries else { panic!("SLOWLOG not an array: {entries}") };
    assert_eq!(entries.len(), 1, "exactly the post-threshold query is logged: {entries:?}");
    let RespValue::Array(fields) = &entries[0] else { panic!("entry not an array") };
    assert_eq!(fields.len(), 5, "timestamp, command, query, millis, arg count");
    assert!(matches!(fields[0], RespValue::Integer(ts) if ts > 0), "unix timestamp");
    assert_eq!(fields[1], RespValue::BulkString("GRAPH.QUERY".into()));
    assert_eq!(fields[2], RespValue::BulkString("MATCH (n:Node) RETURN count(n)".into()));
    assert!(matches!(&fields[3], RespValue::BulkString(ms) if ms.parse::<f64>().is_ok()));
    assert!(matches!(fields[4], RespValue::Integer(_)));

    // RESET empties the ring; the threshold is untouched, so the next query
    // is logged again.
    assert_eq!(
        client.command(&["GRAPH.SLOWLOG", "slow", "RESET"]).unwrap(),
        RespValue::SimpleString("OK".into())
    );
    assert_eq!(
        client.command(&["GRAPH.SLOWLOG", "slow", "GET"]).unwrap(),
        RespValue::Array(vec![])
    );
    let _ = client.query("slow", "MATCH (n:Node) RETURN id(n)").expect("read after reset");
    let RespValue::Array(after) = client.command(&["GRAPH.SLOWLOG", "slow"]).unwrap() else {
        panic!()
    };
    assert_eq!(after.len(), 1, "logging resumes after RESET");
    net.shutdown();
}

#[test]
fn graph_info_counters_stay_consistent_across_a_5000_command_pipeline() {
    let net = GraphServer::bind(
        "127.0.0.1:0",
        ServerConfig { thread_count: 4, ..ServerConfig::default() },
    )
    .expect("bind");
    let mut client = RespClient::connect(net.local_addr()).expect("connect");
    for stmt in seed_statements() {
        let reply = client.query("g", &stmt).expect("seed");
        assert!(!matches!(reply, RespValue::Error(_)), "seed failed: {reply}");
    }
    let before = info_fields(&client.command(&["GRAPH.INFO"]).expect("info before"));

    let commands = workload_commands(5_000);
    let replies = client.pipeline(&commands).expect("pipeline");
    assert_eq!(replies.len(), commands.len());
    let after = info_fields(&client.command(&["GRAPH.INFO"]).expect("info after"));

    // The workload rotation: of every 5 commands, 3 are valid reads, 1 is a
    // PING, 1 is a deliberate parse error. All GRAPH.QUERYs count as
    // dispatched commands; only the valid ones count as executed.
    let queries = 4_000;
    let failures = 1_000;
    assert_eq!(
        info_int(&after, "graph.query") - info_int(&before, "graph.query"),
        queries,
        "every pipelined GRAPH.QUERY is counted once"
    );
    assert_eq!(info_int(&after, "ping") - info_int(&before, "ping"), 1_000);
    assert_eq!(
        info_int(&after, "queries_executed") - info_int(&before, "queries_executed"),
        queries - failures
    );
    assert_eq!(info_int(&after, "queries_failed") - info_int(&before, "queries_failed"), failures);
    assert_eq!(
        info_int(&after, "queries_readonly") - info_int(&before, "queries_readonly"),
        queries - failures,
        "the workload is pure reads"
    );
    assert_eq!(info_int(&after, "queries_write") - info_int(&before, "queries_write"), 0);

    // The latency histogram samples every query that reached a worker —
    // parse failures are rejected at dispatch, before the pool.
    assert_eq!(
        info_int(&after, "query_samples") - info_int(&before, "query_samples"),
        queries - failures
    );
    assert!(info_int(&after, "query_p50_usec") <= info_int(&after, "query_p99_usec"));
    assert!(info_int(&after, "query_p99_usec") <= info_int(&after, "query_max_usec"));

    // Byte counters moved by at least the pipeline's raw sizes, and the
    // pipeline's depth registered in the histogram.
    let burst: usize = commands.iter().map(|c| c.encode().len()).sum();
    assert!(
        info_int(&after, "bytes_in") - info_int(&before, "bytes_in") >= burst as i64,
        "bytes_in must cover the pipelined burst"
    );
    assert!(info_int(&after, "bytes_out") > info_int(&before, "bytes_out"));
    // The framing loop records batch depth per socket read, so the 5 000
    // commands land as several deep batches (each 16KB read chunk holds
    // dozens of these ~100-byte frames) — far deeper than the seed's
    // one-command round-trips.
    assert!(
        info_int(&after, "pipeline_depth_max") > 1,
        "pipelined burst never produced a multi-frame batch"
    );

    // This one connection is the only active one — no slots leaked.
    assert_eq!(info_int(&after, "connections_active"), 1);
    assert_eq!(info_int(&after, "connections_accepted"), 1);
    assert_eq!(info_int(&after, "connections_refused"), 0);
    drop(client);
    for _ in 0..50 {
        if net.active_connections() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(net.active_connections(), 0, "closed connection must release its slot");
    net.shutdown();
}

#[test]
fn graph_delete_racing_an_in_flight_read_never_tears_over_tcp() {
    // The socket-level twin of the modelcheck `graph_delete` suite: one
    // connection fires a traversal while another deletes the graph out from
    // under it. The read must complete against the pre-delete epoch
    // snapshot (full result) or a fresh create-on-use graph (empty result)
    // — never an error, a torn partial count, or a hung connection.
    let net = GraphServer::bind(
        "127.0.0.1:0",
        ServerConfig { thread_count: 4, ..ServerConfig::default() },
    )
    .expect("bind");
    let addr = net.local_addr();

    let seed = |client: &mut RespClient, name: &str| {
        let mut create = String::from("CREATE ");
        for k in 0..12 {
            if k > 0 {
                create.push_str(", ");
            }
            create.push_str(&format!("(p{k}:Node {{id: {k}}})"));
        }
        let reply = client.query(name, &create).expect("seed create");
        assert!(!matches!(reply, RespValue::Error(_)), "seed failed: {reply}");
        for k in 0..12u64 {
            let next = (k + 1) % 12;
            let reply = client
                .query(
                    name,
                    &format!(
                        "MATCH (a:Node {{id: {k}}}), (b:Node {{id: {next}}}) CREATE (a)-[:LINK]->(b)"
                    ),
                )
                .expect("seed edge");
            assert!(!matches!(reply, RespValue::Error(_)), "seed failed: {reply}");
        }
    };
    const RACE_READ: &str = "MATCH (s:Node)-[*1..4]->(t) RETURN count(t)";
    let count = |reply: &RespValue| -> i64 {
        let RespValue::Array(sections) = reply else { panic!("not a query reply: {reply}") };
        let RespValue::Array(rows) = &sections[1] else { panic!("no rows section: {reply}") };
        let RespValue::Array(row) = &rows[0] else { panic!("empty rows: {reply}") };
        let RespValue::Integer(n) = row[0] else { panic!("non-integer count: {reply}") };
        n
    };

    // Measure the full-graph answer once, on an undisturbed control graph.
    let mut control = RespClient::connect(addr).expect("control connect");
    seed(&mut control, "control");
    let full = count(&control.query("control", RACE_READ).expect("control read"));
    assert!(full > 0, "control traversal returned nothing — the race would be vacuous");

    for round in 0..20 {
        let name = format!("race{round}");
        let mut writer = RespClient::connect(addr).expect("writer connect");
        seed(&mut writer, &name);

        // Reader pre-connects so the race is query-vs-delete, not
        // connect-vs-delete; the barrier lines up the fire moment.
        let mut reader_client = RespClient::connect(addr).expect("reader connect");
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let reader = {
            let name = name.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                reader_client.query(&name, RACE_READ).expect("racing read reply")
            })
        };
        barrier.wait();
        let deleted = writer.command(&["GRAPH.DELETE", &name]).expect("delete reply");
        assert_eq!(
            deleted,
            RespValue::SimpleString("OK".into()),
            "round {round}: delete must succeed exactly once"
        );

        let reply = reader.join().expect("reader thread");
        assert!(
            !matches!(reply, RespValue::Error(_)),
            "round {round}: racing read errored: {reply}"
        );
        let seen = count(&reply);
        assert!(
            seen == full || seen == 0,
            "round {round}: racing read observed a torn result: {seen} (full = {full})"
        );

        // Whatever the race's outcome, the name now denotes a fresh graph.
        let after = writer.query(&name, "MATCH (n) RETURN count(n)").expect("post-race read");
        assert_eq!(count(&after), 0, "round {round}: delete left data behind");
    }
    net.shutdown();
}

#[test]
fn pipelined_parameter_bindings_share_one_cached_plan_over_tcp() {
    // One query *shape*, many `CYPHER k=…` bindings, one pipeline: every
    // execution after the first must be served from the plan cache (the
    // header's values are not part of the cache key), and each must still
    // answer for its own binding — a cache that spliced text or reused a
    // bound plan would return the wrong row.
    let net = GraphServer::bind(
        "127.0.0.1:0",
        ServerConfig { thread_count: 4, ..ServerConfig::default() },
    )
    .expect("bind");
    let mut client = RespClient::connect(net.local_addr()).expect("connect");
    let mut create = String::from("CREATE ");
    for k in 0..10 {
        if k > 0 {
            create.push_str(", ");
        }
        create.push_str(&format!("(p{k}:Node {{id: {k}}})"));
    }
    let seeded = client.query("params", &create).expect("seed");
    assert!(!matches!(seeded, RespValue::Error(_)), "seed failed: {seeded}");

    let cached_flag = |reply: &RespValue| -> bool {
        let RespValue::Array(sections) = reply else { panic!("not a query reply: {reply}") };
        let RespValue::Array(stats) = &sections[2] else { panic!("no stats footer: {reply}") };
        stats
            .iter()
            .find_map(|l| match l {
                RespValue::BulkString(s) => s.strip_prefix("Cached: ").map(|v| v == "true"),
                _ => None,
            })
            .expect("stats footer must carry a Cached line")
    };
    let single = |reply: &RespValue| -> i64 {
        let RespValue::Array(sections) = reply else { panic!("not a query reply: {reply}") };
        let RespValue::Array(rows) = &sections[1] else { panic!() };
        let RespValue::Array(row) = &rows[0] else { panic!("no rows: {reply}") };
        let RespValue::Integer(n) = row[0] else { panic!("non-integer cell: {reply}") };
        n
    };

    let commands: Vec<RespValue> = (0..40)
        .map(|i| {
            let k = (i * 7) % 10;
            RespValue::command(&[
                "GRAPH.QUERY",
                "params",
                &format!("CYPHER k={k} MATCH (n:Node) WHERE n.id = $k RETURN n.id"),
            ])
        })
        .collect();
    let replies = client.pipeline(&commands).expect("param pipeline");
    assert_eq!(replies.len(), commands.len());
    for (i, reply) in replies.iter().enumerate() {
        let k = (i * 7) % 10;
        assert_eq!(single(reply), k as i64, "binding #{i} answered for the wrong parameter");
        if i == 0 {
            assert!(!cached_flag(reply), "the very first execution must be a cache miss");
        } else {
            assert!(cached_flag(reply), "execution #{i} was not served from the plan cache");
        }
    }

    // The counters tell the same story over the wire.
    let fields = info_fields(&client.command(&["GRAPH.INFO"]).expect("info"));
    assert_eq!(info_int(&fields, "plan_cache_hits"), 39);
    assert!(info_int(&fields, "plan_cache_entries") >= 1);
    net.shutdown();
}

#[test]
fn max_query_buffer_is_tunable_over_the_wire() {
    let net = GraphServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = RespClient::connect(net.local_addr()).expect("connect");
    assert_eq!(
        client.command(&["GRAPH.CONFIG", "SET", "MAX_QUERY_BUFFER", "2048"]).unwrap(),
        RespValue::SimpleString("OK".into())
    );
    assert_eq!(
        client.command(&["GRAPH.CONFIG", "GET", "MAX_QUERY_BUFFER"]).unwrap(),
        RespValue::Array(vec![
            RespValue::BulkString("MAX_QUERY_BUFFER".into()),
            RespValue::Integer(2048),
        ])
    );
    // The live value applies to this very connection: exceed it mid-frame.
    let mut stream = client.stream().try_clone().expect("clone stream");
    stream.write_all(b"*2\r\n$4\r\nPING\r\n$1000000\r\n").unwrap();
    let chunk = [b'x'; 1024];
    let mut closed = false;
    for _ in 0..4096 {
        if stream.write_all(&chunk).is_err() {
            closed = true;
            break;
        }
    }
    assert!(closed, "2KB MAX_QUERY_BUFFER did not close a 1MB frame");
    net.shutdown();
}
