//! Command-line contract of the `redisgraph-server` binary: every argument
//! must be a known flag or its value, so a typo or a retired flag fails the
//! launch (exit 2) instead of silently serving with a default; and the real
//! binary serves over TCP and stops gracefully on SIGTERM.

use redisgraph_server::{RespClient, RespValue};
use std::io::Read;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn exit_code(args: &[&str]) -> i32 {
    let status = Command::new(env!("CARGO_BIN_EXE_redisgraph-server"))
        .args(args)
        .output()
        .expect("spawn redisgraph-server")
        .status;
    status.code().expect("exited normally, not by a signal")
}

#[test]
fn retired_query_threads_flag_is_rejected() {
    assert_eq!(exit_code(&["--query-threads", "2"]), 2);
}

#[test]
fn misspelled_flag_is_rejected() {
    assert_eq!(exit_code(&["--prot", "1"]), 2);
}

#[test]
fn help_exits_cleanly() {
    assert_eq!(exit_code(&["--help"]), 0);
}

/// Kills the server if the test fails before it has been stopped.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serves_over_tcp_and_exits_zero_on_sigterm() {
    let addr_file =
        std::env::temp_dir().join(format!("redisgraph-server-cli-{}.addr", std::process::id()));
    let _ = std::fs::remove_file(&addr_file);
    let child = Command::new(env!("CARGO_BIN_EXE_redisgraph-server"))
        .args(["--port", "0", "--preload-scale", "6", "--addr-file"])
        .arg(&addr_file)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn redisgraph-server");
    let mut server = KillOnDrop(child);

    // The file holds the bound address once the server is listening.
    let addr: SocketAddr = (0..500)
        .find_map(|_| {
            let parsed = std::fs::read_to_string(&addr_file).ok().and_then(|a| a.parse().ok());
            if parsed.is_none() {
                crossbeam::thread::sleep(Duration::from_millis(20));
            }
            parsed
        })
        .expect("address file within 10 s");
    let _ = std::fs::remove_file(&addr_file);

    let mut client = RespClient::connect(addr).expect("connect");
    let reply = client.query("bench", "MATCH (n) RETURN count(n)").expect("GRAPH.QUERY");
    let RespValue::Array(sections) = &reply else { panic!("bad reply: {reply}") };
    let RespValue::Array(rows) = &sections[1] else { panic!("bad rows: {reply}") };
    assert_eq!(
        rows[0],
        RespValue::Array(vec![RespValue::Integer(64)]),
        "RMAT scale 6 has 64 nodes"
    );
    let info = client.command(&["GRAPH.INFO"]).expect("GRAPH.INFO");
    assert!(!matches!(info, RespValue::Error(_)), "GRAPH.INFO failed: {info}");

    // SIGTERM drains the server: exit 0, not death by signal.
    let kill = Command::new("kill")
        .args(["-TERM", &server.0.id().to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success());
    let status = server.0.wait().expect("wait for redisgraph-server");
    assert_eq!(status.code(), Some(0), "SIGTERM must stop the server gracefully: {status}");
    let mut stdout = String::new();
    server.0.stdout.take().expect("piped stdout").read_to_string(&mut stdout).expect("read stdout");
    assert!(stdout.contains("redisgraph-server: bye"), "no farewell on stdout:\n{stdout}");
}
