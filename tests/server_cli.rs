//! Command-line contract of the `redisgraph-server` binary: every argument
//! must be a known flag or its value, so a typo or a retired flag fails the
//! launch (exit 2) instead of silently serving with a default.

use std::process::Command;

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
