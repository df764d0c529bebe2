//! Golden-file tests for `GRAPH.PROFILE` output shape: each case's annotated
//! operator tree — with the run-to-run wall times redacted to `<ms>` — is
//! snapshotted under `tests/golden/*.snap` and compared verbatim.
//!
//! To (re)generate snapshots after an intentional planner/formatter change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test profile_golden
//! ```
//!
//! and review the diff like any other code change.

use redisgraph_core::{format_profile, Graph};
use std::path::PathBuf;

/// The corpus: name → profiled query. Covers a label scan + expand, a
/// var-length traversal, an aggregate, a WITH-segmented pipeline (the
/// formatter's `--- segment ---` separator), and a profiled write.
const CASES: &[(&str, &str)] = &[
    ("profile_scan_expand", "MATCH (a:Node)-[:LINK]->(b) RETURN id(b)"),
    ("profile_filter_point_read", "MATCH (s:Node)-[:LINK]->(t) WHERE id(s) = 3 RETURN id(t)"),
    ("profile_varlength", "MATCH (s:Node)-[*1..2]->(t) WHERE id(s) = 0 RETURN count(t)"),
    ("profile_aggregate", "MATCH (n:Node) RETURN count(n)"),
    (
        "profile_with_segments",
        "MATCH (a:Node)-[:LINK]->(b) WITH b AS hop MATCH (hop)-[:LINK]->(c) RETURN count(c)",
    ),
    ("profile_create", "CREATE (:Extra {id: 100})-[:LINK]->(:Extra {id: 101})"),
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A fresh deterministic fixture per case: a 12-node ring with +4 chords,
/// so traversals fan out but stay readable in a snapshot.
fn fixture() -> Graph {
    let mut g = Graph::new("profile-golden");
    let mut create = String::from("CREATE ");
    for k in 0..12 {
        if k > 0 {
            create.push_str(", ");
        }
        create.push_str(&format!("(p{k}:Node {{id: {k}}})"));
    }
    g.query(&create).expect("seed nodes");
    for k in 0..12u64 {
        let next = (k + 1) % 12;
        let chord = (k + 4) % 12;
        g.query(&format!(
            "MATCH (a:Node {{id: {k}}}), (b:Node {{id: {next}}}) CREATE (a)-[:LINK]->(b)"
        ))
        .expect("ring edge");
        g.query(&format!(
            "MATCH (a:Node {{id: {k}}}), (b:Node {{id: {chord}}}) CREATE (a)-[:LINK]->(b)"
        ))
        .expect("chord edge");
    }
    g
}

/// Redact the wall time — the only run-dependent token in a profile line —
/// keeping the operator description and record count verbatim.
fn redact(line: &str) -> String {
    match line.find("Execution time: ") {
        Some(i) => format!("{}Execution time: <ms>", &line[..i]),
        None => line.to_string(),
    }
}

fn render(query: &str) -> String {
    let mut g = fixture();
    let (_rows, profiles) = g.profile(query).expect("profiled query");
    let mut out = format!("query: {query}\n");
    for line in format_profile(&profiles) {
        out.push_str(&redact(&line));
        out.push('\n');
    }
    out
}

#[test]
fn profile_output_matches_golden_snapshots() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    let mut failures = Vec::new();

    for (name, query) in CASES {
        let actual = render(query);
        let path = dir.join(format!("{name}.snap"));
        if update {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == actual => {}
            Ok(expected) => failures.push(format!(
                "snapshot mismatch for `{name}`\n--- expected ({}) ---\n{expected}\n--- actual ---\n{actual}",
                path.display()
            )),
            Err(e) => failures.push(format!(
                "missing snapshot {} for `{name}` ({e}); run with UPDATE_GOLDEN=1 to create it",
                path.display()
            )),
        }
    }

    assert!(
        failures.is_empty(),
        "{} profile golden case(s) diverged:\n\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn every_profile_line_is_annotated() {
    // Shape contract independent of the snapshots: every line of every case
    // (segment separators aside) carries both annotations, and profiled
    // queries still return correct results.
    let mut g = fixture();
    let (rows, profiles) = g.profile("MATCH (n:Node) RETURN count(n)").expect("profile");
    assert_eq!(format!("{}", rows.rows[0][0]), "12");
    assert!(!profiles.is_empty());
    for line in format_profile(&profiles) {
        if line.starts_with("---") {
            continue;
        }
        assert!(
            line.contains("Records produced: ") && line.contains("Execution time: "),
            "unannotated profile line: {line:?}"
        );
    }
}
