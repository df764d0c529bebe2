//! The linter proven against its fixture files and the live workspace.
//!
//! Each `bad_*.rs` fixture marks every line the linter must flag with a
//! `// BAD` comment — the test asserts the flagged line set matches those
//! markers exactly (no misses, no false positives; `bad_dead_pub.rs` through
//! the workspace-wide `dead-pub` pass), `clean.rs` yields zero
//! violations despite its decoys, and the real workspace is clean under
//! the real `xlint.toml` (the same invocation CI blocks on).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use xlint::{dead_pub, lint_source, lint_tree, parse_config, Config};

fn repo_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().unwrap_or(root)
}

fn fixture(name: &str) -> (String, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    let src = std::fs::read_to_string(&path).unwrap();
    (format!("crates/xlint/fixtures/{name}"), src)
}

/// Line numbers carrying a `// BAD` marker — the fixture's own record of
/// exactly which lines the linter must flag.
fn bad_lines(src: &str) -> BTreeSet<u32> {
    src.lines()
        .enumerate()
        .filter(|(_, l)| l.contains("// BAD"))
        .map(|(i, _)| (i + 1) as u32)
        .collect()
}

fn workspace_config() -> Config {
    let text = std::fs::read_to_string(repo_root().join("xlint.toml")).unwrap();
    parse_config(&text).unwrap()
}

fn assert_flags_exactly_the_bad_lines(name: &str, rule: &str, cfg: &Config) {
    let (path, src) = fixture(name);
    let violations = lint_source(&path, &src, cfg);
    let expected = bad_lines(&src);
    assert!(!expected.is_empty(), "{name} has no BAD markers — fixture is broken");
    let flagged: BTreeSet<u32> = violations.iter().map(|v| v.line).collect();
    assert_eq!(flagged, expected, "{name}: flagged lines diverge from its BAD markers");
    for v in &violations {
        assert_eq!(v.rule, rule, "{name}: unexpected rule at line {}: {v}", v.line);
    }
}

#[test]
fn every_fixture_violation_is_flagged() {
    let mut cfg = workspace_config();
    // The fixture tree is skipped by the workspace walk; linting the files
    // directly needs the skip lifted and the unwrap fixtures opted in.
    cfg.skip_paths.clear();
    cfg.no_unwrap_paths.push("crates/xlint/fixtures/bad_unwrap.rs".to_string());
    cfg.no_unwrap_paths.push("crates/xlint/fixtures/clean.rs".to_string());

    assert_flags_exactly_the_bad_lines("bad_std_sync.rs", "std-sync", &cfg);
    assert_flags_exactly_the_bad_lines("bad_std_thread.rs", "std-thread", &cfg);
    assert_flags_exactly_the_bad_lines("bad_instant.rs", "instant-now", &cfg);
    assert_flags_exactly_the_bad_lines("bad_unwrap.rs", "no-unwrap", &cfg);
    assert_flags_exactly_the_bad_lines("bad_unsafe.rs", "safety-comment", &cfg);
    assert_flags_exactly_the_bad_lines("bad_static_mut.rs", "static-mut", &cfg);
}

#[test]
fn dead_pub_fixture_flags_exactly_the_bad_lines() {
    let (_, src) = fixture("bad_dead_pub.rs");
    let violations = dead_pub(&[("crates/fixture/src/lib.rs".to_string(), src.clone())]);
    let flagged: BTreeSet<u32> = violations.iter().map(|v| v.line).collect();
    assert_eq!(flagged, bad_lines(&src), "{violations:#?}");
    assert!(violations.iter().all(|v| v.rule == "dead-pub"));
}

#[test]
fn clean_fixture_stays_clean_despite_decoys() {
    let mut cfg = workspace_config();
    cfg.skip_paths.clear();
    cfg.no_unwrap_paths.push("crates/xlint/fixtures/clean.rs".to_string());
    let (path, src) = fixture("clean.rs");
    let violations = lint_source(&path, &src, &cfg);
    assert!(violations.is_empty(), "clean.rs flagged: {violations:#?}");
}

#[test]
fn live_workspace_is_clean_under_the_checked_in_config() {
    let violations = lint_tree(&repo_root(), &workspace_config()).unwrap();
    let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert!(rendered.is_empty(), "workspace violations:\n{}", rendered.join("\n"));
}
