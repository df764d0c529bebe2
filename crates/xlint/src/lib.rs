//! # xlint — workspace invariant linter
//!
//! A dependency-free, token-level linter for project invariants a generic
//! tool cannot express (run as `cargo run -p xlint` from the repository
//! root; CI runs it as a blocking gate):
//!
//! | rule             | invariant                                                              |
//! |------------------|------------------------------------------------------------------------|
//! | `std-sync`       | no direct `std::sync` primitives outside the vendored shims — locks,  |
//! |                  | channels and atomics must go through `parking_lot` / `crossbeam` so    |
//! |                  | production code stays model-checkable (`Arc`-family types are allowed) |
//! | `std-thread`     | no direct `std::thread` spawns/sleeps — same reason                    |
//! | `instant-now`    | no `Instant::now()` outside the dispatch/metrics allowlist: a query    |
//! |                  | has exactly one wall-clock anchor, captured at dispatch                |
//! | `no-unwrap`      | no `unwrap()`/`expect()` in the listed files (the server's network     |
//! |                  | paths must degrade per-connection, never panic the process)            |
//! | `safety-comment` | every `unsafe` block carries a `// SAFETY:` comment                    |
//! | `static-mut`     | no `static mut` anywhere                                               |
//! | `dead-pub`       | every `pub fn` in `crates/*/src` is named somewhere in the workspace   |
//! |                  | besides its definition and its own file's `#[cfg(test)]` items        |
//!
//! The lexer skips string literals and comments, and whole `#[cfg(test)]`
//! items are exempt (tests may use std primitives freely — they never run
//! under the model scheduler). Allowlists live in `xlint.toml`.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::Path;

// --------------------------------------------------------------- tokens

/// One source token: an identifier or a punctuation symbol (`::` is joined).
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Sym(String),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: u32,
}

impl Token {
    fn is_ident(&self, s: &str) -> bool {
        matches!(&self.tok, Tok::Ident(i) if i == s)
    }
    fn is_sym(&self, s: &str) -> bool {
        matches!(&self.tok, Tok::Sym(y) if y == s)
    }
    fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(i) => Some(i.as_str()),
            Tok::Sym(_) => None,
        }
    }
}

/// Lexer output: code tokens plus comments (kept aside, with their lines,
/// for the `safety-comment` rule).
struct Lexed {
    tokens: Vec<Token>,
    comments: Vec<(u32, String)>,
}

/// Tokenize Rust source just deeply enough to lint: identifiers and
/// punctuation survive; strings (incl. raw/byte), char literals, lifetimes
/// and comments are consumed so their contents can never trip a rule.
fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut tokens = Vec::new();
    let mut comments = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;
    let n = chars.len();

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_part = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            // Line comment (incl. doc comments).
            let start = i + 2;
            let mut j = start;
            while j < n && chars[j] != '\n' {
                j += 1;
            }
            comments.push((line, chars[start..j].iter().collect()));
            i = j;
        } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            // Block comment; Rust nests them.
            let start_line = line;
            let start = i + 2;
            let mut depth = 1;
            let mut j = start;
            while j < n && depth > 0 {
                if chars[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            let end = j.saturating_sub(2).max(start);
            comments.push((start_line, chars[start..end].iter().collect()));
            i = j;
        } else if is_ident_start(c) {
            let start = i;
            let mut j = i;
            while j < n && is_ident_part(chars[j]) {
                j += 1;
            }
            let word: String = chars[start..j].iter().collect();
            // String-literal prefixes: the ident glues onto a string whose
            // body must not be scanned (`r#"…"#` may contain bare quotes).
            let is_prefix = matches!(word.as_str(), "r" | "b" | "c" | "br" | "cr");
            if is_prefix && j < n && (chars[j] == '"' || (word.contains('r') && chars[j] == '#')) {
                i = consume_string(&chars, j, word.contains('r'), &mut line);
            } else {
                tokens.push(Token { tok: Tok::Ident(word), line });
                i = j;
            }
        } else if c.is_ascii_digit() {
            // Number (suffixes, hex, exponents; `1.5` but not `t.0.unwrap`).
            let mut j = i;
            while j < n && is_ident_part(chars[j]) {
                j += 1;
            }
            if j < n && chars[j] == '.' && j + 1 < n && chars[j + 1].is_ascii_digit() {
                j += 1;
                while j < n && is_ident_part(chars[j]) {
                    j += 1;
                }
            }
            i = j;
        } else if c == '"' {
            i = consume_string(&chars, i, false, &mut line);
        } else if c == '\'' {
            // Char literal or lifetime.
            if i + 1 < n && chars[i + 1] == '\\' {
                // Escaped char literal: consume to the closing quote.
                let mut j = i + 2;
                while j < n && chars[j] != '\'' {
                    j += 1;
                }
                i = j + 1;
            } else if i + 2 < n && chars[i + 2] == '\'' {
                i += 3; // plain char literal 'x'
            } else {
                // Lifetime: quote plus identifier, no closing quote.
                let mut j = i + 1;
                while j < n && is_ident_part(chars[j]) {
                    j += 1;
                }
                i = j;
            }
        } else if c == ':' && i + 1 < n && chars[i + 1] == ':' {
            tokens.push(Token { tok: Tok::Sym("::".to_string()), line });
            i += 2;
        } else {
            tokens.push(Token { tok: Tok::Sym(c.to_string()), line });
            i += 1;
        }
    }
    Lexed { tokens, comments }
}

/// Consume a string literal starting at `i` (at the `"`, or at the first
/// `#` of a raw string); returns the index just past its closing delimiter.
fn consume_string(chars: &[char], i: usize, raw: bool, line: &mut u32) -> usize {
    let n = chars.len();
    let mut j = i;
    let mut hashes = 0;
    if raw {
        while j < n && chars[j] == '#' {
            hashes += 1;
            j += 1;
        }
    }
    debug_assert!(j >= n || chars[j] == '"');
    j += 1; // past the opening quote
    while j < n {
        let c = chars[j];
        if c == '\n' {
            *line += 1;
            j += 1;
        } else if !raw && c == '\\' {
            j += 2; // escape: skip the escaped char
        } else if c == '"' {
            if !raw {
                return j + 1;
            }
            // Raw: the quote must be followed by the same number of hashes.
            let mut k = j + 1;
            let mut seen = 0;
            while k < n && chars[k] == '#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    n
}

/// Remove every item annotated `#[cfg(test)]` (and the attribute itself):
/// the item's tokens up to a top-level `;` or through its first balanced
/// `{ … }` group. Stacked attributes after the cfg are removed with it.
fn strip_test_items(tokens: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    let n = tokens.len();
    while i < n {
        if tokens[i].is_sym("#") {
            // `#[ … ]` or `#![ … ]` — find the matching bracket.
            let mut a = i + 1;
            if a < n && tokens[a].is_sym("!") {
                a += 1;
            }
            if a < n && tokens[a].is_sym("[") {
                let close = matching_bracket(&tokens, a);
                let is_cfg_test = tokens[a..close].iter().any(|t| t.is_ident("cfg"))
                    && tokens[a..close].iter().any(|t| t.is_ident("test"));
                if is_cfg_test {
                    let mut j = close + 1;
                    // Skip any further attributes stacked on the same item.
                    while j < n && tokens[j].is_sym("#") {
                        let mut b = j + 1;
                        if b < n && tokens[b].is_sym("!") {
                            b += 1;
                        }
                        if b < n && tokens[b].is_sym("[") {
                            j = matching_bracket(&tokens, b) + 1;
                        } else {
                            break;
                        }
                    }
                    // Skip the item itself.
                    let mut depth = 0usize;
                    while j < n {
                        if tokens[j].is_sym(";") && depth == 0 {
                            j += 1;
                            break;
                        } else if tokens[j].is_sym("{") {
                            depth += 1;
                        } else if tokens[j].is_sym("}") {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                    i = j;
                    continue;
                }
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Index of the `]` matching the `[` at `open` (saturating at the end).
fn matching_bracket(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_sym("[") {
            depth += 1;
        } else if tokens[i].is_sym("]") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

// --------------------------------------------------------------- config

/// Parsed `xlint.toml`: path prefixes are relative to the repository root
/// with forward slashes; symbols are bare identifiers.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Never lint files under these prefixes (vendor, fixtures, …).
    pub skip_paths: Vec<String>,
    pub std_sync_allow_paths: Vec<String>,
    /// `std::sync` items that are fine anywhere (the `Arc` family).
    pub std_sync_allow_symbols: Vec<String>,
    pub std_thread_allow_paths: Vec<String>,
    /// Non-scheduling `std::thread` items that are fine anywhere.
    pub std_thread_allow_symbols: Vec<String>,
    pub instant_allow_paths: Vec<String>,
    /// Files where `unwrap()`/`expect()` are banned.
    pub no_unwrap_paths: Vec<String>,
}

/// Parse the `xlint.toml` subset: `[section]` headers, `#` comments, and
/// `key = ["a", "b", …]` string-array assignments (single- or multi-line).
pub fn parse_config(text: &str) -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut section = String::new();
    let mut pending_key: Option<String> = None;
    let mut pending_items: Vec<String> = Vec::new();
    let mut in_array = false;

    fn strip_comment(line: &str) -> &str {
        // `#` starts a comment outside strings; values here never contain
        // `#`, so a simple split is faithful for this subset.
        match line.find('#') {
            Some(idx) => &line[..idx],
            None => line,
        }
    }

    fn parse_items(chunk: &str, items: &mut Vec<String>) -> Result<bool, String> {
        // Accumulate quoted strings; returns true when `]` closes the array.
        let mut rest = chunk;
        loop {
            rest = rest.trim_start_matches([',', ' ', '\t']);
            if rest.is_empty() {
                return Ok(false);
            }
            if let Some(after) = rest.strip_prefix(']') {
                if !after.trim().is_empty() {
                    return Err(format!("trailing content after `]`: {after:?}"));
                }
                return Ok(true);
            }
            let Some(body) = rest.strip_prefix('"') else {
                return Err(format!("expected string in array, found {rest:?}"));
            };
            let Some(end) = body.find('"') else {
                return Err(format!("unterminated string: {rest:?}"));
            };
            items.push(body[..end].to_string());
            rest = &body[end + 1..];
        }
    }

    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("xlint.toml:{}: {}", lineno + 1, msg);
        if in_array {
            match parse_items(line, &mut pending_items) {
                Ok(true) => {
                    in_array = false;
                    let key = pending_key.take().expect("array has a key");
                    assign(&mut cfg, &section, key, &pending_items).map_err(|m| err(&m))?;
                    pending_items.clear();
                }
                Ok(false) => {}
                Err(m) => return Err(err(&m)),
            }
        } else if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_string();
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim().to_string();
            let value = value.trim();
            let Some(body) = value.strip_prefix('[') else {
                return Err(err("expected a `[ … ]` string array value"));
            };
            pending_items.clear();
            match parse_items(body, &mut pending_items) {
                Ok(true) => {
                    assign(&mut cfg, &section, key, &pending_items).map_err(|m| err(&m))?;
                    pending_items.clear();
                }
                Ok(false) => {
                    pending_key = Some(key);
                    in_array = true;
                }
                Err(m) => return Err(err(&m)),
            }
        } else {
            return Err(err("expected `[section]` or `key = [ … ]`"));
        }
    }
    if in_array {
        return Err("xlint.toml: unterminated array at end of file".to_string());
    }
    Ok(cfg)
}

fn assign(cfg: &mut Config, section: &str, key: String, items: &[String]) -> Result<(), String> {
    let slot = match (section, key.as_str()) {
        ("skip", "paths") => &mut cfg.skip_paths,
        ("std-sync", "allow_paths") => &mut cfg.std_sync_allow_paths,
        ("std-sync", "allow_symbols") => &mut cfg.std_sync_allow_symbols,
        ("std-thread", "allow_paths") => &mut cfg.std_thread_allow_paths,
        ("std-thread", "allow_symbols") => &mut cfg.std_thread_allow_symbols,
        ("instant-now", "allow_paths") => &mut cfg.instant_allow_paths,
        ("no-unwrap", "paths") => &mut cfg.no_unwrap_paths,
        _ => return Err(format!("unknown setting `{key}` in section `[{section}]`")),
    };
    slot.extend(items.iter().cloned());
    Ok(())
}

// --------------------------------------------------------------- linting

/// One rule violation, reported as `path:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

fn path_matches(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p.as_str()))
}

/// `std::thread` items that reintroduce uninstrumented scheduling.
const THREAD_BANNED: [&str; 8] =
    ["spawn", "sleep", "yield_now", "Builder", "park", "park_timeout", "scope", "JoinHandle"];

/// Lint one file's source. `path` is repo-root-relative with `/` separators.
pub fn lint_source(path: &str, src: &str, cfg: &Config) -> Vec<Violation> {
    let lexed = lex(src);
    let tokens = strip_test_items(lexed.tokens);
    let comments = lexed.comments;
    let mut out = Vec::new();
    let report = |out: &mut Vec<Violation>, line: u32, rule: &'static str, message: String| {
        out.push(Violation { file: path.to_string(), line, rule, message });
    };

    let sync_ok = path_matches(path, &cfg.std_sync_allow_paths);
    let thread_ok = path_matches(path, &cfg.std_thread_allow_paths);
    let instant_ok = path_matches(path, &cfg.instant_allow_paths);
    let unwrap_banned = path_matches(path, &cfg.no_unwrap_paths);

    let n = tokens.len();
    for i in 0..n {
        let t = &tokens[i];

        // std::sync::X / std::thread::X (single segment or a `{ … }` group).
        if t.is_ident("std")
            && i + 4 < n
            && tokens[i + 1].is_sym("::")
            && tokens[i + 3].is_sym("::")
        {
            let module = tokens[i + 2].ident().unwrap_or("");
            let (is_sync, allowed_here, allow_symbols): (bool, bool, &[String]) = match module {
                "sync" => (true, sync_ok, &cfg.std_sync_allow_symbols),
                "thread" => (false, thread_ok, &cfg.std_thread_allow_symbols),
                _ => continue,
            };
            if allowed_here {
                continue;
            }
            let flag = |out: &mut Vec<Violation>, tok: &Token, name: &str| {
                let allowed = allow_symbols.iter().any(|s| s == name);
                let banned =
                    if is_sync { !allowed } else { THREAD_BANNED.contains(&name) && !allowed };
                if banned {
                    let (rule, hint) = if is_sync {
                        ("std-sync", "use the parking_lot / crossbeam shims")
                    } else {
                        ("std-thread", "use crossbeam::thread")
                    };
                    report(
                        out,
                        tok.line,
                        rule,
                        format!(
                            "direct `std::{module}::{name}` — {hint} so the code runs under \
                             the model checker"
                        ),
                    );
                }
            };
            match &tokens[i + 4].tok {
                Tok::Ident(name) => flag(&mut out, &tokens[i + 4], name),
                Tok::Sym(s) if s == "{" => {
                    // Grouped import: flag each direct member (a nested
                    // `atomic::{…}` path is flagged at its head segment).
                    let mut j = i + 5;
                    let mut depth = 1;
                    let mut at_member = true;
                    while j < n && depth > 0 {
                        if tokens[j].is_sym("{") {
                            depth += 1;
                        } else if tokens[j].is_sym("}") {
                            depth -= 1;
                        } else if tokens[j].is_sym(",") && depth == 1 {
                            at_member = true;
                        } else if depth == 1 && at_member {
                            if let Some(name) = tokens[j].ident() {
                                if name != "self" {
                                    flag(&mut out, &tokens[j], name);
                                }
                            }
                            at_member = false;
                        }
                        j += 1;
                    }
                }
                _ => {}
            }
        }

        // Instant::now()
        if !instant_ok
            && t.is_ident("Instant")
            && i + 2 < n
            && tokens[i + 1].is_sym("::")
            && tokens[i + 2].is_ident("now")
        {
            report(
                &mut out,
                t.line,
                "instant-now",
                "`Instant::now()` outside the dispatch/metrics allowlist — thread the \
                 dispatch-captured anchor through instead (one clock read per query)"
                    .to_string(),
            );
        }

        // .unwrap( / .expect( in the no-panic files.
        if unwrap_banned && t.is_sym(".") && i + 2 < n && tokens[i + 2].is_sym("(") {
            if let Some(name @ ("unwrap" | "expect")) = tokens[i + 1].ident() {
                report(
                    &mut out,
                    tokens[i + 1].line,
                    "no-unwrap",
                    format!(
                        "`{name}()` in a network path — a malformed client must cost one \
                         connection, not the process"
                    ),
                );
            }
        }

        // static mut
        if t.is_ident("static") && i + 1 < n && tokens[i + 1].is_ident("mut") {
            report(
                &mut out,
                t.line,
                "static-mut",
                "`static mut` is unsynchronized shared state — use an atomic or a lock".to_string(),
            );
        }

        // unsafe { … } without a `// SAFETY:` comment nearby.
        if t.is_ident("unsafe") && i + 1 < n && tokens[i + 1].is_sym("{") {
            let line = t.line;
            let documented = comments
                .iter()
                .any(|(cl, text)| *cl + 6 >= line && *cl <= line && text.contains("SAFETY:"));
            if !documented {
                report(
                    &mut out,
                    line,
                    "safety-comment",
                    "`unsafe` block without a `// SAFETY:` comment justifying it".to_string(),
                );
            }
        }
    }
    out
}

/// `dead-pub` over a whole workspace: `files` holds every `(path, source)`
/// that may call a `pub fn` (tests, examples and the vendored shims
/// included). A `pub fn` defined under `crates/*/src` is flagged when its
/// name occurs in no token outside its own definition and its own file's
/// `#[cfg(test)]` items. The match is by name only, so a name shared with
/// any other item or call keeps the function unflagged.
pub fn dead_pub(files: &[(String, String)]) -> Vec<Violation> {
    let lexed: Vec<Vec<Token>> = files.iter().map(|(_, src)| lex(src).tokens).collect();
    let mut mentions: HashMap<&str, usize> = HashMap::new();
    for name in lexed.iter().flatten().filter_map(Token::ident) {
        *mentions.entry(name).or_default() += 1;
    }
    let mut out = Vec::new();
    for ((path, _), tokens) in files.iter().zip(&lexed) {
        let in_crate_src = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with("src/"));
        if !in_crate_src {
            continue;
        }
        let live = strip_test_items(tokens.clone());
        let count = |toks: &[Token], name: &str| toks.iter().filter(|t| t.is_ident(name)).count();
        for (i, t) in live.iter().enumerate() {
            if !t.is_ident("pub") {
                continue;
            }
            // `pub [const] [async] [unsafe] fn name`
            let mut j = i + 1;
            while live
                .get(j)
                .and_then(Token::ident)
                .is_some_and(|q| matches!(q, "const" | "async" | "unsafe"))
            {
                j += 1;
            }
            if !live.get(j).is_some_and(|t| t.is_ident("fn")) {
                continue;
            }
            let Some(def) = live.get(j + 1) else { continue };
            let Some(name) = def.ident() else { continue };
            // Mentions in this file's test items do not count as callers.
            let own_tests = count(tokens, name) - count(&live, name);
            if mentions[name] - own_tests <= 1 {
                out.push(Violation {
                    file: path.clone(),
                    line: def.line,
                    rule: "dead-pub",
                    message: format!(
                        "`pub fn {name}` has no caller outside its own file's tests — \
                         delete it"
                    ),
                });
            }
        }
    }
    out
}

/// Recursively lint every `.rs` file under `root`, skipping `target/`,
/// hidden directories, test/bench/fixture trees, and the configured skip
/// paths. `dead-pub` reads the tests, benches and skipped paths too: any
/// of them may be a function's caller.
pub fn lint_tree(root: &Path, cfg: &Config) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, cfg, true, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    let mut corpus = Vec::new();
    for (rel, lintable) in files {
        let src = fs::read_to_string(root.join(&rel))?;
        if lintable {
            out.extend(lint_source(&rel, &src, cfg));
        }
        corpus.push((rel, src));
    }
    out.extend(dead_pub(&corpus));
    Ok(out)
}

/// Every `.rs` file under `dir` with whether the per-file rules apply to it.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    lintable: bool,
    out: &mut Vec<(String, bool)>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy().to_string();
        let rel = path
            .strip_prefix(root)
            .expect("walk stays under root")
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            // Fixtures are deliberate violations and call nothing.
            if name.starts_with('.') || matches!(name.as_str(), "target" | "fixtures") {
                continue;
            }
            // Tests and benches never run under the model scheduler and may
            // use std primitives freely.
            let lintable = lintable
                && !matches!(name.as_str(), "tests" | "benches")
                && !path_matches(&format!("{rel}/"), &cfg.skip_paths);
            collect_rs_files(root, &path, cfg, lintable, out)?;
        } else if name.ends_with(".rs") {
            out.push((rel.clone(), lintable && !path_matches(&rel, &cfg.skip_paths)));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> Config {
        Config {
            std_sync_allow_symbols: ["Arc", "Weak", "Once", "OnceLock", "LazyLock"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            std_thread_allow_symbols: vec!["available_parallelism".to_string()],
            ..Config::default()
        }
    }

    fn rules(src: &str) -> Vec<&'static str> {
        lint_source("x.rs", src, &base_cfg()).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn flags_std_sync_primitives_but_not_arc_family() {
        assert_eq!(rules("use std::sync::Mutex;"), ["std-sync"]);
        assert_eq!(rules("use std::sync::atomic::AtomicU64;"), ["std-sync"]);
        assert_eq!(rules("use std::sync::mpsc;"), ["std-sync"]);
        assert!(rules("use std::sync::Arc;").is_empty());
        assert!(rules("use std::sync::{Arc, OnceLock};").is_empty());
        assert_eq!(rules("use std::sync::{Arc, Mutex};"), ["std-sync"]);
    }

    #[test]
    fn flags_std_thread_scheduling_symbols_only() {
        assert_eq!(rules("std::thread::spawn(|| ());"), ["std-thread"]);
        assert_eq!(rules("use std::thread::{sleep, spawn};"), ["std-thread", "std-thread"]);
        assert!(rules("std::thread::available_parallelism();").is_empty());
        assert!(rules("std::thread::current().id();").is_empty());
    }

    #[test]
    fn flags_instant_now_unless_allowlisted() {
        assert_eq!(rules("let t = Instant::now();"), ["instant-now"]);
        let mut cfg = base_cfg();
        cfg.instant_allow_paths.push("x.rs".to_string());
        assert!(lint_source("x.rs", "let t = Instant::now();", &cfg).is_empty());
    }

    #[test]
    fn flags_unwrap_only_in_configured_files() {
        let mut cfg = base_cfg();
        cfg.no_unwrap_paths.push("net.rs".to_string());
        assert_eq!(lint_source("net.rs", "x.unwrap();", &cfg).len(), 1);
        assert_eq!(lint_source("net.rs", "x.expect(\"m\");", &cfg).len(), 1);
        assert!(lint_source("other.rs", "x.unwrap();", &cfg).is_empty());
    }

    #[test]
    fn flags_undocumented_unsafe_and_static_mut() {
        assert_eq!(rules("unsafe { x() }"), ["safety-comment"]);
        assert!(rules("// SAFETY: justified\nunsafe { x() }").is_empty());
        assert_eq!(rules("static mut X: u32 = 0;"), ["static-mut"]);
    }

    #[test]
    fn strings_comments_and_test_modules_are_exempt() {
        assert!(rules("let s = \"std::sync::Mutex\";").is_empty());
        assert!(rules("// std::sync::Mutex\n").is_empty());
        assert!(rules("let s = r#\"unsafe { \"quoted\" }\"#;").is_empty());
        assert!(rules("#[cfg(test)]\nmod t { use std::sync::Mutex; }").is_empty());
        assert!(rules("#[cfg(test)]\nuse std::sync::Mutex;").is_empty());
        // A non-test cfg does not exempt.
        assert_eq!(rules("#[cfg(unix)]\nmod m { use std::sync::Mutex; }"), ["std-sync"]);
    }

    #[test]
    fn lexer_survives_tricky_literals() {
        // Lifetimes, char literals, floats, tuple indexing.
        assert!(rules("fn f<'a>(x: &'a str) -> char { 'x' }").is_empty());
        let mut cfg = base_cfg();
        cfg.no_unwrap_paths.push("x.rs".to_string());
        // `t.0.unwrap()` must still be seen through the tuple index.
        assert_eq!(lint_source("x.rs", "t.0.unwrap();", &cfg).len(), 1);
    }

    #[test]
    fn dead_pub_counts_callers_in_other_files_and_outside_tests() {
        let flagged = |files: &[(&str, &str)]| -> Vec<u32> {
            let files: Vec<(String, String)> =
                files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
            dead_pub(&files).into_iter().map(|v| v.line).collect()
        };
        let def = "pub fn lonely() {}\n#[cfg(test)]\nmod t { fn f() { super::lonely(); } }";
        assert_eq!(flagged(&[("crates/a/src/lib.rs", def)]), [1]);
        assert!(flagged(&[("crates/a/src/lib.rs", def), ("tests/t.rs", "a::lonely();")]).is_empty());
        assert!(flagged(&[("crates/a/src/lib.rs", "pub fn f() {}\nfn g() { f() }")]).is_empty());
        // Only `crates/*/src` is checked, and `pub(crate)` is not `pub`.
        assert!(flagged(&[("crates/a/tests/t.rs", "pub fn lonely() {}")]).is_empty());
        assert!(flagged(&[("crates/a/src/lib.rs", "pub(crate) fn lonely() {}")]).is_empty());
        assert_eq!(flagged(&[("crates/a/src/lib.rs", "\npub const unsafe fn lonely() {}")]), [2]);
    }

    #[test]
    fn config_parser_round_trips() {
        let cfg = parse_config(
            "# comment\n\
             [skip]\n\
             paths = [\"vendor/\"]\n\
             [std-sync]\n\
             allow_paths = [\n    \"crates/bench/\",\n    \"crates/modelcheck/\",\n]\n\
             allow_symbols = [\"Arc\", \"Weak\"]\n\
             [no-unwrap]\n\
             paths = [\"crates/server/src/conn.rs\"]\n",
        )
        .unwrap();
        assert_eq!(cfg.skip_paths, ["vendor/"]);
        assert_eq!(cfg.std_sync_allow_paths, ["crates/bench/", "crates/modelcheck/"]);
        assert_eq!(cfg.std_sync_allow_symbols, ["Arc", "Weak"]);
        assert_eq!(cfg.no_unwrap_paths, ["crates/server/src/conn.rs"]);
        assert!(parse_config("[std-sync]\nbogus = [\"x\"]").is_err());
        assert!(parse_config("loose line").is_err());
    }
}
