//! The per-graph execution-plan cache, and the key a query is cached under.
//!
//! A query *shape* arrives thousands of times with different values, spelled
//! as `CYPHER k=7 … WHERE id(s) = $k …` parameters or as literals in the body
//! (`… WHERE id(s) = 7 …`). Dispatch lexes every query once
//! (`KeyedQuery::new`): the `CYPHER` header becomes parameters, and the
//! body's tokens become the cache key. Each integer, float or string literal
//! in an expression position is lifted out of the key into a placeholder
//! parameter and bound per execution exactly like a header value, so both
//! spellings of a shape share one parsed-and-planned skeleton. The literals
//! that shape the plan itself stay in the key (see [`normalize`]).
//!
//! Plans are compiled from the AST alone — no graph contents, no runtime
//! configuration — so a cached plan never goes stale: writes never
//! invalidate, and only a `PLAN_CACHE_SIZE` resize or a `GRAPH.DELETE`
//! (which drops the keyspace entry and the cache with it) clears it. The
//! cache is bounded (least-recently-used eviction) and scoped per graph. A
//! plan built after a lookup miss is inserted whenever it finishes: even if
//! a resize or delete landed in between, it is still a correct plan, and the
//! capacity check under the lock still bounds the cache.

use crate::commands::split_cypher_header;
use crate::metrics::Metrics;
use crossbeam::atomic::Ordering;
use cypher::{line_col, Lexer, Literal, Query, Token, TokenKind};
use parking_lot::Mutex;
use redisgraph_core::{ExecutionPlan, Params, QueryError, Value};
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

/// A parsed-and-planned query skeleton, shared by every execution of the
/// same query shape.
#[derive(Debug)]
pub struct CachedPlan {
    /// The compiled plan. Parameter references (`$name`, and the
    /// placeholders of lifted literals) index its parameter table: each
    /// execution binds its own values ([`ExecutionPlan::bind`]) and runs
    /// the shared plan in place.
    pub plan: Arc<ExecutionPlan>,
    /// Whether the query is read-only (epoch-snapshot path) or a write
    /// (exclusive-lock path) — classified once, at plan time.
    pub read_only: bool,
}

#[derive(Debug)]
struct CacheInner {
    /// Each key's plan and the tick of its last use.
    map: HashMap<String, (Arc<CachedPlan>, u64)>,
    /// The last tick handed out: every lookup hit and insert takes the next.
    tick: u64,
    /// Maximum entries (`PLAN_CACHE_SIZE`); 0 disables caching entirely.
    capacity: usize,
}

/// A bounded LRU plan cache. One per keyspace entry.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<CacheInner>,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans (0 = disabled).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache { inner: Mutex::new(CacheInner { map: HashMap::new(), tick: 0, capacity }) }
    }

    /// Look up the plan for a query key, counting the hit or miss and
    /// stamping a hit with a fresh tick: O(1) under the lock.
    pub fn lookup(&self, key: &str, metrics: &Metrics) -> Option<Arc<CachedPlan>> {
        let inner = &mut *self.inner.lock();
        match inner.map.get_mut(key) {
            Some((cached, used)) => {
                metrics.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
                inner.tick += 1;
                *used = inner.tick;
                Some(Arc::clone(cached))
            }
            None => {
                metrics.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Install a freshly built plan. Over capacity, the entry with the
    /// oldest tick is evicted: a scan, paid only by an insert that
    /// overflows.
    pub fn insert(&self, key: String, plan: Arc<CachedPlan>, metrics: &Metrics) {
        let mut inner = self.inner.lock();
        if inner.capacity == 0 {
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, (plan, tick));
        while inner.map.len() > inner.capacity {
            let oldest =
                inner.map.iter().min_by_key(|(_, (_, used))| *used).map(|(k, _)| k.clone());
            let Some(oldest) = oldest else { break };
            inner.map.remove(&oldest);
            metrics.plan_cache_evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Change the capacity (`GRAPH.CONFIG SET PLAN_CACHE_SIZE`), dropping
    /// every cached plan.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.capacity = capacity;
    }

    /// Number of cached plans (the `plan_cache_entries` gauge).
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A query text after dispatch's one lexer pass over it.
pub(crate) struct KeyedQuery<'q> {
    /// The plan-cache key: the body's token shape (see [`normalize`]).
    pub(crate) key: String,
    /// What [`ExecutionPlan::bind`] reads: the `CYPHER` header's values,
    /// plus one placeholder per literal lifted out of the key.
    pub(crate) params: Params,
    /// The body, parsed on a cache miss.
    pub(crate) body: QueryBody<'q>,
}

impl<'q> KeyedQuery<'q> {
    /// Lex `query` once, split its `CYPHER` header off (a malformed header
    /// value, or a lexer diagnostic inside the header, is an error), and key
    /// its body. Without `lift_literals` (the plan cache is off, so no plan
    /// is shared) every literal stays in the key and in the plan, as written.
    pub(crate) fn new(query: &'q str, lift_literals: bool) -> Result<KeyedQuery<'q>, String> {
        let (mut tokens, diagnostics) = Lexer::tokenize_recovering(query);
        let (mut params, first) = split_cypher_header(&tokens)?;
        // Without a header the whole text is the body.
        let body_offset = if first == 0 { 0 } else { tokens[first].offset };
        // The header's tokens carry the lexer's recovery values (an
        // out-of-range integer lexes as 0), so a problem in the header fails
        // the query. A problem in the body must surface as the body text's
        // own parse error.
        let body_start = line_col(query, body_offset);
        if let Some(d) = diagnostics.iter().find(|d| (d.span.0, d.span.1) < body_start) {
            return Err(format!("invalid CYPHER header: {d}"));
        }
        let clean = diagnostics.is_empty();
        tokens.drain(..first);
        let key = shape_key(&mut tokens, &mut params, lift_literals);
        let body = QueryBody { text: &query[body_offset..], tokens: clean.then_some(tokens) };
        Ok(KeyedQuery { key, params, body })
    }
}

/// A query body, ready to parse on a plan-cache miss.
pub(crate) struct QueryBody<'q> {
    text: &'q str,
    /// The body's tokens with lifted literals as placeholders; `None` when
    /// the lexer reported a problem in the body.
    tokens: Option<Vec<Token<'q>>>,
}

impl QueryBody<'_> {
    /// False when the lexer reported a problem in the body. Such a body is
    /// never served from the cache: the tokens it recovered to may spell a
    /// cached shape (`RETURN 'a` lexes like `RETURN 'a'`), but it must fail
    /// with its own diagnostics.
    pub(crate) fn lexed_cleanly(&self) -> bool {
        self.tokens.is_some()
    }

    /// Parse the body into the AST its cache key stands for: lifted literals
    /// are `$` placeholders in it. A body that does not parse reports the
    /// diagnostics of its text, exactly as a direct parse would.
    pub(crate) fn parse(self) -> Result<Query, QueryError> {
        if let Some(query) = self.tokens.and_then(cypher::parse_tokens) {
            return Ok(query);
        }
        // A placeholder parses wherever the literal it replaced does, so the
        // text fails wherever its tokens do.
        match cypher::parse(self.text) {
            Err(e) => Err(e.into()),
            Ok(_) => Err(QueryError::Internal("query text parses but its tokens do not".into())),
        }
    }
}

/// Lifted literals become the parameters `?0`, `?1`, … in body order. A
/// `$name` in a query body lexes only letters, digits and `_`, so no body
/// can reference one; a header value under such a (back-quoted) name is
/// overwritten and, like any header value the body never uses, ignored.
const PLACEHOLDER: char = '?';

/// The plan-cache key of a query body (no `CYPHER` header): its tokens, one
/// space apart, with every literal in an expression position lifted out as
/// `?`. Whitespace, comments and keyword case therefore never split a
/// shape, and two spellings of one value (`'a'`, `"a"`) share a key.
///
/// Literals the parser reads outside expressions shape the plan rather than
/// feed it, so queries that differ in them never share one: property-map
/// values (`{k: v}`), `SKIP`/`LIMIT` operands and variable-length bounds
/// (after `*` or `..`) stay in the key, as do the keywords `TRUE`, `FALSE`
/// and `NULL`. A kept string is written escaped and quoted, so no string
/// content can run into the tokens around it. A negative number is `-` and
/// the number, and a list literal one `?` per item, so a number's sign and
/// a list's length are part of the shape.
pub fn normalize(body: &str) -> String {
    let (mut tokens, _) = Lexer::tokenize_recovering(body);
    shape_key(&mut tokens, &mut Params::new(), true)
}

/// Build the key of a body's tokens (which end in `Eof`, see [`normalize`]).
/// With `lift`, each lifted literal's token becomes its placeholder
/// parameter, and its value goes into `params`; without, the key spells
/// every literal.
fn shape_key(tokens: &mut [Token<'_>], params: &mut Params, lift: bool) -> String {
    let mut key = String::with_capacity(tokens.len() * 4);
    let mut lifted = 0;
    for i in 0..tokens.len().saturating_sub(1) {
        if i > 0 {
            key.push(' ');
        }
        let kept = !lift || read_outside_expressions(&tokens[..i]);
        let literal = match &mut tokens[i].kind {
            _ if kept => None,
            TokenKind::Integer(v) => Some(Literal::Integer(*v)),
            TokenKind::Float(v) => Some(Literal::Float(*v)),
            TokenKind::Str(s) => Some(Literal::Str(std::mem::take(s))),
            _ => None,
        };
        let Some(literal) = literal else {
            push_token(&mut key, &tokens[i].kind);
            continue;
        };
        let name = format!("{PLACEHOLDER}{lifted}");
        lifted += 1;
        tokens[i].kind = TokenKind::Parameter(name.clone().into());
        params.insert(name, Value::from(&literal));
        key.push(PLACEHOLDER);
    }
    key
}

/// True if the parser reads a literal after `before` outside any
/// expression: as a property-map value (after `:`, or `:` and `-`), a
/// `SKIP`/`LIMIT` operand, or a variable-length bound (after `*` or `..`;
/// the operand of a multiplication stays in the key too, harmlessly).
fn read_outside_expressions(before: &[Token<'_>]) -> bool {
    let back = |n: usize| before.len().checked_sub(n).map(|i| &before[i].kind);
    match back(1) {
        Some(TokenKind::Colon | TokenKind::Star | TokenKind::DotDot) => true,
        Some(TokenKind::Keyword(word)) => matches!(*word, "SKIP" | "LIMIT"),
        Some(TokenKind::Dash) => back(2) == Some(&TokenKind::Colon),
        _ => false,
    }
}

/// Append one token's key text. Names are back-quoted (a back-quoted
/// identifier spelled like a keyword is not the keyword) and strings quoted
/// with their escapes, so the key never confuses two token streams.
fn push_token(key: &mut String, kind: &TokenKind<'_>) {
    match kind {
        TokenKind::Ident(name) => {
            key.push('`');
            key.push_str(name);
            key.push('`');
        }
        TokenKind::Keyword(word) => key.push_str(word),
        TokenKind::Parameter(name) => {
            key.push('$');
            key.push_str(name);
        }
        // Writing to a `String` cannot fail.
        TokenKind::Integer(v) => drop(write!(key, "{v}")),
        TokenKind::Float(v) => drop(write!(key, "{v:?}")),
        TokenKind::Str(s) => drop(write!(key, "{s:?}")),
        other => key.push_str(other.punctuation().unwrap_or_default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_for(query: &str) -> Arc<CachedPlan> {
        let ast = cypher::parse(query).unwrap();
        let read_only = ast.is_read_only();
        let plan = ExecutionPlan::build(&ast).unwrap();
        Arc::new(CachedPlan { plan: Arc::new(plan), read_only })
    }

    #[test]
    fn normalization_collapses_whitespace_but_not_string_contents() {
        assert_eq!(normalize("MATCH (n) RETURN n"), "MATCH ( `n` ) RETURN `n`");
        assert_eq!(
            normalize("  match   (n)\n\tRETURN  n  // done"),
            normalize("MATCH (n) RETURN n")
        );
        // A property-map string stays in the key, escaped and quoted.
        assert_eq!(
            normalize("MATCH (n {name: 'two  spaces'}) RETURN n"),
            "MATCH ( `n` { `name` : \"two  spaces\" } ) RETURN `n`"
        );
        assert_ne!(
            normalize("MATCH (n {name: 'two  spaces'}) RETURN n"),
            normalize("MATCH (n {name: 'two spaces'}) RETURN n")
        );
        // Whitespace after an escaped quote, or after a quote in a comment,
        // is string content, not formatting.
        assert_ne!(
            normalize(r"MATCH (n {name: 'a\'  b'}) RETURN n"),
            normalize(r"MATCH (n {name: 'a\' b'}) RETURN n")
        );
        assert_ne!(
            normalize("MATCH // it's\n (n {name: 'a  b'}) RETURN n"),
            normalize("MATCH // it's\n (n {name: 'a b'}) RETURN n")
        );
        // A back-quoted identifier spelled like a keyword is not the keyword.
        assert_ne!(normalize("MATCH (`MATCH`) RETURN 1"), normalize("MATCH (MATCH) RETURN 1"));
        assert_eq!(normalize(""), "");
    }

    #[test]
    fn expression_literals_are_lifted_and_plan_shaping_ones_kept() {
        let keyed = KeyedQuery::new(
            "MATCH (s:Node {id: -3})-[*1..2]->(t) WHERE s.v = 'x' AND t.w > -1.5 \
             RETURN t, 7 ORDER BY t.w SKIP 2 LIMIT 4",
            true,
        )
        .unwrap();
        assert_eq!(
            keyed.key,
            "MATCH ( `s` : `Node` { `id` : - 3 } ) - [ * 1 .. 2 ] - > ( `t` ) WHERE `s` . `v` = ? \
             AND `t` . `w` > - ? RETURN `t` , ? ORDER BY `t` . `w` SKIP 2 LIMIT 4"
        );
        let lit = |l: Literal| Value::from(&l);
        assert_eq!(keyed.params.len(), 3);
        assert_eq!(keyed.params["?0"], lit(Literal::Str("x".into())));
        assert_eq!(keyed.params["?1"], lit(Literal::Float(1.5)));
        assert_eq!(keyed.params["?2"], lit(Literal::Integer(7)));
        // Another value of the same shape keys the same; a kept one does not.
        let same = KeyedQuery::new(
            "MATCH (s:Node {id: -3})-[*1..2]->(t) WHERE s.v = \"y\" AND t.w > -2 \
             RETURN t, 'z' ORDER BY t.w SKIP 2 LIMIT 4",
            true,
        )
        .unwrap();
        assert_eq!(same.key, keyed.key);
        let other = KeyedQuery::new(
            "MATCH (s:Node {id: -3})-[*1..2]->(t) WHERE s.v = 'x' AND t.w > -1.5 \
             RETURN t, 7 ORDER BY t.w SKIP 2 LIMIT 5",
            true,
        )
        .unwrap();
        assert_ne!(other.key, keyed.key);
        // With the plan cache off nothing is lifted: the key spells every
        // literal and the plan keeps them.
        let exact = KeyedQuery::new("RETURN 7, 'x'", false).unwrap();
        assert_eq!((exact.key.as_str(), exact.params.len()), ("RETURN 7 , \"x\"", 0));
    }

    #[test]
    fn header_values_and_lifted_literals_share_one_parameter_map() {
        // `?0` can only be spelled back-quoted in a header, and no body can
        // reference it: the lifted literal wins.
        let keyed = KeyedQuery::new("CYPHER `?0`=99 p=1 RETURN 5, $p", true).unwrap();
        assert_eq!(keyed.key, "RETURN ? , $p");
        assert_eq!(keyed.params["?0"], Value::Int(5));
        assert_eq!(keyed.params["p"], Value::Int(1));
        assert!(KeyedQuery::new("CYPHER p=MATCH RETURN 1", true).is_err());
    }

    #[test]
    fn a_body_the_lexer_complained_about_is_never_served_from_the_cache() {
        assert!(KeyedQuery::new("RETURN 'a'", true).unwrap().body.lexed_cleanly());
        assert!(!KeyedQuery::new("RETURN 'a", true).unwrap().body.lexed_cleanly());
        assert!(!KeyedQuery::new("CYPHER k=1 RETURN $k ^", true).unwrap().body.lexed_cleanly());
        // A stray character before the body is the header's problem, not the
        // body's: the query fails before any body is keyed. Without a header
        // it is the body's.
        assert!(KeyedQuery::new("CYPHER k=1 ^ RETURN $k", true).is_err());
        assert!(!KeyedQuery::new("^ RETURN 1", true).unwrap().body.lexed_cleanly());
    }

    #[test]
    fn a_lexer_diagnostic_in_the_header_fails_the_query_by_name() {
        // The lexer recovers from an out-of-range integer with 0; binding
        // that value would answer a query nobody sent.
        for (query, code, at) in [
            ("CYPHER k=99999999999999999999 RETURN $k", "E_BAD_NUMBER", "1:10"),
            ("CYPHER k=[1, -99999999999999999999] RETURN $k", "E_BAD_NUMBER", "1:15"),
            ("CYPHER k=1 ^ RETURN $k", "E_UNEXPECTED_CHAR", "1:12"),
        ] {
            let Err(err) = KeyedQuery::new(query, true) else { panic!("{query} was accepted") };
            assert!(err.starts_with("invalid CYPHER header: "), "{query}: {err}");
            assert!(err.contains(code) && err.contains(at), "{query}: {err}");
        }
        // With the plan cache off the header is read the same way.
        assert!(KeyedQuery::new("CYPHER k=99999999999999999999 RETURN $k", false).is_err());
        // In range, the same header binds its value.
        let keyed = KeyedQuery::new("CYPHER k=9223372036854775807 RETURN $k", true).unwrap();
        assert_eq!(keyed.params["k"], Value::Int(i64::MAX));
    }

    #[test]
    fn a_body_that_does_not_parse_reports_its_text_diagnostics() {
        for query in
            ["MATCH (a RETURN 5", "RETURN 1 2", "RETURN 'oops", "MATCH (n) RETURN n LIMIT 'x'"]
        {
            let body = KeyedQuery::new(query, true).unwrap().body;
            let Err(QueryError::Syntax(got)) = body.parse() else { panic!("{query} parsed") };
            assert_eq!(got, cypher::parse(query).unwrap_err().to_string(), "{query}");
        }
    }

    #[test]
    fn lookup_miss_then_insert_then_hit() {
        let cache = PlanCache::new(4);
        let metrics = Metrics::default();
        assert!(cache.lookup("MATCH (n) RETURN n", &metrics).is_none(), "empty cache must miss");
        cache.insert("MATCH (n) RETURN n".into(), plan_for("MATCH (n) RETURN n"), &metrics);
        assert!(cache.lookup("MATCH (n) RETURN n", &metrics).is_some());
        assert_eq!(cache.len(), 1);
        assert_eq!(metrics.plan_cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.plan_cache_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn insert_after_a_resize_lands_within_the_new_capacity() {
        let cache = PlanCache::new(4);
        let metrics = Metrics::default();
        assert!(cache.lookup("q1", &metrics).is_none());
        // The resize lands while the caller is off building the plan; its
        // late insert is still a correct plan and is bounded like any other.
        cache.set_capacity(1);
        cache.insert("q1".into(), plan_for("MATCH (n) RETURN n"), &metrics);
        cache.insert("q2".into(), plan_for("MATCH (n) RETURN n"), &metrics);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("q2", &metrics).is_some());
    }

    #[test]
    fn lru_eviction_is_bounded_and_counted() {
        let cache = PlanCache::new(2);
        let metrics = Metrics::default();
        for key in ["q1", "q2", "q3"] {
            assert!(cache.lookup(key, &metrics).is_none());
            cache.insert(key.into(), plan_for("MATCH (n) RETURN n"), &metrics);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(metrics.plan_cache_evictions.load(Ordering::Relaxed), 1);
        // q1 was the least recently used entry, so it is the one gone.
        assert!(cache.lookup("q1", &metrics).is_none());
        assert!(cache.lookup("q2", &metrics).is_some());
        assert!(cache.lookup("q3", &metrics).is_some());

        // A hit refreshes recency: q2 survives the next eviction, q3 goes.
        assert!(cache.lookup("q4", &metrics).is_none());
        assert!(cache.lookup("q2", &metrics).is_some());
        cache.insert("q4".into(), plan_for("MATCH (n) RETURN n"), &metrics);
        assert!(cache.lookup("q2", &metrics).is_some());
        assert!(cache.lookup("q3", &metrics).is_none());
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let cache = PlanCache::new(0);
        let metrics = Metrics::default();
        assert!(cache.lookup("q", &metrics).is_none());
        cache.insert("q".into(), plan_for("MATCH (n) RETURN n"), &metrics);
        assert!(cache.is_empty());
        assert!(cache.lookup("q", &metrics).is_none());
    }

    #[test]
    fn resizing_invalidates() {
        let cache = PlanCache::new(4);
        let metrics = Metrics::default();
        cache.insert("q".into(), plan_for("MATCH (n) RETURN n"), &metrics);
        assert_eq!(cache.len(), 1);
        cache.set_capacity(8);
        assert!(cache.is_empty());
    }
}
