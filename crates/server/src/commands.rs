//! The `GRAPH.*` module commands and their RESP encodings.

use crate::resp::{push_bulk, push_header, push_integer, push_null, RespValue};
use cypher::{Expr, Lexer, Literal, Token, TokenKind};
use redisgraph_core::{format_profile, OpProfile, Params, QueryStats, ResultSet, Value};
use std::fmt::Write;

/// A parsed client command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `PING`
    Ping,
    /// `SHUTDOWN` — ask the network server for a graceful stop: in-flight
    /// queries drain, every connection closes, the listener exits. Only
    /// meaningful over TCP; the in-process façade rejects it.
    Shutdown,
    /// `GRAPH.QUERY <graph> <cypher>`
    GraphQuery {
        /// Graph key name.
        graph: String,
        /// Cypher query text (optionally prefixed with a `CYPHER name=value`
        /// parameter header; see [`split_cypher_params`]).
        query: String,
    },
    /// `GRAPH.EXPLAIN <graph> <cypher>`
    GraphExplain {
        /// Graph key name.
        graph: String,
        /// Cypher query text.
        query: String,
    },
    /// `GRAPH.PROFILE <graph> <cypher>` — execute the query (writes mutate,
    /// exactly like `GRAPH.QUERY`) and return the `GRAPH.EXPLAIN` tree with
    /// per-operator records-produced and wall-time annotations.
    GraphProfile {
        /// Graph key name.
        graph: String,
        /// Cypher query text.
        query: String,
    },
    /// `GRAPH.SLOWLOG <graph> [GET|RESET]` — read or clear the graph's
    /// slow-query ring buffer (`GET` is the default).
    GraphSlowlog {
        /// Graph key name.
        graph: String,
        /// True for `RESET`, false for `GET`.
        reset: bool,
    },
    /// `GRAPH.INFO` — the server-wide metrics registry as a sectioned
    /// key-value reply.
    GraphInfo,
    /// `GRAPH.DELETE <graph>`
    GraphDelete {
        /// Graph key name.
        graph: String,
    },
    /// `GRAPH.LIST`
    GraphList,
    /// `GRAPH.CONFIG GET <parameter>`
    GraphConfigGet {
        /// Parameter name (`DELTA_MAX_PENDING_CHANGES`, case-insensitive).
        parameter: String,
    },
    /// `GRAPH.CONFIG SET <parameter> <value>`
    GraphConfigSet {
        /// Parameter name.
        parameter: String,
        /// New value (validated by the server when applied).
        value: String,
    },
}

/// A typed cursor over one command's arguments, shared by every `GRAPH.*`
/// parser arm so arity and subcommand mistakes all phrase their errors the
/// way Redis does (`wrong number of arguments for 'graph.query' command`)
/// instead of each arm inventing its own wording.
struct Args<'a> {
    /// Canonical lower-case command name, for error messages.
    command: &'a str,
    parts: &'a [&'a str],
    pos: usize,
}

impl<'a> Args<'a> {
    fn new(command: &'a str, parts: &'a [&'a str]) -> Args<'a> {
        Args { command, parts, pos: 0 }
    }

    fn wrong_arity(&self) -> String {
        format!("wrong number of arguments for '{}' command", self.command)
    }

    /// The next argument, or the Redis arity error if exhausted.
    fn required(&mut self) -> Result<&'a str, String> {
        let arg = self.parts.get(self.pos).ok_or_else(|| self.wrong_arity())?;
        self.pos += 1;
        Ok(arg)
    }

    /// The next argument matched case-insensitively against `options`,
    /// returning the canonical spelling.
    fn keyword(&mut self, options: &[&'static str]) -> Result<&'static str, String> {
        let arg = self.required()?;
        options.iter().find(|o| arg.eq_ignore_ascii_case(o)).copied().ok_or_else(|| {
            format!(
                "unknown subcommand '{arg}' for '{}'; expected {}",
                self.command,
                options.join(" or ")
            )
        })
    }

    /// Like [`Args::keyword`], but absence is `None` rather than an error.
    fn optional_keyword(
        &mut self,
        options: &[&'static str],
    ) -> Result<Option<&'static str>, String> {
        if self.pos >= self.parts.len() {
            return Ok(None);
        }
        self.keyword(options).map(Some)
    }

    /// Finish parsing: any unconsumed argument is an arity error.
    fn finish(self, command: Command) -> Result<Command, String> {
        if self.pos == self.parts.len() {
            Ok(command)
        } else {
            Err(self.wrong_arity())
        }
    }
}

impl Command {
    /// Parse a command from a RESP array of bulk strings, as sent by clients.
    pub fn parse(value: &RespValue) -> Result<Command, String> {
        let RespValue::Array(items) = value else {
            return Err("expected a RESP array".to_string());
        };
        let parts: Vec<&str> = items
            .iter()
            .map(|v| match v {
                RespValue::BulkString(s) | RespValue::SimpleString(s) => Ok(s.as_str()),
                _ => Err("command arguments must be strings".to_string()),
            })
            .collect::<Result<_, _>>()?;
        let Some((&name, rest)) = parts.split_first() else {
            return Err("empty command".to_string());
        };
        let canonical = name.to_ascii_lowercase();
        let mut args = Args::new(&canonical, rest);
        match canonical.as_str() {
            "ping" => args.finish(Command::Ping),
            "shutdown" => args.finish(Command::Shutdown),
            "graph.query" => {
                let graph = args.required()?.to_string();
                let query = args.required()?.to_string();
                args.finish(Command::GraphQuery { graph, query })
            }
            "graph.explain" => {
                let graph = args.required()?.to_string();
                let query = args.required()?.to_string();
                args.finish(Command::GraphExplain { graph, query })
            }
            "graph.profile" => {
                let graph = args.required()?.to_string();
                let query = args.required()?.to_string();
                args.finish(Command::GraphProfile { graph, query })
            }
            "graph.slowlog" => {
                let graph = args.required()?.to_string();
                let reset = matches!(args.optional_keyword(&["GET", "RESET"])?, Some("RESET"));
                args.finish(Command::GraphSlowlog { graph, reset })
            }
            "graph.info" => args.finish(Command::GraphInfo),
            "graph.delete" => {
                let graph = args.required()?.to_string();
                args.finish(Command::GraphDelete { graph })
            }
            "graph.list" => args.finish(Command::GraphList),
            "graph.config" => match args.keyword(&["GET", "SET"])? {
                "GET" => {
                    let parameter = args.required()?.to_string();
                    args.finish(Command::GraphConfigGet { parameter })
                }
                _ => {
                    let parameter = args.required()?.to_string();
                    let value = args.required()?.to_string();
                    args.finish(Command::GraphConfigSet { parameter, value })
                }
            },
            _ => Err(format!("unknown command `{name}`")),
        }
    }
}

/// Split the optional `CYPHER name=value [name=value …]` parameter header
/// off a query, returning the typed parameters and the query body that
/// follows the header.
///
/// Values are literals only — `null`, booleans, integers, floats (each with
/// an optional leading `-`), quoted strings, and flat lists thereof — parsed
/// with the Cypher lexer, so quoting and escaping behave exactly as they do
/// inside a query. The header ends at the first token that is not the start
/// of a `name=` pair (typically the body's opening clause keyword). A query
/// with no header comes back untouched with an empty parameter map.
pub fn split_cypher_params(query: &str) -> Result<(Params, &str), String> {
    let (tokens, _) = Lexer::tokenize_recovering(query);
    let has_header = matches!(
        tokens.first().map(|t| &t.kind),
        Some(TokenKind::Ident(word)) if word.eq_ignore_ascii_case("CYPHER")
    );
    if !has_header {
        return Ok((Params::new(), query));
    }
    let mut params = Params::new();
    let mut i = 1;
    while let (TokenKind::Ident(name), Some(TokenKind::Eq)) =
        (&tokens[i].kind, tokens.get(i + 1).map(|t| &t.kind))
    {
        let name = name.clone();
        i += 2;
        let value = parse_param_literal(&tokens, &mut i, &name)?;
        params.insert(name, value);
    }
    let body_start = tokens.get(i).map_or(query.len(), |t| t.offset);
    Ok((params, &query[body_start..]))
}

/// One literal value in a `CYPHER` parameter header, starting at `tokens[*i]`
/// (which is advanced past the value). The token stream always ends with
/// `Eof`, so indexing stays in bounds: every arm either consumes a real
/// token or errors out on whatever it found instead.
fn parse_param_literal(tokens: &[Token], i: &mut usize, name: &str) -> Result<Expr, String> {
    let unexpected = |found: &TokenKind| {
        format!(
            "invalid value for parameter `{name}`: expected a literal \
             (null, boolean, number, string, or list), found {found}"
        )
    };
    let kind = &tokens[*i].kind;
    *i += 1;
    match kind {
        TokenKind::Integer(v) => Ok(Expr::Literal(Literal::Integer(*v))),
        TokenKind::Float(v) => Ok(Expr::Literal(Literal::Float(*v))),
        TokenKind::Str(s) => Ok(Expr::Literal(Literal::Str(s.clone()))),
        TokenKind::Keyword(k) if k == "TRUE" => Ok(Expr::Literal(Literal::Bool(true))),
        TokenKind::Keyword(k) if k == "FALSE" => Ok(Expr::Literal(Literal::Bool(false))),
        TokenKind::Keyword(k) if k == "NULL" => Ok(Expr::Literal(Literal::Null)),
        TokenKind::Dash => {
            let negated = &tokens[*i].kind;
            *i += 1;
            match negated {
                TokenKind::Integer(v) => Ok(Expr::Literal(Literal::Integer(-v))),
                TokenKind::Float(v) => Ok(Expr::Literal(Literal::Float(-v))),
                other => Err(unexpected(other)),
            }
        }
        TokenKind::LBracket => {
            let mut items = Vec::new();
            if tokens[*i].kind == TokenKind::RBracket {
                *i += 1;
                return Ok(Expr::List(items));
            }
            loop {
                items.push(parse_param_literal(tokens, i, name)?);
                let sep = &tokens[*i].kind;
                *i += 1;
                match sep {
                    TokenKind::Comma => {}
                    TokenKind::RBracket => return Ok(Expr::List(items)),
                    other => {
                        return Err(format!(
                            "invalid value for parameter `{name}`: expected `,` or `]` \
                             in list, found {other}"
                        ))
                    }
                }
            }
        }
        other => Err(unexpected(other)),
    }
}

/// Encode profiled operators as the `GRAPH.PROFILE` reply: the
/// `GRAPH.EXPLAIN` tree, one bulk string per operator, each annotated with
/// its records-produced count and wall time.
pub fn profile_to_resp(profiles: &[OpProfile]) -> RespValue {
    RespValue::Array(format_profile(profiles).into_iter().map(RespValue::BulkString).collect())
}

/// Encode a runtime value as a RESP reply element (the same flattening the C
/// module performs).
pub fn value_to_resp(value: &Value) -> RespValue {
    match value {
        Value::Null => RespValue::Null,
        Value::Bool(b) => RespValue::BulkString(if *b { "true".into() } else { "false".into() }),
        Value::Int(i) => RespValue::Integer(*i),
        Value::Float(f) => RespValue::BulkString(format!("{f}")),
        Value::Str(s) => RespValue::BulkString(s.clone()),
        Value::Node(id) => RespValue::BulkString(format!("(node:{id})")),
        Value::Edge(id) => RespValue::BulkString(format!("[edge:{id}]")),
        Value::List(items) => RespValue::Array(items.iter().map(value_to_resp).collect()),
    }
}

/// Encode a [`ResultSet`] as the three-section reply `GRAPH.QUERY` returns:
/// header, rows, statistics.
pub fn resultset_to_resp(rs: &ResultSet) -> RespValue {
    let header =
        RespValue::Array(rs.columns.iter().map(|c| RespValue::BulkString(c.clone())).collect());
    let rows = RespValue::Array(
        rs.rows
            .iter()
            .map(|row| RespValue::Array(row.iter().map(value_to_resp).collect()))
            .collect(),
    );
    let stats =
        RespValue::Array(stats_lines(&rs.stats).into_iter().map(RespValue::BulkString).collect());
    RespValue::Array(vec![header, rows, stats])
}

/// The statistics footer of a `GRAPH.QUERY` reply, one line per counter.
fn stats_lines(stats: &QueryStats) -> [String; 7] {
    [
        format!("Nodes created: {}", stats.nodes_created),
        format!("Relationships created: {}", stats.relationships_created),
        format!("Properties set: {}", stats.properties_set),
        format!("Nodes deleted: {}", stats.nodes_deleted),
        format!("Relationships deleted: {}", stats.relationships_deleted),
        format!("Cached: {}", stats.cached),
        format!(
            "Query internal execution time: {:.6} milliseconds",
            stats.execution_time.as_secs_f64() * 1e3
        ),
    ]
}

/// Append the bytes of `resultset_to_resp(rs).encode()` to `out` without
/// building the tree: one pass over the rows, no `RespValue` per cell and no
/// allocation per element (a reply is mostly integers and short lengths, so
/// that is where a 15 k-row reply's encode time went).
pub fn encode_resultset(rs: &ResultSet, out: &mut Vec<u8>) {
    // Scratch for the few cells that are formatted text (floats, entity
    // ids); reused so formatting them allocates at most once per reply.
    let mut text = String::new();
    push_header(out, b'*', 3);
    push_header(out, b'*', rs.columns.len());
    for column in &rs.columns {
        push_bulk(out, column);
    }
    push_header(out, b'*', rs.rows.len());
    for row in &rs.rows {
        push_header(out, b'*', row.len());
        for value in row {
            encode_value(value, out, &mut text);
        }
    }
    let stats = stats_lines(&rs.stats);
    push_header(out, b'*', stats.len());
    for line in &stats {
        push_bulk(out, line);
    }
}

/// Append the bytes of `value_to_resp(value).encode()` to `out`.
fn encode_value(value: &Value, out: &mut Vec<u8>, text: &mut String) {
    let mut formatted = |args: std::fmt::Arguments<'_>| {
        text.clear();
        let _ = text.write_fmt(args); // writing to a `String` cannot fail
        push_bulk(out, text);
    };
    match value {
        Value::Null => push_null(out),
        Value::Bool(b) => push_bulk(out, if *b { "true" } else { "false" }),
        Value::Int(i) => push_integer(out, *i),
        Value::Float(f) => formatted(format_args!("{f}")),
        Value::Str(s) => push_bulk(out, s),
        Value::Node(id) => formatted(format_args!("(node:{id})")),
        Value::Edge(id) => formatted(format_args!("[edge:{id}]")),
        Value::List(items) => {
            push_header(out, b'*', items.len());
            for item in items {
                encode_value(item, out, text);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_graph_query() {
        let cmd = Command::parse(&RespValue::command(&["graph.query", "g", "MATCH (n) RETURN n"]))
            .unwrap();
        assert_eq!(
            cmd,
            Command::GraphQuery { graph: "g".into(), query: "MATCH (n) RETURN n".into() }
        );
    }

    #[test]
    fn parses_other_commands_case_insensitively() {
        assert_eq!(Command::parse(&RespValue::command(&["PING"])).unwrap(), Command::Ping);
        assert_eq!(Command::parse(&RespValue::command(&["shutdown"])).unwrap(), Command::Shutdown);
        assert_eq!(
            Command::parse(&RespValue::command(&["Graph.Delete", "g"])).unwrap(),
            Command::GraphDelete { graph: "g".into() }
        );
        assert_eq!(
            Command::parse(&RespValue::command(&["GRAPH.LIST"])).unwrap(),
            Command::GraphList
        );
    }

    #[test]
    fn parses_graph_config_get_and_set() {
        assert_eq!(
            Command::parse(&RespValue::command(&[
                "GRAPH.CONFIG",
                "GET",
                "DELTA_MAX_PENDING_CHANGES"
            ]))
            .unwrap(),
            Command::GraphConfigGet { parameter: "DELTA_MAX_PENDING_CHANGES".into() }
        );
        assert_eq!(
            Command::parse(&RespValue::command(&["graph.config", "set", "delta_max", "64"]))
                .unwrap(),
            Command::GraphConfigSet { parameter: "delta_max".into(), value: "64".into() }
        );
        assert!(Command::parse(&RespValue::command(&["GRAPH.CONFIG", "GET"])).is_err());
        assert!(Command::parse(&RespValue::command(&["GRAPH.CONFIG", "FROB", "X", "1"])).is_err());
    }

    #[test]
    fn parses_observability_commands() {
        assert_eq!(
            Command::parse(&RespValue::command(&["GRAPH.PROFILE", "g", "MATCH (n) RETURN n"]))
                .unwrap(),
            Command::GraphProfile { graph: "g".into(), query: "MATCH (n) RETURN n".into() }
        );
        assert_eq!(
            Command::parse(&RespValue::command(&["graph.slowlog", "g"])).unwrap(),
            Command::GraphSlowlog { graph: "g".into(), reset: false }
        );
        assert_eq!(
            Command::parse(&RespValue::command(&["GRAPH.SLOWLOG", "g", "get"])).unwrap(),
            Command::GraphSlowlog { graph: "g".into(), reset: false }
        );
        assert_eq!(
            Command::parse(&RespValue::command(&["GRAPH.SLOWLOG", "g", "RESET"])).unwrap(),
            Command::GraphSlowlog { graph: "g".into(), reset: true }
        );
        assert_eq!(
            Command::parse(&RespValue::command(&["GRAPH.INFO"])).unwrap(),
            Command::GraphInfo
        );
        assert!(Command::parse(&RespValue::command(&["GRAPH.PROFILE", "g"])).is_err());
        assert!(Command::parse(&RespValue::command(&["GRAPH.SLOWLOG"])).is_err());
        assert!(Command::parse(&RespValue::command(&["GRAPH.SLOWLOG", "g", "FROB"])).is_err());
        assert!(Command::parse(&RespValue::command(&["GRAPH.INFO", "x"])).is_err());
    }

    #[test]
    fn argument_errors_use_redis_phrasing() {
        let err = Command::parse(&RespValue::command(&["GRAPH.QUERY", "g"])).unwrap_err();
        assert_eq!(err, "wrong number of arguments for 'graph.query' command");
        let err =
            Command::parse(&RespValue::command(&["Graph.Query", "g", "q", "extra"])).unwrap_err();
        assert_eq!(err, "wrong number of arguments for 'graph.query' command");
        let err = Command::parse(&RespValue::command(&["PING", "x"])).unwrap_err();
        assert_eq!(err, "wrong number of arguments for 'ping' command");
        let err = Command::parse(&RespValue::command(&["GRAPH.CONFIG", "FROB", "X"])).unwrap_err();
        assert!(err.contains("unknown subcommand 'FROB' for 'graph.config'"), "got {err:?}");
        let err = Command::parse(&RespValue::command(&["GRAPH.INFO", "x"])).unwrap_err();
        assert_eq!(err, "wrong number of arguments for 'graph.info' command");
    }

    #[test]
    fn cypher_header_parses_typed_parameters() {
        let (params, body) = split_cypher_params(
            "CYPHER src=7 name='Ann' ratio=0.5 neg=-3 ok=true gone=null \
             MATCH (s) WHERE id(s) = $src RETURN s",
        )
        .unwrap();
        assert_eq!(body, "MATCH (s) WHERE id(s) = $src RETURN s");
        assert_eq!(params["src"], Expr::Literal(Literal::Integer(7)));
        assert_eq!(params["name"], Expr::Literal(Literal::Str("Ann".into())));
        assert_eq!(params["ratio"], Expr::Literal(Literal::Float(0.5)));
        assert_eq!(params["neg"], Expr::Literal(Literal::Integer(-3)));
        assert_eq!(params["ok"], Expr::Literal(Literal::Bool(true)));
        assert_eq!(params["gone"], Expr::Literal(Literal::Null));
        assert_eq!(params.len(), 6);
    }

    #[test]
    fn cypher_header_parses_lists_and_is_case_insensitive() {
        let (params, body) =
            split_cypher_params("cypher xs=[1, 2, 3] empty=[] UNWIND $xs AS x RETURN x").unwrap();
        assert_eq!(body, "UNWIND $xs AS x RETURN x");
        assert_eq!(
            params["xs"],
            Expr::List(vec![
                Expr::Literal(Literal::Integer(1)),
                Expr::Literal(Literal::Integer(2)),
                Expr::Literal(Literal::Integer(3)),
            ])
        );
        assert_eq!(params["empty"], Expr::List(vec![]));
    }

    #[test]
    fn queries_without_a_header_pass_through_untouched() {
        let (params, body) = split_cypher_params("MATCH (n) RETURN n").unwrap();
        assert!(params.is_empty());
        assert_eq!(body, "MATCH (n) RETURN n");
        // `CYPHER` is only a header introducer in first position; a node
        // variable of that name elsewhere is untouched.
        let (params, body) = split_cypher_params("MATCH (cypher) RETURN cypher").unwrap();
        assert!(params.is_empty());
        assert_eq!(body, "MATCH (cypher) RETURN cypher");
    }

    #[test]
    fn malformed_headers_are_rejected() {
        let err = split_cypher_params("CYPHER k=MATCH (n) RETURN n").unwrap_err();
        assert!(err.contains("invalid value for parameter `k`"), "got {err:?}");
        let err = split_cypher_params("CYPHER k=[1, MATCH (n) RETURN n").unwrap_err();
        assert!(err.contains("parameter `k`"), "got {err:?}");
        let err = split_cypher_params("CYPHER k=-'x' RETURN 1").unwrap_err();
        assert!(err.contains("parameter `k`"), "got {err:?}");
    }

    #[test]
    fn stats_footer_reports_cache_status() {
        let mut rs = ResultSet::empty();
        let footer_lines = |rs: &ResultSet| -> Vec<String> {
            let RespValue::Array(sections) = resultset_to_resp(rs) else { panic!() };
            let RespValue::Array(stats) = &sections[2] else { panic!() };
            stats.iter().map(|v| v.to_string()).collect()
        };
        let lines = footer_lines(&rs);
        assert!(lines.iter().any(|l| l.contains("Cached: false")), "stats were {lines:?}");
        assert!(
            lines.last().unwrap().contains("Query internal execution time"),
            "stats were {lines:?}"
        );
        rs.stats.cached = true;
        let lines = footer_lines(&rs);
        assert!(lines.iter().any(|l| l.contains("Cached: true")), "stats were {lines:?}");
    }

    #[test]
    fn rejects_malformed_commands() {
        assert!(Command::parse(&RespValue::command(&["GRAPH.QUERY", "g"])).is_err());
        assert!(Command::parse(&RespValue::command(&["FLUSHALL"])).is_err());
        assert!(Command::parse(&RespValue::Integer(1)).is_err());
        assert!(Command::parse(&RespValue::Array(vec![])).is_err());
    }

    #[test]
    fn resultset_reply_has_three_sections() {
        let rs = ResultSet {
            columns: vec!["count(t)".into()],
            rows: vec![vec![Value::Int(9)]],
            stats: Default::default(),
        };
        let reply = resultset_to_resp(&rs);
        let RespValue::Array(sections) = reply else { panic!() };
        assert_eq!(sections.len(), 3);
        let RespValue::Array(rows) = &sections[1] else { panic!() };
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn value_conversion_covers_all_kinds() {
        assert_eq!(value_to_resp(&Value::Int(3)), RespValue::Integer(3));
        assert_eq!(value_to_resp(&Value::Null), RespValue::Null);
        assert_eq!(value_to_resp(&Value::Bool(true)), RespValue::BulkString("true".into()));
        assert!(matches!(value_to_resp(&Value::List(vec![Value::Int(1)])), RespValue::Array(_)));
    }
}
