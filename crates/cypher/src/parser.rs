//! Recursive-descent parser producing [`crate::ast::Query`] values.
//!
//! The parser recovers at clause boundaries: when a clause fails to parse
//! it records a spanned [`Diagnostic`], skips ahead to the next
//! clause-starting keyword, and keeps going, so a single malformed clause
//! reports every problem in the query instead of just the first.

use crate::ast::*;
use crate::diagnostics::{resolve, Diagnostic, RawDiagnostic};
use crate::lexer::Lexer;
use crate::token::{Token, TokenKind};

/// Errors produced while parsing: every diagnostic found in the query, in
/// source order, each with a `(line, col, len)` span.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// All problems found, ordered by source position (never empty).
    pub diagnostics: Vec<Diagnostic>,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.diagnostics.len() == 1 {
            write!(f, "parse error at {}", self.diagnostics[0])
        } else {
            write!(f, "{} parse errors:", self.diagnostics.len())?;
            for (i, d) in self.diagnostics.iter().enumerate() {
                let sep = if i == 0 { " " } else { "; " };
                write!(f, "{sep}{d}")?;
            }
            Ok(())
        }
    }
}

impl std::error::Error for ParseError {}

/// How deep an expression may nest: the height of the expression tree the
/// parser builds, where every operator, parenthesis, list and call counts one
/// level (so `1+1+1` is three levels deep). Every pass that walks the tree —
/// planning, evaluation, `Drop` — recurses once per level, so bounding the
/// height bounds their stack use; deeper input is rejected with
/// `E_RECURSION_LIMIT` instead of overflowing the stack of the thread that
/// parses or runs it. Parsing alone takes ~8 KiB of stack per nesting level
/// in a debug build, so 128 levels leave half of a 2 MiB thread stack spare.
pub const MAX_EXPR_DEPTH: usize = 128;

/// The binding strength of a prefix `NOT` (see `Parser::binary_op`): its
/// operand may hold comparisons and arithmetic, but not `AND`/`XOR`/`OR`.
const NOT_LEVEL: u8 = 4;

/// The binding strength of `=`, `<>`, `<`, `<=`, `>`, `>=` and `IN`.
const COMPARISON_LEVEL: u8 = 5;

/// An expression and the height of its tree (see [`MAX_EXPR_DEPTH`]).
type Parsed = Result<(Expr, usize), RawDiagnostic>;

/// Parse a Cypher query string into an AST. Fails with *every* diagnostic
/// the recovering parser found, not just the first.
pub fn parse(src: &str) -> Result<Query, ParseError> {
    let (query, diagnostics) = parse_recovering(src);
    match query {
        Some(q) if diagnostics.is_empty() => Ok(q),
        _ => Err(ParseError { diagnostics }),
    }
}

/// Parse with error recovery: returns whatever clauses could be salvaged
/// (for tooling that wants a partial AST) plus every diagnostic found. The
/// query is only trustworthy for execution when `diagnostics` is empty.
pub fn parse_recovering(src: &str) -> (Option<Query>, Vec<Diagnostic>) {
    let (tokens, mut raw) = Lexer::tokenize_raw(src);
    let query = Parser { tokens, pos: 0, depth: 0 }.parse_query(&mut raw);
    (query, resolve(src, raw))
}

/// Parse an already-lexed token stream that ends in `Eof`, for a caller that
/// rewrote some tokens first (the server lexes a query once and binds its
/// body literals as parameters). `None` if the parser reports any problem:
/// spans and messages only mean something against source text, so a caller
/// that wants the diagnostics parses the text with [`parse`].
pub fn parse_tokens(tokens: Vec<Token<'_>>) -> Option<Query> {
    let mut raw = Vec::new();
    let query = Parser { tokens, pos: 0, depth: 0 }.parse_query(&mut raw);
    query.filter(|_| raw.is_empty())
}

/// Keywords that can begin a top-level clause — the parser's recovery
/// synchronization points.
const CLAUSE_STARTERS: &[&str] = &[
    "MATCH", "OPTIONAL", "WHERE", "RETURN", "WITH", "CREATE", "MERGE", "DELETE", "DETACH", "SET",
    "UNWIND", "CALL",
];

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Expression levels open around the current token: parentheses, lists,
    /// calls and prefix operators still awaiting their operand.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind<'a> {
        &self.tokens[self.pos].kind
    }

    fn peek_offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn peek_len(&self) -> usize {
        self.tokens[self.pos].len
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn diag<T>(&self, code: &'static str, message: impl Into<String>) -> Result<T, RawDiagnostic> {
        Err(RawDiagnostic::new(code, self.peek_offset(), self.peek_len(), message.into()))
    }

    fn expect(&mut self, kind: &TokenKind<'_>) -> Result<(), RawDiagnostic> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            self.diag("E_EXPECTED_TOKEN", format!("expected {kind}, found {}", self.peek()))
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if *k == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), RawDiagnostic> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.diag(
                "E_EXPECTED_KEYWORD",
                format!("expected keyword `{kw}`, found {}", self.peek()),
            )
        }
    }

    fn expect_ident(&mut self) -> Result<String, RawDiagnostic> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name.to_string())
            }
            // Allow non-reserved-looking keywords as identifiers where openCypher does
            // (e.g. a property called `count`).
            TokenKind::Keyword("COUNT") => {
                self.bump();
                Ok("count".to_string())
            }
            other => {
                self.diag("E_EXPECTED_IDENT", format!("expected an identifier, found {other}"))
            }
        }
    }

    // ------------------------------------------------------------- queries

    /// Skip ahead to the next clause-starting keyword (or end of input) so
    /// parsing can resume after a malformed clause.
    fn synchronize(&mut self) {
        loop {
            match self.peek() {
                TokenKind::Eof => return,
                TokenKind::Keyword(k) if CLAUSE_STARTERS.contains(k) => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn parse_query(&mut self, diags: &mut Vec<RawDiagnostic>) -> Option<Query> {
        let mut clauses = Vec::new();
        loop {
            let result = match self.peek().clone() {
                TokenKind::Eof => break,
                TokenKind::Keyword(kw) => match kw {
                    "MATCH" => {
                        self.bump();
                        self.parse_pattern_list()
                            .map(|patterns| Clause::Match { optional: false, patterns })
                    }
                    "OPTIONAL" => {
                        self.bump();
                        self.expect_keyword("MATCH").and_then(|()| {
                            self.parse_pattern_list()
                                .map(|patterns| Clause::Match { optional: true, patterns })
                        })
                    }
                    "WHERE" => {
                        self.bump();
                        self.parse_expr().map(Clause::Where)
                    }
                    "RETURN" => {
                        self.bump();
                        self.parse_projection().map(Clause::Return)
                    }
                    "WITH" => {
                        self.bump();
                        self.parse_projection().map(Clause::With)
                    }
                    "CREATE" => {
                        self.bump();
                        self.parse_pattern_list().map(Clause::Create)
                    }
                    "MERGE" => {
                        // Treated as CREATE-if-absent by the engine; the parse shape is identical.
                        self.bump();
                        self.parse_pattern_list().map(Clause::Create)
                    }
                    "DELETE" => {
                        self.bump();
                        self.parse_delete(false)
                    }
                    "DETACH" => {
                        self.bump();
                        self.expect_keyword("DELETE").and_then(|()| self.parse_delete(true))
                    }
                    "SET" => {
                        self.bump();
                        self.parse_set_items().map(Clause::Set)
                    }
                    "UNWIND" => {
                        self.bump();
                        self.parse_expr().and_then(|list| {
                            self.expect_keyword("AS")?;
                            let variable = self.expect_ident()?;
                            Ok(Clause::Unwind { list, variable })
                        })
                    }
                    "CALL" => {
                        self.bump();
                        self.parse_call()
                    }
                    other => {
                        self.bump();
                        Err(RawDiagnostic::new(
                            "E_UNKNOWN_CLAUSE",
                            self.tokens[self.pos.saturating_sub(1)].offset,
                            other.len(),
                            format!("unexpected keyword `{other}`"),
                        )
                        .with_note(format!("a clause starts with {}", CLAUSE_STARTERS.join(", "))))
                    }
                },
                other => {
                    let err = self
                        .diag::<()>("E_UNKNOWN_CLAUSE", format!("unexpected {other}"))
                        .unwrap_err()
                        .with_note(format!("a clause starts with {}", CLAUSE_STARTERS.join(", ")));
                    self.bump();
                    Err(err)
                }
            };
            match result {
                Ok(clause) => clauses.push(clause),
                Err(diag) => {
                    diags.push(diag);
                    self.synchronize();
                }
            }
        }
        if clauses.is_empty() {
            if diags.is_empty() {
                diags.push(RawDiagnostic::new("E_EMPTY_QUERY", 0, 0, "empty query".into()));
            }
            return None;
        }
        Some(Query { clauses })
    }

    fn parse_delete(&mut self, detach: bool) -> Result<Clause, RawDiagnostic> {
        let mut variables = vec![self.expect_ident()?];
        while self.peek() == &TokenKind::Comma {
            self.bump();
            variables.push(self.expect_ident()?);
        }
        Ok(Clause::Delete { detach, variables })
    }

    fn parse_set_items(&mut self) -> Result<Vec<SetItem>, RawDiagnostic> {
        let mut items = Vec::new();
        loop {
            let variable = self.expect_ident()?;
            self.expect(&TokenKind::Dot)?;
            let property = self.expect_ident()?;
            self.expect(&TokenKind::Eq)?;
            let value = self.parse_expr()?;
            items.push(SetItem { variable, property, value });
            if self.peek() == &TokenKind::Comma {
                self.bump();
            } else {
                break;
            }
        }
        Ok(items)
    }

    /// `CALL proc.name(args) [YIELD col [AS alias], …]` — the clause syntax of
    /// RedisGraph's `CALL algo.*` procedures.
    fn parse_call(&mut self) -> Result<Clause, RawDiagnostic> {
        let mut procedure = self.expect_ident()?;
        while self.peek() == &TokenKind::Dot {
            self.bump();
            procedure.push('.');
            procedure.push_str(&self.expect_ident()?);
        }
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                args.push(self.parse_expr()?);
                if self.peek() == &TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        let mut yields = Vec::new();
        if self.eat_keyword("YIELD") {
            loop {
                let column = self.expect_ident()?;
                let alias = if self.eat_keyword("AS") { Some(self.expect_ident()?) } else { None };
                yields.push(YieldItem { column, alias });
                if self.peek() == &TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        Ok(Clause::Call { procedure, args, yields })
    }

    // ------------------------------------------------------------ patterns

    fn parse_pattern_list(&mut self) -> Result<Vec<PathPattern>, RawDiagnostic> {
        let mut patterns = vec![self.parse_path_pattern()?];
        while self.peek() == &TokenKind::Comma {
            self.bump();
            patterns.push(self.parse_path_pattern()?);
        }
        Ok(patterns)
    }

    fn parse_path_pattern(&mut self) -> Result<PathPattern, RawDiagnostic> {
        let start = self.parse_node_pattern()?;
        let mut steps = Vec::new();
        while matches!(self.peek(), TokenKind::Dash | TokenKind::Lt) {
            let rel = self.parse_relationship_pattern()?;
            let node = self.parse_node_pattern()?;
            steps.push((rel, node));
        }
        Ok(PathPattern { start, steps })
    }

    fn parse_node_pattern(&mut self) -> Result<NodePattern, RawDiagnostic> {
        self.expect(&TokenKind::LParen)?;
        let mut node = NodePattern::default();
        if let TokenKind::Ident(name) = self.peek().clone() {
            node.variable = Some(name.to_string());
            self.bump();
        }
        while self.peek() == &TokenKind::Colon {
            self.bump();
            node.labels.push(self.expect_ident()?);
        }
        if self.peek() == &TokenKind::LBrace {
            node.properties = self.parse_property_map()?;
        }
        self.expect(&TokenKind::RParen)?;
        Ok(node)
    }

    fn parse_relationship_pattern(&mut self) -> Result<RelationshipPattern, RawDiagnostic> {
        // leading `<-` or `-`
        let incoming = if self.peek() == &TokenKind::Lt {
            self.bump();
            self.expect(&TokenKind::Dash)?;
            true
        } else {
            self.expect(&TokenKind::Dash)?;
            false
        };

        let mut rel = RelationshipPattern::default();
        if self.peek() == &TokenKind::LBracket {
            self.bump();
            if let TokenKind::Ident(name) = self.peek().clone() {
                rel.variable = Some(name.to_string());
                self.bump();
            }
            if self.peek() == &TokenKind::Colon {
                self.bump();
                rel.types.push(self.expect_ident()?);
                while self.peek() == &TokenKind::Pipe {
                    self.bump();
                    if self.peek() == &TokenKind::Colon {
                        self.bump();
                    }
                    rel.types.push(self.expect_ident()?);
                }
            }
            if self.peek() == &TokenKind::Star {
                self.bump();
                rel.var_length = Some(self.parse_var_length_bounds()?);
            }
            if self.peek() == &TokenKind::LBrace {
                rel.properties = self.parse_property_map()?;
            }
            self.expect(&TokenKind::RBracket)?;
        }

        // trailing `->` or `-`
        self.expect(&TokenKind::Dash)?;
        let outgoing = if self.peek() == &TokenKind::Gt {
            self.bump();
            true
        } else {
            false
        };

        rel.direction = match (incoming, outgoing) {
            (true, false) => Direction::Incoming,
            (false, true) => Direction::Outgoing,
            (false, false) => Direction::Both,
            (true, true) => Direction::Both,
        };
        Ok(rel)
    }

    fn parse_var_length_bounds(&mut self) -> Result<(u32, Option<u32>), RawDiagnostic> {
        // `*`, `*n`, `*n..`, `*n..m`, `*..m`
        let min = if let TokenKind::Integer(n) = *self.peek() {
            self.bump();
            n as u32
        } else {
            1
        };
        if self.peek() == &TokenKind::DotDot {
            self.bump();
            if let TokenKind::Integer(m) = *self.peek() {
                self.bump();
                Ok((min, Some(m as u32)))
            } else {
                Ok((min, None))
            }
        } else if min == 1 && !matches!(self.peek(), TokenKind::Integer(_)) {
            // bare `*` means any length ≥ 1 … unless a fixed length was given
            Ok((1, None))
        } else {
            // fixed length `*n`
            Ok((min, Some(min)))
        }
    }

    fn parse_property_map(&mut self) -> Result<Vec<(String, Literal)>, RawDiagnostic> {
        self.expect(&TokenKind::LBrace)?;
        let mut props = Vec::new();
        if self.peek() != &TokenKind::RBrace {
            loop {
                let key = self.expect_ident()?;
                self.expect(&TokenKind::Colon)?;
                let value = self.parse_literal()?;
                props.push((key, value));
                if self.peek() == &TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(props)
    }

    fn parse_literal(&mut self) -> Result<Literal, RawDiagnostic> {
        let lit = match self.peek().clone() {
            TokenKind::Integer(v) => Literal::Integer(v),
            TokenKind::Float(v) => Literal::Float(v),
            TokenKind::Str(s) => Literal::Str(s),
            TokenKind::Keyword("TRUE") => Literal::Bool(true),
            TokenKind::Keyword("FALSE") => Literal::Bool(false),
            TokenKind::Keyword("NULL") => Literal::Null,
            TokenKind::Dash => {
                self.bump();
                return match self.peek().clone() {
                    TokenKind::Integer(v) => {
                        self.bump();
                        Ok(Literal::Integer(-v))
                    }
                    TokenKind::Float(v) => {
                        self.bump();
                        Ok(Literal::Float(-v))
                    }
                    other => self.diag(
                        "E_EXPECTED_NUMBER",
                        format!("expected a number after `-`, found {other}"),
                    ),
                };
            }
            other => {
                return self
                    .diag("E_EXPECTED_LITERAL", format!("expected a literal, found {other}"))
            }
        };
        self.bump();
        Ok(lit)
    }

    // -------------------------------------------------------- projections

    fn parse_projection(&mut self) -> Result<Projection, RawDiagnostic> {
        let distinct = self.eat_keyword("DISTINCT");
        let mut items = vec![self.parse_return_item()?];
        while self.peek() == &TokenKind::Comma {
            self.bump();
            items.push(self.parse_return_item()?);
        }
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let order = if self.eat_keyword("DESC") {
                    SortOrder::Descending
                } else {
                    self.eat_keyword("ASC");
                    SortOrder::Ascending
                };
                order_by.push((expr, order));
                if self.peek() == &TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        let skip = if self.eat_keyword("SKIP") { Some(self.parse_unsigned()?) } else { None };
        let limit = if self.eat_keyword("LIMIT") { Some(self.parse_unsigned()?) } else { None };
        Ok(Projection { distinct, items, order_by, skip, limit })
    }

    fn parse_unsigned(&mut self) -> Result<u64, RawDiagnostic> {
        match *self.peek() {
            TokenKind::Integer(n) if n >= 0 => {
                self.bump();
                Ok(n as u64)
            }
            _ => self.diag("E_EXPECTED_NUMBER", "expected a non-negative integer"),
        }
    }

    fn parse_return_item(&mut self) -> Result<ReturnItem, RawDiagnostic> {
        let expr = self.parse_expr()?;
        let alias = if self.eat_keyword("AS") { Some(self.expect_ident()?) } else { None };
        Ok(ReturnItem { expr, alias })
    }

    // -------------------------------------------------------- expressions

    fn parse_expr(&mut self) -> Result<Expr, RawDiagnostic> {
        self.parse_binary(0).map(|(expr, _)| expr)
    }

    fn too_deep<T>(&self) -> Result<T, RawDiagnostic> {
        self.diag(
            "E_RECURSION_LIMIT",
            format!("expression nests deeper than {MAX_EXPR_DEPTH} levels"),
        )
        .map_err(|d| d.with_note("split the expression or flatten its nesting"))
    }

    /// Parse one level deeper inside a parenthesis, list, call or prefix
    /// operator: the guard that stops the descent before the stack runs out.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, RawDiagnostic>,
    ) -> Result<T, RawDiagnostic> {
        if self.depth + 1 >= MAX_EXPR_DEPTH {
            return self.too_deep();
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    /// The height of a new node over children at most `children` high,
    /// checked against the budget together with the levels still open
    /// around it (which will all sit above it in the finished tree).
    fn node_height(&self, children: usize) -> Result<usize, RawDiagnostic> {
        let height = children + 1;
        if self.depth + height > MAX_EXPR_DEPTH {
            return self.too_deep();
        }
        Ok(height)
    }

    /// The binary operator at the current token, with its binding strength:
    /// `OR` binds loosest and `*` `/` `%` tightest. A prefix `NOT` binds
    /// between `AND` and the comparisons ([`NOT_LEVEL`]).
    fn binary_op(&self) -> Option<(BinaryOperator, u8)> {
        let op = match self.peek() {
            TokenKind::Keyword(k) => match *k {
                "OR" => (BinaryOperator::Or, 1),
                "XOR" => (BinaryOperator::Xor, 2),
                "AND" => (BinaryOperator::And, 3),
                "IN" => (BinaryOperator::In, COMPARISON_LEVEL),
                _ => return None,
            },
            TokenKind::Eq => (BinaryOperator::Eq, COMPARISON_LEVEL),
            TokenKind::Ne => (BinaryOperator::Ne, COMPARISON_LEVEL),
            TokenKind::Lt => (BinaryOperator::Lt, COMPARISON_LEVEL),
            TokenKind::Le => (BinaryOperator::Le, COMPARISON_LEVEL),
            TokenKind::Gt => (BinaryOperator::Gt, COMPARISON_LEVEL),
            TokenKind::Ge => (BinaryOperator::Ge, COMPARISON_LEVEL),
            TokenKind::Plus => (BinaryOperator::Add, 6),
            TokenKind::Dash => (BinaryOperator::Sub, 6),
            TokenKind::Star => (BinaryOperator::Mul, 7),
            TokenKind::Slash => (BinaryOperator::Div, 7),
            TokenKind::Percent => (BinaryOperator::Mod, 7),
            _ => return None,
        };
        Some(op)
    }

    /// An expression whose binary operators bind at least as tightly as
    /// `min`, by precedence climbing: operators of one strength fold left in
    /// a loop, so only a tighter operator, a prefix `NOT` or a nested
    /// parenthesis costs a level of recursion. Comparisons do not chain.
    fn parse_binary(&mut self, min: u8) -> Parsed {
        // The loosest operator that may still extend `lhs`: once an operator
        // of strength `l` has taken its right operand, anything tighter left
        // over was refused by that operand, and must be refused here too.
        let mut ceiling = u8::MAX;
        let (mut lhs, mut height) = if min <= NOT_LEVEL && self.eat_keyword("NOT") {
            ceiling = NOT_LEVEL - 1;
            let (inner, height) = self.nested(|p| p.parse_binary(NOT_LEVEL))?;
            (Expr::Unary(UnaryOperator::Not, Box::new(inner)), self.node_height(height)?)
        } else {
            self.parse_unary()?
        };
        while let Some((op, level)) = self.binary_op().filter(|&(_, l)| min <= l && l <= ceiling) {
            self.bump();
            let (rhs, rhs_height) = self.parse_binary(level + 1)?;
            height = self.node_height(height.max(rhs_height))?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
            ceiling = if level == COMPARISON_LEVEL { level - 1 } else { level };
        }
        Ok((lhs, height))
    }

    fn parse_unary(&mut self) -> Parsed {
        if self.peek() == &TokenKind::Dash {
            self.bump();
            let (inner, height) = self.nested(Self::parse_unary)?;
            let height = self.node_height(height)?;
            return Ok((Expr::Unary(UnaryOperator::Minus, Box::new(inner)), height));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Parsed {
        let leaf = match self.peek().clone() {
            TokenKind::Integer(v) => Expr::Literal(Literal::Integer(v)),
            TokenKind::Float(v) => Expr::Literal(Literal::Float(v)),
            TokenKind::Str(s) => Expr::Literal(Literal::Str(s)),
            TokenKind::Parameter(p) => Expr::Parameter(p.into_owned()),
            TokenKind::Keyword("TRUE") => Expr::Literal(Literal::Bool(true)),
            TokenKind::Keyword("FALSE") => Expr::Literal(Literal::Bool(false)),
            TokenKind::Keyword("NULL") => Expr::Literal(Literal::Null),
            TokenKind::Keyword("COUNT") => {
                self.bump();
                return self.parse_function_call("count".to_string());
            }
            TokenKind::LParen => {
                self.bump();
                let (expr, height) = self.nested(|p| p.parse_binary(0))?;
                self.expect(&TokenKind::RParen)?;
                return Ok((expr, self.node_height(height)?));
            }
            TokenKind::LBracket => {
                self.bump();
                let (items, height) = self.nested(|p| p.parse_expr_list(&TokenKind::RBracket))?;
                self.expect(&TokenKind::RBracket)?;
                return Ok((Expr::List(items), self.node_height(height)?));
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.peek() == &TokenKind::LParen {
                    return self.parse_function_call(name.to_ascii_lowercase());
                }
                if self.peek() == &TokenKind::Dot {
                    self.bump();
                    let prop = self.expect_ident()?;
                    return Ok((Expr::Property(name.to_string(), prop), 1));
                }
                return Ok((Expr::Variable(name.to_string()), 1));
            }
            other => {
                return self.diag("E_EXPECTED_EXPR", format!("unexpected {other} in expression"))
            }
        };
        self.bump();
        Ok((leaf, 1))
    }

    /// Comma-separated expressions up to (not including) `close`, and the
    /// height of the tallest.
    fn parse_expr_list(
        &mut self,
        close: &TokenKind<'_>,
    ) -> Result<(Vec<Expr>, usize), RawDiagnostic> {
        let (mut items, mut height) = (Vec::new(), 0);
        if self.peek() != close {
            loop {
                let (item, item_height) = self.parse_binary(0)?;
                items.push(item);
                height = height.max(item_height);
                if self.peek() == &TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        Ok((items, height))
    }

    fn parse_function_call(&mut self, name: String) -> Parsed {
        self.expect(&TokenKind::LParen)?;
        let distinct = self.eat_keyword("DISTINCT");
        let (args, height) = if self.peek() == &TokenKind::Star {
            // count(*)
            self.bump();
            (Vec::new(), 0)
        } else {
            self.nested(|p| p.parse_expr_list(&TokenKind::RParen))?
        };
        self.expect(&TokenKind::RParen)?;
        Ok((Expr::FunctionCall { name, args, distinct }, self.node_height(height)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_match_return() {
        let q = parse("MATCH (a:Person) RETURN a").unwrap();
        assert_eq!(q.clauses.len(), 2);
        match &q.clauses[0] {
            Clause::Match { optional, patterns } => {
                assert!(!optional);
                assert_eq!(patterns.len(), 1);
                assert_eq!(patterns[0].start.variable.as_deref(), Some("a"));
                assert_eq!(patterns[0].start.labels, vec!["Person"]);
            }
            other => panic!("expected MATCH, got {other:?}"),
        }
    }

    #[test]
    fn parses_relationship_directions() {
        let q = parse("MATCH (a)-[:KNOWS]->(b), (a)<-[:LIKES]-(c), (a)-[r]-(d) RETURN a").unwrap();
        let Clause::Match { patterns, .. } = &q.clauses[0] else { panic!() };
        assert_eq!(patterns[0].steps[0].0.direction, Direction::Outgoing);
        assert_eq!(patterns[0].steps[0].0.types, vec!["KNOWS"]);
        assert_eq!(patterns[1].steps[0].0.direction, Direction::Incoming);
        assert_eq!(patterns[2].steps[0].0.direction, Direction::Both);
        assert_eq!(patterns[2].steps[0].0.variable.as_deref(), Some("r"));
    }

    #[test]
    fn parses_variable_length_paths() {
        let q = parse("MATCH (a)-[*1..3]->(b) RETURN b").unwrap();
        let Clause::Match { patterns, .. } = &q.clauses[0] else { panic!() };
        assert_eq!(patterns[0].steps[0].0.var_length, Some((1, Some(3))));

        let q = parse("MATCH (a)-[:KNOWS*2]->(b) RETURN b").unwrap();
        let Clause::Match { patterns, .. } = &q.clauses[0] else { panic!() };
        assert_eq!(patterns[0].steps[0].0.var_length, Some((2, Some(2))));

        let q = parse("MATCH (a)-[*]->(b) RETURN b").unwrap();
        let Clause::Match { patterns, .. } = &q.clauses[0] else { panic!() };
        assert_eq!(patterns[0].steps[0].0.var_length, Some((1, None)));

        let q = parse("MATCH (a)-[*2..]->(b) RETURN b").unwrap();
        let Clause::Match { patterns, .. } = &q.clauses[0] else { panic!() };
        assert_eq!(patterns[0].steps[0].0.var_length, Some((2, None)));
    }

    #[test]
    fn parses_zero_min_variable_length_paths() {
        // `*0..n` / `*0..` / `*0` are legal openCypher: hop 0 matches the
        // start node itself. The executor honours min_hops = 0 (regression:
        // the reachability loop used to drop hop 0 silently).
        let q = parse("MATCH (a)-[*0..2]->(b) RETURN b").unwrap();
        let Clause::Match { patterns, .. } = &q.clauses[0] else { panic!() };
        assert_eq!(patterns[0].steps[0].0.var_length, Some((0, Some(2))));

        let q = parse("MATCH (a)-[:KNOWS*0..]->(b) RETURN b").unwrap();
        let Clause::Match { patterns, .. } = &q.clauses[0] else { panic!() };
        assert_eq!(patterns[0].steps[0].0.var_length, Some((0, None)));

        let q = parse("MATCH (a)-[*0]->(b) RETURN b").unwrap();
        let Clause::Match { patterns, .. } = &q.clauses[0] else { panic!() };
        assert_eq!(patterns[0].steps[0].0.var_length, Some((0, Some(0))));
    }

    #[test]
    fn parses_node_property_maps() {
        let q = parse("MATCH (a:Node {id: 42, name: 'x', active: true}) RETURN a").unwrap();
        let Clause::Match { patterns, .. } = &q.clauses[0] else { panic!() };
        let props = &patterns[0].start.properties;
        assert_eq!(props[0], ("id".to_string(), Literal::Integer(42)));
        assert_eq!(props[1], ("name".to_string(), Literal::Str("x".into())));
        assert_eq!(props[2], ("active".to_string(), Literal::Bool(true)));
    }

    #[test]
    fn parses_where_with_precedence() {
        let q = parse("MATCH (a) WHERE a.age > 30 AND a.name = 'bob' OR NOT a.active RETURN a")
            .unwrap();
        let Clause::Where(expr) = &q.clauses[1] else { panic!() };
        // top level must be OR
        let Expr::Binary(BinaryOperator::Or, lhs, rhs) = expr else { panic!("expected OR at top") };
        assert!(matches!(**lhs, Expr::Binary(BinaryOperator::And, _, _)));
        assert!(matches!(**rhs, Expr::Unary(UnaryOperator::Not, _)));
    }

    #[test]
    fn comparisons_do_not_chain_and_not_binds_below_them() {
        assert!(parse("RETURN 1 = 2 = 3").is_err());
        assert!(parse("RETURN true AND 1 < 2 < 3").is_err());
        assert!(parse("RETURN 1 + NOT true").is_err());
        let q = parse("RETURN NOT 1 = 2 AND NOT NOT -1 < 2 OR false").unwrap();
        let proj = q.return_clause().unwrap();
        let Expr::Binary(BinaryOperator::Or, lhs, _) = &proj.items[0].expr else { panic!() };
        let Expr::Binary(BinaryOperator::And, not_eq, not_not) = &**lhs else { panic!() };
        assert!(matches!(&**not_eq, Expr::Unary(UnaryOperator::Not, inner)
            if matches!(**inner, Expr::Binary(BinaryOperator::Eq, _, _))));
        assert!(matches!(&**not_not, Expr::Unary(UnaryOperator::Not, inner)
            if matches!(**inner, Expr::Unary(UnaryOperator::Not, _))));
    }

    #[test]
    fn parses_arithmetic_precedence() {
        let q = parse("RETURN 1 + 2 * 3 AS x").unwrap();
        let proj = q.return_clause().unwrap();
        let Expr::Binary(BinaryOperator::Add, _, rhs) = &proj.items[0].expr else { panic!() };
        assert!(matches!(**rhs, Expr::Binary(BinaryOperator::Mul, _, _)));
        assert_eq!(proj.items[0].alias.as_deref(), Some("x"));
    }

    #[test]
    fn parses_return_modifiers() {
        let q =
            parse("MATCH (a) RETURN DISTINCT a.name AS n ORDER BY n DESC, a.age SKIP 5 LIMIT 10")
                .unwrap();
        let proj = q.return_clause().unwrap();
        assert!(proj.distinct);
        assert_eq!(proj.order_by.len(), 2);
        assert_eq!(proj.order_by[0].1, SortOrder::Descending);
        assert_eq!(proj.order_by[1].1, SortOrder::Ascending);
        assert_eq!(proj.skip, Some(5));
        assert_eq!(proj.limit, Some(10));
    }

    #[test]
    fn parses_aggregations() {
        let q = parse("MATCH (a)-[]->(b) RETURN count(b), count(DISTINCT b), sum(b.x), count(*)")
            .unwrap();
        let proj = q.return_clause().unwrap();
        assert_eq!(proj.items.len(), 4);
        let Expr::FunctionCall { name, distinct, .. } = &proj.items[1].expr else { panic!() };
        assert_eq!(name, "count");
        assert!(*distinct);
        let Expr::FunctionCall { name, args, .. } = &proj.items[3].expr else { panic!() };
        assert_eq!(name, "count");
        assert!(args.is_empty());
    }

    #[test]
    fn parses_create_delete_set() {
        let q = parse("CREATE (a:Person {name: 'x'})-[:KNOWS]->(b:Person {name: 'y'})").unwrap();
        assert!(matches!(q.clauses[0], Clause::Create(_)));
        assert!(!q.is_read_only());

        let q = parse("MATCH (a) WHERE a.id = 1 DETACH DELETE a").unwrap();
        assert!(matches!(q.clauses[2], Clause::Delete { detach: true, .. }));

        let q = parse("MATCH (a) SET a.age = 31, a.name = 'z' RETURN a").unwrap();
        let Clause::Set(items) = &q.clauses[1] else { panic!() };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].property, "age");
    }

    #[test]
    fn parses_unwind_and_with() {
        let q = parse("UNWIND [1, 2, 3] AS x WITH x RETURN x").unwrap();
        assert!(matches!(q.clauses[0], Clause::Unwind { .. }));
        assert!(matches!(q.clauses[1], Clause::With(_)));
    }

    #[test]
    fn parses_multiple_relationship_types() {
        let q = parse("MATCH (a)-[:KNOWS|LIKES|:FOLLOWS]->(b) RETURN b").unwrap();
        let Clause::Match { patterns, .. } = &q.clauses[0] else { panic!() };
        assert_eq!(patterns[0].steps[0].0.types, vec!["KNOWS", "LIKES", "FOLLOWS"]);
    }

    #[test]
    fn parses_the_khop_benchmark_query() {
        let q = parse("MATCH (s:Node)-[*1..6]->(t) WHERE s.id = 12345 RETURN count(t)").unwrap();
        assert_eq!(q.clauses.len(), 3);
        assert!(q.is_read_only());
        let Clause::Match { patterns, .. } = &q.clauses[0] else { panic!() };
        assert_eq!(patterns[0].steps[0].0.var_length, Some((1, Some(6))));
    }

    #[test]
    fn parses_multi_hop_chained_pattern() {
        let q = parse("MATCH (a)-[:X]->(b)-[:Y]->(c)<-[:Z]-(d) RETURN a, d").unwrap();
        let Clause::Match { patterns, .. } = &q.clauses[0] else { panic!() };
        assert_eq!(patterns[0].hop_count(), 3);
        assert_eq!(patterns[0].steps[2].0.direction, Direction::Incoming);
    }

    #[test]
    fn parses_call_with_yield() {
        let q = parse("CALL algo.pagerank() YIELD node, score RETURN node ORDER BY score DESC")
            .unwrap();
        let Clause::Call { procedure, args, yields } = &q.clauses[0] else { panic!() };
        assert_eq!(procedure, "algo.pagerank");
        assert!(args.is_empty());
        assert_eq!(yields.len(), 2);
        assert_eq!(yields[0].binding_name(), "node");
        assert!(q.is_read_only());
    }

    #[test]
    fn parses_call_args_and_yield_aliases() {
        let q = parse("CALL algo.bfs(5) YIELD node AS n, level RETURN n, level").unwrap();
        let Clause::Call { procedure, args, yields } = &q.clauses[0] else { panic!() };
        assert_eq!(procedure, "algo.bfs");
        assert_eq!(args, &[Expr::Literal(Literal::Integer(5))]);
        assert_eq!(yields[0].binding_name(), "n");
        assert_eq!(yields[0].column, "node");
        assert_eq!(yields[1].binding_name(), "level");
    }

    #[test]
    fn parses_call_without_yield() {
        let q = parse("CALL algo.wcc()").unwrap();
        let Clause::Call { yields, .. } = &q.clauses[0] else { panic!() };
        assert!(yields.is_empty());
    }

    #[test]
    fn rejects_malformed_call_clauses() {
        // missing argument parens
        assert!(parse("CALL algo.pagerank YIELD node").is_err());
        // empty / malformed YIELD list
        assert!(parse("CALL algo.bfs(0) YIELD RETURN node").is_err());
        assert!(parse("CALL algo.bfs(0) YIELD node AS RETURN node").is_err());
        // missing procedure name
        assert!(parse("CALL (0)").is_err());
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse("").is_err());
        assert!(parse("MATCH (a").is_err());
        assert!(parse("MATCH (a) RETURN").is_err());
        assert!(parse("FROB (a)").is_err());
        assert!(parse("MATCH (a)-[>(b) RETURN a").is_err());
        assert!(parse("MATCH (a) WHERE RETURN a").is_err());
    }

    #[test]
    fn error_spans_point_at_the_problem() {
        let err = parse("MATCH (a) RETURN ").unwrap_err();
        let d = &err.diagnostics[0];
        assert_eq!(d.code, "E_EXPECTED_EXPR");
        // The query is 17 bytes; the error is at end of input: line 1, col 18.
        assert_eq!(d.span, (1, 18, 0));
        assert!(err.to_string().contains("parse error"));
        assert!(err.to_string().contains("1:18"));
    }

    #[test]
    fn recovery_collects_every_clause_error() {
        // Three broken clauses in one query: all three must be reported.
        let err = parse("MATCH (a WHERE 1 + RETURN )").unwrap_err();
        assert!(err.diagnostics.len() >= 2, "expected multiple diagnostics, got {err:?}");
        assert!(err.to_string().contains("parse errors"));
        // Diagnostics arrive in source order.
        let cols: Vec<u32> = err.diagnostics.iter().map(|d| d.span.1).collect();
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        assert_eq!(cols, sorted);
    }

    #[test]
    fn recovery_spans_multiple_lines() {
        let err = parse("MATCH (a\nRETURN a,\nRETURN b").unwrap_err();
        assert!(err.diagnostics.len() >= 2);
        assert!(
            err.diagnostics.iter().any(|d| d.span.0 >= 2),
            "no diagnostic past line 1: {err:?}"
        );
    }

    #[test]
    fn partial_ast_survives_recovery() {
        let (query, diags) = parse_recovering("MATCH (a WHERE true RETURN a");
        assert!(!diags.is_empty());
        // The WHERE and RETURN clauses after the broken MATCH were salvaged.
        let q = query.expect("recoverable clauses");
        assert!(q.clauses.iter().any(|c| matches!(c, Clause::Return(_))));
    }

    #[test]
    fn lexer_and_parser_diagnostics_merge_in_source_order() {
        let err = parse("MATCH ^ (a) RETURN ~").unwrap_err();
        assert!(err.diagnostics.len() >= 2);
        assert_eq!(err.diagnostics[0].code, "E_UNEXPECTED_CHAR");
        assert_eq!(err.diagnostics[0].span.1, 7);
    }

    #[test]
    fn unknown_clause_diagnostics_carry_notes() {
        let err = parse("FROB (a)").unwrap_err();
        let d = &err.diagnostics[0];
        assert_eq!(d.code, "E_UNKNOWN_CLAUSE");
        assert!(d.notes.iter().any(|n| n.contains("MATCH")));
    }

    #[test]
    fn parse_tokens_agrees_with_parse() {
        for src in [
            "MATCH (a:Person)-[:KNOWS*1..2]->(b) WHERE a.age > 30 RETURN b.name, count(b)",
            "UNWIND [1, 'x', $p] AS v RETURN v ORDER BY v SKIP 1 LIMIT 2",
        ] {
            let (tokens, _) = Lexer::tokenize_recovering(src);
            assert_eq!(parse_tokens(tokens), Some(parse(src).unwrap()), "{src}");
        }
        let (tokens, _) = Lexer::tokenize_recovering("MATCH (a RETURN a");
        assert_eq!(parse_tokens(tokens), None);
    }

    #[test]
    fn parameters_parse_in_expressions() {
        let q = parse("MATCH (a) WHERE a.id = $id RETURN a").unwrap();
        let Clause::Where(Expr::Binary(_, _, rhs)) = &q.clauses[1] else { panic!() };
        assert_eq!(**rhs, Expr::Parameter("id".into()));
    }
}
