//! # cypher
//!
//! A hand-written lexer and recursive-descent parser for the openCypher subset
//! supported by the first generally-available RedisGraph release, which this
//! repository reproduces:
//!
//! * `MATCH` with node/relationship patterns, labels, relationship types,
//!   inline property maps, direction, and variable-length paths (`*min..max`);
//! * `WHERE` with comparisons, boolean connectives, and property access;
//! * `RETURN` (with `DISTINCT`, aliases and the aggregations `count`, `sum`,
//!   `avg`, `min`, `max`, `collect`), `ORDER BY`, `SKIP`, `LIMIT`;
//! * `CREATE`, `DELETE`, `SET`, `UNWIND`, and a basic `WITH`;
//! * `CALL proc.name(args) YIELD cols` procedure invocations (the
//!   `CALL algo.*` graph-algorithm surface).
//!
//! The parser produces a plain [`ast::Query`] that `redisgraph-core` compiles
//! into an execution plan of GraphBLAS operations.
//!
//! ```
//! use cypher::parse;
//!
//! let q = parse("MATCH (a:Person)-[:KNOWS*1..2]->(b) WHERE a.age > 30 RETURN b.name, count(b)").unwrap();
//! assert_eq!(q.clauses.len(), 3);
//! ```

pub mod ast;
pub mod diagnostics;
pub mod lexer;
pub mod parser;
pub mod token;

pub use ast::*;
pub use diagnostics::{line_col, Diagnostic};
pub use lexer::Lexer;
pub use parser::{parse, parse_recovering, parse_tokens, ParseError, MAX_EXPR_DEPTH};
pub use token::{Token, TokenKind};
