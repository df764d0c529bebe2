//! Token definitions for the Cypher lexer.

use std::borrow::Cow;
use std::fmt;

/// The kind of a lexed token. Names borrow from the query text, so lexing
/// allocates only for string literals.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    // literals & names
    /// An identifier or unquoted name (`a`, `Person`, `KNOWS`).
    Ident(&'a str),
    /// A reserved keyword, in its upper-case spelling (`MATCH`, `RETURN`, …).
    Keyword(&'static str),
    /// An integer literal.
    Integer(i64),
    /// A floating-point literal.
    Float(f64),
    /// A single- or double-quoted string literal (quotes stripped).
    Str(String),
    /// A query parameter (`$name`). Owned only when a caller rewrote a
    /// token into a parameter the text does not spell.
    Parameter(Cow<'a, str>),

    // punctuation
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `-`
    Dash,
    /// `+`
    Plus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `|`
    Pipe,

    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// The source text of a punctuation token; `None` for names, literals,
    /// parameters and `Eof`.
    pub fn punctuation(&self) -> Option<&'static str> {
        let text = match self {
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::Colon => ":",
            TokenKind::Comma => ",",
            TokenKind::Dot => ".",
            TokenKind::DotDot => "..",
            TokenKind::Dash => "-",
            TokenKind::Plus => "+",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Eq => "=",
            TokenKind::Ne => "<>",
            TokenKind::Lt => "<",
            TokenKind::Le => "<=",
            TokenKind::Gt => ">",
            TokenKind::Ge => ">=",
            TokenKind::Pipe => "|",
            _ => return None,
        };
        Some(text)
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Keyword(s) => write!(f, "keyword `{s}`"),
            TokenKind::Integer(v) => write!(f, "integer `{v}`"),
            TokenKind::Float(v) => write!(f, "float `{v}`"),
            TokenKind::Str(s) => write!(f, "string \"{s}\""),
            TokenKind::Parameter(s) => write!(f, "parameter `${s}`"),
            TokenKind::Eof => write!(f, "end of input"),
            punctuation => write!(f, "`{}`", punctuation.punctuation().unwrap_or_default()),
        }
    }
}

/// A token plus its byte range in the source (for spanned diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// What was lexed.
    pub kind: TokenKind<'a>,
    /// Byte offset of the first character of the token in the query text.
    pub offset: usize,
    /// Length of the token's source text in bytes (0 for `Eof`).
    pub len: usize,
}

/// The reserved words of the supported Cypher subset. Keywords are recognised
/// case-insensitively, as required by openCypher.
pub const KEYWORDS: &[&str] = &[
    "MATCH", "OPTIONAL", "WHERE", "RETURN", "CREATE", "DELETE", "DETACH", "SET", "UNWIND", "WITH",
    "AS", "ORDER", "BY", "ASC", "DESC", "SKIP", "LIMIT", "DISTINCT", "AND", "OR", "NOT", "XOR",
    "TRUE", "FALSE", "NULL", "IN", "IS", "MERGE", "COUNT", "CALL", "YIELD",
];

/// [`KEYWORDS`], each packed by [`packed_upper`]: the lexer looks every bare
/// word up here, one integer compare per keyword.
const PACKED_KEYWORDS: [u64; KEYWORDS.len()] = {
    let mut packed = [0; KEYWORDS.len()];
    let mut i = 0;
    while i < KEYWORDS.len() {
        packed[i] = match packed_upper(KEYWORDS[i].as_bytes()) {
            Some(word) => word,
            None => panic!("a keyword is longer than eight letters"),
        };
        i += 1;
    }
    packed
};

/// A word of at most eight bytes, upper-cased and packed little-endian into a
/// zero-padded `u64`; `None` for a longer word.
const fn packed_upper(word: &[u8]) -> Option<u64> {
    if word.len() > 8 {
        return None;
    }
    let mut packed = 0;
    let mut i = 0;
    while i < word.len() {
        packed |= (word[i].to_ascii_uppercase() as u64) << (8 * i);
        i += 1;
    }
    Some(packed)
}

/// The upper-case spelling of `word` if it is a reserved keyword in any
/// case, without allocating.
pub fn keyword(word: &str) -> Option<&'static str> {
    let packed = packed_upper(word.as_bytes())?;
    let found = PACKED_KEYWORDS.iter().position(|&k| k == packed).map(|i| KEYWORDS[i]);
    // The zero padding reads like trailing NULs: the lengths must agree too.
    found.filter(|k| k.len() == word.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_check_is_case_insensitive() {
        assert_eq!(keyword("match"), Some("MATCH"));
        assert_eq!(keyword("Match"), Some("MATCH"));
        assert_eq!(keyword("RETURN"), Some("RETURN"));
        assert_eq!(keyword("person"), None);
    }

    #[test]
    fn every_keyword_is_found_and_no_near_miss_is() {
        assert!(KEYWORDS.iter().all(|k| keyword(k) == Some(*k)));
        for word in ["optionally", "MATC", "matches", "a", "", "_", "AS\0"] {
            assert_eq!(keyword(word), None, "{word}");
        }
    }

    #[test]
    fn tokens_display_for_error_messages() {
        assert_eq!(TokenKind::Ident("a").to_string(), "identifier `a`");
        assert_eq!(TokenKind::DotDot.to_string(), "`..`");
        assert_eq!(TokenKind::Eof.to_string(), "end of input");
    }
}
