//! The Cypher lexer: turns query text into a token stream.
//!
//! The lexer is error-recovering: a malformed construct (unterminated
//! string, stray character, …) is reported as a diagnostic and lexing
//! continues, so one bad token never hides the rest of the query's
//! problems.

use crate::diagnostics::{resolve, Diagnostic, RawDiagnostic};
use crate::token::{keyword, Token, TokenKind};

/// A streaming lexer over a query string.
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    /// Lex the entire input, recovering past malformed constructs: always
    /// returns the full token stream plus every diagnostic found.
    pub fn tokenize_recovering(src: &'a str) -> (Vec<Token<'a>>, Vec<Diagnostic>) {
        let (tokens, diags) = Self::tokenize_raw(src);
        (tokens, resolve(src, diags))
    }

    pub(crate) fn tokenize_raw(src: &'a str) -> (Vec<Token<'a>>, Vec<RawDiagnostic>) {
        let mut lexer = Lexer::new(src);
        let mut tokens = Vec::new();
        let mut diags = Vec::new();
        loop {
            let Some(tok) = lexer.next_token_recovering(&mut diags) else { continue };
            let done = tok.kind == TokenKind::Eof;
            tokens.push(tok);
            if done {
                break;
            }
        }
        (tokens, diags)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_whitespace_and_comments(&mut self, diags: &mut Vec<RawDiagnostic>) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                // line comment `// ...`
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                // block comment `/* ... */`
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                diags.push(
                                    RawDiagnostic::new(
                                        "E_UNTERMINATED_COMMENT",
                                        start,
                                        self.pos - start,
                                        "unterminated block comment".into(),
                                    )
                                    .with_note("block comments close with `*/`"),
                                );
                                break;
                            }
                        }
                    }
                }
                _ => return,
            }
        }
    }

    /// Produce the next token, recording problems in `diags`. Returns `None`
    /// when the malformed input produced no token at all (the caller should
    /// simply ask again); a partially-lexed token (e.g. an unterminated
    /// string) is returned so the parser can keep going.
    fn next_token_recovering(&mut self, diags: &mut Vec<RawDiagnostic>) -> Option<Token<'a>> {
        self.skip_whitespace_and_comments(diags);
        let offset = self.pos;
        let Some(c) = self.peek() else {
            return Some(Token { kind: TokenKind::Eof, offset, len: 0 });
        };

        let kind = match c {
            b'(' => {
                self.bump();
                TokenKind::LParen
            }
            b')' => {
                self.bump();
                TokenKind::RParen
            }
            b'[' => {
                self.bump();
                TokenKind::LBracket
            }
            b']' => {
                self.bump();
                TokenKind::RBracket
            }
            b'{' => {
                self.bump();
                TokenKind::LBrace
            }
            b'}' => {
                self.bump();
                TokenKind::RBrace
            }
            b':' => {
                self.bump();
                TokenKind::Colon
            }
            b',' => {
                self.bump();
                TokenKind::Comma
            }
            b'|' => {
                self.bump();
                TokenKind::Pipe
            }
            b'+' => {
                self.bump();
                TokenKind::Plus
            }
            b'*' => {
                self.bump();
                TokenKind::Star
            }
            b'/' => {
                self.bump();
                TokenKind::Slash
            }
            b'%' => {
                self.bump();
                TokenKind::Percent
            }
            b'-' => {
                self.bump();
                TokenKind::Dash
            }
            b'=' => {
                self.bump();
                TokenKind::Eq
            }
            b'<' => {
                self.bump();
                match self.peek() {
                    Some(b'=') => {
                        self.bump();
                        TokenKind::Le
                    }
                    Some(b'>') => {
                        self.bump();
                        TokenKind::Ne
                    }
                    _ => TokenKind::Lt,
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            b'.' => {
                self.bump();
                if self.peek() == Some(b'.') {
                    self.bump();
                    TokenKind::DotDot
                } else {
                    TokenKind::Dot
                }
            }
            b'$' => {
                self.bump();
                let name = self.lex_bare_word();
                if name.is_empty() {
                    diags.push(
                        RawDiagnostic::new(
                            "E_EMPTY_PARAMETER",
                            offset,
                            1,
                            "empty parameter name".into(),
                        )
                        .with_note("parameters are written `$name`"),
                    );
                    return None;
                }
                TokenKind::Parameter(name.into())
            }
            b'\'' | b'"' => self.lex_string(c, offset, diags),
            b'`' => {
                // back-quoted identifier
                self.bump();
                let start = self.pos;
                while let Some(ch) = self.peek() {
                    if ch == b'`' {
                        break;
                    }
                    self.pos += 1;
                }
                let name = &self.src[start..self.pos];
                if self.peek() == Some(b'`') {
                    self.bump();
                } else {
                    diags.push(RawDiagnostic::new(
                        "E_UNTERMINATED_IDENT",
                        offset,
                        self.pos - offset,
                        "unterminated quoted identifier".into(),
                    ));
                }
                TokenKind::Ident(name)
            }
            c if c.is_ascii_digit() => self.lex_number(offset, diags),
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let word = self.lex_bare_word();
                match keyword(word) {
                    Some(keyword) => TokenKind::Keyword(keyword),
                    None => TokenKind::Ident(word),
                }
            }
            other => {
                self.bump();
                diags.push(RawDiagnostic::new(
                    "E_UNEXPECTED_CHAR",
                    offset,
                    1,
                    format!("unexpected character `{}`", other as char),
                ));
                return None;
            }
        };
        Some(Token { kind, offset, len: self.pos - offset })
    }

    fn lex_bare_word(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        &self.src[start..self.pos]
    }

    fn lex_number(&mut self, offset: usize, diags: &mut Vec<RawDiagnostic>) -> TokenKind<'a> {
        let start = self.pos;
        while self.peek().map(|c| c.is_ascii_digit()).unwrap_or(false) {
            self.pos += 1;
        }
        // A fractional part only if the dot is followed by a digit; this keeps
        // `1..3` (a variable-length range) lexing as Integer DotDot Integer.
        let mut is_float = false;
        if self.peek() == Some(b'.') && self.peek2().map(|c| c.is_ascii_digit()).unwrap_or(false) {
            is_float = true;
            self.pos += 1;
            while self.peek().map(|c| c.is_ascii_digit()).unwrap_or(false) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse::<f64>().map(TokenKind::Float).unwrap_or_else(|e| {
                diags.push(RawDiagnostic::new(
                    "E_BAD_NUMBER",
                    offset,
                    self.pos - offset,
                    format!("bad float literal: {e}"),
                ));
                TokenKind::Float(0.0)
            })
        } else {
            text.parse::<i64>().map(TokenKind::Integer).unwrap_or_else(|e| {
                diags.push(RawDiagnostic::new(
                    "E_BAD_NUMBER",
                    offset,
                    self.pos - offset,
                    format!("bad integer literal: {e}"),
                ));
                TokenKind::Integer(0)
            })
        }
    }

    fn lex_string(
        &mut self,
        quote: u8,
        offset: usize,
        diags: &mut Vec<RawDiagnostic>,
    ) -> TokenKind<'a> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(c) if c == quote => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'\\') => out.push('\\'),
                    Some(c) if c == quote => out.push(c as char),
                    Some(c) => out.push(c as char),
                    None => {
                        diags.push(self.unterminated_string(offset));
                        break;
                    }
                },
                Some(c) => out.push(c as char),
                None => {
                    diags.push(self.unterminated_string(offset));
                    break;
                }
            }
        }
        TokenKind::Str(out)
    }

    fn unterminated_string(&self, offset: usize) -> RawDiagnostic {
        RawDiagnostic::new(
            "E_UNTERMINATED_STRING",
            offset,
            self.pos - offset,
            "unterminated string".into(),
        )
        .with_note("strings are quoted with `'` or `\"`")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The token stream of well-formed input, terminated by `Eof`.
    fn tokens(src: &str) -> Vec<Token<'_>> {
        let (tokens, diags) = Lexer::tokenize_recovering(src);
        assert!(diags.is_empty(), "{src:?}: {diags:?}");
        tokens
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokens(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_basic_match_query() {
        let k = kinds("MATCH (a:Person) RETURN a");
        assert_eq!(
            k,
            vec![
                TokenKind::Keyword("MATCH"),
                TokenKind::LParen,
                TokenKind::Ident("a"),
                TokenKind::Colon,
                TokenKind::Ident("Person"),
                TokenKind::RParen,
                TokenKind::Keyword("RETURN"),
                TokenKind::Ident("a"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(kinds("match")[0], TokenKind::Keyword("MATCH"));
        assert_eq!(kinds("ReTuRn")[0], TokenKind::Keyword("RETURN"));
    }

    #[test]
    fn variable_length_range_does_not_lex_as_float() {
        let k = kinds("*1..3");
        assert_eq!(
            k,
            vec![
                TokenKind::Star,
                TokenKind::Integer(1),
                TokenKind::DotDot,
                TokenKind::Integer(3),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn numbers_and_floats() {
        assert_eq!(kinds("42")[0], TokenKind::Integer(42));
        assert_eq!(kinds("3.25")[0], TokenKind::Float(3.25));
    }

    #[test]
    fn relationship_arrows_lex_as_punctuation() {
        let k = kinds("-[:KNOWS]->");
        assert_eq!(
            k,
            vec![
                TokenKind::Dash,
                TokenKind::LBracket,
                TokenKind::Colon,
                TokenKind::Ident("KNOWS"),
                TokenKind::RBracket,
                TokenKind::Dash,
                TokenKind::Gt,
                TokenKind::Eof
            ]
        );
        let k = kinds("<-[r]-");
        assert_eq!(k[0], TokenKind::Lt);
        assert_eq!(k[1], TokenKind::Dash);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(kinds("<= >= <> < > =").len(), 7);
        assert_eq!(kinds("a <> b")[1], TokenKind::Ne);
        assert_eq!(kinds("a <= b")[1], TokenKind::Le);
    }

    #[test]
    fn strings_with_both_quote_styles_and_escapes() {
        assert_eq!(kinds("'hello'")[0], TokenKind::Str("hello".into()));
        assert_eq!(kinds("\"world\"")[0], TokenKind::Str("world".into()));
        assert_eq!(kinds(r#"'it\'s'"#)[0], TokenKind::Str("it's".into()));
    }

    #[test]
    fn parameters_and_backquoted_identifiers() {
        assert_eq!(kinds("$name")[0], TokenKind::Parameter("name".into()));
        assert_eq!(kinds("`weird name`")[0], TokenKind::Ident("weird name"));
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("MATCH // a comment\n (a) /* block */ RETURN a");
        assert_eq!(k.len(), 7);
    }

    #[test]
    fn tokens_carry_spans() {
        let toks = tokens("MATCH $id");
        assert_eq!((toks[0].offset, toks[0].len), (0, 5));
        assert_eq!((toks[1].offset, toks[1].len), (6, 3));
        assert_eq!(toks[2].len, 0); // Eof
    }

    #[test]
    fn errors_carry_offsets() {
        let (_, diags) = Lexer::tokenize_recovering("MATCH ^");
        assert_eq!(diags[0].span, (1, 7, 1));
        assert!(!Lexer::tokenize_recovering("'oops").1.is_empty());
        assert!(!Lexer::tokenize_recovering("/* nope").1.is_empty());
    }

    #[test]
    fn recovery_reports_every_problem_and_keeps_lexing() {
        let (tokens, diags) = Lexer::tokenize_recovering("MATCH ^ (a) ~ RETURN a");
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].code, "E_UNEXPECTED_CHAR");
        assert_eq!(diags[0].span, (1, 7, 1));
        assert_eq!(diags[1].span, (1, 13, 1));
        // The good tokens around the junk all survive.
        let kinds: Vec<_> = tokens.into_iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TokenKind::Keyword("RETURN")));
        assert_eq!(kinds.len(), 7); // MATCH ( a ) RETURN a Eof
    }

    #[test]
    fn unterminated_string_still_yields_its_partial_token() {
        let (tokens, diags) = Lexer::tokenize_recovering("RETURN 'oops");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E_UNTERMINATED_STRING");
        assert_eq!(tokens[1].kind, TokenKind::Str("oops".into()));
    }
}
