//! Indentation-aware tokenizer for the pylite language.
//!
//! The lexer converts source text into a stream of [`Token`]s, synthesizing
//! `Indent`/`Dedent` tokens from leading whitespace the way CPython's
//! tokenizer does. Newlines inside brackets are suppressed, comments and
//! blank lines are skipped.

use std::fmt;

/// A lexical token together with the 1-based source line it started on.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: Tok,
    /// 1-based line number of the first character of the token.
    pub line: u32,
}

/// The kinds of tokens produced by [`lex`].
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// An identifier or keyword-candidate name.
    Name(String),
    /// An integer literal.
    Int(i64),
    /// A floating point literal.
    Float(f64),
    /// A string literal (quotes removed, escapes resolved).
    Str(String),
    /// A logical end of line.
    Newline,
    /// An increase in indentation depth.
    Indent,
    /// A decrease in indentation depth.
    Dedent,
    /// End of input (emitted exactly once, after trailing dedents).
    Eof,

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
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `->`
    Arrow,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `**`
    DoubleStar,
    /// `/`
    Slash,
    /// `//`
    DoubleSlash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `+=`
    PlusEq,
    /// `-=`
    MinusEq,
    /// `*=`
    StarEq,
    /// `/=`
    SlashEq,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `@`
    At,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Name(s) => write!(f, "{s}"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Newline => write!(f, "NEWLINE"),
            Tok::Indent => write!(f, "INDENT"),
            Tok::Dedent => write!(f, "DEDENT"),
            Tok::Eof => write!(f, "EOF"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::Comma => write!(f, ","),
            Tok::Colon => write!(f, ":"),
            Tok::Semi => write!(f, ";"),
            Tok::Dot => write!(f, "."),
            Tok::Arrow => write!(f, "->"),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::DoubleStar => write!(f, "**"),
            Tok::Slash => write!(f, "/"),
            Tok::DoubleSlash => write!(f, "//"),
            Tok::Percent => write!(f, "%"),
            Tok::Eq => write!(f, "="),
            Tok::PlusEq => write!(f, "+="),
            Tok::MinusEq => write!(f, "-="),
            Tok::StarEq => write!(f, "*="),
            Tok::SlashEq => write!(f, "/="),
            Tok::EqEq => write!(f, "=="),
            Tok::NotEq => write!(f, "!="),
            Tok::Lt => write!(f, "<"),
            Tok::LtEq => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::GtEq => write!(f, ">="),
            Tok::At => write!(f, "@"),
        }
    }
}

/// An error produced while tokenizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description of the problem.
    pub message: String,
    /// 1-based line the error occurred on.
    pub line: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    indent_stack: Vec<usize>,
    bracket_depth: usize,
    tokens: Vec<Token>,
    at_line_start: bool,
}

/// Tokenize `source` into a vector of tokens terminated by [`Tok::Eof`].
///
/// # Errors
///
/// Returns a [`LexError`] on malformed numeric literals, unterminated
/// strings, inconsistent dedents, or characters outside the language.
pub fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    let mut lx = Lexer {
        src: source.as_bytes(),
        pos: 0,
        line: 1,
        indent_stack: vec![0],
        bracket_depth: 0,
        tokens: Vec::new(),
        at_line_start: true,
    };
    lx.run()?;
    Ok(lx.tokens)
}

impl<'a> Lexer<'a> {
    fn err(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            line: self.line,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: Tok) {
        self.tokens.push(Token {
            kind,
            line: self.line,
        });
    }

    fn run(&mut self) -> Result<(), LexError> {
        while self.pos < self.src.len() {
            if self.at_line_start && self.bracket_depth == 0 {
                self.handle_indentation()?;
                if self.pos >= self.src.len() {
                    break;
                }
            }
            let c = match self.peek() {
                Some(c) => c,
                None => break,
            };
            match c {
                b' ' | b'\t' | b'\r' => {
                    self.bump();
                }
                b'#' => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                b'\\' if self.peek2() == Some(b'\n') => {
                    // Explicit line continuation.
                    self.bump();
                    self.bump();
                }
                b'\n' => {
                    self.bump();
                    if self.bracket_depth == 0 {
                        let emit = matches!(
                            self.tokens.last().map(|t| &t.kind),
                            Some(k) if !matches!(k, Tok::Newline | Tok::Indent | Tok::Dedent)
                        );
                        if emit {
                            self.push(Tok::Newline);
                        }
                        self.at_line_start = true;
                    }
                }
                b'0'..=b'9' => self.number()?,
                b'"' | b'\'' => self.string(c)?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.name(),
                _ => self.operator()?,
            }
        }
        // Final newline if the last real token needs one.
        if matches!(
            self.tokens.last().map(|t| &t.kind),
            Some(k) if !matches!(k, Tok::Newline | Tok::Indent | Tok::Dedent)
        ) {
            self.push(Tok::Newline);
        }
        while self.indent_stack.len() > 1 {
            self.indent_stack.pop();
            self.push(Tok::Dedent);
        }
        self.push(Tok::Eof);
        Ok(())
    }

    fn handle_indentation(&mut self) -> Result<(), LexError> {
        loop {
            let mut width = 0usize;
            let start = self.pos;
            while let Some(c) = self.peek() {
                match c {
                    b' ' => {
                        width += 1;
                        self.bump();
                    }
                    b'\t' => {
                        width += 8 - (width % 8);
                        self.bump();
                    }
                    _ => break,
                }
            }
            match self.peek() {
                // Blank line or comment-only line: ignore for indentation.
                Some(b'\n') => {
                    self.bump();
                    continue;
                }
                Some(b'\r') => {
                    self.bump();
                    continue;
                }
                Some(b'#') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                    continue;
                }
                None => {
                    self.at_line_start = false;
                    return Ok(());
                }
                Some(_) => {
                    let _ = start;
                    let current = *self.indent_stack.last().expect("indent stack nonempty");
                    if width > current {
                        self.indent_stack.push(width);
                        self.push(Tok::Indent);
                    } else if width < current {
                        while *self.indent_stack.last().expect("nonempty") > width {
                            self.indent_stack.pop();
                            self.push(Tok::Dedent);
                        }
                        if *self.indent_stack.last().expect("nonempty") != width {
                            return Err(self.err("inconsistent dedent"));
                        }
                    }
                    self.at_line_start = false;
                    return Ok(());
                }
            }
        }
    }

    fn number(&mut self) -> Result<(), LexError> {
        let start = self.pos;
        let line = self.line;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        let mut is_float = false;
        // A '.' followed by a digit makes this a float; a bare '.' after the
        // digits (e.g. `1.` ) is also accepted as a float, but `1.method()` is
        // not valid pylite anyway so we only consume when followed by a digit.
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(b'0'..=b'9')) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E'))
            && matches!(self.peek2(), Some(b'0'..=b'9') | Some(b'+') | Some(b'-'))
        {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.bump();
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
        let kind = if is_float {
            Tok::Float(
                text.parse::<f64>()
                    .map_err(|_| self.err(format!("bad float literal `{text}`")))?,
            )
        } else {
            Tok::Int(
                text.parse::<i64>()
                    .map_err(|_| self.err(format!("integer literal out of range `{text}`")))?,
            )
        };
        self.tokens.push(Token { kind, line });
        Ok(())
    }

    fn string(&mut self, quote: u8) -> Result<(), LexError> {
        let line = self.line;
        self.bump(); // opening quote
                     // Triple-quoted strings.
        let triple = self.peek() == Some(quote) && self.peek2() == Some(quote);
        if triple {
            self.bump();
            self.bump();
        }
        let mut out = String::new();
        loop {
            let c = self.bump().ok_or_else(|| self.err("unterminated string"))?;
            if c == quote {
                if !triple {
                    break;
                }
                if self.peek() == Some(quote) && self.peek2() == Some(quote) {
                    self.bump();
                    self.bump();
                    break;
                }
                out.push(c as char);
                continue;
            }
            if c == b'\n' && !triple {
                return Err(self.err("unterminated string"));
            }
            if c == b'\\' {
                let esc = self.bump().ok_or_else(|| self.err("unterminated escape"))?;
                match esc {
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'\\' => out.push('\\'),
                    b'\'' => out.push('\''),
                    b'"' => out.push('"'),
                    b'0' => out.push('\0'),
                    b'\n' => {}
                    other => {
                        out.push('\\');
                        out.push(self.char_from(other)?);
                    }
                }
                continue;
            }
            out.push(self.char_from(c)?);
        }
        self.tokens.push(Token {
            kind: Tok::Str(out),
            line,
        });
        Ok(())
    }

    /// The character that starts with `c`, the byte just bumped. A
    /// non-ASCII byte leads a UTF-8 sequence: its continuation bytes are
    /// bumped too, and only that sequence is decoded.
    fn char_from(&mut self, c: u8) -> Result<char, LexError> {
        if c.is_ascii() {
            return Ok(c as char);
        }
        let start = self.pos - 1;
        let len = match c {
            0xF0.. => 4,
            0xE0.. => 3,
            _ => 2,
        };
        let end = (start + len).min(self.src.len());
        self.pos = end;
        std::str::from_utf8(&self.src[start..end])
            .ok()
            .and_then(|s| s.chars().next())
            .ok_or_else(|| self.err("invalid UTF-8 in string"))
    }

    fn name(&mut self) {
        let start = self.pos;
        let line = self.line;
        while matches!(
            self.peek(),
            Some(b'a'..=b'z') | Some(b'A'..=b'Z') | Some(b'0'..=b'9') | Some(b'_')
        ) {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .expect("ascii identifier")
            .to_owned();
        self.tokens.push(Token {
            kind: Tok::Name(text),
            line,
        });
    }

    fn operator(&mut self) -> Result<(), LexError> {
        let c = self.bump().expect("operator byte present");
        let two = self.peek();
        let kind = match (c, two) {
            (b'(', _) => {
                self.bracket_depth += 1;
                Tok::LParen
            }
            (b')', _) => {
                self.bracket_depth = self.bracket_depth.saturating_sub(1);
                Tok::RParen
            }
            (b'[', _) => {
                self.bracket_depth += 1;
                Tok::LBracket
            }
            (b']', _) => {
                self.bracket_depth = self.bracket_depth.saturating_sub(1);
                Tok::RBracket
            }
            (b'{', _) => {
                self.bracket_depth += 1;
                Tok::LBrace
            }
            (b'}', _) => {
                self.bracket_depth = self.bracket_depth.saturating_sub(1);
                Tok::RBrace
            }
            (b',', _) => Tok::Comma,
            (b':', _) => Tok::Colon,
            (b';', _) => Tok::Semi,
            (b'.', _) => Tok::Dot,
            (b'@', _) => Tok::At,
            (b'-', Some(b'>')) => {
                self.bump();
                Tok::Arrow
            }
            (b'-', Some(b'=')) => {
                self.bump();
                Tok::MinusEq
            }
            (b'-', _) => Tok::Minus,
            (b'+', Some(b'=')) => {
                self.bump();
                Tok::PlusEq
            }
            (b'+', _) => Tok::Plus,
            (b'*', Some(b'*')) => {
                self.bump();
                Tok::DoubleStar
            }
            (b'*', Some(b'=')) => {
                self.bump();
                Tok::StarEq
            }
            (b'*', _) => Tok::Star,
            (b'/', Some(b'/')) => {
                self.bump();
                Tok::DoubleSlash
            }
            (b'/', Some(b'=')) => {
                self.bump();
                Tok::SlashEq
            }
            (b'/', _) => Tok::Slash,
            (b'%', _) => Tok::Percent,
            (b'=', Some(b'=')) => {
                self.bump();
                Tok::EqEq
            }
            (b'=', _) => Tok::Eq,
            (b'!', Some(b'=')) => {
                self.bump();
                Tok::NotEq
            }
            (b'<', Some(b'=')) => {
                self.bump();
                Tok::LtEq
            }
            (b'<', _) => Tok::Lt,
            (b'>', Some(b'=')) => {
                self.bump();
                Tok::GtEq
            }
            (b'>', _) => Tok::Gt,
            other => {
                return Err(self.err(format!("unexpected character `{}`", other.0 as char)));
            }
        };
        self.push(kind);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src)
            .expect("lexes")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_simple_assignment() {
        assert_eq!(
            kinds("x = 1\n"),
            vec![
                Tok::Name("x".into()),
                Tok::Eq,
                Tok::Int(1),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn emits_indent_and_dedent() {
        let toks = kinds("if x:\n    y = 2\nz = 3\n");
        assert!(toks.contains(&Tok::Indent));
        assert!(toks.contains(&Tok::Dedent));
        let indent_pos = toks.iter().position(|t| *t == Tok::Indent).unwrap();
        let dedent_pos = toks.iter().position(|t| *t == Tok::Dedent).unwrap();
        assert!(indent_pos < dedent_pos);
    }

    #[test]
    fn trailing_dedents_are_emitted_at_eof() {
        let toks = kinds("def f():\n    if x:\n        return 1\n");
        let dedents = toks.iter().filter(|t| **t == Tok::Dedent).count();
        assert_eq!(dedents, 2);
        assert_eq!(toks.last(), Some(&Tok::Eof));
    }

    #[test]
    fn newlines_suppressed_inside_brackets() {
        let toks = kinds("f(1,\n  2,\n  3)\n");
        let newlines = toks.iter().filter(|t| **t == Tok::Newline).count();
        assert_eq!(newlines, 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let toks = kinds("# a comment\n\nx = 1  # trailing\n\n");
        assert_eq!(
            toks,
            vec![
                Tok::Name("x".into()),
                Tok::Eq,
                Tok::Int(1),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn string_escapes_are_resolved() {
        let toks = kinds(r#"s = "a\nb\t\"c\"""#);
        assert!(toks.contains(&Tok::Str("a\nb\t\"c\"".into())));
    }

    #[test]
    fn triple_quoted_strings_span_lines() {
        let toks = kinds("s = \"\"\"line1\nline2\"\"\"\n");
        assert!(toks.contains(&Tok::Str("line1\nline2".into())));
    }

    #[test]
    fn non_ascii_string_characters_lex_whole() {
        // (source, the string token): each UTF-8 sequence is one char.
        for (src, text) in [
            ("\"café\"", "café"),
            ("'日本語'", "日本語"),
            ("\"🦀 ok\"", "🦀 ok"),
            ("\"\\é\"", "\\é"),
            ("\"\"\"naïve\nline\"\"\"", "naïve\nline"),
        ] {
            assert_eq!(kinds(src)[0], Tok::Str(text.into()), "{src}");
        }
    }

    #[test]
    fn float_and_int_literals() {
        let toks = kinds("a = 1.5\nb = 10\nc = 2e3\nd = 1e999\n");
        assert!(toks.contains(&Tok::Float(1.5)));
        assert!(toks.contains(&Tok::Int(10)));
        assert!(toks.contains(&Tok::Float(2000.0)));
        assert!(
            toks.contains(&Tok::Float(f64::INFINITY)),
            "an overflowing literal"
        );
    }

    #[test]
    fn two_char_operators() {
        let toks = kinds("a == b != c <= d >= e // f ** g += 1\n");
        for t in [
            Tok::EqEq,
            Tok::NotEq,
            Tok::LtEq,
            Tok::GtEq,
            Tok::DoubleSlash,
            Tok::DoubleStar,
            Tok::PlusEq,
        ] {
            assert!(toks.contains(&t), "missing {t:?}");
        }
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("s = \"abc\n").is_err());
    }

    #[test]
    fn inconsistent_dedent_is_an_error() {
        assert!(lex("if a:\n        x = 1\n    y = 2\n").is_err());
    }

    #[test]
    fn line_numbers_are_tracked() {
        let toks = lex("x = 1\ny = 2\n").unwrap();
        let y = toks
            .iter()
            .find(|t| t.kind == Tok::Name("y".into()))
            .unwrap();
        assert_eq!(y.line, 2);
    }

    #[test]
    fn line_continuation_joins_lines() {
        let toks = kinds("x = 1 + \\\n    2\n");
        let newlines = toks.iter().filter(|t| **t == Tok::Newline).count();
        assert_eq!(newlines, 1);
    }

    #[test]
    fn empty_source_yields_eof_only() {
        assert_eq!(kinds(""), vec![Tok::Eof]);
    }
}
