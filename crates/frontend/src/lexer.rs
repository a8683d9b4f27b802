//! Lexer for the Linnea-style input language (paper Fig. 1–2).
//!
//! Tokens borrow the source: an identifier is a slice of the input, so
//! lexing allocates nothing but the token buffer [`lex`] returns. The
//! lexer walks bytes with an ASCII fast path; any other character is
//! decoded and classified by `char`'s Unicode rules (whitespace,
//! alphabetic, alphanumeric). Columns count characters, not bytes.

use std::fmt;

/// A token kind. An identifier borrows its text from the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tok<'a> {
    /// `Matrix` keyword.
    Matrix,
    /// `Vector` keyword (sugar for `n×1` matrices).
    Vector,
    /// An identifier (operand or property name).
    Ident(&'a str),
    /// An integer literal.
    Int(usize),
    /// `:=`.
    Assign,
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `<`.
    LAngle,
    /// `>`.
    RAngle,
    /// `,`.
    Comma,
    /// `+`.
    Plus,
    /// `*`.
    Star,
    /// `^T`.
    Transpose,
    /// `^-1`.
    Inverse,
    /// `^-T`.
    InverseTranspose,
    /// `'` (transpose shorthand, Matlab/Julia style).
    Tick,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Matrix => write!(f, "`Matrix`"),
            Tok::Vector => write!(f, "`Vector`"),
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "integer `{v}`"),
            Tok::Assign => write!(f, "`:=`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LAngle => write!(f, "`<`"),
            Tok::RAngle => write!(f, "`>`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Transpose => write!(f, "`^T`"),
            Tok::Inverse => write!(f, "`^-1`"),
            Tok::InverseTranspose => write!(f, "`^-T`"),
            Tok::Tick => write!(f, "`'`"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token kind.
    pub tok: Tok<'a>,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// A lexing error with source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Explanation.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes the input. `#` starts a line comment.
///
/// # Errors
///
/// Returns the first [`LexError`]: an unexpected character, a malformed
/// `:=` or `^` operator, or an integer literal that overflows `usize`.
pub fn lex(input: &str) -> Result<Vec<Token<'_>>, LexError> {
    Lexer::new(input).collect()
}

/// The tokens of a source text, one at a time. After an error it
/// yields nothing more, so collecting it stops at the first error.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next character.
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            line: self.line,
            col: self.col,
        }
    }

    /// Consumes the next byte if it is `want`.
    fn eat(&mut self, want: u8) -> bool {
        let hit = self.src.as_bytes().get(self.pos) == Some(&want);
        if hit {
            self.pos += 1;
            self.col += 1;
        }
        hit
    }

    /// The non-ASCII character at the current position.
    fn wide_char(&self) -> char {
        self.src[self.pos..]
            .chars()
            .next()
            .expect("the lexer stops on a character boundary inside the input")
    }

    fn token(&mut self) -> Option<Result<Token<'a>, LexError>> {
        let src = self.src;
        let bytes = src.as_bytes();
        loop {
            let &b = bytes.get(self.pos)?;
            let (line, col) = (self.line, self.col);
            let tok = match b {
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.col = 1;
                    continue;
                }
                // ASCII whitespace by `char::is_whitespace`.
                b' ' | b'\t' | b'\r' | 0x0B | 0x0C => {
                    self.pos += 1;
                    self.col += 1;
                    continue;
                }
                b'#' => {
                    // A comment runs to the end of the line, newline
                    // included.
                    match bytes[self.pos..].iter().position(|&c| c == b'\n') {
                        Some(n) => {
                            self.pos += n + 1;
                            self.line += 1;
                            self.col = 1;
                        }
                        None => self.pos = bytes.len(),
                    }
                    continue;
                }
                b'0'..=b'9' => self.int(),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => Ok(self.word()),
                b':' | b'^' => {
                    self.pos += 1;
                    self.col += 1;
                    self.operator(b)
                }
                0x80.. => {
                    let c = self.wide_char();
                    if c.is_whitespace() {
                        self.pos += c.len_utf8();
                        self.col += 1;
                        continue;
                    }
                    if c.is_alphabetic() {
                        Ok(self.word())
                    } else {
                        Err(self.error(format!("unexpected character `{c}`")))
                    }
                }
                _ => {
                    let tok = match b {
                        b'(' => Tok::LParen,
                        b')' => Tok::RParen,
                        b'<' => Tok::LAngle,
                        b'>' => Tok::RAngle,
                        b',' => Tok::Comma,
                        b'+' => Tok::Plus,
                        b'*' => Tok::Star,
                        b'\'' => Tok::Tick,
                        other => {
                            let other = char::from(other);
                            return Some(
                                Err(self.error(format!("unexpected character `{other}`"))),
                            );
                        }
                    };
                    self.pos += 1;
                    self.col += 1;
                    Ok(tok)
                }
            };
            return Some(tok.map(|tok| Token { tok, line, col }));
        }
    }

    /// The rest of `:=` or of a `^` operator, after its first byte.
    fn operator(&mut self, first: u8) -> Result<Tok<'a>, LexError> {
        if first == b':' {
            return if self.eat(b'=') {
                Ok(Tok::Assign)
            } else {
                Err(self.error("expected `=` after `:`"))
            };
        }
        if self.eat(b'T') {
            Ok(Tok::Transpose)
        } else if !self.eat(b'-') {
            Err(self.error("expected `T`, `-1` or `-T` after `^`"))
        } else if self.eat(b'1') {
            Ok(Tok::Inverse)
        } else if self.eat(b'T') {
            Ok(Tok::InverseTranspose)
        } else {
            Err(self.error("expected `1` or `T` after `^-`"))
        }
    }

    /// An integer literal; an overflow is reported at the digit that
    /// overflows.
    fn int(&mut self) -> Result<Tok<'a>, LexError> {
        let mut value = 0usize;
        while let Some(&d) = self.src.as_bytes().get(self.pos) {
            if !d.is_ascii_digit() {
                break;
            }
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(usize::from(d - b'0')))
                .ok_or_else(|| self.error("integer literal too large"))?;
            self.pos += 1;
            self.col += 1;
        }
        Ok(Tok::Int(value))
    }

    /// A keyword or an identifier: its first character is alphabetic
    /// or `_`, the rest alphanumeric or `_`.
    fn word(&mut self) -> Tok<'a> {
        let start = self.pos;
        while let Some(&b) = self.src.as_bytes().get(self.pos) {
            let width = match b {
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' => 1,
                0x80.. => {
                    let c = self.wide_char();
                    if !c.is_alphanumeric() {
                        break;
                    }
                    c.len_utf8()
                }
                _ => break,
            };
            self.pos += width;
            self.col += 1;
        }
        let src = self.src;
        match &src[start..self.pos] {
            "Matrix" => Tok::Matrix,
            "Vector" => Tok::Vector,
            name => Tok::Ident(name),
        }
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>, LexError>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.token();
        if matches!(item, Some(Err(_))) {
            self.pos = self.src.len();
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<Tok<'_>> {
        lex(input).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_definition() {
        let toks = kinds("Matrix A (100, 200) <LowerTriangular, SPD>");
        assert_eq!(
            toks,
            vec![
                Tok::Matrix,
                Tok::Ident("A"),
                Tok::LParen,
                Tok::Int(100),
                Tok::Comma,
                Tok::Int(200),
                Tok::RParen,
                Tok::LAngle,
                Tok::Ident("LowerTriangular"),
                Tok::Comma,
                Tok::Ident("SPD"),
                Tok::RAngle,
            ]
        );
    }

    #[test]
    fn lexes_assignment_with_operators() {
        let toks = kinds("X := A^-1 * B * C^T + D^-T");
        assert!(toks.contains(&Tok::Assign));
        assert!(toks.contains(&Tok::Inverse));
        assert!(toks.contains(&Tok::Transpose));
        assert!(toks.contains(&Tok::InverseTranspose));
        assert!(toks.contains(&Tok::Plus));
    }

    #[test]
    fn tick_shorthand() {
        assert_eq!(kinds("A'"), vec![Tok::Ident("A"), Tok::Tick]);
    }

    #[test]
    fn comments_and_positions() {
        let toks = lex("A # comment\nB").unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[1].col, 1);
    }

    /// The byte-level fast path classifies every ASCII character as
    /// `char`'s Unicode rules do, and so does the fallback for a sample
    /// of other characters; columns count characters.
    #[test]
    fn characters_follow_char_rules() {
        let wide = [
            'é', 'ß', 'Ω', '漢', '²', '٣', '\u{a0}', '\u{2028}', '\u{3000}', '🦀', '\u{85}',
        ];
        for c in (0..0x80u8).map(char::from).chain(wide) {
            let alone = c.to_string();
            let toks = lex(&alone);
            if c.is_whitespace() || c == '#' {
                assert_eq!(toks, Ok(vec![]), "{c:?}");
            } else if c.is_alphabetic() || c == '_' {
                assert_eq!(kinds(&alone), vec![Tok::Ident(&alone)], "{c:?}");
            } else if let Ok(toks) = toks {
                assert!(
                    c.is_ascii_digit() || "()<>,+*'".contains(c),
                    "{c:?}: {toks:?}"
                );
            } else {
                let err = toks.unwrap_err();
                let expected = [":", "^"].contains(&alone.as_str()) || err.message.contains(&alone);
                assert!(expected, "{c:?}: {err}");
            }
            // Inside a word, alphanumeric characters continue it; the
            // next token's column counts characters.
            let word = format!("a{c}");
            let source = format!("{word}é x");
            if c.is_alphanumeric() || c == '_' {
                let toks = lex(&source).unwrap();
                assert_eq!(toks[0].tok, Tok::Ident(&format!("{word}é")), "{c:?}");
                assert_eq!((toks[1].line, toks[1].col), (1, 5), "{c:?}");
            }
        }
    }

    #[test]
    fn error_positions() {
        let err = lex("A ^x").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("after `^`"));
        let err = lex("A : B").unwrap_err();
        assert!(err.message.contains("after `:`"));
        let err = lex("A $ B").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }
}
