//! A hand-written lexer shared by all four front-ends.
//!
//! Tokenizes identifiers, decimal/hex numbers, and the punctuation the
//! grammars need. `//`, `/* */` and `#`-to-end-of-line comments are skipped
//! (rpcgen `.x` files use `#` for preprocessor lines; `%` passthrough lines
//! are skipped too). Every token carries its source position for
//! diagnostics.
//!
//! Tokens *borrow* from the source: an identifier is a `&'src str` slice of
//! the text being parsed, so a [`Tok`] is `Copy`, lexing allocates exactly
//! one vector (sized from the source length), and a front-end allocates a
//! `String` only for a name the `Module` / PDL AST it returns keeps.
//! Parsing is on the bind path — a client that starts from interface text
//! pays it before its first call — which is why the lexer does not own
//! what it can point at.

use crate::diag::ParseError;
use crate::Result;

/// A lexical token, borrowing identifier text from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok<'src> {
    /// Identifier or keyword (keywords are decided by the parsers).
    Ident(&'src str),
    /// Unsigned integer literal (decimal or `0x` hex).
    Num(u64),
    /// One punctuation character: `{}()[]<>;,:=*.-`.
    Punct(char),
    /// End of input.
    Eof,
}

impl Tok<'_> {
    /// Human-readable token description for error messages.
    pub(crate) fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("`{s}`"),
            Tok::Num(n) => format!("number {n}"),
            Tok::Punct(c) => format!("`{c}`"),
            Tok::Eof => "end of input".into(),
        }
    }
}

/// A token with its position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spanned<'src> {
    /// The token.
    pub tok: Tok<'src>,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Tokenizes `src` completely (appends an `Eof` token).
pub(crate) fn tokenize(src: &str) -> Result<Vec<Spanned<'_>>> {
    // A token and the blank or punctuation that ends it are rarely under
    // three bytes of source, so interface text lexes without regrowing;
    // denser input (`f(,,);`) grows the vector as usual.
    let mut out = Vec::with_capacity(src.len() / 3 + 1);
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! bump {
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        // Whitespace.
        if c.is_ascii_whitespace() {
            bump!();
            continue;
        }
        // Line comments and preprocessor/passthrough lines.
        if c == '#' || c == '%' || (c == '/' && bytes.get(i + 1) == Some(&b'/')) {
            while i < bytes.len() && bytes[i] != b'\n' {
                bump!();
            }
            continue;
        }
        // Block comments.
        if c == '/' && bytes.get(i + 1) == Some(&b'*') {
            let (sl, sc) = (line, col);
            bump!();
            bump!();
            loop {
                if i + 1 >= bytes.len() {
                    return Err(ParseError::at("unterminated block comment", sl, sc));
                }
                if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                    bump!();
                    bump!();
                    break;
                }
                bump!();
            }
            continue;
        }
        // Identifiers.
        if c.is_ascii_alphabetic() || c == '_' {
            let (sl, sc) = (line, col);
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                bump!();
            }
            out.push(Spanned { tok: Tok::Ident(&src[start..i]), line: sl, col: sc });
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let (sl, sc) = (line, col);
            let start = i;
            if c == '0' && matches!(bytes.get(i + 1), Some(b'x') | Some(b'X')) {
                bump!();
                bump!();
                while i < bytes.len() && (bytes[i] as char).is_ascii_hexdigit() {
                    bump!();
                }
                let v = u64::from_str_radix(&src[start + 2..i], 16)
                    .map_err(|_| ParseError::at("invalid hex literal", sl, sc))?;
                out.push(Spanned { tok: Tok::Num(v), line: sl, col: sc });
            } else {
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    bump!();
                }
                let v = src[start..i]
                    .parse::<u64>()
                    .map_err(|_| ParseError::at("integer literal too large", sl, sc))?;
                out.push(Spanned { tok: Tok::Num(v), line: sl, col: sc });
            }
            continue;
        }
        // Punctuation.
        if "{}()[]<>;,:=*.-".contains(c) {
            out.push(Spanned { tok: Tok::Punct(c), line, col });
            bump!();
            continue;
        }
        return Err(ParseError::at(format!("unexpected character `{c}`"), line, col));
    }
    out.push(Spanned { tok: Tok::Eof, line, col });
    Ok(out)
}

/// A token stream with lookahead, shared by the parsers.
#[derive(Debug)]
pub struct TokStream<'src> {
    toks: Vec<Spanned<'src>>,
    pos: usize,
}

impl<'src> TokStream<'src> {
    /// Lexes `src` into a stream.
    pub fn new(src: &'src str) -> Result<TokStream<'src>> {
        Ok(TokStream { toks: tokenize(src)?, pos: 0 })
    }

    /// The current token.
    pub(crate) fn peek(&self) -> Tok<'src> {
        self.toks[self.pos].tok
    }

    /// Position of the current token.
    pub(crate) fn pos(&self) -> (u32, u32) {
        (self.toks[self.pos].line, self.toks[self.pos].col)
    }

    /// Consumes and returns the current token.
    #[allow(clippy::should_implement_trait)] // parser cursor, not an Iterator
    pub fn next(&mut self) -> Tok<'src> {
        let t = self.toks[self.pos].tok;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    /// Errors at the current position.
    pub(crate) fn error(&self, msg: impl Into<String>) -> ParseError {
        let (line, col) = self.pos();
        ParseError::at(msg, line, col)
    }

    /// "expected `what`, found <the current token>", at that token. The
    /// `expect_*` helpers (and a parser matching on [`TokStream::peek`])
    /// build it *before* consuming, so a diagnostic points at the
    /// offending token, not at the one after it.
    pub(crate) fn expected(&self, what: impl std::fmt::Display) -> ParseError {
        self.error(format!("expected {what}, found {}", self.peek().describe()))
    }

    /// Consumes an identifier or fails.
    pub(crate) fn expect_ident(&mut self, what: &str) -> Result<&'src str> {
        match self.peek() {
            Tok::Ident(s) => {
                self.next();
                Ok(s)
            }
            _ => Err(self.expected(what)),
        }
    }

    /// Consumes a number or fails.
    pub(crate) fn expect_num(&mut self) -> Result<u64> {
        match self.peek() {
            Tok::Num(n) => {
                self.next();
                Ok(n)
            }
            _ => Err(self.expected("number")),
        }
    }

    /// Consumes a specific punctuation character or fails.
    pub(crate) fn expect_punct(&mut self, c: char) -> Result<()> {
        if self.eat_punct(c) {
            Ok(())
        } else {
            Err(self.expected(format_args!("`{c}`")))
        }
    }

    /// Consumes the given punctuation if present; returns whether it did.
    pub(crate) fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Tok::Punct(c) {
            self.next();
            true
        } else {
            false
        }
    }

    /// Consumes the given keyword if present; returns whether it did.
    pub(crate) fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek() == Tok::Ident(kw) {
            self.next();
            true
        } else {
            false
        }
    }

    /// Consumes a specific keyword or fails.
    pub(crate) fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.expected(format_args!("`{kw}`")))
        }
    }

    /// True at end of input.
    pub(crate) fn at_eof(&self) -> bool {
        self.peek() == Tok::Eof
    }
}

/// The owning tokenizer this module had before tokens borrowed from the
/// source, kept verbatim as the oracle the borrowing one is compared
/// against — here on random token soup, and by each front-end's tests on
/// its own fixtures.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::diag::ParseError;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) enum OwnedTok {
        Ident(String),
        Num(u64),
        Punct(char),
        Eof,
    }

    pub(crate) type OwnedSpanned = (OwnedTok, u32, u32);

    pub(crate) fn tokenize_owning(src: &str) -> Result<Vec<OwnedSpanned>, ParseError> {
        let mut out = Vec::new();
        let bytes = src.as_bytes();
        let mut i = 0;
        let mut line: u32 = 1;
        let mut col: u32 = 1;

        macro_rules! bump {
            () => {{
                if bytes[i] == b'\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
                i += 1;
            }};
        }

        while i < bytes.len() {
            let c = bytes[i] as char;
            if c.is_ascii_whitespace() {
                bump!();
                continue;
            }
            if c == '#' || c == '%' || (c == '/' && bytes.get(i + 1) == Some(&b'/')) {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!();
                }
                continue;
            }
            if c == '/' && bytes.get(i + 1) == Some(&b'*') {
                let (sl, sc) = (line, col);
                bump!();
                bump!();
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(ParseError::at("unterminated block comment", sl, sc));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        bump!();
                        bump!();
                        break;
                    }
                    bump!();
                }
                continue;
            }
            if c.is_ascii_alphabetic() || c == '_' {
                let (sl, sc) = (line, col);
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    bump!();
                }
                out.push((OwnedTok::Ident(src[start..i].to_owned()), sl, sc));
                continue;
            }
            if c.is_ascii_digit() {
                let (sl, sc) = (line, col);
                let start = i;
                if c == '0' && matches!(bytes.get(i + 1), Some(b'x') | Some(b'X')) {
                    bump!();
                    bump!();
                    while i < bytes.len() && (bytes[i] as char).is_ascii_hexdigit() {
                        bump!();
                    }
                    let v = u64::from_str_radix(&src[start + 2..i], 16)
                        .map_err(|_| ParseError::at("invalid hex literal", sl, sc))?;
                    out.push((OwnedTok::Num(v), sl, sc));
                } else {
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        bump!();
                    }
                    let v = src[start..i]
                        .parse::<u64>()
                        .map_err(|_| ParseError::at("integer literal too large", sl, sc))?;
                    out.push((OwnedTok::Num(v), sl, sc));
                }
                continue;
            }
            if "{}()[]<>;,:=*.-".contains(c) {
                out.push((OwnedTok::Punct(c), line, col));
                bump!();
                continue;
            }
            return Err(ParseError::at(format!("unexpected character `{c}`"), line, col));
        }
        out.push((OwnedTok::Eof, line, col));
        Ok(out)
    }

    /// Asserts the borrowing tokenizer yields, for `src`, the oracle's
    /// (kind, text, line, col) sequence — or the oracle's error.
    pub(crate) fn assert_lexes_alike(src: &str) {
        let borrowed = super::tokenize(src).map(|toks| {
            toks.into_iter()
                .map(|s| {
                    let tok = match s.tok {
                        super::Tok::Ident(text) => OwnedTok::Ident(text.to_owned()),
                        super::Tok::Num(n) => OwnedTok::Num(n),
                        super::Tok::Punct(c) => OwnedTok::Punct(c),
                        super::Tok::Eof => OwnedTok::Eof,
                    };
                    (tok, s.line, s.col)
                })
                .collect::<Vec<OwnedSpanned>>()
        });
        assert_eq!(borrowed, tokenize_owning(src), "source: {src:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        tokenize(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("interface Foo { void f(in string s); };"),
            vec![
                Tok::Ident("interface"),
                Tok::Ident("Foo"),
                Tok::Punct('{'),
                Tok::Ident("void"),
                Tok::Ident("f"),
                Tok::Punct('('),
                Tok::Ident("in"),
                Tok::Ident("string"),
                Tok::Ident("s"),
                Tok::Punct(')'),
                Tok::Punct(';'),
                Tok::Punct('}'),
                Tok::Punct(';'),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn numbers_decimal_and_hex() {
        assert_eq!(toks("42 0x2A 0"), vec![Tok::Num(42), Tok::Num(42), Tok::Num(0), Tok::Eof]);
    }

    #[test]
    fn comments_skipped() {
        let src = "a // line\n b /* block\n over lines */ c # cpp\n % passthrough\n d";
        assert_eq!(
            toks(src),
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Ident("c"), Tok::Ident("d"), Tok::Eof]
        );
    }

    #[test]
    fn unterminated_comment_reported() {
        let err = tokenize("x /* nope").unwrap_err();
        assert!(err.msg.contains("unterminated"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn positions_tracked() {
        let s = tokenize("ab\n  cd").unwrap();
        assert_eq!((s[0].line, s[0].col), (1, 1));
        assert_eq!((s[1].line, s[1].col), (2, 3));
    }

    #[test]
    fn unexpected_char_reported() {
        let err = tokenize("a @ b").unwrap_err();
        assert!(err.msg.contains('@'));
        assert_eq!(err.col, 3);
    }

    #[test]
    fn stream_helpers() {
        let mut ts = TokStream::new("foo ( 7 ) ;").unwrap();
        assert_eq!(ts.expect_ident("name").unwrap(), "foo");
        ts.expect_punct('(').unwrap();
        assert_eq!(ts.expect_num().unwrap(), 7);
        ts.expect_punct(')').unwrap();
        assert!(ts.eat_punct(';'));
        assert!(ts.at_eof());
        // Errors at EOF don't panic and describe the situation.
        assert!(ts.expect_num().is_err());
    }

    #[test]
    fn keyword_helpers() {
        let mut ts = TokStream::new("unsigned long x").unwrap();
        assert!(ts.eat_kw("unsigned"));
        assert!(!ts.eat_kw("short"));
        ts.expect_kw("long").unwrap();
        assert_eq!(ts.expect_ident("name").unwrap(), "x");
    }

    #[test]
    fn a_failed_expectation_consumes_nothing_and_points_at_its_token() {
        let mut ts = TokStream::new("foo\n  42 ;").unwrap();
        let err = ts.expect_num().unwrap_err();
        assert_eq!((err.line, err.col), (1, 1), "{}", err.msg);
        assert!(err.msg.contains("expected number, found `foo`"), "{}", err.msg);
        // The cursor did not move: the same token can still be taken.
        assert_eq!(ts.expect_ident("name").unwrap(), "foo");
        let err = ts.expect_ident("name").unwrap_err();
        assert_eq!((err.line, err.col), (2, 3), "{}", err.msg);
        assert_eq!(ts.expect_num().unwrap(), 42);
        let err = ts.expect_punct(',').unwrap_err();
        assert_eq!((err.line, err.col), (2, 6), "{}", err.msg);
        assert!(err.msg.contains("expected `,`, found `;`"), "{}", err.msg);
    }

    #[test]
    fn one_allocation_sized_from_the_source() {
        // Interface text lexes into the vector reserved up front.
        let src = "interface FileIO {\n    sequence<octet> read(in unsigned long count);\n};\n";
        let reserved = src.len() / 3 + 1;
        let toks = tokenize(src).unwrap();
        assert!(toks.len() <= reserved, "{} tokens, {reserved} reserved", toks.len());
        assert_eq!(toks.capacity(), reserved, "never regrown");
    }

    /// Everything the tokenizer distinguishes, valid and not: the soup
    /// generator concatenates these in random order.
    const FRAGMENTS: &[&str] = &[
        "interface",
        "x",
        "_under_score9",
        "FileIO_read",
        "A1",
        "0",
        "7",
        "42",
        "0x2A",
        "0XfF",
        "18446744073709551615",
        "18446744073709551616",
        "0x",
        "0x1FFFFFFFFFFFFFFFF",
        "9z",
        "{",
        "}",
        "(",
        ")",
        "[",
        "]",
        "<",
        ">",
        ";",
        ",",
        ":",
        "=",
        "*",
        ".",
        "-",
        " ",
        "  ",
        "\t",
        "\n",
        "\r\n",
        "\n\n",
        "// line comment\n",
        "// at end of input",
        "# cpp line\n",
        "% passthrough\n",
        "/* block */",
        "/* over\n lines */",
        "/**/",
        "/* unterminated",
        "/*/",
        "/",
        "@",
        "$",
        "\"",
        "é",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn token_soup_lexes_like_the_owning_tokenizer(
            picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..40),
        ) {
            let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            oracle::assert_lexes_alike(&src);
        }
    }

    #[test]
    fn every_fragment_alone_lexes_like_the_owning_tokenizer() {
        for fragment in FRAGMENTS {
            oracle::assert_lexes_alike(fragment);
        }
    }
}
