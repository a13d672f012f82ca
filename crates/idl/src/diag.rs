//! Parse diagnostics with source positions.

use core::fmt;

/// A parse error, pointing at a line/column of the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl ParseError {
    /// Creates an error at a position.
    pub fn at(msg: impl Into<String>, line: u32, col: u32) -> ParseError {
        ParseError { msg: msg.into(), line, col }
    }

    /// Creates an error at a position carrying a "did you mean …?" hint.
    /// The hint rides inside `msg` so every existing consumer (which only
    /// knows `msg`/`line`/`col`) renders it without changes.
    pub(crate) fn suggest(
        msg: impl Into<String>,
        hint: impl fmt::Display,
        line: u32,
        col: u32,
    ) -> ParseError {
        ParseError { msg: format!("{} — did you mean `{hint}`?", msg.into()), line, col }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_has_position() {
        let e = ParseError::at("expected `;`", 3, 14);
        assert_eq!(e.to_string(), "3:14: expected `;`");
    }

    #[test]
    fn suggestion_rides_in_the_message() {
        let e = ParseError::suggest("`[stream]` is missing its window", "[stream(N)]", 2, 9);
        assert_eq!(
            e.to_string(),
            "2:9: `[stream]` is missing its window — did you mean `[stream(N)]`?"
        );
        assert_eq!((e.line, e.col), (2, 9));
    }
}
