//! A small, honest Rust lexer.
//!
//! The audit rules match *token* sequences, never raw text, so `Instant::now`
//! inside a string literal, a doc comment, or a `#[doc]` attribute can never
//! produce a finding. The lexer understands exactly as much Rust as that
//! guarantee requires: line and nested block comments, string/raw-string/byte
//! string literals with escapes, char literals vs. lifetimes, raw identifiers,
//! and numeric literals. Everything else is a single-character punctuation
//! token. It never fails: unterminated literals lex to end-of-file, which is
//! the most useful behaviour for a linter pointed at in-progress code.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Identifier or keyword (`fn`, `unsafe`, `Instant`, `r#type`, …).
    Ident,
    /// Single punctuation character (`:`, `(`, `{`, `#`, …).
    Punct,
    /// Numeric literal (`42`, `0xBEEF`, `1.5e3`, …).
    Num,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime or loop label (`'a`, `'static`, `'_`).
    Lifetime,
    /// `// …` comment, doc comments included. Text keeps the slashes.
    LineComment,
    /// `/* … */` comment, nesting respected. Text keeps the delimiters.
    BlockComment,
}

/// One lexed token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub(crate) struct Token {
    pub kind: Kind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Token {
    /// True for comment tokens of either flavour.
    pub(crate) fn is_comment(&self) -> bool {
        matches!(self.kind, Kind::LineComment | Kind::BlockComment)
    }
}

/// Cursor state shared by the sub-lexers.
struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Consume one char, maintaining the line/column counters.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consume chars while `keep` holds, returning the consumed text.
    fn bump_while(&mut self, keep: impl Fn(char) -> bool) -> String {
        let mut out = String::new();
        while let Some(c) = self.peek(0) {
            if !keep(c) {
                break;
            }
            out.push(c);
            self.bump();
        }
        out
    }

    /// Consume the body of a quoted literal (after the opening quote), honouring
    /// backslash escapes, through the closing `quote` (or end of file).
    fn bump_quoted(&mut self, quote: char, out: &mut String) {
        while let Some(c) = self.bump() {
            out.push(c);
            if c == '\\' {
                if let Some(escaped) = self.bump() {
                    out.push(escaped);
                }
            } else if c == quote {
                return;
            }
        }
    }

    /// Consume a raw string body at the current position: `#…#"…"#…#` with
    /// `hashes` leading hashes already counted but not consumed.
    fn bump_raw_string(&mut self, out: &mut String) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            out.push('#');
            self.bump();
        }
        if self.peek(0) != Some('"') {
            return; // `r#ident` was mis-routed here; caller prevents this.
        }
        out.push('"');
        self.bump();
        // The body ends at `"` followed by `hashes` hashes.
        while let Some(c) = self.bump() {
            out.push(c);
            if c == '"' {
                let mut seen = 0usize;
                while seen < hashes && self.peek(0) == Some('#') {
                    seen += 1;
                    out.push('#');
                    self.bump();
                }
                if seen == hashes {
                    return;
                }
            }
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into a token stream, comments included.
pub(crate) fn lex(src: &str) -> Vec<Token> {
    let mut lx = Lexer {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut toks = Vec::new();
    while let Some(c) = lx.peek(0) {
        if c.is_whitespace() {
            lx.bump();
            continue;
        }
        let (line, col) = (lx.line, lx.col);
        let mut push = |kind: Kind, text: String| {
            toks.push(Token {
                kind,
                text,
                line,
                col,
            })
        };

        // Comments.
        if c == '/' && lx.peek(1) == Some('/') {
            let text = lx.bump_while(|c| c != '\n');
            push(Kind::LineComment, text);
            continue;
        }
        if c == '/' && lx.peek(1) == Some('*') {
            let mut text = String::from("/*");
            lx.bump();
            lx.bump();
            let mut depth = 1usize;
            while depth > 0 {
                match (lx.peek(0), lx.peek(1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        text.push_str("/*");
                        lx.bump();
                        lx.bump();
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        text.push_str("*/");
                        lx.bump();
                        lx.bump();
                    }
                    (Some(_), _) => {
                        if let Some(inner) = lx.bump() {
                            text.push(inner);
                        }
                    }
                    (None, _) => break,
                }
            }
            push(Kind::BlockComment, text);
            continue;
        }

        // Raw strings / raw identifiers: `r"…"`, `r#"…"#`, `r#ident`.
        if c == 'r' && matches!(lx.peek(1), Some('"') | Some('#')) {
            if lx.peek(1) == Some('#') && lx.peek(2).is_some_and(is_ident_start) {
                // Raw identifier `r#type`: lex as a plain identifier without the prefix.
                lx.bump();
                lx.bump();
                let name = lx.bump_while(is_ident_continue);
                push(Kind::Ident, name);
                continue;
            }
            let mut text = String::from("r");
            lx.bump();
            lx.bump_raw_string(&mut text);
            push(Kind::Str, text);
            continue;
        }
        // Byte strings and byte chars: `b"…"`, `br#"…"#`, `b'x'`.
        if c == 'b' {
            match (lx.peek(1), lx.peek(2)) {
                (Some('"'), _) => {
                    let mut text = String::from("b\"");
                    lx.bump();
                    lx.bump();
                    lx.bump_quoted('"', &mut text);
                    push(Kind::Str, text);
                    continue;
                }
                (Some('r'), Some('"')) | (Some('r'), Some('#')) => {
                    let mut text = String::from("br");
                    lx.bump();
                    lx.bump();
                    lx.bump_raw_string(&mut text);
                    push(Kind::Str, text);
                    continue;
                }
                (Some('\''), _) => {
                    let mut text = String::from("b'");
                    lx.bump();
                    lx.bump();
                    lx.bump_quoted('\'', &mut text);
                    push(Kind::Char, text);
                    continue;
                }
                _ => {}
            }
        }

        if is_ident_start(c) {
            let text = lx.bump_while(is_ident_continue);
            push(Kind::Ident, text);
            continue;
        }
        if c.is_ascii_digit() {
            let mut text = lx.bump_while(is_ident_continue);
            // A fractional part: `.` followed by a digit (so `x.0.iter()` and
            // `0..n` keep their dots as punctuation).
            if lx.peek(0) == Some('.') && lx.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                text.push('.');
                lx.bump();
                text.push_str(&lx.bump_while(is_ident_continue));
            }
            push(Kind::Num, text);
            continue;
        }
        if c == '"' {
            let mut text = String::from("\"");
            lx.bump();
            lx.bump_quoted('"', &mut text);
            push(Kind::Str, text);
            continue;
        }
        if c == '\'' {
            // Disambiguate char literal from lifetime/label: an escape or a
            // `'x'` shape is a char, everything else is a lifetime.
            let is_char = lx.peek(1) == Some('\\')
                || (lx.peek(1).is_some_and(|n| n != '\'') && lx.peek(2) == Some('\''));
            if is_char {
                let mut text = String::from("'");
                lx.bump();
                lx.bump_quoted('\'', &mut text);
                push(Kind::Char, text);
            } else {
                lx.bump();
                let name = lx.bump_while(is_ident_continue);
                push(Kind::Lifetime, format!("'{name}"));
            }
            continue;
        }
        // Everything else is single-character punctuation.
        lx.bump();
        push(Kind::Punct, c.to_string());
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(Kind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("fn now() { Instant::now() }");
        assert_eq!(toks[0], (Kind::Ident, "fn".into()));
        assert_eq!(toks[1], (Kind::Ident, "now".into()));
        assert!(toks.contains(&(Kind::Ident, "Instant".into())));
        assert_eq!(
            toks.iter()
                .filter(|(k, t)| *k == Kind::Punct && t == ":")
                .count(),
            2
        );
    }

    #[test]
    fn strings_hide_their_contents_from_ident_matching() {
        let toks = kinds(r##"let s = "Instant::now()"; let r = r#"SystemTime::now()"# ;"##);
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == Kind::Ident && t == "Instant"));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == Kind::Ident && t == "SystemTime"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Str).count(), 2);
    }

    #[test]
    fn comments_are_tokens_not_code() {
        let toks = kinds("// Instant::now()\n/* SystemTime::now() */ let x = 1;");
        assert_eq!(toks[0].0, Kind::LineComment);
        assert_eq!(toks[1].0, Kind::BlockComment);
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == Kind::Ident && t == "Instant"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still outer */ x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], (Kind::Ident, "x".into()));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let toks = kinds(r"let c = 'a'; let e = '\n'; fn f<'a>(x: &'a str) {} 'outer: loop {}");
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Char).count(), 2);
        assert_eq!(
            toks.iter()
                .filter(|(k, t)| *k == Kind::Lifetime && t == "'a")
                .count(),
            2
        );
        assert!(toks.contains(&(Kind::Lifetime, "'outer".into())));
    }

    #[test]
    fn byte_strings_and_raw_idents() {
        let toks = kinds(r##"let b = b"bytes"; let c = b'\n'; let r#type = 1;"##);
        assert!(toks.contains(&(Kind::Str, "b\"bytes\"".into())));
        assert!(toks.contains(&(Kind::Ident, "type".into())));
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Char).count(), 1);
    }

    #[test]
    fn numbers_do_not_swallow_method_calls() {
        let toks = kinds("x.0.iter(); 0..n; 1.5e3;");
        assert!(toks.contains(&(Kind::Ident, "iter".into())));
        assert!(toks.contains(&(Kind::Num, "0".into())));
        assert!(toks.contains(&(Kind::Num, "1.5e3".into())));
    }

    #[test]
    fn positions_are_one_based_lines_and_columns() {
        let toks = lex("a\n  b");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn unterminated_literals_lex_to_eof_without_panicking() {
        for src in ["\"open", "r#\"open", "'", "/* open", "b\"open"] {
            let _ = lex(src);
        }
    }
}
