//! A token-level Rust lexer — just enough syntax to lint safely.
//!
//! The build environment has no crates.io access, so there is no `syn` to
//! lean on. What the rules actually need is far less than a parse tree:
//! identifiers, literals and punctuation with line numbers, with comments
//! kept *separately* (for `SAFETY:` and `lint:allow` detection) and the
//! contents of string/raw-string/char literals never mistaken for code.
//! Mis-lexing a literal is the classic false-positive source for textual
//! linters (`"HashMap"` inside a string, `//` inside a raw string), so the
//! literal forms get full treatment: escapes, raw strings with any number
//! of `#`s, byte strings, nested block comments, and the char-literal vs.
//! lifetime ambiguity.

/// One code token. Comments are not tokens; see [`Comment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line of the token's first character.
    pub line: u32,
    pub kind: TokenKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    Ident(String),
    /// Integer literal with its parsed value (suffix stripped, `_` ignored).
    Int(u128),
    /// Float or unparseable numeric literal — carried but valueless.
    Float,
    /// String / raw-string / byte-string literal (contents are not kept).
    Str,
    /// Char or byte-char literal.
    Char,
    /// Lifetime or loop label (`'a`, `'scope`).
    Lifetime,
    /// Punctuation; multi-char operators (`::`, `<<`, `>>`, …) are joined.
    Punct(&'static str),
    /// Punctuation not in the joined-operator table.
    OtherPunct(char),
}

/// One comment (line or block). A `///` doc comment is a comment too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (same as `line` for `//`).
    pub end_line: u32,
    /// Text without the delimiters, trimmed.
    pub text: String,
}

/// Lexer output: the token stream plus the comment side channel.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Multi-char operators joined into a single [`TokenKind::Punct`], longest
/// first so `<<=` wins over `<<`.
const JOINED: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "<<", ">>", "->", "=>", "&&", "||", "==", "!=", "<=", ">=",
    "+=", "-=", "*=", "/=", "%=", "^=", "|=", "&=", "..",
];

pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    let at = |i: usize| chars.get(i).copied();

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if at(i + 1) == Some('/') => {
                let start = i + 2;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                out.comments.push(Comment {
                    line,
                    end_line: line,
                    text: text.trim().to_string(),
                });
            }
            '/' if at(i + 1) == Some('*') => {
                let start_line = line;
                let start = i + 2;
                i += 2;
                let mut depth = 1usize;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && at(i + 1) == Some('*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && at(i + 1) == Some('/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let end = i.saturating_sub(2).max(start);
                let text: String = chars[start..end].iter().collect();
                out.comments.push(Comment {
                    line: start_line,
                    end_line: line,
                    text: text.trim().to_string(),
                });
            }
            '"' => {
                let (ni, nl) = lex_string(&chars, i, line);
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Str,
                });
                i = ni;
                line = nl;
            }
            'r' | 'b' if starts_raw_or_byte_string(&chars, i) => {
                let (kind, ni, nl) = lex_prefixed_literal(&chars, i, line);
                out.tokens.push(Token { line, kind });
                i = ni;
                line = nl;
            }
            '\'' => {
                let (kind, ni, nl) = lex_quote(&chars, i, line);
                out.tokens.push(Token { line, kind });
                i = ni;
                line = nl;
            }
            c if c.is_ascii_digit() => {
                let (kind, ni) = lex_number(&chars, i);
                out.tokens.push(Token { line, kind });
                i = ni;
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let ident: String = chars[start..i].iter().collect();
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Ident(ident),
                });
            }
            _ => {
                if let Some(op) = JOINED
                    .iter()
                    .find(|op| chars[i..].iter().take(op.len()).collect::<String>() == **op)
                {
                    out.tokens.push(Token {
                        line,
                        kind: TokenKind::Punct(op),
                    });
                    i += op.len();
                } else {
                    let kind = match c {
                        '(' | ')' | '[' | ']' | '{' | '}' | ';' | ',' | ':' | '.' | '&' | '|'
                        | '^' | '!' | '<' | '>' | '=' | '+' | '-' | '*' | '/' | '%' | '#' | '?'
                        | '@' | '$' | '~' => TokenKind::Punct(single_punct(c)),
                        other => TokenKind::OtherPunct(other),
                    };
                    out.tokens.push(Token { line, kind });
                    i += 1;
                }
            }
        }
    }
    out
}

/// The `&'static str` form of a single-char punct (so rules can match on
/// one string type for both joined and single operators).
fn single_punct(c: char) -> &'static str {
    match c {
        '(' => "(",
        ')' => ")",
        '[' => "[",
        ']' => "]",
        '{' => "{",
        '}' => "}",
        ';' => ";",
        ',' => ",",
        ':' => ":",
        '.' => ".",
        '&' => "&",
        '|' => "|",
        '^' => "^",
        '!' => "!",
        '<' => "<",
        '>' => ">",
        '=' => "=",
        '+' => "+",
        '-' => "-",
        '*' => "*",
        '/' => "/",
        '%' => "%",
        '#' => "#",
        '?' => "?",
        '@' => "@",
        '$' => "$",
        '~' => "~",
        _ => unreachable!("not a single punct"),
    }
}

/// Does position `i` (at `r` or `b`) start a raw string, byte string or raw
/// ident — anything needing prefixed-literal handling?
fn starts_raw_or_byte_string(chars: &[char], i: usize) -> bool {
    let at = |k: usize| chars.get(k).copied();
    match chars[i] {
        'r' => matches!(at(i + 1), Some('"') | Some('#')),
        'b' => match at(i + 1) {
            Some('"') | Some('\'') => true,
            Some('r') => matches!(at(i + 2), Some('"') | Some('#')),
            _ => false,
        },
        _ => false,
    }
}

/// Lex a literal starting with `r`/`b`: raw strings (`r"…"`, `r#"…"#`),
/// byte strings (`b"…"`, `br#"…"#`), byte chars (`b'…'`) and raw idents
/// (`r#ident`). Returns (kind, next index, next line).
fn lex_prefixed_literal(chars: &[char], mut i: usize, mut line: u32) -> (TokenKind, usize, u32) {
    let at = |k: usize| chars.get(k).copied();
    let mut raw = false;
    if chars[i] == 'b' {
        i += 1;
        if at(i) == Some('\'') {
            let (kind, ni, nl) = lex_quote(chars, i, line);
            debug_assert_eq!(kind, TokenKind::Char);
            return (TokenKind::Char, ni, nl);
        }
    }
    if at(i) == Some('r') {
        raw = true;
        i += 1;
    }
    if raw {
        let mut hashes = 0usize;
        while at(i) == Some('#') {
            hashes += 1;
            i += 1;
        }
        if at(i) != Some('"') {
            // `r#ident` raw identifier: rewind conceptually and lex the word.
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            return (TokenKind::Ident(ident), i, line);
        }
        i += 1; // opening quote
        loop {
            match at(i) {
                None => break,
                Some('\n') => {
                    line += 1;
                    i += 1;
                }
                Some('"') => {
                    let mut k = 0usize;
                    while k < hashes && at(i + 1 + k) == Some('#') {
                        k += 1;
                    }
                    if k == hashes {
                        return (TokenKind::Str, i + 1 + hashes, line);
                    }
                    i += 1;
                }
                Some(_) => i += 1,
            }
        }
        (TokenKind::Str, chars.len(), line)
    } else {
        // plain byte string b"…"
        let (ni, nl) = lex_string(chars, i, line);
        (TokenKind::Str, ni, nl)
    }
}

/// Skip a `"…"` string with escapes, starting at the opening quote.
/// Returns (next index, next line).
fn lex_string(chars: &[char], mut i: usize, mut line: u32) -> (usize, u32) {
    debug_assert_eq!(chars[i], '"');
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                if chars.get(i + 1) == Some(&'\n') {
                    line += 1;
                }
                i = (i + 2).min(chars.len());
            }
            '"' => return (i + 1, line),
            '\n' => {
                line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (i, line)
}

/// Lex from a `'`: either a char literal or a lifetime/label.
fn lex_quote(chars: &[char], i: usize, line: u32) -> (TokenKind, usize, u32) {
    let at = |k: usize| chars.get(k).copied();
    debug_assert_eq!(chars[i], '\'');
    match at(i + 1) {
        Some('\\') => {
            // Escaped char literal. The opening escape spans chars[i+1]
            // (the backslash) and chars[i+2] (the escaped char, itself
            // possibly `'` or `\`), so the close scan starts at i+3.
            let mut j = i + 3;
            let mut nl = line;
            while j < chars.len() {
                if chars[j] == '\\' {
                    j += 2;
                } else if chars[j] == '\'' {
                    return (TokenKind::Char, j + 1, nl);
                } else {
                    if chars[j] == '\n' {
                        nl += 1;
                    }
                    j += 1;
                }
            }
            (TokenKind::Char, chars.len(), nl)
        }
        Some(c) if (c.is_alphanumeric() || c == '_') && at(i + 2) != Some('\'') => {
            // Lifetime or label: consume the identifier.
            let mut j = i + 1;
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            (TokenKind::Lifetime, j, line)
        }
        Some(_) if at(i + 2) == Some('\'') => (TokenKind::Char, i + 3, line),
        _ => (TokenKind::OtherPunct('\''), i + 1, line),
    }
}

/// Lex a numeric literal; integer values are parsed (any radix, `_`
/// separators, type suffix stripped), floats are carried without a value.
fn lex_number(chars: &[char], mut i: usize) -> (TokenKind, usize) {
    let at = |k: usize| chars.get(k).copied();
    let start = i;
    let (radix, digits_start) = if chars[i] == '0' {
        match at(i + 1) {
            Some('x') | Some('X') => (16, i + 2),
            Some('o') | Some('O') => (8, i + 2),
            Some('b') | Some('B') => (2, i + 2),
            _ => (10, i),
        }
    } else {
        (10, i)
    };
    i = digits_start;
    let mut is_float = false;
    while i < chars.len() {
        let c = chars[i];
        if c.is_digit(radix) || c == '_' {
            i += 1;
        } else if radix == 10 && c == '.' && at(i + 1).map(|d| d.is_ascii_digit()) == Some(true) {
            is_float = true;
            i += 1;
        } else if radix == 10 && (c == 'e' || c == 'E') && !is_float {
            // Exponent only if followed by digits/sign — `0xE8` never lands
            // here (radix 16 consumed it as a hex digit).
            match at(i + 1) {
                Some(d) if d.is_ascii_digit() => {
                    is_float = true;
                    i += 1;
                }
                Some('+') | Some('-') if at(i + 2).map(|d| d.is_ascii_digit()) == Some(true) => {
                    is_float = true;
                    i += 2;
                }
                _ => break,
            }
        } else if c.is_alphanumeric() {
            // Type suffix (u64, f32, usize, …): consume and stop digits.
            i += 1;
        } else {
            break;
        }
    }
    if is_float {
        return (TokenKind::Float, i);
    }
    // Split digits from any suffix: take chars valid in this radix.
    let body: String = chars[digits_start..i]
        .iter()
        .take_while(|c| c.is_digit(radix) || **c == '_')
        .filter(|c| **c != '_')
        .collect();
    let body = if body.is_empty() {
        // e.g. a bare `0` before a suffix-less break, or `0x` malformed.
        chars[start..i]
            .iter()
            .filter(|c| c.is_ascii_digit())
            .collect()
    } else {
        body
    };
    match u128::from_str_radix(&body, radix) {
        Ok(v) => (TokenKind::Int(v), i),
        Err(_) => (TokenKind::Float, i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(lexed: &Lexed) -> Vec<&str> {
        lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn raw_string_containing_line_comment_is_not_a_comment() {
        let src = r##"let s = r#"not // a comment"#; let x = HashMap;"##;
        let lexed = lex(src);
        assert!(lexed.comments.is_empty(), "{:?}", lexed.comments);
        // The literal is one token; the code after it lexes normally.
        assert_eq!(idents(&lexed), vec!["let", "s", "let", "x", "HashMap"]);
        let strs = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .count();
        assert_eq!(strs, 1);
    }

    #[test]
    fn plain_string_hides_idents_and_slashes() {
        let src = "let s = \"Instant::now // HashMap\"; foo();";
        let lexed = lex(src);
        assert_eq!(idents(&lexed), vec!["let", "s", "foo"]);
        assert!(lexed.comments.is_empty());
    }

    #[test]
    fn nested_block_comments_close_at_the_right_depth() {
        let src = "a /* outer /* inner */ still comment */ b";
        let lexed = lex(src);
        assert_eq!(idents(&lexed), vec!["a", "b"]);
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("inner"));
    }

    #[test]
    fn block_comment_tracks_end_line() {
        let src = "/* one\ntwo\nthree */ unsafe";
        let lexed = lex(src);
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[0].end_line, 3);
        assert_eq!(lexed.tokens[0].line, 3);
    }

    #[test]
    fn char_literals_are_not_lifetimes_and_vice_versa() {
        let src = "let c = 'a'; let n = '\\n'; fn f<'scope>(x: &'scope str) {} 'label: loop {}";
        let lexed = lex(src);
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .count();
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        assert_eq!(chars, 2);
        assert_eq!(lifetimes, 3);
    }

    #[test]
    fn quote_char_literal_does_not_eat_the_rest_of_the_file() {
        let src = "let q = '\\''; HashMap";
        let lexed = lex(src);
        assert!(idents(&lexed).contains(&"HashMap"));
    }

    #[test]
    fn numbers_parse_across_radixes_suffixes_and_separators() {
        let src = "0x7F 0xFF00 1_000 42u64 0b1010 1.5 1e9 0x40_0000";
        let lexed = lex(src);
        let ints: Vec<u128> = lexed
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::Int(v) => Some(v),
                _ => None,
            })
            .collect();
        assert_eq!(ints, vec![0x7F, 0xFF00, 1000, 42, 10, 0x40_0000]);
        let floats = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Float)
            .count();
        assert_eq!(floats, 2);
    }

    #[test]
    fn shift_and_path_operators_are_joined() {
        let src = "a::b << 8 >> 2 <<= 1";
        let lexed = lex(src);
        let puncts: Vec<&str> = lexed
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::Punct(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(puncts, vec!["::", "<<", ">>", "<<="]);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"one\ntwo\";\nHashMap";
        let lexed = lex(src);
        let hm = lexed
            .tokens
            .iter()
            .find(|t| matches!(&t.kind, TokenKind::Ident(s) if s == "HashMap"))
            .unwrap();
        assert_eq!(hm.line, 3);
    }
}
