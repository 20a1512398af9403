//! A lightweight item/body parser on top of the token stream.
//!
//! The P1 panic-path audit needs more than token patterns but far less
//! than a parse tree: which functions exist, which type each method
//! belongs to, whether it takes `self`, and a flat summary of what each
//! body *does* — calls, method calls, and indexing sites. No expression
//! grammar: bodies are reduced to those op sequences, closures are
//! attributed to their enclosing function, and macro invocations stay
//! opaque (their argument tokens are still scanned, which errs on the side
//! of reporting).
//!
//! Test code is invisible to the model: `#[cfg(test)]` modules and
//! `#[test]` functions are skipped entirely, so unwraps in tests never
//! enter the P1 call graph and fixture helpers never shadow model methods.

use crate::lexer::{Token, TokenKind};

/// One function or method, with its body reduced to a [`BodyOp`] list.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Last path segment of the impl target type; `None` for free
    /// functions. Trait definitions use the trait's own name.
    pub self_ty: Option<String>,
    /// Signature takes any flavor of `self`.
    pub has_self: bool,
    pub ops: Vec<BodyOp>,
}

/// Receiver root of a method call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `self.m(…)`.
    SelfDirect,
    /// Anything else (`self.field.m(…)`, `x.m(…)`, `f().m(…)`, …).
    Other,
}

/// One reduced body operation.
#[derive(Debug, Clone)]
pub enum BodyOp {
    /// Free or associated call: `foo(…)` → `["foo"]`,
    /// `survey::mix_seed(…)` → `["survey", "mix_seed"]`.
    Call { path: Vec<String>, line: u32 },
    /// `.name(…)` method call.
    Method { name: String, recv: Recv, line: u32 },
    /// A postfix `expr[…]` indexing site; `arith` when the index tokens
    /// contain `+`/`-`/`*` (a computed index, the panicky kind).
    Index { arith: bool, line: u32 },
}

/// Parser output for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
}

fn as_ident(t: &Token) -> Option<&str> {
    match &t.kind {
        TokenKind::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(t: &Token, p: &str) -> bool {
    matches!(&t.kind, TokenKind::Punct(q) if *q == p)
}

/// Keywords that can directly precede a `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "fn", "where", "impl",
    "dyn", "let", "else", "break", "continue", "ref", "mut", "pub", "use", "crate", "super",
];

/// Parse a whole file's token stream into items.
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    parse_items(tokens, 0, tokens.len(), None, &mut out);
    out
}

/// Skip a balanced token group opening at `i` (which must sit on the open
/// punct). Returns the index just past the matching close.
fn skip_balanced(tokens: &[Token], i: usize, open: &str, close: &str) -> usize {
    debug_assert!(is_punct(&tokens[i], open));
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        if is_punct(&tokens[j], open) {
            depth += 1;
        } else if is_punct(&tokens[j], close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// Skip generic params starting at a `<`, treating the joined `<<`/`>>`
/// tokens as two opens/closes. Returns the index just past the final `>`.
fn skip_generics(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        let t = &tokens[j];
        if is_punct(t, "<") {
            depth += 1;
        } else if is_punct(t, "<<") {
            depth += 2;
        } else if is_punct(t, ">") {
            depth -= 1;
        } else if is_punct(t, ">>") {
            depth -= 2;
        } else if is_punct(t, "->") || is_punct(t, ">=") || is_punct(t, ">>=") {
            // `Fn() -> T` inside bounds; comparison ops cannot appear in
            // generic position in the code this parser targets.
        }
        j += 1;
        if depth <= 0 {
            return j;
        }
    }
    tokens.len()
}

/// Whether index tokens `tokens[lo..hi]` contain binary arithmetic. `*`
/// and `-` count only when preceded by an operand (identifier, literal,
/// `)`, `]`): a leading `*` is a deref and a leading `-` a negation, and
/// `v[*i]` is a plain lookup, not a computed index.
fn index_arith(tokens: &[Token], lo: usize, hi: usize) -> bool {
    (lo..hi.min(tokens.len())).any(|k| {
        let t = &tokens[k];
        (is_punct(t, "+") || is_punct(t, "-") || is_punct(t, "*"))
            && k > lo
            && (matches!(&tokens[k - 1].kind, TokenKind::Ident(_) | TokenKind::Int(_))
                || is_punct(&tokens[k - 1], ")")
                || is_punct(&tokens[k - 1], "]"))
    })
}

/// Parse items in `tokens[start..end]`. `self_ty` is set when inside an
/// `impl` (or trait) block.
fn parse_items(
    tokens: &[Token],
    start: usize,
    end: usize,
    self_ty: Option<&str>,
    out: &mut ParsedFile,
) {
    let mut i = start;
    // Set when the most recent attribute batch mentioned `test`
    // (`#[test]`, `#[cfg(test)]`); the next item is then skipped.
    let mut pending_test = false;
    while i < end {
        let t = &tokens[i];
        if is_punct(t, "#") {
            // Attribute: `#[…]` or `#![…]`.
            let mut j = i + 1;
            if j < end && is_punct(&tokens[j], "!") {
                j += 1;
            }
            if j < end && is_punct(&tokens[j], "[") {
                let close = skip_balanced(tokens, j, "[", "]");
                if tokens[j..close].iter().any(|t| as_ident(t) == Some("test")) {
                    pending_test = true;
                }
                i = close;
            } else {
                i += 1;
            }
            continue;
        }
        let Some(word) = as_ident(t) else {
            i += 1;
            continue;
        };
        match word {
            "macro_rules" if i + 1 < end && is_punct(&tokens[i + 1], "!") => {
                // A macro definition's body is token soup, not items —
                // skip `macro_rules ! name { … }` wholesale so rule arms
                // that merely *look* like fns don't enter the model.
                let mut j = i + 2;
                while j < end && !is_punct(&tokens[j], "{") {
                    j += 1;
                }
                i = if j < end {
                    skip_balanced(tokens, j, "{", "}")
                } else {
                    j
                };
                pending_test = false;
            }
            "impl" if !pending_test => {
                // `impl [<…>] Path [for Path] [where …] { items }`
                let mut j = i + 1;
                if j < end && is_punct(&tokens[j], "<") {
                    j = skip_generics(tokens, j);
                }
                let (mut first, mut second): (Option<String>, Option<String>) = (None, None);
                let mut saw_for = false;
                while j < end && !is_punct(&tokens[j], "{") {
                    if is_punct(&tokens[j], "<") {
                        j = skip_generics(tokens, j);
                        continue;
                    }
                    match as_ident(&tokens[j]) {
                        Some("for") => saw_for = true,
                        Some("where") => {
                            // Bounds cannot contain `{`; scan to the body.
                            while j < end && !is_punct(&tokens[j], "{") {
                                j += 1;
                            }
                            break;
                        }
                        Some(seg) => {
                            let slot = if saw_for { &mut second } else { &mut first };
                            *slot = Some(seg.to_string());
                        }
                        None => {}
                    }
                    j += 1;
                }
                if j < end && is_punct(&tokens[j], "{") {
                    let close = skip_balanced(tokens, j, "{", "}");
                    let ty = if saw_for { second } else { first };
                    parse_items(tokens, j + 1, close - 1, ty.as_deref(), out);
                    i = close;
                } else {
                    i = j + 1;
                }
            }
            "trait" if !pending_test => {
                // Default method bodies belong to the trait's name.
                let name = tokens.get(i + 1).and_then(as_ident).map(str::to_string);
                let mut j = i + 2;
                while j < end && !is_punct(&tokens[j], "{") && !is_punct(&tokens[j], ";") {
                    if is_punct(&tokens[j], "<") {
                        j = skip_generics(tokens, j);
                    } else {
                        j += 1;
                    }
                }
                if j < end && is_punct(&tokens[j], "{") {
                    let close = skip_balanced(tokens, j, "{", "}");
                    parse_items(tokens, j + 1, close - 1, name.as_deref(), out);
                    i = close;
                } else {
                    i = j + 1;
                }
            }
            "mod" => {
                // `mod name;` or `mod name { … }`. Test modules are
                // skipped wholesale.
                let mut j = i + 2;
                while j < end && !is_punct(&tokens[j], "{") && !is_punct(&tokens[j], ";") {
                    j += 1;
                }
                if j < end && is_punct(&tokens[j], "{") {
                    let close = skip_balanced(tokens, j, "{", "}");
                    if !pending_test {
                        parse_items(tokens, j + 1, close - 1, None, out);
                    }
                    i = close;
                } else {
                    i = j + 1;
                }
                pending_test = false;
            }
            "fn" => {
                let (item, next) = parse_fn(tokens, i, end, self_ty);
                if !pending_test {
                    if let Some(f) = item {
                        out.fns.push(f);
                    }
                }
                i = next;
                pending_test = false;
            }
            "const" | "static" if tokens.get(i + 1).and_then(as_ident) != Some("fn") => {
                // `const NAME: Ty = rhs;` holds no fns: skip past the `;`
                // that ends it (a `const fn` falls through to the `fn` arm).
                let mut depth = 0i32;
                let mut j = i + 1;
                while j < end {
                    let t = &tokens[j];
                    if is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{") {
                        depth += 1;
                    } else if is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}") {
                        depth -= 1;
                    } else if depth == 0 && is_punct(t, ";") {
                        break;
                    }
                    j += 1;
                }
                i = j + 1;
                pending_test = false;
            }
            "struct" | "enum" | "union" => {
                // Skip the definition body; struct fields are extracted by
                // `model::struct_defs` which sees the whole stream.
                let mut j = i + 1;
                while j < end
                    && !is_punct(&tokens[j], "{")
                    && !is_punct(&tokens[j], ";")
                    && !is_punct(&tokens[j], "(")
                {
                    if is_punct(&tokens[j], "<") {
                        j = skip_generics(tokens, j);
                    } else {
                        j += 1;
                    }
                }
                i = if j < end && is_punct(&tokens[j], "{") {
                    skip_balanced(tokens, j, "{", "}")
                } else if j < end && is_punct(&tokens[j], "(") {
                    skip_balanced(tokens, j, "(", ")")
                } else {
                    j + 1
                };
                pending_test = false;
            }
            _ => i += 1,
        }
    }
}

/// Parse a fn item starting at the `fn` keyword. Returns the item (None
/// for bodyless declarations, which still advance) and the next index.
fn parse_fn(
    tokens: &[Token],
    i: usize,
    end: usize,
    self_ty: Option<&str>,
) -> (Option<FnItem>, usize) {
    let Some(name) = tokens.get(i + 1).and_then(as_ident) else {
        return (None, i + 1);
    };
    let mut j = i + 2;
    if j < end && is_punct(&tokens[j], "<") {
        j = skip_generics(tokens, j);
    }
    if j >= end || !is_punct(&tokens[j], "(") {
        return (None, j);
    }
    let params_end = skip_balanced(tokens, j, "(", ")");
    // A receiver is a `self` before the first `,` at paren depth 1.
    let mut has_self = false;
    let mut depth = 0i32;
    for t in &tokens[j..params_end] {
        if is_punct(t, "(") || is_punct(t, "[") {
            depth += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") {
            depth -= 1;
        } else if depth == 1 && is_punct(t, ",") {
            break;
        } else if depth == 1 && as_ident(t) == Some("self") {
            has_self = true;
            break;
        }
    }
    // Scan past return type / where clause to the body `{` or a `;`.
    let mut k = params_end;
    while k < end && !is_punct(&tokens[k], "{") && !is_punct(&tokens[k], ";") {
        if is_punct(&tokens[k], "<") {
            k = skip_generics(tokens, k);
        } else {
            k += 1;
        }
    }
    if k >= end || is_punct(&tokens[k], ";") {
        // Trait method declaration without a body.
        return (None, k + 1);
    }
    let body_end = skip_balanced(tokens, k, "{", "}");
    let mut ops = Vec::new();
    scan_body(tokens, k + 1, body_end - 1, &mut ops);
    (
        Some(FnItem {
            name: name.to_string(),
            self_ty: self_ty.map(str::to_string),
            has_self,
            ops,
        }),
        body_end,
    )
}

/// Scan a body token range into ops, appended to `out`.
fn scan_body(tokens: &[Token], start: usize, end: usize, out: &mut Vec<BodyOp>) {
    let mut j = start;
    while j < end {
        let t = &tokens[j];
        // Attribute in statement position: skip.
        if is_punct(t, "#") && j + 1 < end && is_punct(&tokens[j + 1], "[") {
            j = skip_balanced(tokens, j + 1, "[", "]");
            continue;
        }
        match as_ident(t) {
            Some("self") if j + 2 < end && is_punct(&tokens[j + 1], ".") => {
                j = scan_self_chain(tokens, j, end, out);
                continue;
            }
            Some(word) => {
                // Free/associated call: `word(` not preceded by `.`, not a
                // macro `word!(`, not a keyword.
                let prev_dot = j > start && is_punct(&tokens[j - 1], ".");
                let next = tokens.get(j + 1);
                if !prev_dot
                    && !NON_CALL_KEYWORDS.contains(&word)
                    && next.is_some_and(|n| is_punct(n, "("))
                {
                    let mut path = vec![word.to_string()];
                    let mut b = j;
                    while b >= 2 && is_punct(&tokens[b - 1], "::") {
                        if let Some(seg) = as_ident(&tokens[b - 2]) {
                            path.insert(0, seg.to_string());
                            b -= 2;
                        } else {
                            break;
                        }
                    }
                    out.push(BodyOp::Call { path, line: t.line });
                }
                j += 1;
                continue;
            }
            None => {}
        }
        // `.name(` method call on a non-self receiver.
        if is_punct(t, ".") {
            if let (Some(name_tok), Some(paren_tok)) = (tokens.get(j + 1), tokens.get(j + 2)) {
                if let Some(name) = as_ident(name_tok) {
                    if is_punct(paren_tok, "(") {
                        out.push(BodyOp::Method {
                            name: name.to_string(),
                            recv: Recv::Other,
                            line: name_tok.line,
                        });
                    }
                    j += 2;
                    continue;
                }
            }
            j += 1;
            continue;
        }
        // Postfix indexing: `ident[`, `)[`, `][`.
        if is_punct(t, "[") {
            let postfix = j > start
                && (matches!(&tokens[j - 1].kind, TokenKind::Ident(_))
                    || is_punct(&tokens[j - 1], ")")
                    || is_punct(&tokens[j - 1], "]"));
            let close = skip_balanced(tokens, j, "[", "]");
            if postfix {
                let arith = index_arith(tokens, j + 1, close - 1);
                out.push(BodyOp::Index {
                    arith,
                    line: t.line,
                });
            }
            // Scan the bracketed tokens for nested ops (calls, self uses).
            scan_body(tokens, j + 1, close - 1, out);
            j = close;
            continue;
        }
        j += 1;
    }
}

/// Scan a `self.…` chain starting at the `self` token: `self.m(` is a
/// direct method call, `self.f….m(` a method on another receiver, and
/// `self.f[…]` an indexing site. Returns the index to resume the main
/// scan at.
fn scan_self_chain(tokens: &[Token], i: usize, end: usize, out: &mut Vec<BodyOp>) -> usize {
    // First segment after `self.`.
    let seg = &tokens[i + 2];
    let (field, mut j) = match &seg.kind {
        TokenKind::Ident(s) => (s.clone(), i + 3),
        TokenKind::Int(v) => (v.to_string(), i + 3),
        _ => return i + 1,
    };
    // `self.m(` — method on self, no field involved.
    if j < end && is_punct(&tokens[j], "(") {
        out.push(BodyOp::Method {
            name: field,
            recv: Recv::SelfDirect,
            line: seg.line,
        });
        return j; // main scan proceeds into the argument list
    }
    // Walk the access chain: `.sub`, `.m(`, `[…]`.
    loop {
        if j < end && is_punct(&tokens[j], ".") {
            let Some(next) = tokens.get(j + 1) else { break };
            match &next.kind {
                TokenKind::Ident(sub) => {
                    if tokens.get(j + 2).is_some_and(|t| is_punct(t, "(")) {
                        // Method call rooted at self.field.
                        out.push(BodyOp::Method {
                            name: sub.clone(),
                            recv: Recv::Other,
                            line: next.line,
                        });
                        return j + 2; // resume inside the argument list
                    }
                    j += 2;
                    continue;
                }
                TokenKind::Int(_) => {
                    j += 2;
                    continue;
                }
                _ => break,
            }
        }
        if j < end && is_punct(&tokens[j], "[") {
            let close = skip_balanced(tokens, j, "[", "]");
            let arith = index_arith(tokens, j + 1, close.saturating_sub(1));
            out.push(BodyOp::Index {
                arith,
                line: tokens[j].line,
            });
            scan_body(tokens, j + 1, close - 1, out);
            j = close;
            continue;
        }
        break;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src).tokens)
    }

    fn fn_named<'a>(p: &'a ParsedFile, name: &str) -> &'a FnItem {
        p.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    fn fns_named<'a>(p: &'a ParsedFile, name: &str) -> Vec<&'a FnItem> {
        p.fns.iter().filter(|f| f.name == name).collect()
    }

    fn calls_method(f: &FnItem, method: &str, want: Recv) -> bool {
        f.ops.iter().any(
            |o| matches!(o, BodyOp::Method { name, recv, .. } if name == method && *recv == want),
        )
    }

    #[test]
    fn methods_get_their_impl_type_and_receiver() {
        let p = parse_src(
            "struct S { x: u32 }\n\
             impl S {\n\
                 pub fn get(&self) -> u32 { self.x }\n\
                 fn set(&mut self, v: u32) { self.x = v; self.touch(); }\n\
                 pub(crate) fn fresh() -> S { S { x: 0 } }\n\
             }\n\
             fn free(s: &mut S) { s.set(3); }",
        );
        let get = fn_named(&p, "get");
        assert_eq!(get.self_ty.as_deref(), Some("S"));
        assert!(get.has_self);
        let set = fn_named(&p, "set");
        assert!(set.has_self);
        assert!(calls_method(set, "touch", Recv::SelfDirect));
        let fresh = fn_named(&p, "fresh");
        assert!(!fresh.has_self);
        let free = fn_named(&p, "free");
        assert_eq!(free.self_ty, None);
        assert!(calls_method(free, "set", Recv::Other));
    }

    #[test]
    fn test_code_is_invisible() {
        let p = parse_src(
            "fn real() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() { x.unwrap(); }\n\
                 fn helper() {}\n\
             }\n\
             #[test]\n\
             fn standalone() {}",
        );
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn generic_impls_with_where_clauses_keep_their_type() {
        let p = parse_src(
            "impl<T: Clone + Send, const N: usize> Ring<T, N>\n\
             where\n\
                 T: std::fmt::Debug,\n\
                 [T; N]: Default,\n\
             {\n\
                 pub fn push(&mut self, v: T) { self.slots.push(v); }\n\
                 fn drain<F>(&mut self, f: F) where F: FnMut(T) -> bool { self.reset(); }\n\
             }",
        );
        let push = fn_named(&p, "push");
        assert_eq!(push.self_ty.as_deref(), Some("Ring"));
        assert!(push.has_self);
        let drain = fn_named(&p, "drain");
        assert_eq!(drain.self_ty.as_deref(), Some("Ring"));
        assert!(calls_method(drain, "reset", Recv::SelfDirect));
    }

    #[test]
    fn impl_trait_args_and_nested_closures_parse_through() {
        let p = parse_src(
            "impl S {\n\
                 fn feed(&mut self, src: impl Iterator<Item = (u32, f64)>) -> impl Fn(u32) -> f64 {\n\
                     let scale = self.scale;\n\
                     src.for_each(|(k, v)| {\n\
                         self.table.insert(k, (0..v as u32).map(|i| i + k).sum());\n\
                     });\n\
                     move |x| x as f64 * scale\n\
                 }\n\
             }",
        );
        let feed = fn_named(&p, "feed");
        assert_eq!(feed.self_ty.as_deref(), Some("S"));
        assert!(feed.has_self);
        // The call inside the nested closure is still attributed to
        // `feed`: `self.table.insert(…)`.
        assert!(calls_method(feed, "insert", Recv::Other));
    }

    #[test]
    fn macro_invocations_are_opaque_but_not_fatal() {
        // Macro bodies may hold token soup that is not valid Rust item
        // syntax; the parser must neither panic nor invent items from it.
        let p = parse_src(
            "macro_rules! weird { ($($t:tt)*) => { fn ghost() {} }; }\n\
             fn real(&self) {}\n\
             fn caller(s: &S) {\n\
                 weird!(fn bogus(&mut self) { self.x = 1; } => =>);\n\
                 assert_eq!(vec![1, 2], s.pairs());\n\
             }",
        );
        assert!(
            fns_named(&p, "ghost").is_empty(),
            "item invented from macro body"
        );
        assert!(
            fns_named(&p, "bogus").is_empty(),
            "item invented from macro args"
        );
        assert_eq!(fns_named(&p, "caller").len(), 1);
        // Calls inside macro arguments still surface for the call graph.
        let caller = fn_named(&p, "caller");
        assert!(caller
            .ops
            .iter()
            .any(|o| matches!(o, BodyOp::Method { name, .. } if name == "pairs")));
    }

    #[test]
    fn shifted_generics_in_signatures_do_not_derail_the_scan() {
        // `Vec<Option<T>>` ends in a joined `>>` token — the construct that
        // once truncated the model's struct scanner; pin the parser on it.
        let p = parse_src(
            "impl S {\n\
                 fn a(&mut self, xs: Vec<Option<u32>>) -> Option<Vec<u8>> { self.n.push(1); None }\n\
                 fn b(&mut self) { self.m = 2; }\n\
             }",
        );
        assert!(calls_method(fn_named(&p, "a"), "push", Recv::Other));
        // `b` must still be visible after `a`'s `>>`-heavy signature.
        let b = fn_named(&p, "b");
        assert_eq!(b.self_ty.as_deref(), Some("S"));
        assert!(b.has_self);
    }
}
