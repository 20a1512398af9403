//! Tier-1 (textual) rules, the [`Finding`] type, and the `lint:allow`
//! suppression machinery every tier shares.
//!
//! | Rule | Meaning |
//! |---|---|
//! | D1 | no wall-clock or ambient randomness in result-producing crates |
//! | D2 | no `HashMap`/`HashSet` in result-producing crates |
//! | D3 | no order-sensitive float reduction over a parallel source |
//! | S1 | every `unsafe` must be preceded by a `// SAFETY:` comment |
//! | A1 | malformed `lint:allow` / `plane:dirty` directive |
//! | M5 | no pattern-match on `CpuGeneration` outside hwspec's policy layer |
//!
//! The rest of [`KNOWN_RULES`] need the whole workspace: M4 lives in
//! [`crate::model`], M6 and P1 in [`crate::semantic`], A2 in
//! [`crate::workspace`].
//!
//! D1–D3 guard the determinism contract: `survey.json` must be
//! byte-identical for any `--jobs`, any `RAYON_NUM_THREADS` and either
//! engine. `Instant::now`/`SystemTime` values, `HashMap` iteration
//! order, and float reductions whose operand order follows scheduling
//! are exactly the ways wall-clock and scheduling leak into output. A
//! finding is suppressed by a justified `// lint:allow(rule): <why>`
//! comment on the same line or the line directly above; an allow
//! *without* a justification suppresses nothing and is itself reported
//! (A1). A justified allow that suppresses *nothing* is stale and
//! reported by the workspace pass as A2.

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};

/// Every rule the engine knows, for allow-directive validation.
pub const KNOWN_RULES: &[&str] = &["D1", "D2", "D3", "S1", "A1", "A2", "M4", "M5", "M6", "P1"];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id ("D1", "M4", …).
    pub rule: &'static str,
    pub message: String,
}

impl Finding {
    pub fn new(path: &str, line: u32, rule: &'static str, message: String) -> Finding {
        Finding {
            path: path.to_string(),
            line,
            rule,
            message,
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Which rule families apply to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    /// The file belongs to a result-producing crate (D1/D2 apply).
    pub result_crate: bool,
    /// The file is part of hwspec's generation-policy layer, the one place
    /// allowed to dispatch on `CpuGeneration` (M5 exempt).
    pub generation_policy: bool,
}

/// A parsed `lint:allow` directive.
#[derive(Debug, Clone)]
pub(crate) struct Allow {
    pub(crate) line: u32,
    pub(crate) rule: String,
    pub(crate) justified: bool,
    /// Set by [`suppressed`] when the allow actually removed a finding;
    /// a justified allow that stays unused is stale (A2).
    pub(crate) used: bool,
}

/// Extract `lint:allow(rule): justification` directives from comments. The
/// directive must start the comment (`// lint:allow(…)`) — prose that merely
/// *mentions* the syntax mid-sentence is not a suppression attempt.
pub(crate) fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        // Doc comments contribute a leading `/` or `!` to the text.
        let t = c.text.trim_start_matches(['/', '!']).trim_start();
        let Some(rest) = t.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let justified = rest[close + 1..]
            .strip_prefix(':')
            .map(|j| !j.trim().is_empty())
            .unwrap_or(false);
        allows.push(Allow {
            line: c.end_line,
            rule,
            justified,
            used: false,
        });
    }
    allows
}

/// A parsed `// plane:dirty(MSR|WORK): justification` annotation — a
/// method-level declaration (for rule M6) that the function's mutations
/// are covered by an external marking of the named planes. Plane-*name*
/// validation needs the workspace mask-const table and happens in the
/// semantic pass; syntax validation happens here.
#[derive(Debug, Clone)]
pub(crate) struct PlaneAnn {
    pub(crate) line: u32,
    /// The `|`-separated plane names inside the parentheses.
    pub(crate) planes: Vec<String>,
    pub(crate) justified: bool,
    /// Syntax error text when the directive is malformed (A1).
    pub(crate) malformed: Option<String>,
    /// Set by the semantic pass when the annotation covered a mutation
    /// that would otherwise be an M6 finding.
    pub(crate) used: bool,
}

/// Extract `plane:dirty(…)` annotations from comments. Like allows, the
/// directive must start the comment.
pub(crate) fn parse_plane_anns(comments: &[Comment]) -> Vec<PlaneAnn> {
    let mut anns = Vec::new();
    for c in comments {
        let t = c.text.trim_start_matches(['/', '!']).trim_start();
        let Some(rest) = t.strip_prefix("plane:dirty") else {
            continue;
        };
        let mut ann = PlaneAnn {
            line: c.end_line,
            planes: Vec::new(),
            justified: false,
            malformed: None,
            used: false,
        };
        let body = rest
            .strip_prefix('(')
            .and_then(|r| r.find(')').map(|close| (&r[..close], &r[close + 1..])));
        match body {
            None => {
                ann.malformed = Some(
                    "plane:dirty needs a parenthesized mask: \
                     `// plane:dirty(MSR|WORK): <why the marking happens elsewhere>`"
                        .to_string(),
                );
            }
            Some((mask, tail)) => {
                let names: Vec<&str> = mask.split('|').map(str::trim).collect();
                let bad = names.iter().find(|n| {
                    n.is_empty() || !n.chars().all(|ch| ch.is_ascii_alphanumeric() || ch == '_')
                });
                if let Some(bad) = bad {
                    ann.malformed = Some(format!(
                        "plane:dirty mask has a malformed segment `{bad}`; \
                         use `|`-separated plane-const names like `MSR|WORK`"
                    ));
                } else {
                    ann.planes = names.iter().map(|n| n.to_string()).collect();
                }
                ann.justified = tail
                    .strip_prefix(':')
                    .map(|j| !j.trim().is_empty())
                    .unwrap_or(false);
                if ann.malformed.is_none() && !ann.justified {
                    ann.malformed = Some(
                        "plane:dirty without a justification declares nothing; \
                         write `// plane:dirty(<MASK>): <why the marking happens elsewhere>`"
                            .to_string(),
                    );
                }
            }
        }
        anns.push(ann);
    }
    anns
}

/// Run the tier-1 rules over one file, *without* applying suppressions.
pub(crate) fn tier1_findings(path: &str, lexed: &Lexed, scope: FileScope) -> Vec<Finding> {
    let mut findings = Vec::new();
    if scope.result_crate {
        check_d1(path, &lexed.tokens, &mut findings);
        check_d2(path, &lexed.tokens, &mut findings);
        check_d3(path, &lexed.tokens, &mut findings);
    }
    check_s1(path, lexed, &mut findings);
    if !scope.generation_policy {
        check_m5(path, &lexed.tokens, &mut findings);
    }
    findings
}

/// Is `f` suppressed by one of its file's `allows`? A justified allow
/// covers findings of its rule on its own line (trailing comment) and on
/// the line below (standalone comment above the code). Marks each allow
/// that matched as `used` so the workspace pass can flag stale ones (A2).
pub(crate) fn suppressed(f: &Finding, allows: &mut [Allow]) -> bool {
    let mut hit = false;
    for a in allows.iter_mut() {
        if a.justified && a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line) {
            a.used = true;
            hit = true;
        }
    }
    hit
}

/// A1 findings for malformed directives — never themselves suppressible.
pub(crate) fn directive_findings(path: &str, allows: &[Allow], anns: &[PlaneAnn]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for a in allows {
        if !KNOWN_RULES.contains(&a.rule.as_str()) {
            findings.push(Finding::new(
                path,
                a.line,
                "A1",
                format!(
                    "lint:allow names unknown rule `{}` (known: {})",
                    a.rule,
                    KNOWN_RULES.join(", ")
                ),
            ));
        } else if !a.justified {
            findings.push(Finding::new(
                path,
                a.line,
                "A1",
                format!(
                    "lint:allow({}) without a justification suppresses nothing; \
                     write `// lint:allow({}): <why this is sound>`",
                    a.rule, a.rule
                ),
            ));
        }
    }
    for ann in anns {
        if let Some(err) = &ann.malformed {
            findings.push(Finding::new(path, ann.line, "A1", err.clone()));
        }
    }
    findings
}

/// Run the tier-1 rules over one file and apply per-line suppressions.
/// The workspace pass uses the pieces ([`tier1_findings`], [`suppressed`],
/// [`directive_findings`]) directly so it can also track *stale* allows
/// (A2); this wrapper is the single-file entry point (`--check-file`).
pub fn scan_file(path: &str, src: &str, scope: FileScope) -> Vec<Finding> {
    let lexed = lex(src);
    let mut allows = parse_allows(&lexed.comments);
    let anns = parse_plane_anns(&lexed.comments);
    let mut findings = tier1_findings(path, &lexed, scope);
    findings.retain(|f| !suppressed(f, &mut allows));
    findings.extend(directive_findings(path, &allows, &anns));
    findings.sort();
    findings
}

/// Is token `i` the start of the identifier path `parts` (joined by `::`)?
fn matches_path(tokens: &[Token], i: usize, parts: &[&str]) -> bool {
    let mut k = i;
    for (n, part) in parts.iter().enumerate() {
        if n > 0 {
            match tokens.get(k) {
                Some(Token {
                    kind: TokenKind::Punct("::"),
                    ..
                }) => k += 1,
                _ => return false,
            }
        }
        match tokens.get(k) {
            Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) if s == part => k += 1,
            _ => return false,
        }
    }
    true
}

/// D1: wall-clock and ambient-randomness sources. Any value of
/// `Instant::now()` or `SystemTime` differs run to run, and
/// `thread_rng`/`rand::random` seed from the OS — none of them may feed a
/// result path.
fn check_d1(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        let hit = if matches_path(tokens, i, &["Instant", "now"]) {
            Some("Instant::now")
        } else if matches_path(tokens, i, &["rand", "random"]) {
            Some("rand::random")
        } else {
            match &t.kind {
                TokenKind::Ident(s) if s == "SystemTime" => Some("SystemTime"),
                TokenKind::Ident(s) if s == "thread_rng" => Some("thread_rng"),
                _ => None,
            }
        };
        if let Some(what) = hit {
            findings.push(Finding::new(
                path,
                t.line,
                "D1",
                format!(
                    "`{what}` in a result-producing crate: wall-clock/ambient entropy \
                     breaks the byte-identical survey.json contract"
                ),
            ));
        }
    }
}

/// D2: unordered collections. `HashMap`/`HashSet` iteration order is
/// randomized per process; iterating one into serialized output is exactly
/// how nondeterminism leaks into `survey.json`. Use `BTreeMap`/`BTreeSet`.
fn check_d2(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for t in tokens {
        if let TokenKind::Ident(s) = &t.kind {
            if s == "HashMap" || s == "HashSet" {
                findings.push(Finding::new(
                    path,
                    t.line,
                    "D2",
                    format!(
                        "`{s}` in a result-producing crate: unordered iteration leaks \
                         scheduling into output; use BTree{} instead",
                        &s[4..]
                    ),
                ));
            }
        }
    }
}

/// Parallel-source adapters: anything downstream of one of these has
/// scheduling-dependent element order.
const D3_PAR_SOURCES: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_windows",
    "par_bridge",
    "par_extend",
];

/// Reduction combinators whose float result depends on operand order.
const D3_REDUCERS: &[&str] = &[
    "sum",
    "product",
    "fold",
    "reduce",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
];

/// D3: order-sensitive float reductions. Float addition is not
/// associative, so `par_iter().….sum()` produces different bytes run to
/// run as the scheduler regroups operands — the survey's sweep executor
/// instead collects per-point results *in index order* and reduces
/// sequentially. Also flags `partial_cmp(…).unwrap()` comparators, whose
/// NaN panic and asymmetric ordering break reductions; use
/// `f64::total_cmp`.
fn check_d3(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let ident = |i: usize| match tokens.get(i) {
        Some(Token {
            kind: TokenKind::Ident(s),
            ..
        }) => Some(s.as_str()),
        _ => None,
    };
    let punct = |i: usize, p: &str| matches!(tokens.get(i), Some(Token { kind: TokenKind::Punct(q), .. }) if *q == p);
    for (i, t) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &t.kind else {
            continue;
        };
        // `.reducer(` / `.reducer::<T>(` at the end of a chain containing a
        // parallel source.
        if D3_REDUCERS.contains(&name.as_str())
            && i > 0
            && punct(i - 1, ".")
            && (punct(i + 1, "(") || punct(i + 1, "::"))
        {
            // Walk the chain backwards to the start of the statement or
            // enclosing expression, collecting identifiers.
            let mut depth = 0i32;
            let mut k = i - 1;
            let mut par_source = false;
            while k > 0 {
                k -= 1;
                match &tokens[k].kind {
                    TokenKind::Punct(")") | TokenKind::Punct("]") => depth += 1,
                    TokenKind::Punct("(") | TokenKind::Punct("[") => {
                        if depth == 0 {
                            break; // chain began inside this group
                        }
                        depth -= 1;
                    }
                    TokenKind::Punct(";")
                    | TokenKind::Punct("{")
                    | TokenKind::Punct("}")
                    | TokenKind::Punct(",")
                    | TokenKind::Punct("=")
                        if depth == 0 =>
                    {
                        break;
                    }
                    TokenKind::Ident(id) if depth == 0 && D3_PAR_SOURCES.contains(&id.as_str()) => {
                        par_source = true;
                        break;
                    }
                    _ => {}
                }
            }
            if par_source {
                findings.push(Finding::new(
                    path,
                    t.line,
                    "D3",
                    format!(
                        "`.{name}(…)` over a parallel source: float reduction order \
                         follows the scheduler, breaking byte-identical output; \
                         collect per-point results in index order (as the sweep \
                         executor does) and reduce sequentially"
                    ),
                ));
            }
        }
        // `partial_cmp(…).unwrap()` / `.expect(…)` comparator.
        if name == "partial_cmp" && punct(i + 1, "(") {
            let mut depth = 0i32;
            let mut k = i + 1;
            while k < tokens.len() {
                if punct(k, "(") {
                    depth += 1;
                } else if punct(k, ")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            if punct(k + 1, ".") && matches!(ident(k + 2), Some("unwrap") | Some("expect")) {
                findings.push(Finding::new(
                    path,
                    t.line,
                    "D3",
                    "`partial_cmp(…).unwrap()` comparator: panics on NaN and its \
                     ordering is not total; use `f64::total_cmp` instead"
                        .to_string(),
                ));
            }
        }
    }
}

/// M5: generation dispatch belongs to the policy layer. A `match` arm, an
/// `if let`/`while let` pattern, or a `matches!` pattern naming
/// `CpuGeneration` outside `crates/hwspec` hardcodes firmware behavior at
/// the call site; route it through `FirmwarePolicy` instead. The check is
/// token-positional — `CpuGeneration::…` *expressions* (constructing or
/// comparing values) are fine, only pattern positions are flagged — and
/// reports one finding per dispatch site so a single justified
/// `// lint:allow(M5): <why>` directly above the `match`/`if` covers it.
fn check_m5(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let flag = |findings: &mut Vec<Finding>, line: u32, what: &str| {
        findings.push(Finding::new(
            path,
            line,
            "M5",
            format!(
                "{what} on `CpuGeneration` outside the hwspec policy layer: \
                 dispatch through `FirmwarePolicy` (crates/hwspec/src/policy.rs) \
                 so new generations land in one place"
            ),
        ));
    };
    let ident = |i: usize| match tokens.get(i) {
        Some(Token {
            kind: TokenKind::Ident(s),
            ..
        }) => Some(s.as_str()),
        _ => None,
    };
    let punct = |i: usize| match tokens.get(i) {
        Some(Token {
            kind: TokenKind::Punct(p),
            ..
        }) => Some(*p),
        _ => None,
    };
    let open = |p: &str| matches!(p, "(" | "[" | "{");
    let close = |p: &str| matches!(p, ")" | "]" | "}");

    for (i, t) in tokens.iter().enumerate() {
        match &t.kind {
            TokenKind::Ident(kw) if kw == "match" => {
                // Find the arm block (struct literals cannot appear bare in
                // scrutinee position, so the first depth-0 `{` opens it).
                let mut depth = 0i32;
                let mut j = i + 1;
                let body = loop {
                    match punct(j) {
                        Some(p) if open(p) => {
                            if p == "{" && depth == 0 {
                                break j;
                            }
                            depth += 1;
                        }
                        Some(p) if close(p) => depth -= 1,
                        None if j >= tokens.len() => break usize::MAX,
                        _ => {}
                    }
                    j += 1;
                };
                if body == usize::MAX {
                    continue;
                }
                // Inside the block, `CpuGeneration` right after `{`, `,` or
                // `|` at arm depth is a pattern.
                let mut depth = 1i32;
                let mut k = body + 1;
                while k < tokens.len() && depth > 0 {
                    if let Some(p) = punct(k) {
                        if open(p) {
                            depth += 1;
                        } else if close(p) {
                            depth -= 1;
                        }
                    } else if depth == 1
                        && ident(k) == Some("CpuGeneration")
                        && matches!(punct(k - 1), Some("{" | "," | "|"))
                    {
                        flag(findings, t.line, "`match`");
                        break;
                    }
                    k += 1;
                }
            }
            TokenKind::Ident(kw) if kw == "if" || kw == "while" => {
                if ident(i + 1) != Some("let") {
                    continue;
                }
                // The pattern runs to the `=` before the scrutinee.
                let mut k = i + 2;
                while let Some(tok) = tokens.get(k) {
                    match &tok.kind {
                        TokenKind::Punct("=") => break,
                        TokenKind::Punct("{") => break, // malformed; stop
                        TokenKind::Ident(s) if s == "CpuGeneration" => {
                            flag(findings, t.line, format!("`{kw} let`").as_str());
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
            TokenKind::Ident(kw) if kw == "matches" => {
                if punct(i + 1) != Some("!") || punct(i + 2) != Some("(") {
                    continue;
                }
                // The pattern is everything after the first top-level comma.
                let mut depth = 1i32;
                let mut k = i + 3;
                let mut in_pattern = false;
                while k < tokens.len() && depth > 0 {
                    if let Some(p) = punct(k) {
                        if open(p) {
                            depth += 1;
                        } else if close(p) {
                            depth -= 1;
                        } else if p == "," && depth == 1 {
                            in_pattern = true;
                        }
                    } else if in_pattern && ident(k) == Some("CpuGeneration") {
                        flag(findings, t.line, "`matches!`");
                        break;
                    }
                    k += 1;
                }
            }
            _ => {}
        }
    }
}

/// S1: every `unsafe` must be preceded by a `SAFETY:` comment — on the
/// same line, or in the contiguous comment block ending on the line above.
fn check_s1(path: &str, lexed: &Lexed, findings: &mut Vec<Finding>) {
    for t in &lexed.tokens {
        let TokenKind::Ident(s) = &t.kind else {
            continue;
        };
        if s != "unsafe" {
            continue;
        }
        if !has_safety_comment(&lexed.comments, t.line) {
            findings.push(Finding::new(
                path,
                t.line,
                "S1",
                "`unsafe` without a `// SAFETY:` comment explaining why the \
                 invariants hold"
                    .to_string(),
            ));
        }
    }
}

fn has_safety_comment(comments: &[Comment], unsafe_line: u32) -> bool {
    let covering = |line: u32| {
        comments
            .iter()
            .filter(move |c| c.line <= line && line <= c.end_line)
    };
    // A comment on the `unsafe` line itself counts (trailing or inline).
    if covering(unsafe_line).any(|c| c.text.contains("SAFETY:")) {
        return true;
    }
    // Otherwise walk the contiguous run of commented lines directly above.
    let mut line = unsafe_line.saturating_sub(1);
    while line > 0 {
        let mut any = false;
        for c in covering(line) {
            any = true;
            if c.text.contains("SAFETY:") {
                return true;
            }
        }
        if !any {
            return false;
        }
        line -= 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    const RESULT: FileScope = FileScope {
        result_crate: true,
        generation_policy: false,
    };
    const EXEMPT: FileScope = FileScope {
        result_crate: false,
        generation_policy: false,
    };
    const POLICY: FileScope = FileScope {
        result_crate: true,
        generation_policy: true,
    };

    #[test]
    fn d1_flags_instant_now_and_friends() {
        let src = "fn f() { let t = Instant::now(); let r: u8 = rand::random(); }";
        let f = scan_file("x.rs", src, RESULT);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == "D1"));
    }

    #[test]
    fn d1_ignores_the_import_line_and_strings() {
        let src = "use std::time::Instant;\nlet s = \"Instant::now\"; // Instant::now";
        assert!(scan_file("x.rs", src, RESULT).is_empty());
    }

    #[test]
    fn d2_flags_hash_collections_only_in_result_crates() {
        let src = "use std::collections::HashMap;\nlet m: HashMap<u32, u64> = HashMap::new();";
        let f = scan_file("x.rs", src, RESULT);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|f| f.rule == "D2"));
        assert!(scan_file("x.rs", src, EXEMPT).is_empty());
    }

    #[test]
    fn d2_accepts_btreemap() {
        let src = "use std::collections::BTreeMap;\nlet m: BTreeMap<u32, u64> = BTreeMap::new();";
        assert!(scan_file("x.rs", src, RESULT).is_empty());
    }

    #[test]
    fn s1_requires_a_safety_comment() {
        let bad = "fn f() { unsafe { g() } }";
        let f = scan_file("x.rs", bad, EXEMPT);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "S1");

        let good = "fn f() {\n    // SAFETY: g has no preconditions here.\n    unsafe { g() }\n}";
        assert!(scan_file("x.rs", good, EXEMPT).is_empty());
    }

    #[test]
    fn s1_accepts_multiline_safety_blocks_ending_above() {
        let good = "fn f() {\n    // SAFETY: the borrow is pinned by the caller\n    // and outlives the task.\n    unsafe { g() }\n}";
        assert!(scan_file("x.rs", good, EXEMPT).is_empty());
    }

    #[test]
    fn m5_flags_a_match_arm_on_cpu_generation() {
        let src = "fn f(g: CpuGeneration) -> u32 {\n    match g {\n        CpuGeneration::HaswellEp => 500,\n        _ => 1000,\n    }\n}";
        let f = scan_file("x.rs", src, RESULT);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "M5");
        assert_eq!(f[0].line, 2, "anchored at the match site");
    }

    #[test]
    fn m5_flags_if_let_and_matches_macro() {
        let if_let =
            "fn f(g: CpuGeneration) {\n    if let CpuGeneration::SkylakeSp = g { fast() }\n}";
        let f = scan_file("x.rs", if_let, RESULT);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "M5");

        let mac = "let hsw = matches!(spec.generation, CpuGeneration::HaswellEp | CpuGeneration::HaswellHe);";
        let f = scan_file("x.rs", mac, RESULT);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "M5");
    }

    #[test]
    fn m5_ignores_expression_uses_of_the_enum() {
        // Constructing, comparing, or iterating generations is fine — only
        // *dispatching behavior* on them is the policy layer's job.
        let src = "fn f() -> CpuGeneration {\n    let g = CpuGeneration::HaswellEp;\n    for x in CpuGeneration::ALL { use_it(x); }\n    g\n}";
        assert!(scan_file("x.rs", src, RESULT).is_empty());

        // An arm *producing* a generation is not a dispatch on one.
        let produce = "match name {\n    \"hsw\" => CpuGeneration::HaswellEp,\n    _ => CpuGeneration::SkylakeSp,\n}";
        assert!(scan_file("x.rs", produce, RESULT).is_empty());
    }

    #[test]
    fn m5_applies_outside_result_crates_but_not_in_the_policy_layer() {
        let src = "match g {\n    CpuGeneration::WestmereEp => 0,\n    _ => 1,\n}";
        // A test or tool dispatching on generation drifts just as badly.
        assert_eq!(scan_file("x.rs", src, EXEMPT).len(), 1);
        // hwspec's policy modules are the sanctioned home.
        assert!(scan_file("x.rs", src, POLICY).is_empty());
    }

    #[test]
    fn m5_allow_directly_above_the_match_suppresses_the_site() {
        let src = "fn f(g: CpuGeneration) -> u32 {\n    // lint:allow(M5): fixture table, not firmware behavior\n    match g {\n        CpuGeneration::HaswellEp => 1,\n        _ => 0,\n    }\n}";
        assert!(scan_file("x.rs", src, RESULT).is_empty());

        // …but an unjustified allow suppresses nothing.
        let bare = "fn f(g: CpuGeneration) -> u32 {\n    // lint:allow(M5)\n    match g {\n        CpuGeneration::HaswellEp => 1,\n        _ => 0,\n    }\n}";
        let f = scan_file("x.rs", bare, RESULT);
        assert!(f.iter().any(|f| f.rule == "M5"), "{f:?}");
        assert!(f.iter().any(|f| f.rule == "A1"), "{f:?}");
    }

    #[test]
    fn justified_allow_suppresses_same_line_and_next_line() {
        let same = "let m = HashMap::new(); // lint:allow(D2): test-only scratch map";
        assert!(scan_file("x.rs", same, RESULT).is_empty());

        let above =
            "// lint:allow(D2): scratch map, never iterated into output\nlet m = HashMap::new();";
        assert!(scan_file("x.rs", above, RESULT).is_empty());
    }

    #[test]
    fn unjustified_allow_suppresses_nothing_and_is_flagged() {
        let src = "let m = HashMap::new(); // lint:allow(D2)";
        let f = scan_file("x.rs", src, RESULT);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|f| f.rule == "D2"));
        assert!(f.iter().any(|f| f.rule == "A1"));

        let colon_only = "let m = HashMap::new(); // lint:allow(D2):   ";
        let f = scan_file("x.rs", colon_only, RESULT);
        assert!(f.iter().any(|f| f.rule == "A1"));
    }

    #[test]
    fn prose_mentioning_the_directive_is_not_an_allow() {
        // Docs that *describe* the syntax (like this crate's own) must not
        // parse as malformed suppression attempts.
        let src = "// Suppress with `lint:allow(rule): <why>` on the line above.\nlet x = 1;";
        assert!(scan_file("x.rs", src, RESULT).is_empty());
    }

    #[test]
    fn allow_for_an_unknown_rule_is_flagged() {
        let src = "// lint:allow(D9): no such rule\nlet x = 1;";
        let f = scan_file("x.rs", src, RESULT);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "A1");
    }

    #[test]
    fn allow_does_not_leak_to_other_rules_or_distant_lines() {
        let src = "// lint:allow(D1): wrong rule\nlet m = HashMap::new();";
        let f = scan_file("x.rs", src, RESULT);
        assert!(f.iter().any(|f| f.rule == "D2"), "{f:?}");

        let far = "// lint:allow(D2): too far away\n\nlet m = HashMap::new();";
        let f = scan_file("x.rs", far, RESULT);
        assert!(f.iter().any(|f| f.rule == "D2"), "{f:?}");
    }

    #[test]
    fn d3_flags_reductions_over_parallel_sources() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.par_iter().map(|x| x * 2.0).sum::<f64>() }";
        let f = scan_file("x.rs", src, RESULT);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D3");
        assert!(f[0].message.contains("parallel source"), "{}", f[0].message);

        // `fold` with an explicit identity over a chunked source too.
        let src = "fn g(xs: &[f64]) -> f64 {\n    xs.par_chunks(8).map(sum8).fold(|| 0.0, |a, b| a + b).sum()\n}";
        let f = scan_file("x.rs", src, RESULT);
        assert!(f.iter().any(|f| f.rule == "D3" && f.line == 2), "{f:?}");
    }

    #[test]
    fn d3_accepts_index_order_reductions_and_collects() {
        // Sequential iterators reduce in index order: fine.
        let seq = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }";
        assert!(scan_file("x.rs", seq, RESULT).is_empty());
        // The sanctioned pattern: collect in index order, reduce after.
        let collected = "fn g(xs: &[P]) -> Vec<f64> { xs.par_iter().map(run).collect::<Vec<_>>() }";
        assert!(scan_file("x.rs", collected, RESULT).is_empty());
        // Non-result crates may reduce however they like.
        let f = scan_file(
            "x.rs",
            "fn f(xs: &[f64]) -> f64 { xs.par_iter().sum::<f64>() }",
            EXEMPT,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d3_flags_partial_cmp_unwrap_comparators() {
        let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        let f = scan_file("x.rs", src, RESULT);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D3");
        assert!(f[0].message.contains("total_cmp"), "{}", f[0].message);
        // `total_cmp` itself is the fix and must pass.
        let fixed = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.total_cmp(b)); }";
        assert!(scan_file("x.rs", fixed, RESULT).is_empty());
    }

    #[test]
    fn malformed_plane_dirty_annotations_are_a1() {
        // No parenthesized mask at all.
        let f = scan_file("x.rs", "// plane:dirty MSR: prose\nlet x = 1;", RESULT);
        assert!(
            f.iter()
                .any(|f| f.rule == "A1" && f.message.contains("parenthesized")),
            "{f:?}"
        );
        // A bad segment inside the mask.
        let f = scan_file(
            "x.rs",
            "// plane:dirty(MSR|): trailing pipe\nlet x = 1;",
            RESULT,
        );
        assert!(
            f.iter()
                .any(|f| f.rule == "A1" && f.message.contains("malformed segment")),
            "{f:?}"
        );
        // A mask without a justification declares nothing.
        let f = scan_file("x.rs", "// plane:dirty(MSR)\nlet x = 1;", RESULT);
        assert!(
            f.iter()
                .any(|f| f.rule == "A1" && f.message.contains("justification")),
            "{f:?}"
        );
        // The well-formed full syntax is silent at file scope (staleness is
        // the workspace pass's A2 business, not A1's).
        let f = scan_file(
            "x.rs",
            "// plane:dirty(MSR|WORK): marked by the caller\nlet x = 1;",
            RESULT,
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
