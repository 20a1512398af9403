//! Tier-3 (semantic) rule P1: no `unwrap`/`expect`/computed indexing
//! reachable from the tick hot path.
//!
//! The workspace model is a per-type method table and a call graph over
//! every parsed file. The call graph is name-based (no type inference): a
//! call edge goes to every function that could plausibly be the callee,
//! which can only over-approximate reachability — P1 may audit too much,
//! never too little.

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::{BodyOp, ParsedFile, Recv};
use crate::rules::Finding;

/// One file's parse results, as the semantic pass consumes them.
pub(crate) struct SemFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// The file belongs to a result-producing crate (P1 findings apply).
    pub result_crate: bool,
    pub parsed: ParsedFile,
}

/// Methods called `.unwrap()`/`.expect()` that P1 flags.
const P1_PANICKY: &[&str] = &["unwrap", "expect"];

/// The workspace semantic model.
pub(crate) struct Semantic<'a> {
    files: &'a [SemFile],
    /// Global fn id → (file index, fn index).
    fns: Vec<(usize, usize)>,
    /// fn name → global ids (free fns and methods alike).
    by_name: BTreeMap<&'a str, Vec<usize>>,
    /// (impl type, fn name) → global id (first definition wins).
    methods: BTreeMap<(&'a str, &'a str), usize>,
}

impl<'a> Semantic<'a> {
    pub(crate) fn build(files: &'a [SemFile]) -> Semantic<'a> {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (ki, f) in file.parsed.fns.iter().enumerate() {
                let id = fns.len();
                fns.push((fi, ki));
                by_name.entry(f.name.as_str()).or_default().push(id);
                if let Some(ty) = &f.self_ty {
                    methods.entry((ty.as_str(), f.name.as_str())).or_insert(id);
                }
            }
        }
        Semantic {
            files,
            fns,
            by_name,
            methods,
        }
    }

    fn fn_item(&self, id: usize) -> &'a crate::parser::FnItem {
        let (fi, ki) = self.fns[id];
        &self.files[fi].parsed.fns[ki]
    }

    /// P1: panic paths reachable from the tick hot path. BFS over the
    /// name-based call graph from `roots` (e.g. `Socket::tick`,
    /// `Node::step`); in every reachable function of a result crate,
    /// `.unwrap()`, `.expect(…)` and computed (`arr[i + 1]`-style)
    /// indexing are flagged.
    pub(crate) fn check_p1(&self, roots: &[(&str, &str)]) -> Vec<Finding> {
        let mut queue: Vec<usize> = roots
            .iter()
            .filter_map(|&(ty, name)| self.methods.get(&(ty, name)).copied())
            .collect();
        let mut reachable: BTreeSet<usize> = queue.iter().copied().collect();
        while let Some(id) = queue.pop() {
            let f = self.fn_item(id);
            for op in &f.ops {
                let callees: Vec<usize> = match op {
                    BodyOp::Call { path, .. } => {
                        let last = path.last().map(String::as_str).unwrap_or("");
                        // `Type::method(…)` resolves exactly when the
                        // qualifier names a known impl type.
                        let qualified = path
                            .len()
                            .checked_sub(2)
                            .and_then(|q| self.methods.get(&(path[q].as_str(), last)));
                        match qualified {
                            Some(&id) => vec![id],
                            None => self.by_name.get(last).cloned().unwrap_or_default(),
                        }
                    }
                    BodyOp::Method { name, recv, .. } => {
                        let exact = match recv {
                            Recv::SelfDirect => f
                                .self_ty
                                .as_deref()
                                .and_then(|ty| self.methods.get(&(ty, name.as_str()))),
                            _ => None,
                        };
                        match exact {
                            Some(&id) => vec![id],
                            None => self
                                .by_name
                                .get(name.as_str())
                                .map(|ids| {
                                    ids.iter()
                                        .copied()
                                        .filter(|&i| self.fn_item(i).has_self)
                                        .collect()
                                })
                                .unwrap_or_default(),
                        }
                    }
                    _ => Vec::new(),
                };
                for c in callees {
                    if reachable.insert(c) {
                        queue.push(c);
                    }
                }
            }
        }

        let root_names: Vec<String> = roots
            .iter()
            .map(|(ty, name)| format!("{ty}::{name}"))
            .collect();
        let roots_s = root_names.join("/");
        let mut findings = Vec::new();
        for &id in &reachable {
            let (fi, _) = self.fns[id];
            if !self.files[fi].result_crate {
                continue;
            }
            let f = self.fn_item(id);
            for op in &f.ops {
                match op {
                    BodyOp::Method { name, line, .. } if P1_PANICKY.contains(&name.as_str()) => {
                        findings.push(Finding::new(
                            &self.files[fi].path,
                            *line,
                            "P1",
                            format!(
                                "`.{name}()` in `{}` is reachable from {roots_s}: a \
                                 panic here poisons every sweep point sharing the \
                                 pool; handle the failure or justify with \
                                 `// lint:allow(P1): <why it cannot fire>`",
                                f.name
                            ),
                        ));
                    }
                    BodyOp::Index { arith: true, line } => {
                        findings.push(Finding::new(
                            &self.files[fi].path,
                            *line,
                            "P1",
                            format!(
                                "computed index in `{}` is reachable from {roots_s}: \
                                 an off-by-one panics mid-sweep; use `get`/checked \
                                 arithmetic or justify with `// lint:allow(P1): <why \
                                 the bound holds>`",
                                f.name
                            ),
                        ));
                    }
                    _ => {}
                }
            }
        }
        findings.sort();
        findings.dedup();
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    #[test]
    fn p1_flags_only_reachable_panic_sites() {
        let src = r#"
pub struct Sock;
impl Sock {
    pub fn tick(&mut self) {
        self.inner();
        helper();
    }
    fn inner(&self) {
        self.cache.get(0).expect("stale");
    }
}
fn helper() {
    let v = vec![1];
    let x = v[i + 1];
}
fn unreached() {
    opt.unwrap();
}
"#;
        let lexed = lex(src);
        let files = vec![SemFile {
            path: "crates/node/src/sock.rs".to_string(),
            result_crate: true,
            parsed: parse(&lexed.tokens),
        }];
        let sem = Semantic::build(&files);
        let f = sem.check_p1(&[("Sock", "tick")]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f
            .iter()
            .any(|f| f.message.contains("`.expect()` in `inner`")));
        assert!(f
            .iter()
            .any(|f| f.message.contains("computed index in `helper`")));
        assert!(!f.iter().any(|f| f.message.contains("unreached")));
    }
}
