//! Tier-3 (semantic) rules: the workspace model and the checks that need
//! it.
//!
//! | Rule | Meaning |
//! |---|---|
//! | M6 | every `&mut self` method on a plane-tracked type must mark the planes it mutates |
//! | P1 | no `unwrap`/`expect`/computed indexing reachable from the tick hot path |
//!
//! The model is deliberately conservative. Types are linked to their
//! dirty-plane mask structurally: a "mask type" is any type declaring two
//! or more single-bit consts (`Mask(1 << n)`), and an "audited type" is
//! any struct owning a field of a mask type (for this workspace:
//! `Socket.dirty: PlaneMask`). The field→plane partition is *learned*
//! from the restore path — a write to `self.f` guarded by
//! `planes.intersects(Mask::X)` maps `f` to plane `X` — so the linter
//! never hardcodes the socket layout and keeps up as planes move. The
//! call graph is name-based (no type inference): a call edge goes to
//! every function that could plausibly be the callee, which can only
//! over-approximate reachability — P1 may audit too much, never too
//! little.

use std::collections::{BTreeMap, BTreeSet};

use crate::model::StructDef;
use crate::parser::{BodyOp, FieldEffect, ParsedFile, Recv};
use crate::rules::{Finding, PlaneAnn};

/// One file's parse results, as the semantic pass consumes them.
pub(crate) struct SemFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// The file belongs to a result-producing crate (P1 findings apply).
    pub result_crate: bool,
    pub parsed: ParsedFile,
    pub structs: Vec<StructDef>,
}

/// Std-library methods that mutate their receiver. The workspace's own
/// `&mut self` method names are added on top; any method name ending in
/// `_mut` also counts.
const STD_MUT_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "clear",
    "take",
    "replace",
    "extend",
    "extend_from_slice",
    "truncate",
    "resize",
    "fill",
    "swap",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "dedup",
    "drain",
    "retain",
    "append",
    "push_str",
    "push_front",
    "push_back",
    "pop_front",
    "pop_back",
    "get_or_insert",
    "get_or_insert_with",
    "clone_from",
    "copy_from_slice",
    "rotate_left",
    "rotate_right",
    "reverse",
    "entry",
    "set",
];

/// Methods called `.unwrap()`/`.expect()` that P1 flags.
const P1_PANICKY: &[&str] = &["unwrap", "expect"];

/// A mask type's const table: each const name expands to the set of
/// primitive plane names it unions.
struct MaskInfo {
    /// Single-bit plane names, in declaration order of discovery.
    primitives: BTreeSet<String>,
    /// Every const of this type, expanded to primitive planes.
    consts: BTreeMap<String, BTreeSet<String>>,
}

/// A struct that owns a mask-typed field and is therefore audited by M6.
struct Audited {
    type_name: String,
    mask_field: String,
    mask_type: String,
    /// field name → planes whose restore rewrites it (learned from
    /// `intersects(Mask::X)`-guarded writes).
    field_planes: BTreeMap<String, BTreeSet<String>>,
}

/// The workspace semantic model.
pub(crate) struct Semantic<'a> {
    files: &'a [SemFile],
    /// Global fn id → (file index, fn index).
    fns: Vec<(usize, usize)>,
    /// fn name → global ids (free fns and methods alike).
    by_name: BTreeMap<&'a str, Vec<usize>>,
    /// (impl type, fn name) → global id (first definition wins).
    methods: BTreeMap<(&'a str, &'a str), usize>,
    /// Names of every `&mut self` method in the workspace.
    mut_method_names: BTreeSet<&'a str>,
    mask_types: BTreeMap<String, MaskInfo>,
    audited: Vec<Audited>,
}

impl<'a> Semantic<'a> {
    pub(crate) fn build(files: &'a [SemFile]) -> Semantic<'a> {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        let mut mut_method_names = BTreeSet::new();
        for (fi, file) in files.iter().enumerate() {
            for (ki, f) in file.parsed.fns.iter().enumerate() {
                let id = fns.len();
                fns.push((fi, ki));
                by_name.entry(f.name.as_str()).or_default().push(id);
                if let Some(ty) = &f.self_ty {
                    methods.entry((ty.as_str(), f.name.as_str())).or_insert(id);
                }
                if f.mut_self {
                    mut_method_names.insert(f.name.as_str());
                }
            }
        }
        let mask_types = find_mask_types(files);
        let mut model = Semantic {
            files,
            fns,
            by_name,
            methods,
            mut_method_names,
            mask_types,
            audited: Vec::new(),
        };
        model.audited = model.find_audited();
        model
    }

    fn fn_item(&self, id: usize) -> &'a crate::parser::FnItem {
        let (fi, ki) = self.fns[id];
        &self.files[fi].parsed.fns[ki]
    }

    /// Does `effect` mutate the field it applies to?
    fn is_mutation(&self, effect: &FieldEffect) -> bool {
        match effect {
            FieldEffect::Read => false,
            FieldEffect::Assign { .. } | FieldEffect::MutBorrow => true,
            FieldEffect::MethodRecv(m) => {
                m.ends_with("_mut")
                    || STD_MUT_METHODS.contains(&m.as_str())
                    || self.mut_method_names.contains(m.as_str())
            }
        }
    }

    /// Structs owning a mask-typed field, with their field→plane map.
    fn find_audited(&self) -> Vec<Audited> {
        let mut audited = Vec::new();
        for file in self.files {
            for def in &file.structs {
                // The mask type itself (a tuple struct / newtype) is not
                // audited, only owners of a mask-typed *named* field.
                if self.mask_types.contains_key(&def.name) {
                    continue;
                }
                let Some(mf) = def.fields.iter().find(|f| {
                    f.type_idents
                        .iter()
                        .any(|t| self.mask_types.contains_key(t))
                }) else {
                    continue;
                };
                let mask_type = mf
                    .type_idents
                    .iter()
                    .find(|t| self.mask_types.contains_key(*t))
                    .unwrap()
                    .clone();
                audited.push(Audited {
                    type_name: def.name.clone(),
                    mask_field: mf.name.clone(),
                    mask_type,
                    field_planes: self.learn_field_planes(&def.name, mf.name.as_str()),
                });
            }
        }
        audited
    }

    /// Learn which planes rewrite which fields from the restore path: a
    /// mutation of `self.f` guarded by `…intersects(Mask::X)…` maps `f`
    /// to plane `X`.
    fn learn_field_planes(
        &self,
        type_name: &str,
        mask_field: &str,
    ) -> BTreeMap<String, BTreeSet<String>> {
        let mut map: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let all_consts: BTreeSet<&str> = self
            .mask_types
            .values()
            .flat_map(|mi| mi.consts.keys().map(String::as_str))
            .collect();
        for file in self.files {
            for f in &file.parsed.fns {
                if f.self_ty.as_deref() != Some(type_name) {
                    continue;
                }
                for op in &f.ops {
                    let BodyOp::SelfField {
                        field,
                        effect,
                        guards,
                        ..
                    } = op
                    else {
                        continue;
                    };
                    if field == mask_field || !self.is_mutation(effect) {
                        continue;
                    }
                    if !guards.iter().any(|g| g == "intersects") {
                        continue;
                    }
                    let planes: BTreeSet<String> = guards
                        .iter()
                        .filter(|g| all_consts.contains(g.as_str()))
                        .flat_map(|g| self.expand_const(g).into_iter())
                        .collect();
                    if !planes.is_empty() {
                        map.entry(field.clone()).or_default().extend(planes);
                    }
                }
            }
        }
        map
    }

    /// Expand a plane-const name to primitive planes (across mask types;
    /// const names are unambiguous in practice).
    fn expand_const(&self, name: &str) -> BTreeSet<String> {
        for mi in self.mask_types.values() {
            if let Some(set) = mi.consts.get(name) {
                return set.clone();
            }
        }
        BTreeSet::new()
    }

    /// The set of planes a method marks dirty, directly or through
    /// same-type calls (`mark_dirty`-style choke points). A plain
    /// assignment to the mask field is mask *management* (mark-all /
    /// restore) and counts as everything.
    fn coverage(
        &self,
        aud: &Audited,
        id: usize,
        memo: &mut BTreeMap<usize, BTreeSet<String>>,
        visiting: &mut BTreeSet<usize>,
    ) -> BTreeSet<String> {
        if let Some(c) = memo.get(&id) {
            return c.clone();
        }
        if !visiting.insert(id) {
            return BTreeSet::new(); // recursion cycle
        }
        let mi = &self.mask_types[&aud.mask_type];
        let all: BTreeSet<String> = mi.primitives.clone();
        let f = self.fn_item(id);
        let mut cov = BTreeSet::new();
        for op in &f.ops {
            match op {
                BodyOp::SelfField { field, effect, .. } if *field == aud.mask_field => {
                    match effect {
                        FieldEffect::Assign { op: "=", .. } => {
                            cov.extend(all.iter().cloned());
                        }
                        FieldEffect::Assign {
                            op: "|=",
                            rhs_idents,
                        } => {
                            // Unknown idents on the RHS (a `planes`
                            // parameter, a computed mask) mean the caller
                            // chose the planes: treat as all.
                            let mut unknown = false;
                            for id in rhs_idents {
                                if mi.consts.contains_key(id) {
                                    cov.extend(self.expand_const(id));
                                } else if id != &aud.mask_type
                                    && id != "union"
                                    && id != "bits"
                                    && id != "self"
                                {
                                    unknown = true;
                                }
                            }
                            if unknown {
                                cov.extend(all.iter().cloned());
                            }
                        }
                        _ => {}
                    }
                }
                BodyOp::Method {
                    name,
                    recv: Recv::SelfDirect,
                    ..
                } => {
                    if let Some(&callee) =
                        self.methods.get(&(aud.type_name.as_str(), name.as_str()))
                    {
                        let sub = self.coverage(aud, callee, memo, visiting);
                        cov.extend(sub);
                    }
                }
                _ => {}
            }
        }
        visiting.remove(&id);
        memo.insert(id, cov.clone());
        cov
    }

    /// M6: every `&mut self` method on an audited type must mark the
    /// planes of every field it mutates — directly, through a same-type
    /// choke point, via a justified `// plane:dirty(<MASK>)` annotation,
    /// or (for private methods) by being called only from covering
    /// methods.
    pub(crate) fn check_m6(&self, anns: &mut [Vec<PlaneAnn>]) -> Vec<Finding> {
        let mut findings = Vec::new();
        for aud in &self.audited {
            let mut memo = BTreeMap::new();
            for (&(ty, _), &id) in self.methods.iter() {
                if ty != aud.type_name {
                    continue;
                }
                let (fi, _) = self.fns[id];
                let f = self.fn_item(id);
                if !f.mut_self {
                    continue;
                }
                let cov = self.coverage(aud, id, &mut memo, &mut BTreeSet::new());

                // Uncovered mutations before annotations are applied.
                let mut uncovered: BTreeMap<&str, (&BTreeSet<String>, u32)> = BTreeMap::new();
                for op in &f.ops {
                    let BodyOp::SelfField {
                        field,
                        effect,
                        line,
                        ..
                    } = op
                    else {
                        continue;
                    };
                    if *field == aud.mask_field || !self.is_mutation(effect) {
                        continue;
                    }
                    let Some(planes) = aud.field_planes.get(field) else {
                        continue; // unmapped state (snap-skipped scratch)
                    };
                    if planes.is_disjoint(&cov) {
                        uncovered.entry(field.as_str()).or_insert((planes, *line));
                    }
                }

                // A justified annotation on the method covers its planes.
                if !uncovered.is_empty() {
                    let mi = &self.mask_types[&aud.mask_type];
                    for ann in find_anns_for_fn(&mut anns[fi], f.line) {
                        let mut ann_planes = BTreeSet::new();
                        for p in &ann.planes {
                            ann_planes.extend(mi.consts.get(p).cloned().unwrap_or_default());
                        }
                        let before = uncovered.len();
                        uncovered.retain(|_, (planes, _)| planes.is_disjoint(&ann_planes));
                        if uncovered.len() < before {
                            ann.used = true;
                        }
                    }
                }

                // A private method whose every same-type caller covers the
                // missing planes is a helper inside a marking scope.
                if !uncovered.is_empty() && !f.is_pub {
                    let callers: Vec<usize> = self
                        .methods
                        .iter()
                        .filter(|(&(ty2, _), _)| ty2 == aud.type_name)
                        .map(|(_, &cid)| cid)
                        .filter(|&cid| {
                            cid != id
                                && self.fn_item(cid).ops.iter().any(|op| {
                                    matches!(
                                        op,
                                        BodyOp::Method { name, recv: Recv::SelfDirect, .. }
                                            if *name == f.name
                                    )
                                })
                        })
                        .collect();
                    if !callers.is_empty() {
                        let all_cover = callers.iter().all(|&cid| {
                            let ccov = self.coverage(aud, cid, &mut memo, &mut BTreeSet::new());
                            uncovered
                                .values()
                                .all(|(planes, _)| !planes.is_disjoint(&ccov))
                        });
                        if all_cover {
                            uncovered.clear();
                        }
                    }
                }

                for (field, (planes, line)) in uncovered {
                    let planes_s: Vec<&str> = planes.iter().map(String::as_str).collect();
                    findings.push(Finding::new(
                        &self.files[fi].path,
                        line,
                        "M6",
                        format!(
                            "`{}::{}` mutates `{field}` (plane {}) without marking it \
                             dirty: a warm-forked sweep point would restore stale \
                             state; mark via `self.{} |= …`, call a marking method, \
                             or justify with `// plane:dirty({})`",
                            aud.type_name,
                            f.name,
                            planes_s.join("|"),
                            aud.mask_field,
                            planes_s.join("|"),
                        ),
                    ));
                }
            }
        }
        findings.sort();
        findings
    }

    /// Validate `plane:dirty` plane *names* (A1) — possible only here,
    /// where the mask-const table exists. Unattached annotations are the
    /// workspace pass's business (A2, via the `used` flags).
    pub(crate) fn validate_ann_names(&self, anns: &[Vec<PlaneAnn>]) -> Vec<Finding> {
        if self.mask_types.is_empty() {
            return Vec::new();
        }
        let known: BTreeSet<&str> = self
            .mask_types
            .values()
            .flat_map(|mi| mi.consts.keys().map(String::as_str))
            .collect();
        let mut findings = Vec::new();
        for (fi, file_anns) in anns.iter().enumerate() {
            for ann in file_anns {
                if ann.malformed.is_some() {
                    continue; // already an A1 syntax finding
                }
                for p in &ann.planes {
                    if !known.contains(p.as_str()) {
                        findings.push(Finding::new(
                            &self.files[fi].path,
                            ann.line,
                            "A1",
                            format!(
                                "plane:dirty names unknown plane `{p}` (known: {})",
                                known.iter().copied().collect::<Vec<_>>().join(", ")
                            ),
                        ));
                    }
                }
            }
        }
        findings
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

/// Mask types: any type with ≥ 2 single-bit consts (`T(1 << n)`), plus
/// the expansion of every const of that type to primitive planes.
fn find_mask_types(files: &[SemFile]) -> BTreeMap<String, MaskInfo> {
    // Group consts by declared type name.
    let mut by_type: BTreeMap<&str, Vec<&crate::parser::ConstItem>> = BTreeMap::new();
    for file in files {
        for c in &file.parsed.consts {
            if let Some(ty) = c.ty.last() {
                by_type.entry(ty.as_str()).or_default().push(c);
            }
        }
    }
    // A single-bit const must *construct* the mask type (`Mask(1 << n)`):
    // plain `1 << n` integer consts (MSR bit positions, feature flags)
    // must not turn `u64` into a mask type.
    let single_bit = |ty: &str, c: &crate::parser::ConstItem| {
        c.rhs_shift
            && c.rhs_ints.len() == 2
            && c.rhs_ints[0] == 1
            && c.rhs_idents.first().map(String::as_str) == Some(ty)
    };
    const PRIMITIVES: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];

    let mut out = BTreeMap::new();
    for (ty, consts) in by_type {
        if PRIMITIVES.contains(&ty) {
            continue;
        }
        let primitives: BTreeSet<String> = consts
            .iter()
            .filter(|c| single_bit(ty, c))
            .map(|c| c.name.clone())
            .collect();
        if primitives.len() < 2 {
            continue;
        }
        let mut table: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for p in &primitives {
            table.insert(p.clone(), BTreeSet::from([p.clone()]));
        }
        // Non-primitive consts: NONE-like (zero literal) → empty;
        // aggregate literal (`T(0xFF)`) → all planes; unions of known
        // consts → resolved to fixpoint; anything unresolvable → all.
        let compound: Vec<&&crate::parser::ConstItem> =
            consts.iter().filter(|c| !single_bit(ty, c)).collect();
        let names: BTreeSet<&str> = consts.iter().map(|c| c.name.as_str()).collect();
        loop {
            let mut progressed = false;
            for c in &compound {
                if table.contains_key(&c.name) {
                    continue;
                }
                let refs: Vec<&String> = c
                    .rhs_idents
                    .iter()
                    .filter(|id| names.contains(id.as_str()) && *id != &c.name)
                    .collect();
                if refs.is_empty() {
                    let set = if c.rhs_ints.iter().all(|&v| v == 0) {
                        BTreeSet::new()
                    } else {
                        primitives.clone()
                    };
                    table.insert(c.name.clone(), set);
                    progressed = true;
                } else if refs.iter().all(|r| table.contains_key(*r)) {
                    let set = refs
                        .iter()
                        .flat_map(|r| table[*r].iter().cloned())
                        .collect();
                    table.insert(c.name.clone(), set);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        // Unresolved cycles: conservative, everything.
        for c in &compound {
            table
                .entry(c.name.clone())
                .or_insert_with(|| primitives.clone());
        }
        out.insert(
            ty.to_string(),
            MaskInfo {
                primitives,
                consts: table,
            },
        );
    }
    out
}

/// Annotations attached to the fn whose name token sits on `fn_line`: the
/// annotation ends within the 4 lines above (attributes may intervene).
fn find_anns_for_fn(anns: &mut [PlaneAnn], fn_line: u32) -> impl Iterator<Item = &mut PlaneAnn> {
    anns.iter_mut()
        .filter(move |a| a.malformed.is_none() && a.line < fn_line && fn_line - a.line <= 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::model::struct_defs;
    use crate::parser::parse;
    use crate::rules::parse_plane_anns;

    fn sem_file(path: &str, src: &str) -> (SemFile, Vec<PlaneAnn>) {
        let lexed = lex(src);
        (
            SemFile {
                path: path.to_string(),
                result_crate: true,
                parsed: parse(&lexed.tokens),
                structs: struct_defs(&lexed.tokens),
            },
            parse_plane_anns(&lexed.comments),
        )
    }

    /// A miniature Socket: mask type, audited struct, restore path that
    /// teaches the field→plane map, and a mix of marking styles.
    const MINI: &str = r#"
pub struct Mask(pub u16);
impl Mask {
    pub const NONE: Mask = Mask(0);
    pub const MSR: Mask = Mask(1 << 0);
    pub const WORK: Mask = Mask(1 << 1);
    pub const ALL: Mask = Mask(0x3);
}
pub struct Sock {
    msr: u64,
    threads: u32,
    dirty: Mask,
}
impl Sock {
    fn restore_planes(&mut self, planes: Mask) {
        if planes.intersects(Mask::MSR) {
            self.msr = 0;
        }
        if planes.intersects(Mask::WORK) {
            self.threads = 0;
        }
        self.dirty = Mask(self.dirty.0 & !planes.0);
    }
    pub fn good(&mut self) {
        self.msr += 1;
        self.dirty |= Mask::MSR;
    }
    pub fn via_choke(&mut self) {
        self.threads = 4;
        self.mark_work();
    }
    fn mark_work(&mut self) {
        self.dirty |= Mask::WORK;
    }
}
"#;

    fn check(src: &str) -> Vec<Finding> {
        let (f, anns) = sem_file("crates/node/src/sock.rs", src);
        let files = vec![f];
        let sem = Semantic::build(&files);
        let mut anns = vec![anns];
        let mut out = sem.check_m6(&mut anns);
        out.extend(sem.validate_ann_names(&anns));
        out
    }

    #[test]
    fn marked_and_choke_point_methods_are_clean() {
        assert_eq!(check(MINI), Vec::new());
    }

    #[test]
    fn unmarked_mutation_is_flagged_with_its_plane() {
        let src =
            format!("{MINI}\nimpl Sock {{\n    pub fn bad(&mut self) {{ self.msr = 7; }}\n}}\n");
        let f = check(&src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "M6");
        assert!(f[0]
            .message
            .contains("`Sock::bad` mutates `msr` (plane MSR)"));
    }

    #[test]
    fn deleting_a_mark_breaks_the_method_that_held_it() {
        let broken = MINI.replace("self.dirty |= Mask::MSR;", "");
        let f = check(&broken);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`Sock::good`"));
    }

    #[test]
    fn plane_annotation_covers_and_unknown_plane_is_a1() {
        let src = format!(
            "{MINI}\nimpl Sock {{\n    // plane:dirty(MSR): caller batches marks\n    \
             pub fn annotated(&mut self) {{ self.msr = 7; }}\n}}\n"
        );
        assert_eq!(check(&src), Vec::new());

        let src = format!(
            "{MINI}\nimpl Sock {{\n    // plane:dirty(BOGUS): nope\n    \
             pub fn annotated(&mut self) {{ self.msr = 7; }}\n}}\n"
        );
        let f = check(&src);
        assert!(
            f.iter()
                .any(|f| f.rule == "A1" && f.message.contains("BOGUS")),
            "{f:?}"
        );
        assert!(
            f.iter().any(|f| f.rule == "M6"),
            "annotation covered nothing: {f:?}"
        );
    }

    #[test]
    fn private_helper_covered_by_all_callers_passes() {
        let src = format!(
            "{MINI}\nimpl Sock {{\n    fn poke(&mut self) {{ self.msr = 1; }}\n    \
             pub fn outer(&mut self) {{ self.dirty |= Mask::MSR; self.poke(); }}\n}}\n"
        );
        assert_eq!(check(&src), Vec::new());

        // A pub method gets no such leniency.
        let src = format!(
            "{MINI}\nimpl Sock {{\n    pub fn poke(&mut self) {{ self.msr = 1; }}\n    \
             pub fn outer(&mut self) {{ self.dirty |= Mask::MSR; self.poke(); }}\n}}\n"
        );
        let f = check(&src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("poke"));
    }

    #[test]
    fn dynamic_mask_or_assignment_counts_as_full_coverage() {
        let src = format!(
            "{MINI}\nimpl Sock {{\n    \
             pub fn planes_mut(&mut self, planes: Mask) -> &mut Sock {{\n        \
                 self.dirty |= planes;\n        self.msr = 1;\n        self.threads = 2;\n        \
                 self\n    }}\n    \
             pub fn reset_all(&mut self) {{ self.dirty = Mask::ALL; self.msr = 0; }}\n}}\n"
        );
        assert_eq!(check(&src), Vec::new());
    }

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
            structs: struct_defs(&lexed.tokens),
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

    #[test]
    fn composite_consts_expand_to_their_union() {
        let src = r#"
pub struct Mask(pub u16);
impl Mask {
    pub const MSR: Mask = Mask(1 << 0);
    pub const WORK: Mask = Mask(1 << 1);
    pub const LOG: Mask = Mask(1 << 2);
}
pub const TICK: Mask = Mask::MSR.union(Mask::WORK);
pub struct Sock { msr: u64, threads: u32, log: u32, dirty: Mask }
impl Sock {
    fn restore_planes(&mut self, planes: Mask) {
        if planes.intersects(Mask::MSR) { self.msr = 0; }
        if planes.intersects(Mask::WORK) { self.threads = 0; }
        if planes.intersects(Mask::LOG) { self.log = 0; }
        self.dirty = Mask(0);
    }
    pub fn tick(&mut self) {
        self.msr = 1;
        self.threads = 2;
        self.dirty |= TICK;
    }
}
"#;
        let (f, _) = sem_file("crates/node/src/sock.rs", src);
        let files = vec![f];
        let sem = Semantic::build(&files);
        let mut anns = vec![Vec::new()];
        assert_eq!(sem.check_m6(&mut anns), Vec::new());

        // …but TICK does not cover LOG.
        let broken = src.replace("self.threads = 2;", "self.log = 9;");
        let (f, _) = sem_file("crates/node/src/sock.rs", &broken);
        let files = vec![f];
        let sem = Semantic::build(&files);
        let out = sem.check_m6(&mut anns);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("plane LOG"));
    }

    /// The acceptance gate for M6 against the production source it exists
    /// to guard: delete each `self.dirty |= …` mark from the *real*
    /// `socket.rs` in turn and assert the rule catches every one.
    #[test]
    fn deleting_any_real_socket_mark_is_caught() {
        let root =
            crate::workspace::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
                .expect("lint crate lives inside the workspace");
        let src = std::fs::read_to_string(root.join("crates/node/src/socket.rs"))
            .expect("read socket.rs");

        // Full workspace file set: some socket mutations go through methods
        // of other crates (`MsrBank::store`), whose `&mut self`-ness the
        // model learns from their defining files.
        let targets = crate::workspace::scan_targets(&root).expect("scan workspace");
        let m6_of = |source: &str| -> Vec<Finding> {
            let mut files = Vec::new();
            let mut anns = Vec::new();
            for (rel, abs) in &targets {
                let src = if rel == "crates/node/src/socket.rs" {
                    source.to_string()
                } else {
                    std::fs::read_to_string(abs).expect("read workspace file")
                };
                let (f, a) = sem_file(rel, &src);
                files.push(f);
                anns.push(a);
            }
            let sem = Semantic::build(&files);
            sem.check_m6(&mut anns)
        };
        assert_eq!(m6_of(&src), Vec::new(), "pristine socket.rs must be clean");

        let lines: Vec<&str> = src.lines().collect();
        let mark_lines: Vec<usize> = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.trim_start().starts_with("self.dirty |="))
            .map(|(i, _)| i)
            .collect();
        assert!(
            mark_lines.len() >= 10,
            "expected the full complement of marks, found {}",
            mark_lines.len()
        );
        for &ml in &mark_lines {
            let mutated = lines
                .iter()
                .enumerate()
                .map(|(i, l)| if i == ml { "" } else { l })
                .collect::<Vec<_>>()
                .join("\n");
            let findings = m6_of(&mutated);
            assert!(
                !findings.is_empty(),
                "deleting the mark at socket.rs:{} went undetected",
                ml + 1
            );
            assert!(findings.iter().all(|f| f.rule == "M6"), "{findings:?}");
        }
    }
}
