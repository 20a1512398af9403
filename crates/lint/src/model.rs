//! Tier-2 (model) rule M4: every `XSnapshot` struct accounts for each
//! field of its source struct `X` — captured by name, or marked with a
//! justified `// snap:skip(<why>)`.
//!
//! The check reads struct definitions and `snap:skip` comments through the
//! same lexer the textual rules use, not arbitrary Rust; the workspace pass
//! lexes each file once and hands M4 its `SnapshotScan`. The MSR tables
//! and the experiment registry are not linted: tests in `hsw-msr`
//! (`fields`, `gate`) and `tests/survey_registry.rs` hold their
//! invariants.

use std::collections::BTreeSet;

use crate::lexer::{Comment, Lexed, Token, TokenKind};
use crate::rules::Finding;

fn as_ident(t: &Token) -> Option<&str> {
    match &t.kind {
        TokenKind::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(t: &Token, p: &str) -> bool {
    matches!(&t.kind, TokenKind::Punct(q) if *q == p)
}

/// A named struct field: its name and line.
pub(crate) struct FieldDef {
    pub(crate) name: String,
    pub(crate) line: u32,
}

/// A struct definition: name, line, and its named fields.
pub(crate) struct StructDef {
    pub(crate) name: String,
    pub(crate) line: u32,
    pub(crate) fields: Vec<FieldDef>,
}

/// Extract every `struct Name { field: Ty, … }` definition. Tuple and unit
/// structs have no named fields and are skipped. Field names are the
/// identifiers followed by a single `:` at struct-brace depth 1 outside any
/// parens/brackets/generics — unambiguous because the lexer joins `::`
/// into one token — and a field's type runs to its terminating `,`.
pub(crate) fn struct_defs(tokens: &[Token]) -> Vec<StructDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < tokens.len() {
        if as_ident(&tokens[i]) != Some("struct") {
            i += 1;
            continue;
        }
        let Some(name) = as_ident(&tokens[i + 1]) else {
            i += 1;
            continue;
        };
        let (name, line) = (name.to_string(), tokens[i + 1].line);
        // Walk over generics/where to the body `{`; `;` or `(` first means
        // a unit or tuple struct. Angle depth keeps `(` inside bounds like
        // `<F: Fn(u32)>` from ending the walk (`->` is one joined token).
        let mut j = i + 2;
        let mut angle = 0i32;
        let mut body = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if is_punct(t, "<") {
                angle += 1;
            } else if is_punct(t, "<<") {
                angle += 2;
            } else if is_punct(t, ">") {
                angle -= 1;
            } else if is_punct(t, ">>") {
                angle -= 2;
            } else if angle == 0 && (is_punct(t, ";") || is_punct(t, "(")) {
                break;
            } else if angle == 0 && is_punct(t, "{") {
                body = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = body else {
            i = j;
            continue;
        };
        let mut fields: Vec<FieldDef> = Vec::new();
        let (mut depth, mut paren, mut bracket, mut fangle) = (1usize, 0i32, 0i32, 0i32);
        // Whether we are between a field's `:` and its terminating `,`.
        let mut in_type = false;
        let mut k = open + 1;
        while k < tokens.len() && depth > 0 {
            let t = &tokens[k];
            if is_punct(t, "{") {
                depth += 1;
            } else if is_punct(t, "}") {
                depth -= 1;
            } else if is_punct(t, "(") {
                paren += 1;
            } else if is_punct(t, ")") {
                paren -= 1;
            } else if is_punct(t, "[") {
                bracket += 1;
            } else if is_punct(t, "]") {
                bracket -= 1;
            } else if is_punct(t, "<") {
                fangle += 1;
            } else if is_punct(t, "<<") {
                // The lexer joins shift operators, so `Vec<Vec<u8>>` closes
                // with a single `>>` token: count joined tokens as two.
                fangle += 2;
            } else if is_punct(t, ">") {
                fangle -= 1;
            } else if is_punct(t, ">>") {
                fangle -= 2;
            } else if in_type
                && depth == 1
                && paren == 0
                && bracket == 0
                && fangle == 0
                && is_punct(t, ",")
            {
                in_type = false;
            } else if depth == 1
                && paren == 0
                && bracket == 0
                && fangle == 0
                && !in_type
                && as_ident(t).is_some()
                && tokens.get(k + 1).is_some_and(|n| is_punct(n, ":"))
            {
                fields.push(FieldDef {
                    name: as_ident(t).unwrap().to_string(),
                    line: t.line,
                });
                in_type = true;
                k += 2;
                continue;
            }
            k += 1;
        }
        out.push(StructDef { name, line, fields });
        i = k;
    }
    out
}

/// A `// snap:skip(<why>)` marker: a field-level declaration that a piece
/// of state is deliberately not captured in the snapshot.
pub(crate) struct SkipMarker {
    pub(crate) line: u32,
    pub(crate) end_line: u32,
    pub(crate) justified: bool,
}

fn snap_skip_markers(comments: &[Comment]) -> Vec<SkipMarker> {
    comments
        .iter()
        .filter_map(|c| {
            // Doc comments contribute a leading `/` or `!` to the text.
            let t = c.text.trim_start_matches(['/', '!']).trim_start();
            let rest = t.strip_prefix("snap:skip(")?;
            let close = rest.rfind(')')?;
            Some(SkipMarker {
                line: c.line,
                end_line: c.end_line,
                justified: !rest[..close].trim().is_empty(),
            })
        })
        .collect()
}

/// One file's struct definitions and `snap:skip` markers — what M4 reads.
pub(crate) struct SnapshotScan {
    pub(crate) structs: Vec<StructDef>,
    pub(crate) markers: Vec<SkipMarker>,
}

impl SnapshotScan {
    pub(crate) fn of(lexed: &Lexed) -> SnapshotScan {
        SnapshotScan {
            structs: struct_defs(&lexed.tokens),
            markers: snap_skip_markers(&lexed.comments),
        }
    }
}

/// Resolve the source struct `stem` for a snapshot defined in file
/// `snap_fi`: same file first, then the same crate, then anywhere (files
/// arrive path-sorted, so ties resolve deterministically).
fn find_source_struct<'a>(
    paths: &[&str],
    scans: &'a [SnapshotScan],
    snap_fi: usize,
    stem: &str,
) -> Option<(usize, &'a StructDef)> {
    if let Some(d) = scans[snap_fi].structs.iter().find(|d| d.name == stem) {
        return Some((snap_fi, d));
    }
    let crate_of = |p: &str| {
        let mut it = p.split('/');
        match (it.next(), it.next()) {
            (Some("crates"), Some(k)) => format!("crates/{k}"),
            (Some(first), _) => first.to_string(),
            _ => String::new(),
        }
    };
    let snap_crate = crate_of(paths[snap_fi]);
    let candidates: Vec<(usize, &StructDef)> = scans
        .iter()
        .enumerate()
        .flat_map(|(fi, s)| s.structs.iter().map(move |d| (fi, d)))
        .filter(|(_, d)| d.name == stem)
        .collect();
    candidates
        .iter()
        .find(|(fi, _)| crate_of(paths[*fi]) == snap_crate)
        .or_else(|| candidates.first())
        .copied()
}

/// M4: every struct with a plain-data `<X>Snapshot` companion must account
/// for each of its fields — captured by name in the snapshot, or marked
/// with a justified `// snap:skip(<why>)` on the field's line or the line
/// directly above. This is the determinism half of the warm-start
/// contract: a stateful field silently missing from the snapshot is
/// exactly how a forked sweep point diverges from its cold re-run.
///
/// `paths[i]` is the workspace-relative path of the file `scans[i]` was
/// read from. Also returns which justified `snap:skip` markers suppressed
/// a missing-field finding — `(file index, marker end line)` pairs; the
/// workspace pass flags justified markers that suppressed nothing as
/// stale (A2).
pub(crate) fn check_snapshots(
    paths: &[&str],
    scans: &[SnapshotScan],
) -> (Vec<Finding>, BTreeSet<(usize, u32)>) {
    let mut findings = Vec::new();
    let mut used = BTreeSet::new();
    let mut any_snapshot = false;
    for (snap_fi, snap_path) in paths.iter().enumerate() {
        for snap in &scans[snap_fi].structs {
            // A bare `Snapshot` (empty stem) names no source struct — the
            // telemetry sample type, not a state image.
            let Some(stem) = snap.name.strip_suffix("Snapshot").filter(|s| !s.is_empty()) else {
                continue;
            };
            any_snapshot = true;
            let Some((src_fi, src_def)) = find_source_struct(paths, scans, snap_fi, stem) else {
                findings.push(Finding::new(
                    snap_path,
                    snap.line,
                    "M4",
                    format!(
                        "`{}` has no source struct `{stem}` anywhere in the workspace — \
                         source renamed without updating its snapshot?",
                        snap.name
                    ),
                ));
                continue;
            };
            let snap_fields: BTreeSet<&str> = snap.fields.iter().map(|f| f.name.as_str()).collect();
            let src_path = paths[src_fi];
            for FieldDef {
                name: fname,
                line: fline,
            } in &src_def.fields
            {
                if snap_fields.contains(fname.as_str()) {
                    continue;
                }
                let marker = scans[src_fi].markers.iter().find(|m| {
                    (m.line <= *fline && *fline <= m.end_line) || m.end_line + 1 == *fline
                });
                match marker {
                    Some(m) if m.justified => {
                        used.insert((src_fi, m.end_line));
                    }
                    Some(m) => findings.push(Finding::new(
                        src_path,
                        m.end_line,
                        "M4",
                        format!(
                            "`{stem}.{fname}` has `snap:skip()` without a justification; \
                             write `// snap:skip(<why this state is rebuilt, not captured>)`"
                        ),
                    )),
                    None => findings.push(Finding::new(
                        src_path,
                        *fline,
                        "M4",
                        format!(
                            "`{stem}.{fname}` is not captured in `{}` and carries no \
                             `// snap:skip(<why>)` marker — a restored node would lose it",
                            snap.name
                        ),
                    )),
                }
            }
        }
    }

    if !any_snapshot {
        findings.push(Finding::new(
            ".",
            1,
            "M4",
            "no `*Snapshot` structs found in the scan set — snapshot layer moved or \
             renamed; parser and files have diverged"
                .to_string(),
        ));
    }

    findings.sort();
    (findings, used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// M4 over `(path, source)` pairs: lex each file, then check.
    fn check_sources(files: &[(String, String)]) -> Vec<Finding> {
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        let scans: Vec<SnapshotScan> = files
            .iter()
            .map(|(_, src)| SnapshotScan::of(&lex(src)))
            .collect();
        check_snapshots(&paths, &scans).0
    }

    // A clean source/snapshot pair: one captured field, one justified
    // skip, one field whose capture the seeded tests remove.
    const SNAP_OK: &str = "\
pub struct Engine<F: Fn(u32) -> u32> {
    ticks: u64,
    // snap:skip(construction-time constant, rebuilt by Engine::new)
    ratio: f64,
    queue: Vec<(u32, u64)>,
    hook: F,
}

#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    pub ticks: u64,
    pub queue: Vec<(u32, u64)>,
    pub hook: u32,
}
";

    fn snap_files(srcs: &[(&str, &str)]) -> Vec<(String, String)> {
        srcs.iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    #[test]
    fn m4_accepts_a_clean_pair() {
        let f = check_sources(&snap_files(&[("x.rs", SNAP_OK)]));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn m4_catches_an_uncaptured_unmarked_field() {
        let src = SNAP_OK.replace("    pub queue: Vec<(u32, u64)>,\n", "");
        let f = check_sources(&snap_files(&[("x.rs", &src)]));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "M4");
        assert!(f[0].message.contains("`Engine.queue`"), "{f:?}");
    }

    #[test]
    fn m4_catches_a_skip_without_justification() {
        let src = SNAP_OK.replace(
            "snap:skip(construction-time constant, rebuilt by Engine::new)",
            "snap:skip()",
        );
        let f = check_sources(&snap_files(&[("x.rs", &src)]));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "M4");
        assert!(f[0].message.contains("without a justification"), "{f:?}");
    }

    #[test]
    fn m4_catches_a_snapshot_without_a_source_struct() {
        let src = SNAP_OK.replace("pub struct Engine<", "pub struct Motor<");
        let f = check_sources(&snap_files(&[("x.rs", &src)]));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "M4");
        assert!(f[0].message.contains("no source struct `Engine`"), "{f:?}");
    }

    #[test]
    fn m4_resolves_the_source_struct_across_files() {
        let source = "pub struct Engine {\n    ticks: u64,\n    scratch: Vec<u8>,\n}\n";
        let snap = "pub struct EngineSnapshot {\n    ticks: u64,\n}\n";
        let f = check_sources(&snap_files(&[("a.rs", source), ("b.rs", snap)]));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].path, "a.rs");
        assert!(f[0].message.contains("`Engine.scratch`"), "{f:?}");
    }

    #[test]
    fn m4_covers_fleet_variation_structs_with_snapshot_companions() {
        // The fleet crate gets no exemption: if a variation struct ever
        // grows a snapshot companion (e.g. to carry a member's drawn
        // identity through a fork), its fields fall under the same
        // captured-or-justified audit as the node state.
        let variation = "\
pub struct ChipVariation {
    pub leak_scale: f64,
    pub vcorner_v: f64,
    scratch: Vec<f64>,
}
";
        let snap = "\
pub struct ChipVariationSnapshot {
    pub leak_scale: f64,
    pub vcorner_v: f64,
}
";
        let f = check_sources(&snap_files(&[
            ("crates/fleet/src/variation.rs", variation),
            ("crates/node/src/node.rs", snap),
        ]));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "M4");
        assert_eq!(f[0].path, "crates/fleet/src/variation.rs");
        assert!(f[0].message.contains("`ChipVariation.scratch`"), "{f:?}");
        // A justified skip clears it — the ordinary mechanism, not a
        // fleet-specific carve-out.
        let fixed = variation.replace(
            "    scratch: Vec<f64>,",
            "    // snap:skip(per-step scratch, rebuilt by the fork)\n    scratch: Vec<f64>,",
        );
        let f = check_sources(&snap_files(&[
            ("crates/fleet/src/variation.rs", &fixed),
            ("crates/node/src/node.rs", snap),
        ]));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn m4_accepts_a_trailing_skip_marker() {
        let src = "struct E {\n    a: u64,\n    b: u8, // snap:skip(scratch, rebuilt per step)\n}\nstruct ESnapshot {\n    a: u64,\n}\n";
        let f = check_sources(&snap_files(&[("x.rs", src)]));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn m4_ignores_the_bare_snapshot_type_and_tuple_structs() {
        // `Snapshot` (empty stem) is the telemetry sample type, and tuple
        // structs have no named fields to audit.
        let src = "pub struct Snapshot {\n    watts: f64,\n}\npub struct Pair(u32, u64);\n";
        let f = check_sources(&snap_files(&[("x.rs", src)]));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("no `*Snapshot` structs"), "{f:?}");
    }

    #[test]
    fn m4_reports_divergence_when_no_snapshots_exist() {
        let f = check_sources(&snap_files(&[("x.rs", "fn main() {}")]));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "M4");
        assert!(f[0].message.contains("diverged"), "{f:?}");
    }
}
