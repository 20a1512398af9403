//! Workspace discovery and the one scan path: which files to scan and
//! under which rule scope, the tier-1 textual rules, M4 snapshot
//! coverage, the semantic tier (M6/P1), and central suppression with
//! stale-directive detection (A2). Every run reads and lints every file.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::lex;
use crate::model;
use crate::parser;
use crate::rules::{self, FileScope, Finding, KNOWN_RULES};
use crate::semantic::{SemFile, Semantic};

/// Call-graph roots for the P1 panic-path audit: the per-tick entry
/// points whose transitive callees run once per simulated millisecond
/// per sweep point.
const P1_ROOTS: &[(&str, &str)] = &[("Socket", "tick"), ("Node", "step")];

/// Crates whose output feeds `survey.json` (directly or through the node
/// model); D1/D2 apply in full. `tools` drives interactive binaries,
/// `bench` measures wall time by design, and `shims/` vendors external
/// API surfaces — all exempt from D1/D2, but S1 still applies everywhere.
pub const RESULT_CRATES: &[&str] = &[
    "analytic", "core", "cstates", "exec", "fleet", "hwspec", "memhier", "msr", "node", "pcu",
    "power",
];

/// Directories whose `.rs` files are scanned, relative to the root.
const SCAN_DIRS: &[&str] = &["crates", "shims", "src", "tests"];

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Collect every `.rs` file to scan, sorted, as (relative path, absolute
/// path). Skips `target/`, hidden directories, and lint-test `fixtures/`
/// corpora (deliberately-bad sources).
pub(crate) fn scan_targets(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        let abs = root.join(dir);
        if abs.is_dir() {
            walk(&abs, &mut files)?;
        }
    }
    let mut out: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            (rel, p)
        })
        .collect();
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// The rule scope of one workspace-relative path.
pub fn scope_of(rel_path: &str) -> FileScope {
    let result_crate = rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .map(|krate| RESULT_CRATES.contains(&krate))
        .unwrap_or(false);
    // hwspec is the generation-policy home: its spec tables and the
    // `FirmwarePolicy` dispatch are the one sanctioned place to branch on
    // `CpuGeneration` (M5).
    let generation_policy = rel_path.starts_with("crates/hwspec/");
    FileScope {
        result_crate,
        generation_policy,
    }
}

/// Run every rule over the workspace at `root`; findings come back sorted
/// by (path, line, rule). A root with no Rust sources under its scan
/// directories is an error, not an empty (clean) result.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    // Read every scanned file once; everything below works off this set.
    let mut sources: Vec<(String, String)> = Vec::new();
    for (rel, abs) in scan_targets(root)? {
        sources.push((rel, fs::read_to_string(&abs)?));
    }
    if sources.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "no Rust sources under {} (scanned {}) — wrong --root?",
                root.display(),
                SCAN_DIRS.join(", ")
            ),
        ));
    }

    let mut raw = Vec::new();
    let mut allows = Vec::new();
    let mut anns = Vec::new();
    let mut markers = Vec::new();
    let mut sem_files = Vec::new();
    for (rel, src) in &sources {
        let lexed = lex(src);
        allows.push(rules::parse_allows(&lexed.comments));
        anns.push(rules::parse_plane_anns(&lexed.comments));
        markers.push(model::snap_skip_markers(&lexed.comments));
        raw.extend(rules::tier1_findings(rel, &lexed, scope_of(rel)));
        sem_files.push(SemFile {
            path: rel.clone(),
            result_crate: scope_of(rel).result_crate,
            parsed: parser::parse(&lexed.tokens),
            structs: model::struct_defs(&lexed.tokens),
        });
    }

    // Tier 2: snapshot field coverage across every scanned file.
    let (m4, used_markers) = model::check_snapshots_with_usage(&sources);
    raw.extend(m4);

    // Tier 3: the semantic model — M6 dirty-plane coverage and the P1
    // panic-path audit. `check_m6` also marks which `plane:dirty`
    // annotations actually covered something.
    let sem = Semantic::build(&sem_files);
    raw.extend(sem.check_m6(&mut anns));
    raw.extend(sem.check_p1(P1_ROOTS));
    let mut findings = sem.validate_ann_names(&anns);

    // Central suppression: justified allows remove findings of their rule
    // on their line or the line below, and get marked used.
    let file_index: BTreeMap<&str, usize> = sources
        .iter()
        .enumerate()
        .map(|(i, (rel, _))| (rel.as_str(), i))
        .collect();
    raw.retain(|f| match file_index.get(f.path.as_str()) {
        Some(&fi) => !rules::suppressed(f, &mut allows[fi]),
        None => true,
    });
    findings.extend(raw);

    // A1 (malformed directives) and A2 (stale suppressions) — never
    // themselves suppressible.
    for (fi, (rel, _)) in sources.iter().enumerate() {
        findings.extend(rules::directive_findings(rel, &allows[fi], &anns[fi]));
        for a in &allows[fi] {
            if a.justified && KNOWN_RULES.contains(&a.rule.as_str()) && !a.used {
                findings.push(Finding::new(
                    rel,
                    a.line,
                    "A2",
                    format!(
                        "lint:allow({}) suppresses nothing — the finding it once \
                         silenced is gone; delete the stale directive",
                        a.rule
                    ),
                ));
            }
        }
        for m in &markers[fi] {
            if m.justified && !used_markers.contains(&(fi, m.end_line)) {
                findings.push(Finding::new(
                    rel,
                    m.end_line,
                    "A2",
                    "snap:skip marks nothing — no snapshot-missing field sits on the \
                     line below; the field was captured, renamed, or removed; delete \
                     the stale marker"
                        .to_string(),
                ));
            }
        }
        for ann in &anns[fi] {
            if ann.malformed.is_none() && !ann.used {
                findings.push(Finding::new(
                    rel,
                    ann.line,
                    "A2",
                    "plane:dirty covers nothing — every plane the method mutates \
                     is already marked (or the annotation is not attached to a \
                     `&mut self` method); delete the stale annotation"
                        .to_string(),
                ));
            }
        }
    }

    findings.sort();
    findings.dedup();
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_crate_scoping() {
        assert!(scope_of("crates/msr/src/gate.rs").result_crate);
        assert!(scope_of("crates/core/src/survey.rs").result_crate);
        assert!(scope_of("crates/fleet/src/variation.rs").result_crate);
        assert!(scope_of("crates/analytic/src/model.rs").result_crate);
        assert!(!scope_of("crates/bench/src/lib.rs").result_crate);
        assert!(!scope_of("crates/tools/src/stress.rs").result_crate);
        assert!(!scope_of("shims/rayon/src/pool.rs").result_crate);
        assert!(!scope_of("src/bin/survey.rs").result_crate);
        assert!(!scope_of("tests/sweep_determinism.rs").result_crate);
    }

    #[test]
    fn the_workspace_itself_is_lint_clean() {
        // The acceptance gate of the whole rule set: the repo this crate
        // lives in passes its own lint with zero findings. (Same check CI
        // runs via `cargo run -p hsw-lint --release`.)
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("lint crate lives inside the workspace");
        let findings = lint_workspace(&root).expect("workspace scan");
        assert!(
            findings.is_empty(),
            "workspace has lint findings:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn no_workspace_file_panics_the_linter() {
        // Every tier (lexer, textual rules, parser) over every scanned
        // file, one at a time, so a panic names its file instead of dying
        // inside the workspace pass.
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        for (rel, abs) in scan_targets(&root).expect("scan") {
            let src = fs::read_to_string(&abs).expect("read");
            let r = std::panic::catch_unwind(|| {
                let lexed = lex(&src);
                rules::scan_file(&rel, &src, scope_of(&rel));
                parser::parse(&lexed.tokens);
                model::struct_defs(&lexed.tokens);
            });
            assert!(r.is_ok(), "linter panicked on {rel}");
        }
    }

    #[test]
    fn stale_suppressions_are_a2_on_a_synthetic_root() {
        // A justified allow for a finding that no longer exists, and a
        // well-formed plane annotation covering nothing, must both rot
        // into A2 findings; a *working* allow must not.
        let dir = std::env::temp_dir().join(format!("hsw-lint-a2-{}", std::process::id()));
        let src_dir = dir.join("crates/core/src");
        fs::create_dir_all(&src_dir).expect("mkdir");
        fs::write(
            src_dir.join("lib.rs"),
            "// lint:allow(D1): stale — the Instant::now this silenced is long gone\n\
             fn quiet() {}\n\
             // lint:allow(D2): live — suppresses the map below\n\
             fn live() { let m = HashMap::new(); }\n\
             // plane:dirty(MSR): covers nothing here\n\
             fn unannotated() {}\n",
        )
        .expect("write fixture");

        let findings = lint_workspace(&dir).expect("scan synthetic root");
        let a2: Vec<_> = findings.iter().filter(|f| f.rule == "A2").collect();
        assert!(
            a2.iter()
                .any(|f| f.line == 1 && f.message.contains("lint:allow(D1)")),
            "stale allow not flagged: {findings:?}"
        );
        assert!(
            a2.iter().any(|f| f.message.contains("plane:dirty")),
            "stale plane annotation not flagged: {findings:?}"
        );
        assert!(
            !findings
                .iter()
                .any(|f| f.rule == "D2" || (f.rule == "A2" && f.line == 3)),
            "the live allow should suppress and not be stale: {findings:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
