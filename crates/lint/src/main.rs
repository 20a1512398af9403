//! The `hsw-lint` binary: lint the workspace (or a single file), print
//! `path:line: rule: message` findings, exit 1 on any and 2 on bad input.

use std::path::PathBuf;
use std::process::ExitCode;

use hsw_lint::{find_workspace_root, lint_workspace, rules, FileScope, Finding};

const USAGE: &str = "\
hsw-lint — determinism-contract, snapshot and panic-path static analysis

USAGE:
    hsw-lint [--root <dir>]
    hsw-lint --check-file <file.rs>

OPTIONS:
    --root <dir>        Workspace root (default: walk up from cwd to the
                        directory whose Cargo.toml declares [workspace])
    --check-file <f>    Lint one file with the full tier-1 rule set
                        (treated as a result-producing crate)
    -h, --help          This text

RULES:
    D1  no Instant::now/SystemTime/thread_rng/rand::random in result crates
    D2  no HashMap/HashSet in result crates (use BTreeMap/BTreeSet)
    D3  no float reductions over parallel sources in result crates, and no
        partial_cmp().unwrap() comparators (use f64::total_cmp)
    S1  every `unsafe` needs a preceding `// SAFETY:` comment
    A1  malformed `// lint:allow(…)` directive
    A2  stale directives: a justified lint:allow or snap:skip that no
        longer suppresses/declares anything must be deleted
    M4  every field of a struct with an `XSnapshot` companion is captured
        or carries a justified `// snap:skip(<why>)`
    M5  no match/if-let/matches! on CpuGeneration outside hwspec's policy layer
    P1  no .unwrap()/.expect()/computed indexing in result-crate code
        reachable from Socket::tick / Node::step (a panic there poisons
        every sweep point sharing the worker pool)

Suppress a finding with `// lint:allow(rule): <why this is sound>` on the
same line or the line above. Unjustified allows suppress nothing, and
allows that no longer match a finding rot into A2.

EXIT STATUS:
    0 clean, 1 findings, 2 bad arguments or nothing to lint
";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("hsw-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut check_file: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--root" => &mut root,
            "--check-file" => &mut check_file,
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        };
        match args.next() {
            Some(value) => *slot = Some(PathBuf::from(value)),
            None => return usage_error(&format!("{arg} needs a value")),
        }
    }

    let findings: Vec<Finding> = if let Some(file) = check_file {
        let src = match std::fs::read_to_string(&file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("hsw-lint: cannot read {}: {e}", file.display());
                return ExitCode::from(2);
            }
        };
        rules::scan_file(
            &file.display().to_string(),
            &src,
            FileScope {
                result_crate: true,
                generation_policy: false,
            },
        )
    } else {
        let root = match root.or_else(|| {
            std::env::current_dir()
                .ok()
                .and_then(|d| find_workspace_root(&d))
        }) {
            Some(r) => r,
            None => {
                eprintln!("hsw-lint: no workspace root found (pass --root)");
                return ExitCode::from(2);
            }
        };
        match lint_workspace(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("hsw-lint: scan failed: {e}");
                return ExitCode::from(2);
            }
        }
    };

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!("hsw-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("hsw-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
