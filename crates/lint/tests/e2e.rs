//! End-to-end tests: the `hsw-lint` binary against the bad fixture (must
//! flag and exit nonzero), against the real workspace (must be clean and
//! fast), and against bad arguments (must exit 2).

use std::path::Path;
use std::process::Command;

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .display()
        .to_string()
}

#[test]
fn bad_fixture_is_flagged_and_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_hsw-lint"))
        .args(["--check-file", &fixture("bad.rs")])
        .output()
        .expect("run hsw-lint");
    assert!(
        !out.status.success(),
        "hsw-lint accepted the bad fixture: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for (rule, needle) in [
        ("D1", "Instant::now"),
        ("D2", "HashMap"),
        ("D3", "parallel source"),
        ("D3", "total_cmp"),
        ("S1", "SAFETY"),
        ("A1", "justification"),
    ] {
        assert!(
            stdout
                .lines()
                .any(|l| l.contains(&format!(" {rule}: ")) && l.contains(needle)),
            "missing {rule} finding mentioning {needle:?} in:\n{stdout}"
        );
    }
    // The literal-bait function at the bottom (line 37 on) must not be
    // flagged: its trigger words all live inside string/char literals.
    for line in stdout.lines() {
        let n: u32 = line
            .split(':')
            .nth(1)
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unparseable finding line: {line}"));
        assert!(n < 37, "flagged inside the literal-bait block:\n{stdout}");
    }
    // Findings are path:line: rule: message.
    assert!(
        stdout.lines().all(|l| l.contains("bad.rs:")),
        "unexpected finding format:\n{stdout}"
    );
}

#[test]
fn the_real_workspace_exits_zero() {
    // CI runs the lint on every push, and every run is a full scan:
    // guard the budget for one run, well under 2 s even on a loaded box.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .display()
        .to_string();
    let t0 = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_hsw-lint"))
        .args(["--root", &root])
        .output()
        .expect("run hsw-lint");
    let elapsed = t0.elapsed();
    assert!(
        out.status.success(),
        "workspace has findings:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "full workspace lint took {elapsed:?} (budget 2 s)"
    );
}

/// Run the binary with `args`; (exit code, stderr).
fn lint(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hsw-lint"))
        .args(args)
        .output()
        .expect("run hsw-lint");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    let (code, err) = lint(&["--frobnicate"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn check_file_without_a_value_exits_2() {
    let (code, err) = lint(&["--check-file"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("--check-file needs a value"), "{err}");
}

#[test]
fn root_without_a_value_exits_2() {
    let (code, err) = lint(&["--root"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("--root needs a value"), "{err}");
}

#[test]
fn root_without_rust_sources_exits_2() {
    let empty = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hsw-lint-empty-root");
    std::fs::create_dir_all(&empty).expect("mkdir");
    let missing = empty.join("missing");
    for dir in [&empty, &missing] {
        let (code, err) = lint(&["--root", &dir.display().to_string()]);
        assert_eq!(code, Some(2), "{}: {err}", dir.display());
        assert!(err.contains("no Rust sources"), "{}: {err}", dir.display());
    }
}
