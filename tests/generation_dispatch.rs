//! Generation dispatch lives in hwspec (DESIGN.md §11): outside it, no code
//! branches on a `CpuGeneration` variant, so a new generation lands in
//! hwspec's policy and data tables alone.

mod common;

use std::path::Path;

use common::rust_files;

/// The lines of `src` that branch on a `CpuGeneration` variant or import
/// the variants, with what was found there. Test code, from the first
/// top-level `#[cfg(test)]` on, is not read.
fn dispatch_sites(src: &str) -> Vec<(usize, &'static str)> {
    let code: Vec<&str> = src
        .lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .collect();
    let code = code.join("\n");
    let line_of = |at: usize| code[..at].matches('\n').count() + 1;
    let mut sites = Vec::new();
    for (at, path) in code.match_indices("CpuGeneration::") {
        let rest = &code[at + path.len()..];
        let after = rest
            .trim_start_matches(|c: char| c.is_alphanumeric() || c == '_')
            .trim_start();
        if rest.starts_with(['*', '{']) {
            sites.push((line_of(at), "import of the variants"));
        } else if after.starts_with("=>") || (after.starts_with('|') && !after.starts_with("||")) {
            sites.push((line_of(at), "match arm"));
        } else if code[..at].split_whitespace().next_back() == Some("let") {
            sites.push((line_of(at), "let pattern"));
        }
    }
    for (at, open) in code.match_indices("matches!(") {
        let mut depth = 1;
        let args = &code[at + open.len()..];
        let len = args
            .find(|c| {
                depth += match c {
                    '(' => 1,
                    ')' => -1,
                    _ => 0,
                };
                depth == 0
            })
            .unwrap_or(args.len());
        if args[..len].contains("CpuGeneration::") {
            sites.push((line_of(at), "matches! on a variant"));
        }
    }
    sites
}

#[test]
fn no_code_outside_hwspec_dispatches_on_a_cpu_generation() {
    let seeded = "use hsw_hwspec::CpuGeneration::*;\n\
                  let x = match g {\n    CpuGeneration::HaswellEp | CpuGeneration::HaswellHe => 1,\n    \
                  CpuGeneration::SkylakeSp => 2,\n    _ => 0,\n};\n\
                  if let CpuGeneration::WestmereEp = g {}\n\
                  let y = matches!(g, CpuGeneration::SandyBridgeEp);\n\
                  let z = g == CpuGeneration::HaswellEp || g == CpuGeneration::SkylakeSp;\n";
    let lines: Vec<usize> = dispatch_sites(seeded).iter().map(|s| s.0).collect();
    assert_eq!(lines, [1, 3, 3, 4, 7, 8], "the scan misses a seeded site");

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("list crates") {
        let krate = entry.expect("directory entry").path();
        if !krate.ends_with("hwspec") {
            rust_files(&krate.join("src"), &mut files);
        }
    }
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    assert!(files.len() > 50, "found only {} source files", files.len());

    let mut found = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file).expect("read a source file");
        for (line, what) in dispatch_sites(&src) {
            let rel = file.strip_prefix(root).unwrap_or(file).display();
            found.push(format!("{rel}:{line}: {what}"));
        }
    }
    assert!(
        found.is_empty(),
        "dispatch on CpuGeneration outside hwspec; move it behind \
         `FirmwarePolicy` or a hwspec data table:\n{}",
        found.join("\n")
    );
}
