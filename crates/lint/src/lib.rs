//! `hsw-lint` — project-specific static analysis for the Haswell survey
//! workspace.
//!
//! The reproduction's central guarantee is the determinism contract:
//! `survey.json` is byte-identical for any `--jobs`, any
//! `RAYON_NUM_THREADS`, and either time engine. The dynamic tests pin that
//! contract end to end (subprocess `cmp` legs in CI), but they only catch
//! a regression *after* it changes bytes. This crate catches the ways such
//! regressions enter codebases like this one — wall-clock / ambient
//! entropy in a result path, unordered-collection iteration,
//! scheduler-ordered float reductions — at the source level, plus the
//! cross-file invariants no compiler pass or test checks: snapshot field
//! coverage (M4), generation dispatch outside the policy layer (M5),
//! dirty-plane marking (M6) and panic paths under the tick (P1).
//!
//! No `syn`, no crates.io: a small token-level lexer ([`lexer`]) feeds the
//! textual rules ([`rules`]), the snapshot model ([`model`]) and an
//! item/call-graph parser ([`parser`], [`semantic`]);
//! [`workspace::lint_workspace`] runs all of them over every file on each
//! run. Suppressions are per-line `// lint:allow(rule): <justification>`
//! comments; an allow without a justification suppresses nothing.

pub mod lexer;
pub mod model;
pub mod parser;
pub mod rules;
pub mod semantic;
pub mod workspace;

pub use rules::{scan_file, FileScope, Finding, KNOWN_RULES};
pub use workspace::{find_workspace_root, lint_workspace};
