//! The differential-oracle matrix: `survey.json` must not depend on the
//! time engine, on warm start, or on `--jobs` and the sweep pool's width.
//!
//! Each leg runs the `survey` binary in two cells: a reference cell R
//! (event engine, warm start on, one job, a one-thread pool) and a cell X
//! that flips all three axes at once (fixed engine, warm start off, four
//! jobs, a four-thread pool). Both must write the same bytes and exit with
//! the same code. Only when they do not is R re-run with one axis flipped
//! at a time, so the failure names each axis that changes bytes and the
//! experiment ids whose objects differ. The quick legs run each platform's
//! whole registry and the analytic legs every surrogate-capable id, both
//! read from `registry_for`, so an experiment joins the matrix the day it
//! is registered.

use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::OnceLock;

use haswell_survey::survey::registry_for;
use hsw_node::PlatformKind;
use serde_json::Value;

/// One setting of the axes the bytes must not depend on.
#[derive(Clone, Copy)]
struct Cell {
    name: &'static str,
    engine: &'static str,
    warm_start: &'static str,
    jobs: &'static str,
    pool: &'static str,
}

const R: Cell = Cell {
    name: "R",
    engine: "event",
    warm_start: "on",
    jobs: "1",
    pool: "1",
};

const X: Cell = Cell {
    name: "X",
    engine: "fixed",
    warm_start: "off",
    jobs: "4",
    pool: "4",
};

/// R with one axis of X, named after that axis.
const AXES: [Cell; 3] = [
    Cell {
        name: "engine",
        engine: X.engine,
        ..R
    },
    Cell {
        name: "warm-start",
        warm_start: X.warm_start,
        ..R
    },
    Cell {
        name: "jobs+pool",
        jobs: X.jobs,
        pool: X.pool,
        ..R
    },
];

/// What one `survey` run left behind.
#[derive(PartialEq)]
struct Run {
    bytes: Vec<u8>,
    status: ExitStatus,
}

impl Run {
    fn text(&self) -> &str {
        std::str::from_utf8(&self.bytes).expect("survey.json is UTF-8")
    }

    fn doc(&self) -> Value {
        serde_json::from_str(self.text()).expect("survey.json parses")
    }
}

/// Run `survey <args>` (space-separated) in `cell`. The output file is
/// named after the leg, the cell and this process, so concurrent legs and
/// concurrent test runs never share one.
fn survey(leg: &str, cell: Cell, args: &str) -> Run {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "oracles-{leg}-{}-{}.json",
        cell.name,
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_survey"))
        .args(args.split_whitespace())
        .args(["--engine", cell.engine, "--warm-start", cell.warm_start])
        .args(["--jobs", cell.jobs])
        .arg("--out")
        .arg(&out)
        .env("RAYON_NUM_THREADS", cell.pool)
        .stdout(Stdio::null())
        .output()
        .expect("the survey binary starts");
    let bytes = std::fs::read(&out).unwrap_or_else(|e| {
        panic!(
            "survey {args} in cell {} wrote no {}: {e}\n{}",
            cell.name,
            out.display(),
            String::from_utf8_lossy(&output.stderr)
        )
    });
    let _ = std::fs::remove_file(&out);
    Run {
        bytes,
        status: output.status,
    }
}

/// Run one leg in R and X and return R's run. If X differs, re-run R with
/// each single axis flipped and fail, naming every axis that changes the
/// run and what it changes.
fn oracle(leg: &str, args: &str) -> Run {
    let [r, x] = [R, X].map(|cell| survey(leg, cell, args));
    if x != r {
        let axes: Vec<String> = AXES
            .iter()
            .map(|&axis| (axis.name, survey(leg, axis, args)))
            .filter(|(_, run)| *run != r)
            .map(|(axis, run)| format!("\n  axis {axis} changes {}", differences(&r, &run)))
            .collect();
        panic!(
            "leg {leg} (survey {args}): X differs from R in {}{}",
            differences(&r, &x),
            if axes.is_empty() {
                "\n  no single axis does; only their combination".to_string()
            } else {
                axes.concat()
            }
        );
    }
    let json = r.text();
    assert!(json.contains("sim_time_s"), "{leg}: sim_time_s is missing");
    assert!(!json.contains("wall_time"), "{leg}: wall time leaked");
    assert!(!json.contains("\"engine\""), "{leg}: the engine tag leaked");
    r
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {name}")),
        other => panic!("expected an object with {name}, got {other:?}"),
    }
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("a parsed value renders")
}

/// The experiment ids of a survey document, in document order.
fn ids(doc: &Value) -> Vec<String> {
    array(field(doc, "experiments"))
        .iter()
        .map(|e| match field(e, "id") {
            Value::Str(id) => id.clone(),
            other => panic!("non-string id {other:?}"),
        })
        .collect()
}

/// The artifact of experiment `id` in a survey document.
fn artifact<'a>(doc: &'a Value, id: &str) -> &'a Value {
    let exp = array(field(doc, "experiments"))
        .iter()
        .find(|e| matches!(field(e, "id"), Value::Str(s) if s == id))
        .unwrap_or_else(|| panic!("no experiment {id}"));
    field(exp, "artifact")
}

/// A document cut into labelled parts: one per experiment id, one per
/// other top-level key.
fn parts(run: &Run) -> Vec<(String, String)> {
    let doc = run.doc();
    let Value::Object(fields) = &doc else {
        panic!("survey.json is not an object")
    };
    let mut parts = Vec::new();
    for (key, value) in fields {
        if key == "experiments" {
            for (id, exp) in ids(&doc).into_iter().zip(array(value)) {
                parts.push((format!("experiment {id}"), render(exp)));
            }
        } else {
            parts.push((format!("key {key}"), render(value)));
        }
    }
    parts
}

/// What differs between two runs: the exit status, and each part that
/// differs or that only one document has.
fn differences(a: &Run, b: &Run) -> String {
    let mut found = Vec::new();
    if a.status != b.status {
        found.push(format!("{} vs {}", a.status, b.status));
    }
    let (pa, pb) = (parts(a), parts(b));
    let value = |parts: &[(String, String)], label: &str| {
        parts
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| v.clone())
    };
    for (label, _) in pa.iter().chain(&pb) {
        if value(&pa, label) != value(&pb, label) && !found.contains(label) {
            found.push(label.clone());
        }
    }
    if found.is_empty() {
        "the bytes, though no part differs".to_string()
    } else {
        found.join(", ")
    }
}

/// A quick leg: the platform's whole registry at seed 7.
fn quick_leg(platform: PlatformKind) -> Run {
    let name = platform.name();
    let r = oracle(
        &format!("{name}-quick"),
        &format!("--platform {name} --seed 7"),
    );
    assert!(r.status.success(), "a {name} quick check failed");
    let registry: Vec<&str> = registry_for(platform).iter().map(|e| e.id()).collect();
    assert_eq!(ids(&r.doc()), registry, "the {name} quick leg's ids");
    r
}

/// An analytic leg: every surrogate-capable id at 48 fleet members.
fn analytic_leg(platform: PlatformKind) -> Run {
    let name = platform.name();
    let only: Vec<&str> = registry_for(platform)
        .iter()
        .filter(|e| e.supports_surrogate())
        .map(|e| e.id())
        .collect();
    let r = oracle(
        &format!("{name}-analytic"),
        &format!(
            "--platform {name} --fidelity analytic --only {} --fleet-size 48 --seed 7",
            only.join(",")
        ),
    );
    assert!(r.status.success(), "a {name} analytic check failed");
    r
}

/// The Haswell analytic leg, run once per test binary: the Haswell quick
/// leg also reads its R.
fn haswell_analytic() -> &'static Run {
    static RUN: OnceLock<Run> = OnceLock::new();
    RUN.get_or_init(|| analytic_leg(PlatformKind::Haswell))
}

#[test]
fn haswell_quick_registry() {
    let quick = quick_leg(PlatformKind::Haswell).doc();
    // A surrogate spot check re-runs its point on the full simulator under
    // the point's own seed, so at the same seed it equals that point of
    // the quick run, bit for bit.
    let analytic = haswell_analytic().doc();
    let spot_checks = array(field(artifact(&analytic, "table4"), "spot_checks"));
    assert!(!spot_checks.is_empty(), "table4 recorded no spot checks");
    let points = array(field(artifact(&quick, "table4"), "points"));
    for check in spot_checks {
        let index = match field(check, "index") {
            Value::UInt(n) => *n as usize,
            other => panic!("bad spot-check index {other:?}"),
        };
        assert_eq!(
            render(field(check, "full")),
            render(&points[index]),
            "table4's spot check of column {index} differs from the quick run"
        );
    }
}

#[test]
fn skylake_sp_quick_registry() {
    quick_leg(PlatformKind::SkylakeSp);
}

#[test]
fn haswell_analytic_surrogates() {
    haswell_analytic();
}

#[test]
fn skylake_sp_analytic_surrogates() {
    analytic_leg(PlatformKind::SkylakeSp);
}

/// The runs whose light spans meet discrete events: fig3's `PERF_CTL`
/// request windows, fig4's 500 µs grid, the governor's idle intervals and
/// fleet members restored from a golden snapshot under their own chip. At
/// seed 0 four members are too few for the cap-spread check, so both cells
/// exit 1; only equality of the two is asserted.
#[test]
fn event_crossings_at_seeds_0_and_42() {
    for seed in [0, 42] {
        oracle(
            &format!("event-crossings-{seed}"),
            &format!(
                "--only fig3,fig4,fig7,section6b_governor,fleet_cap_spread,fleet_straggler \
                 --fleet-size 4 --seed {seed}"
            ),
        );
    }
}

#[test]
fn fleet_size_changes_the_document() {
    let doc = |size: u32| {
        let args = format!("--only fleet_cap_spread --fleet-size {size} --seed 7");
        survey(&format!("fleet-size-{size}"), R, &args).bytes
    };
    assert_ne!(doc(8), doc(9));
}

/// A 256-member fleet reproduces the Schuchart-style inversion: a tight
/// cap widens the performance spread and collapses the power spread.
#[test]
fn fleet_of_256_reproduces_the_inversion() {
    let cell = Cell {
        name: "pool2",
        pool: "2",
        ..R
    };
    let args = "--only fleet_cap_spread --fleet-size 256 --seed 7";
    let run = survey("fleet-256", cell, args);
    assert!(run.status.success(), "a fleet check failed");
    let doc = run.text();
    assert!(doc.contains("tight cap expands performance spread beyond uncapped"));
    assert!(doc.contains("tight cap collapses power spread below uncapped"));
}
