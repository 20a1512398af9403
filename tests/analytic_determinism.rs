//! The analytic surrogate tier, end to end through the `survey` binary:
//! the spot-check sample a `--fidelity analytic` run embeds must match a
//! full-fidelity run of the same points exactly. `tests/oracles.rs` holds
//! the analytic legs' byte identity across engine, warm start, `--jobs`
//! and pool width on both platforms.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

/// Run the `survey` binary with `args` and return the JSON bytes it wrote.
fn survey_json(tag: &str, args: &[&str], pool: &str) -> Vec<u8> {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "analytic_determinism_{tag}_{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_survey"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .env("RAYON_NUM_THREADS", pool)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("survey binary runs");
    assert!(status.success(), "survey {args:?} pool {pool} failed");
    let bytes = std::fs::read(&out).expect("survey wrote its output file");
    let _ = std::fs::remove_file(&out);
    bytes
}

/// Navigate an object field.
fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {name}")),
        other => panic!("expected object for {name}, got {other:?}"),
    }
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected array, got {other:?}"),
    }
}

/// The artifact of experiment `id` in a survey document.
fn artifact<'a>(doc: &'a Value, id: &str) -> &'a Value {
    let exp = array(field(doc, "experiments"))
        .iter()
        .find(|e| matches!(field(e, "id"), Value::Str(s) if s == id))
        .unwrap_or_else(|| panic!("no experiment {id}"));
    field(exp, "artifact")
}

#[test]
fn embedded_spot_checks_equal_a_full_fidelity_run_of_the_same_points() {
    // The surrogate contract at the JSON level: the `full` answer recorded
    // for each spot-checked Table IV column under `--fidelity analytic`
    // must serialize to the very same JSON as that column in a
    // `--fidelity quick` run at the same seed (same f64 bits → same
    // shortest-roundtrip rendering).
    let common: &[&str] = &["--only", "table4", "--seed", "11", "--jobs", "2"];
    let analytic = survey_json(
        "cross_a",
        &[&["--fidelity", "analytic"], common].concat(),
        "2",
    );
    let quick = survey_json("cross_q", &[&["--fidelity", "quick"], common].concat(), "2");
    let adoc: Value = serde_json::from_str(&String::from_utf8(analytic).unwrap()).unwrap();
    let qdoc: Value = serde_json::from_str(&String::from_utf8(quick).unwrap()).unwrap();
    let spot_checks = array(field(artifact(&adoc, "table4"), "spot_checks"));
    assert!(
        !spot_checks.is_empty(),
        "analytic run recorded no spot checks"
    );
    let quick_points = array(field(artifact(&qdoc, "table4"), "points"));
    for sc in spot_checks {
        let index = match field(sc, "index") {
            Value::UInt(n) => *n as usize,
            Value::Int(n) => *n as usize,
            other => panic!("bad index {other:?}"),
        };
        assert_eq!(
            serde_json::to_string(field(sc, "full")).unwrap(),
            serde_json::to_string(&quick_points[index]).unwrap(),
            "spot-checked column {index} diverges from the quick-fidelity run"
        );
    }
}
