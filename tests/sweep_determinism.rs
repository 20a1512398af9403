//! The survey's parallel-determinism contract, end to end: `survey.json`
//! must be byte-identical for any `--jobs` value and any worker-pool size
//! (`RAYON_NUM_THREADS`). Each sweep point's seed is a pure function of
//! `(experiment seed, point index)`, and the pool collects results in index
//! order, so neither the experiment-level fan-out nor the point-level
//! stealing may leak into the output bytes. `tests/oracles.rs` flips the
//! same axes over both whole registries; these tests pin the finer jobs ×
//! pool grid on small subsets.

use std::path::Path;
use std::process::Command;

/// Run the `survey` binary on `subset` with extra flags and return the
/// JSON bytes it wrote. The output file is named after the tag and this
/// process, so concurrent test runs never share one.
fn survey_json_with(tag: &str, subset: &str, jobs: &str, pool: &str, extra: &[&str]) -> Vec<u8> {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "sweep_determinism_{tag}_{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_survey"))
        .args(["--only", subset, "--seed", "7", "--jobs", jobs])
        .args(extra)
        .arg("--out")
        .arg(&out)
        .env("RAYON_NUM_THREADS", pool)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("survey binary runs");
    assert!(status.success(), "survey --jobs {jobs} pool {pool} failed");
    let bytes = std::fs::read(&out).expect("survey wrote its output file");
    let _ = std::fs::remove_file(&out);
    bytes
}

/// Run the `survey` binary on `subset` and return the JSON bytes it wrote.
fn survey_json(tag: &str, subset: &str, jobs: &str, pool: &str) -> Vec<u8> {
    survey_json_with(tag, subset, jobs, pool, &[])
}

#[test]
fn survey_json_is_byte_identical_across_jobs_and_pool_sizes() {
    const SUBSET: &str = "fig4,fig7,section6b_governor";
    let baseline = survey_json("j1p1", SUBSET, "1", "1");
    assert!(!baseline.is_empty());
    for (jobs, pool) in [("2", "1"), ("8", "1"), ("1", "4"), ("2", "4"), ("8", "4")] {
        let other = survey_json(&format!("j{jobs}p{pool}"), SUBSET, jobs, pool);
        assert_eq!(
            baseline, other,
            "survey.json differs at --jobs {jobs} / RAYON_NUM_THREADS={pool}"
        );
    }
}

#[test]
fn warm_start_on_and_off_are_byte_identical() {
    // The warm-start contract: forking every sweep point from one shared
    // warmup snapshot (`--warm-start on`, the default) must produce the
    // same bytes as re-running the warmup per point (`off`), because both
    // paths build the point node the same way and the node's noise is
    // keyed by (seed, domain, sim-time), not step count. fig2 exercises
    // the node-forking executor; fig7 the shared-prep analytic variant.
    const SUBSET: &str = "fig2,fig7,section2c_epb";
    let on = survey_json_with("warm_on", SUBSET, "2", "2", &["--warm-start", "on"]);
    let off = survey_json_with("warm_off", SUBSET, "2", "2", &["--warm-start", "off"]);
    assert!(!on.is_empty());
    assert_eq!(on, off, "warm-start fork leaked state into the JSON");
}

#[test]
fn skylake_survey_json_is_byte_identical_across_jobs_and_pool_sizes() {
    // The determinism matrix's second row: the Skylake-SP registry (one
    // analytic sweep, one session-based measurement over the 2×26-core
    // mesh node) through the same jobs × pool grid as the Haswell set.
    const SUBSET: &str = "skx_license_table,skx_ufs_mesh";
    const PLATFORM: &[&str] = &["--platform", "skylake-sp"];
    let baseline = survey_json_with("skx_j1p1", SUBSET, "1", "1", PLATFORM);
    assert!(!baseline.is_empty());
    for (jobs, pool) in [("2", "2"), ("8", "4")] {
        let other = survey_json_with(&format!("skx_j{jobs}p{pool}"), SUBSET, jobs, pool, PLATFORM);
        assert_eq!(
            baseline, other,
            "skylake-sp survey.json differs at --jobs {jobs} / RAYON_NUM_THREADS={pool}"
        );
    }
}

#[test]
fn skylake_warm_start_on_and_off_are_byte_identical() {
    // Same contract as the Haswell leg: HWP/mesh state forked from a warm
    // snapshot must not differ from a cold settle.
    const SUBSET: &str = "skx_license_table,skx_ufs_mesh";
    let on = survey_json_with(
        "skx_warm_on",
        SUBSET,
        "2",
        "2",
        &["--platform", "skylake-sp", "--warm-start", "on"],
    );
    let off = survey_json_with(
        "skx_warm_off",
        SUBSET,
        "2",
        "2",
        &["--platform", "skylake-sp", "--warm-start", "off"],
    );
    assert!(!on.is_empty());
    assert_eq!(on, off, "warm-start fork leaked state into the SKX JSON");
}

#[test]
fn seeded_sweeps_are_pool_size_independent() {
    // A seeded sweep (fig56 consumes per-point node and RNG streams)
    // through pools of different widths; any schedule dependence in seed
    // derivation or collection order shows up here.
    let a = survey_json("seeded_p1", "fig56", "1", "1");
    let b = survey_json("seeded_p3", "fig56", "3", "3");
    assert_eq!(a, b, "seeded sweep leaked schedule state into the JSON");
}
