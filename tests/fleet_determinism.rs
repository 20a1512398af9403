//! The fleet executor's determinism contract, end to end: `fleet.json`
//! (the survey output restricted to the fleet experiments) must be
//! byte-identical for any `--jobs` value, any worker-pool width
//! (`RAYON_NUM_THREADS`), and either `--warm-start` mode — a fleet member's
//! chip identity and measurement depend on its node id and the sweep base
//! only, never on scheduling. `tests/oracles.rs` flips the same axes at 32,
//! 4 and 48 members and holds the 256-member inversion run.

use std::path::Path;
use std::process::Command;

/// Run the `survey` binary on the fleet experiments and return the bytes of
/// the `fleet.json` it wrote plus its exit status.
fn fleet_json_with(
    tag: &str,
    only: &str,
    fleet_size: &str,
    jobs: &str,
    pool: &str,
    extra: &[&str],
) -> (Vec<u8>, std::process::ExitStatus) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fleet_determinism_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("fleet.json");
    let status = Command::new(env!("CARGO_BIN_EXE_survey"))
        .args(["--only", only, "--seed", "7", "--jobs", jobs])
        .args(["--fleet-size", fleet_size])
        .args(extra)
        .arg("--out")
        .arg(&out)
        .env("RAYON_NUM_THREADS", pool)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("survey binary runs");
    let bytes = std::fs::read(&out).expect("survey wrote fleet.json");
    let _ = std::fs::remove_dir_all(&dir);
    (bytes, status)
}

fn fleet_json(tag: &str, only: &str, fleet_size: &str, jobs: &str, pool: &str) -> Vec<u8> {
    let (bytes, status) = fleet_json_with(tag, only, fleet_size, jobs, pool, &[]);
    assert!(status.success(), "survey failed for {tag}");
    bytes
}

#[test]
fn fleet_json_is_byte_identical_across_jobs_and_pool_sizes() {
    const ONLY: &str = "fleet_cap_spread,fleet_straggler";
    let baseline = fleet_json("j1p1", ONLY, "12", "1", "1");
    assert!(!baseline.is_empty());
    for (jobs, pool) in [("2", "1"), ("1", "4"), ("4", "4")] {
        let other = fleet_json(&format!("j{jobs}p{pool}"), ONLY, "12", jobs, pool);
        assert_eq!(
            baseline, other,
            "fleet.json differs at --jobs {jobs} / RAYON_NUM_THREADS={pool}"
        );
    }
}

#[test]
fn fleet_json_is_byte_identical_across_warm_start_modes() {
    // Cold mode re-runs the golden warmup per member; warm mode forks one
    // snapshot. Both feed the identical per-chip fork construction, so the
    // fleet bytes must agree.
    let (on, s_on) = fleet_json_with(
        "warm_on",
        "fleet_cap_spread",
        "8",
        "2",
        "2",
        &["--warm-start", "on"],
    );
    let (off, s_off) = fleet_json_with(
        "warm_off",
        "fleet_cap_spread",
        "8",
        "2",
        "2",
        &["--warm-start", "off"],
    );
    assert!(s_on.success() && s_off.success());
    assert_eq!(on, off, "warm-start fork leaked state into fleet.json");
}
