//! Golden engine-equivalence test: the survey must serialize to
//! byte-identical JSON whether it runs on the fixed-tick engine or the
//! coalescing event engine, and regardless of worker-thread count. This is
//! the contract that makes `--engine event` a pure wall-time optimization.

use haswell_survey::survey::{run_survey, SurveyConfig};
use haswell_survey::Fidelity;
use hsw_node::EngineMode;

/// A fast subset that still exercises node construction, RAPL/meter noise,
/// p-state transitions, and an analytic (node-free) experiment.
const SUBSET: &[&str] = &["fig4", "fig7", "section6b_governor"];

/// The experiments whose steps cross discrete events inside light spans:
/// fig3's `PERF_CTL` request windows, and fleet members restored from a
/// golden snapshot under their own varied spec.
const EVENTFUL: &[&str] = &["fig3", "fleet_cap_spread", "fleet_straggler"];

fn survey_json(
    engine: EngineMode,
    jobs: usize,
    seed: u64,
    only: &[&str],
    fleet_size: Option<usize>,
) -> String {
    let cfg = SurveyConfig {
        fidelity: Fidelity::Quick,
        seed,
        jobs,
        only: Some(only.iter().map(|s| s.to_string()).collect()),
        engine,
        warm_start: true,
        fleet_size,
        platform: Default::default(),
    };
    run_survey(&cfg).expect("survey subset runs").to_json()
}

#[test]
fn fixed_and_event_surveys_are_byte_identical() {
    let fixed = survey_json(EngineMode::Fixed, 1, 7, SUBSET, None);
    let event = survey_json(EngineMode::Event, 1, 7, SUBSET, None);
    assert_eq!(
        fixed, event,
        "fixed and event engines must serialize identically"
    );
}

#[test]
fn engine_identity_holds_across_jobs_and_seeds() {
    for seed in [0, 42] {
        let fixed = survey_json(EngineMode::Fixed, 1, seed, SUBSET, None);
        let event = survey_json(EngineMode::Event, 4, seed, SUBSET, None);
        assert_eq!(fixed, event, "divergence at seed {seed}");
    }
}

#[test]
fn request_windows_and_fleet_restores_are_byte_identical() {
    for seed in [0, 7, 42] {
        let fixed = survey_json(EngineMode::Fixed, 1, seed, EVENTFUL, Some(4));
        let event = survey_json(EngineMode::Event, 2, seed, EVENTFUL, Some(4));
        assert_eq!(fixed, event, "divergence at seed {seed}");
    }
}

#[test]
fn survey_json_carries_no_engine_or_wall_time_fields() {
    // The byte-identity contract depends on the JSON staying free of
    // engine tags and wall-clock timings; only deterministic fields
    // (including simulated time) may appear.
    let json = survey_json(EngineMode::Event, 1, 7, SUBSET, None);
    assert!(!json.contains("wall_time"), "wall time leaked into JSON");
    assert!(!json.contains("\"engine\""), "engine tag leaked into JSON");
    assert!(json.contains("sim_time_s"), "sim_time_s missing from JSON");
}
