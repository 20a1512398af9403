//! The survey runner's contract: a complete registry, scheduling-free
//! determinism, and strict id validation.

mod common;

use std::collections::BTreeSet;
use std::path::Path;

use haswell_survey_repro::survey::survey::{
    experiment_seed, registry_for, run_survey, SurveyConfig,
};
use haswell_survey_repro::survey::Fidelity;
use hsw_node::{EngineMode, PlatformKind};

use common::rust_files;

#[test]
fn registry_covers_all_20_experiments_with_unique_ids() {
    let reg = registry_for(PlatformKind::Haswell);
    assert_eq!(reg.len(), 20);
    let mut ids: Vec<&str> = reg.iter().map(|e| e.id()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 20);
    for required in [
        "fig1",
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "fig2",
        "fig3",
        "fig4",
        "fig56",
        "fig7",
        "fig8",
        "section2c_epb",
        "section6b_governor",
        "section8",
        "sku_extrapolation",
        "fleet_cap_spread",
        "fleet_straggler",
        "analytic_accuracy",
        "fleet_analytic_scale",
    ] {
        assert!(ids.contains(&required), "missing {required}");
    }
}

#[test]
fn every_experiment_module_is_registered_under_its_own_name() {
    // One module per experiment: the file stems of `experiments/*.rs` are
    // exactly the ids the two platform registries hand out, so a module
    // left out of every registry, or an `id()` that differs from its
    // module name, fails here. Within a registry, ids are unique.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/core/src/experiments");
    let stems: BTreeSet<String> = std::fs::read_dir(dir)
        .expect("list the experiments directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .filter_map(|path| Some(path.file_stem()?.to_str()?.to_string()))
        .filter(|stem| stem != "mod")
        .collect();
    let mut ids: BTreeSet<String> = BTreeSet::new();
    for platform in PlatformKind::ALL {
        let platform_ids: Vec<&str> = registry_for(platform).iter().map(|e| e.id()).collect();
        let unique: BTreeSet<&str> = platform_ids.iter().copied().collect();
        assert_eq!(
            unique.len(),
            platform_ids.len(),
            "duplicate ids in the {} registry: {platform_ids:?}",
            platform.name()
        );
        ids.extend(unique.into_iter().map(str::to_string));
    }
    assert_eq!(
        stems, ids,
        "experiments/*.rs file stems vs. the union of registry ids"
    );
}

#[test]
fn only_the_sweep_executor_fans_out() {
    // One seeded fan-out: every parallel sweep in `haswell-survey` goes
    // through `RunCtx`'s executor in `survey.rs`, which alone derives point
    // seeds and counts points. Test code, from the first top-level
    // `#[cfg(test)]` on, is not read.
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    files.sort();
    let mut offenders = Vec::new();
    for path in &files {
        if *path == src.join("survey.rs") {
            continue;
        }
        let text = std::fs::read_to_string(path).expect("read a source file");
        for (n, line) in text
            .lines()
            .take_while(|l| !l.starts_with("#[cfg(test)]"))
            .enumerate()
        {
            // `par_iter` also matches `into_par_iter` and `par_iter_mut`.
            if line.contains("par_iter") || line.contains("rayon") {
                offenders.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
            }
        }
    }
    assert!(
        files.iter().any(|p| p.ends_with("experiments/fig3.rs")),
        "the scan must reach the experiment modules"
    );
    assert!(
        offenders.is_empty(),
        "fan out through RunCtx::sweep instead:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn json_is_identical_across_job_counts() {
    // A subset that includes a seeded experiment (the governor draws its
    // idle-interval distribution from the survey seed) and deterministic
    // ones, so the check exercises the seed-derivation path.
    let only = Some(vec![
        "section6b_governor".to_string(),
        "fig4".to_string(),
        "fig7".to_string(),
        "section8".to_string(),
    ]);
    let serial = run_survey(&SurveyConfig {
        fidelity: Fidelity::Quick,
        seed: 1234,
        jobs: 1,
        only: only.clone(),
        engine: EngineMode::default(),
        warm_start: true,
        fleet_size: None,
        platform: Default::default(),
    })
    .unwrap();
    let parallel = run_survey(&SurveyConfig {
        fidelity: Fidelity::Quick,
        seed: 1234,
        jobs: 4,
        only,
        engine: EngineMode::default(),
        warm_start: true,
        fleet_size: None,
        platform: Default::default(),
    })
    .unwrap();
    assert_eq!(serial.to_json(), parallel.to_json());
    // And a different root seed must actually reach the seeded experiment.
    assert_ne!(
        experiment_seed(1234, "section6b_governor"),
        experiment_seed(1235, "section6b_governor")
    );
}

#[test]
fn results_come_back_in_registry_order() {
    let run = run_survey(&SurveyConfig {
        only: Some(vec![
            // Deliberately not in registry order.
            "section8".to_string(),
            "fig4".to_string(),
            "fig7".to_string(),
        ]),
        ..SurveyConfig::default()
    })
    .unwrap();
    let ids: Vec<&str> = run.results.iter().map(|r| r.id).collect();
    assert_eq!(ids, ["fig4", "fig7", "section8"]);
    assert_eq!(run.timings_s.len(), run.results.len());
}

#[test]
fn unknown_only_ids_are_rejected_with_the_known_list() {
    let err = run_survey(&SurveyConfig {
        only: Some(vec!["fig9".to_string()]),
        ..SurveyConfig::default()
    })
    .unwrap_err();
    assert!(err.contains("fig9"), "{err}");
    assert!(err.contains("fig8"), "should list known ids: {err}");
}

#[test]
fn empty_selection_is_rejected() {
    let err = run_survey(&SurveyConfig {
        only: Some(vec![]),
        ..SurveyConfig::default()
    })
    .unwrap_err();
    assert!(err.contains("no experiments selected"), "{err}");
}

#[test]
fn deterministic_experiments_report_seed_zero() {
    let run = run_survey(&SurveyConfig {
        only: Some(vec!["fig7".to_string(), "section6b_governor".to_string()]),
        seed: 99,
        ..SurveyConfig::default()
    })
    .unwrap();
    let fig7 = run.results.iter().find(|r| r.id == "fig7").unwrap();
    let gov = run
        .results
        .iter()
        .find(|r| r.id == "section6b_governor")
        .unwrap();
    assert_eq!(fig7.seed, 0);
    assert_eq!(gov.seed, experiment_seed(99, "section6b_governor"));
}
