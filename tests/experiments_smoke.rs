//! End-to-end smoke tests over the fast experiments, exercised through the
//! root facade exactly as the examples use it.

use haswell_survey_repro::node::EngineMode;
use haswell_survey_repro::survey::{experiments, Fidelity, RunCtx};

/// Quick fidelity at seed 0, under the default time engine.
fn quick() -> RunCtx {
    RunCtx::new(Fidelity::Quick, 0, EngineMode::default())
}

#[test]
fn table1_renders_and_validates() {
    let t1 = experiments::table1::run();
    assert!((t1.measured_flops_hsw - 16.0).abs() < 0.5);
    assert!(t1.to_string().contains("FLOPS/cycle"));
}

#[test]
fn table2_reports_the_test_system() {
    let t2 = experiments::table2::run(&quick());
    assert!((t2.idle_power_w - 261.5).abs() < 8.0);
}

#[test]
fn fig4_timeline_shows_the_500us_grid() {
    let f4 = experiments::fig4::run(&quick());
    assert!((f4.estimated_period_us - 500.0).abs() < 35.0);
    assert!(f4.entries.len() >= 12);
}

#[test]
fn fig7_and_fig8_have_paper_shapes() {
    let f7 = experiments::fig7::run(&quick());
    assert!(f7.low_end(false, "Haswell-EP") > 0.97);
    assert!(f7.low_end(false, "Sandy Bridge-EP") < 0.6);

    let f8 = experiments::fig8::run(&quick());
    let sat = f8.at(8, 2.5).unwrap().dram_gbs;
    let full = f8.at(12, 2.5).unwrap().dram_gbs;
    assert!((sat / full - 1.0).abs() < 0.03);
}

#[test]
fn section8_validates_firestarter() {
    let s8 = experiments::section8::run();
    assert!((s8.ipc_ht - 3.1).abs() < 0.15);
    assert!((s8.ipc_no_ht - 2.8).abs() < 0.15);
}

#[test]
fn experiment_results_serialize() {
    // The EXPERIMENTS.md generator relies on serde round-trips.
    let f7 = experiments::fig7::run(&quick());
    let json = serde_json::to_string(&f7).unwrap();
    let back: experiments::fig7::Fig7 = serde_json::from_str(&json).unwrap();
    assert_eq!(back.l3.len(), f7.l3.len());
}
