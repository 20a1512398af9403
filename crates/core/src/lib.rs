//! # haswell-survey — the energy-efficiency feature survey, reproduced
//!
//! This is the paper's deliverable rebuilt as a library: every table and
//! figure of *An Energy Efficiency Feature Survey of the Intel Haswell
//! Processor* (IPDPSW 2015) has an experiment module that drives the
//! simulated node (`hsw-node`) through the re-implemented measurement
//! tools (`hsw-tools`) and renders the same rows/series the paper reports.
//!
//! ```no_run
//! use haswell_survey::{experiments, Fidelity, RunCtx};
//! use hsw_node::EngineMode;
//!
//! // Reproduce Table III (uncore frequencies vs. core frequency setting).
//! let ctx = RunCtx::new(Fidelity::Quick, 42, EngineMode::default());
//! let t3 = experiments::table3::run(&ctx);
//! println!("{t3}");
//! ```
//!
//! Each experiment module has one `run` that computes its result from a
//! [`RunCtx`]: the [`Fidelity`] (`Quick` for CI-scale runs, `Paper` for the
//! durations the paper used, within simulation reason), the experiment's
//! seed, the time engine and the platform. The survey runner
//! ([`run_survey`]) builds one context per registered experiment. The four
//! that need nothing from it (`fig1`, `table1`, `section8`,
//! `sku_extrapolation`) take none. Each result type implements `Display`
//! (paper-style text table) and `serde` serialization (for `survey.json`).

pub mod energy;
pub mod experiments;
pub mod fidelity;
pub mod report;
pub mod stats;
pub mod survey;

pub use fidelity::Fidelity;
pub use report::{Report, Table};
pub use survey::{run_survey, ExperimentResult, RunCtx, SurveyConfig, SurveyExperiment, SurveyRun};
