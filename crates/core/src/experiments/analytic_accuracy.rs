//! Surrogate accuracy map — where the closed-form model tracks the full
//! simulator, and where it breaks (after Hofmann/Hager, arXiv:1803.01618).
//!
//! Every row of the operating envelope is answered twice: once by the
//! `hsw-analytic` closed form and once by the full simulator (settle plus
//! LIKWID-style sample medians, Table IV methodology), and the per-metric
//! relative error is recorded. The envelope deliberately includes the two
//! regimes 1803.01618 names as the limits of analytic modeling — idle
//! packages (c-state transients, the unmodeled package-sleep residual) and
//! duty-cycled workloads (finite measurement windows cut periods
//! mid-cycle) — so the experiment checks both that the surrogate tracks
//! settled steady-state points *and* that it diverges where the paper says
//! it must. The settled-point error bound is the accuracy gate CI runs.

use hsw_analytic::{AnalyticModel, OperatingPoint};
use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_node::{CpuId, Resolution};
use hsw_tools::perfctr::{median_of, PerfCtr};
use serde::{Deserialize, Serialize};

use crate::report::Table;
use crate::survey::{rel_err, RunCtx};

/// Relative error on settled steady-state rows above which the accuracy
/// gate fails (model drift guard; CI runs this experiment's checks).
pub const SETTLED_REL_ERR_GATE: f64 = 0.08;

/// One operating point of the accuracy envelope.
struct Row {
    name: &'static str,
    profile: WorkloadProfile,
    setting: FreqSetting,
    active: usize,
    threads: usize,
    /// Settled steady state: the surrogate is expected to track the
    /// simulator here. `false` marks the designed-divergence rows (idle
    /// c-states, duty transients).
    settled: bool,
}

/// The envelope, derived from the platform spec so both generations run
/// the same protocol: the fig2/table4 regimes (capped turbo, fixed-clock
/// headroom, partial load, EET-capped memory stalls, a single busy core)
/// plus the two designed-divergence regimes.
fn envelope(spec: &hsw_hwspec::SkuSpec) -> Vec<Row> {
    let cores = spec.cores;
    let base = spec.freq.base_mhz;
    vec![
        Row {
            name: "firestarter_turbo",
            profile: WorkloadProfile::firestarter(),
            setting: FreqSetting::Turbo,
            active: cores,
            threads: 2,
            settled: true,
        },
        Row {
            name: "firestarter_fixed_low",
            profile: WorkloadProfile::firestarter(),
            setting: FreqSetting::from_mhz(base - 400),
            active: cores,
            threads: 2,
            settled: true,
        },
        Row {
            name: "compute_partial",
            profile: WorkloadProfile::compute(),
            setting: FreqSetting::Turbo,
            active: 5,
            threads: 1,
            settled: true,
        },
        Row {
            name: "memory_bound_eet",
            profile: WorkloadProfile::memory_bound(),
            setting: FreqSetting::Turbo,
            active: cores,
            threads: 1,
            settled: true,
        },
        Row {
            name: "busy_wait_single",
            profile: WorkloadProfile::busy_wait(),
            setting: FreqSetting::from_mhz(base),
            active: 1,
            threads: 1,
            settled: true,
        },
        Row {
            name: "sinus_duty",
            profile: WorkloadProfile::sinus(),
            setting: FreqSetting::Turbo,
            active: cores / 2,
            threads: 1,
            settled: false,
        },
        Row {
            name: "idle",
            profile: WorkloadProfile::idle(),
            setting: FreqSetting::Turbo,
            active: 0,
            threads: 1,
            settled: false,
        },
    ]
}

/// Socket-0 steady-state observables, from either answer path.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RowSample {
    pub core_ghz: f64,
    pub uncore_ghz: f64,
    pub gips: f64,
    pub pkg_w: f64,
}

/// One envelope row: both answers and the divergence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RowResult {
    pub name: String,
    /// Settled steady state (gated) vs. designed-divergence row.
    pub settled: bool,
    pub sim: RowSample,
    pub surrogate: RowSample,
    /// Worst relative error across the four metrics.
    pub worst_rel_err: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalyticAccuracy {
    pub rows: Vec<RowResult>,
    pub table: Table,
}

impl AnalyticAccuracy {
    /// Worst relative error across the settled (gated) rows.
    pub fn settled_worst(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.settled)
            .map(|r| r.worst_rel_err)
            .fold(0.0, f64::max)
    }

    /// Worst relative error across the designed-divergence rows.
    pub fn transient_worst(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| !r.settled)
            .map(|r| r.worst_rel_err)
            .fold(0.0, f64::max)
    }
}

impl std::fmt::Display for AnalyticAccuracy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)
    }
}

/// Full-simulator answer for one row: settle, then Table IV-style sample
/// medians on socket 0.
fn simulate(ctx: &RunCtx, row: &Row, seed: u64) -> RowSample {
    let mut node = ctx
        .session()
        .seed(seed)
        .resolution(Resolution::Coarse)
        .build();
    if row.active > 0 {
        for s in 0..2 {
            node.run_on_socket(s, &row.profile, row.active, row.threads);
        }
    } else {
        node.idle_all();
    }
    node.set_turbo(true);
    node.set_setting_all(row.setting);
    node.advance_s(0.5);

    let pc = PerfCtr::new(&node, CpuId::new(0, 0, 0));
    let n = ctx.fidelity.durations().table4_samples;
    let dt = ctx.fidelity.durations().table4_interval_s;
    let mut prev = pc.sample(&node);
    let mut derived = Vec::with_capacity(n);
    for _ in 0..n {
        node.advance_s(dt);
        let cur = pc.sample(&node);
        derived.push(pc.derive(&prev, &cur));
        prev = cur;
    }
    RowSample {
        core_ghz: median_of(&derived, |d| d.core_ghz),
        uncore_ghz: median_of(&derived, |d| d.uncore_ghz),
        gips: median_of(&derived, |d| d.gips),
        pkg_w: median_of(&derived, |d| d.pkg_w),
    }
}

/// Closed-form answer for the same row.
fn surrogate(model: &AnalyticModel, row: &Row) -> RowSample {
    let pred = model.predict(&OperatingPoint {
        profile: &row.profile,
        setting: row.setting,
        epb: hsw_hwspec::EpbClass::Balanced,
        turbo_enabled: true,
        active_cores: row.active,
        smt: row.threads > 1,
    });
    let s = &pred.sockets[0];
    RowSample {
        core_ghz: s.core_ghz,
        uncore_ghz: s.uncore_ghz,
        gips: s.gips,
        pkg_w: s.pkg_w,
    }
}

fn worst_err(sur: &RowSample, sim: &RowSample) -> f64 {
    [
        rel_err(sur.core_ghz, sim.core_ghz),
        rel_err(sur.uncore_ghz, sim.uncore_ghz),
        rel_err(sur.gips, sim.gips),
        rel_err(sur.pkg_w, sim.pkg_w),
    ]
    .into_iter()
    .fold(0.0, f64::max)
}

pub fn run(ctx: &RunCtx) -> AnalyticAccuracy {
    let platform = ctx.platform();
    let model = AnalyticModel::from_node_spec(&platform.spec, platform.eet_enabled);
    let rows = envelope(&platform.spec.sku);
    let results: Vec<RowResult> = ctx.sweep(&rows, |row, seed| {
        let sim = simulate(ctx, row, seed);
        let sur = surrogate(&model, row);
        RowResult {
            name: row.name.to_string(),
            settled: row.settled,
            sim,
            surrogate: sur,
            worst_rel_err: worst_err(&sur, &sim),
        }
    });

    let mut t = Table::new(
        "Surrogate accuracy: closed-form model vs. full simulator across the operating envelope",
        vec![
            "operating point",
            "regime",
            "core sim/model [GHz]",
            "uncore sim/model [GHz]",
            "GIPS sim/model",
            "pkg sim/model [W]",
            "worst err",
        ],
    );
    for r in &results {
        t.row(vec![
            r.name.clone(),
            if r.settled { "settled" } else { "transient" }.to_string(),
            format!("{:.2}/{:.2}", r.sim.core_ghz, r.surrogate.core_ghz),
            format!("{:.2}/{:.2}", r.sim.uncore_ghz, r.surrogate.uncore_ghz),
            format!("{:.2}/{:.2}", r.sim.gips, r.surrogate.gips),
            format!("{:.1}/{:.1}", r.sim.pkg_w, r.surrogate.pkg_w),
            format!("{:.1}%", r.worst_rel_err * 100.0),
        ]);
    }
    AnalyticAccuracy {
        rows: results,
        table: t,
    }
}

/// Registry adapter.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "analytic_accuracy"
    }
    fn anchor(&self) -> &'static str {
        "Beyond the paper"
    }
    fn title(&self) -> &'static str {
        "Where the closed-form surrogate tracks the simulator, and where it breaks"
    }
    fn supports_surrogate(&self) -> bool {
        true
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        let (settled, transient) = (r.settled_worst(), r.transient_worst());
        out.metric("settled_worst_rel_err", settled);
        out.metric("transient_worst_rel_err", transient);
        out.check(
            "surrogate tracks the simulator on settled steady-state points",
            settled < SETTLED_REL_ERR_GATE,
            format!(
                "worst settled relative error {:.2}% (gate {:.0}%)",
                settled * 100.0,
                SETTLED_REL_ERR_GATE * 100.0
            ),
        );
        out.check(
            "the model breaks where 1803.01618 says (c-states, transients)",
            transient > settled,
            format!(
                "transient rows {:.1}% vs settled rows {:.2}%",
                transient * 100.0,
                settled * 100.0
            ),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fidelity;
    use hsw_node::EngineMode;

    fn acc() -> &'static AnalyticAccuracy {
        static CACHE: std::sync::OnceLock<AnalyticAccuracy> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| run(&RunCtx::new(Fidelity::Quick, 0xACC0, EngineMode::default())))
    }

    #[test]
    fn settled_rows_stay_inside_the_gate() {
        let a = acc();
        for r in a.rows.iter().filter(|r| r.settled) {
            assert!(
                r.worst_rel_err < SETTLED_REL_ERR_GATE,
                "{}: {:.3}",
                r.name,
                r.worst_rel_err
            );
        }
    }

    #[test]
    fn designed_divergence_rows_diverge_most() {
        let a = acc();
        assert!(
            a.transient_worst() > a.settled_worst(),
            "transient {:.3} vs settled {:.3}",
            a.transient_worst(),
            a.settled_worst()
        );
    }

    #[test]
    fn capped_row_lands_on_the_tdp_in_both_paths() {
        let a = acc();
        let fs = a
            .rows
            .iter()
            .find(|r| r.name == "firestarter_turbo")
            .unwrap();
        assert!((fs.sim.pkg_w - 120.0).abs() < 4.0, "{:.1}", fs.sim.pkg_w);
        assert!(
            (fs.surrogate.pkg_w - 120.0).abs() < 4.0,
            "{:.1}",
            fs.surrogate.pkg_w
        );
    }

    #[test]
    fn envelope_covers_both_regimes() {
        let rows = envelope(&hsw_hwspec::NodeSpec::paper_test_node().sku);
        assert!(rows.iter().filter(|r| r.settled).count() >= 5);
        assert!(rows.iter().filter(|r| !r.settled).count() >= 2);
    }
}
