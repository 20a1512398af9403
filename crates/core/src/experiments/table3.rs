//! Table III — uncore frequencies in the single-threaded, no-memory-stall
//! scenario (paper Section V-A).
//!
//! Methodology per the paper: a `while(1)` loop on one core of socket 0;
//! the uncore frequency of *both* sockets measured via the LIKWID
//! `UNCORE_CLOCK:UBOXFIX` counter for 10 s, for every core-frequency
//! setting, plus the EPB=performance variants marked (*) in the paper.

use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::EpbClass;
use hsw_node::{CpuId, NodeConfig, Resolution};
use hsw_tools::PerfCtr;
use serde::{Deserialize, Serialize};

use crate::report::Table;
use crate::survey::{mix_seed, RunCtx};

/// One measured column of Table III.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Table3Point {
    pub setting_mhz: Option<u32>, // None = Turbo
    pub active_uncore_ghz: f64,
    pub passive_uncore_ghz: f64,
    /// The (*) variants: EPB set to performance.
    pub active_uncore_perf_epb_ghz: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3 {
    pub points: Vec<Table3Point>,
    pub table: Table,
}

impl std::fmt::Display for Table3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)
    }
}

/// The Table III probe: one thread running `profile` on socket 0, the rest
/// of the system idle, under one setting and EPB. Returns both sockets'
/// uncore clocks over the fidelity's Table III window (active socket
/// first).
pub(crate) fn measure(
    ctx: &RunCtx,
    profile: &WorkloadProfile,
    setting: FreqSetting,
    epb: EpbClass,
    seed: u64,
) -> (f64, f64) {
    let mut node = ctx
        .session()
        .seed(seed)
        .resolution(Resolution::Custom(100))
        .build();
    node.run_on_socket(0, profile, 1, 1);
    node.set_epb_all(epb);
    node.set_setting_all(setting);
    node.advance_s(0.1);

    let pc0 = PerfCtr::new(&node, CpuId::new(0, 0, 0));
    let pc1 = PerfCtr::new(&node, CpuId::new(1, 0, 0));
    let a0 = pc0.sample(&node);
    let b0 = pc1.sample(&node);
    node.advance_s(ctx.fidelity.durations().table3_measure_s);
    let a1 = pc0.sample(&node);
    let b1 = pc1.sample(&node);
    (
        pc0.derive(&a0, &a1).uncore_ghz,
        pc1.derive(&b0, &b1).uncore_ghz,
    )
}

/// Each setting is one point of the sweep executor: the balanced
/// measurement runs under the point seed, the EPB=performance one under
/// `mix_seed(seed, 1)`.
pub fn run(ctx: &RunCtx) -> Table3 {
    let sku = NodeConfig::paper_default().spec.sku;
    let spin = WorkloadProfile::busy_wait();

    let points: Vec<Table3Point> = ctx.sweep(&sku.freq.all_settings(), |s, seed| {
        let (active, passive) = measure(ctx, &spin, *s, EpbClass::Balanced, seed);
        let (active_perf, _) = measure(ctx, &spin, *s, EpbClass::Performance, mix_seed(seed, 1));
        Table3Point {
            setting_mhz: match s {
                FreqSetting::Turbo => None,
                FreqSetting::Fixed(p) => Some(p.mhz()),
            },
            active_uncore_ghz: active,
            passive_uncore_ghz: passive,
            active_uncore_perf_epb_ghz: active_perf,
        }
    });

    let mut t = Table::new(
        "Table III: uncore frequencies, single-threaded no-memory-stalls scenario (thread on processor 0)",
        vec!["Core frequency setting", "Active uncore [GHz]", "Passive uncore [GHz]", "Active w/ EPB=perf [GHz]"],
    );
    for p in &points {
        t.row(vec![
            p.setting_mhz
                .map(|m| format!("{:.1}", m as f64 / 1000.0))
                .unwrap_or_else(|| "Turbo".to_string()),
            format!("{:.2}", p.active_uncore_ghz),
            format!("{:.2}", p.passive_uncore_ghz),
            format!("{:.2}", p.active_uncore_perf_epb_ghz),
        ]);
    }
    Table3 { points, table: t }
}

/// Registry adapter.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "table3"
    }
    fn anchor(&self) -> &'static str {
        "Table III"
    }
    fn title(&self) -> &'static str {
        "Uncore frequency vs. core frequency setting"
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        let worst_gap = r
            .points
            .iter()
            .map(|p| p.passive_uncore_ghz - p.active_uncore_ghz)
            .fold(f64::NEG_INFINITY, f64::max);
        let max_perf = r
            .points
            .iter()
            .map(|p| p.active_uncore_perf_epb_ghz)
            .fold(f64::NEG_INFINITY, f64::max);
        if let Some(turbo) = r.points.iter().find(|p| p.setting_mhz.is_none()) {
            out.metric("turbo_active_uncore_ghz", turbo.active_uncore_ghz);
        }
        out.metric("max_perf_epb_uncore_ghz", max_perf);
        out.check(
            "active socket clocks uncore at or above the passive one",
            worst_gap < 0.05,
            format!("worst passive-minus-active gap {worst_gap:.3} GHz"),
        );
        out.check(
            "performance EPB pins the uncore near 3.0 GHz",
            max_perf > 2.8,
            format!("max active uncore with EPB=performance {max_perf:.2} GHz"),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fidelity;
    use hsw_hwspec::calib;
    use hsw_node::EngineMode;

    fn cached() -> &'static Table3 {
        static CACHE: std::sync::OnceLock<Table3> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| run(&RunCtx::new(Fidelity::Quick, 0, EngineMode::default())))
    }

    #[test]
    fn reproduces_table3_schedule() {
        let t3 = cached();
        assert_eq!(t3.points.len(), 15);
        for (i, p) in t3.points.iter().enumerate() {
            let expect_active = calib::UFS_ACTIVE_SCHEDULE_MHZ[i] as f64 / 1000.0;
            let expect_passive = calib::UFS_PASSIVE_SCHEDULE_MHZ[i] as f64 / 1000.0;
            assert!(
                (p.active_uncore_ghz - expect_active).abs() < 0.08,
                "row {i}: active {:.2} vs paper {expect_active:.2}",
                p.active_uncore_ghz
            );
            assert!(
                (p.passive_uncore_ghz - expect_passive).abs() < 0.08,
                "row {i}: passive {:.2} vs paper {expect_passive:.2}",
                p.passive_uncore_ghz
            );
            // Paper (*): with EPB=performance the uncore is pinned at 3.0.
            assert!(
                (p.active_uncore_perf_epb_ghz - 3.0).abs() < 0.08,
                "row {i}: perf-EPB uncore {:.2}",
                p.active_uncore_perf_epb_ghz
            );
        }
    }

    #[test]
    fn turbo_row_reaches_three_ghz_and_floor_is_1_2() {
        let t3 = cached();
        assert!((t3.points[0].active_uncore_ghz - 3.0).abs() < 0.08);
        let last = t3.points.last().unwrap();
        assert!((last.active_uncore_ghz - 1.2).abs() < 0.08);
    }
}
