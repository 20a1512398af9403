//! Skylake-SP: mesh (uncore) frequency scaling per core-frequency setting
//! (follow-up survey, arXiv:1905.12468 Section V).
//!
//! Skylake-SP replaces Haswell's ring with a mesh interconnect and gives
//! each *socket's* uncore a 1.2–2.4 GHz UFS range that the firmware scales
//! with the configured core frequency and the observed memory pressure.
//! This experiment replays the Table III methodology on the Xeon Platinum
//! 8170 node: a single spinning thread on socket 0, both sockets' uncore
//! clocks sampled per setting, plus the stalled (memory-bound) and
//! EPB=performance variants that pin the mesh at its ceiling.

use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::EpbClass;
use hsw_node::NodeConfig;
use serde::{Deserialize, Serialize};

use super::table3::measure;
use crate::report::Table;
use crate::survey::{mix_seed, RunCtx};

/// One measured row of the mesh-frequency table.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SkxUfsPoint {
    pub setting_mhz: Option<u32>, // None = Turbo
    /// Socket 0 (one spinning thread), EPB balanced.
    pub active_uncore_ghz: f64,
    /// Socket 1 (idle), EPB balanced.
    pub passive_uncore_ghz: f64,
    /// Socket 0 running the memory-bound kernel: stall pressure lifts the
    /// mesh to its ceiling regardless of the core setting.
    pub stalled_uncore_ghz: f64,
    /// Socket 0 spinning with EPB = performance.
    pub active_uncore_perf_epb_ghz: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkxUfsMesh {
    pub points: Vec<SkxUfsPoint>,
    pub table: Table,
}

impl std::fmt::Display for SkxUfsMesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)
    }
}

/// Each setting is one point of the sweep executor, measured with Table
/// III's probe: the balanced spin under the point seed, the stalled and
/// EPB=performance variants under `mix_seed(seed, 1)` and `mix_seed(seed, 2)`.
pub fn run(ctx: &RunCtx) -> SkxUfsMesh {
    let sku = NodeConfig::skylake_sp().spec.sku;
    let spin = WorkloadProfile::busy_wait();
    let mem = WorkloadProfile::memory_bound();

    let points: Vec<SkxUfsPoint> = ctx.sweep(&sku.freq.all_settings(), |s, seed| {
        let (active, passive) = measure(ctx, &spin, *s, EpbClass::Balanced, seed);
        let (stalled, _) = measure(ctx, &mem, *s, EpbClass::Balanced, mix_seed(seed, 1));
        let (active_perf, _) = measure(ctx, &spin, *s, EpbClass::Performance, mix_seed(seed, 2));
        SkxUfsPoint {
            setting_mhz: match s {
                FreqSetting::Turbo => None,
                FreqSetting::Fixed(p) => Some(p.mhz()),
            },
            active_uncore_ghz: active,
            passive_uncore_ghz: passive,
            stalled_uncore_ghz: stalled,
            active_uncore_perf_epb_ghz: active_perf,
        }
    });

    let mut t = Table::new(
        "Skylake-SP: mesh frequency vs. core setting (spin on socket 0 of the 2x Platinum 8170 node)",
        vec![
            "Core frequency setting",
            "Active mesh [GHz]",
            "Passive mesh [GHz]",
            "Stalled mesh [GHz]",
            "Active w/ EPB=perf [GHz]",
        ]
        .into_iter()
        .map(String::from)
        .collect(),
    );
    for p in &points {
        t.row(vec![
            p.setting_mhz
                .map(|m| format!("{:.1}", m as f64 / 1000.0))
                .unwrap_or_else(|| "Turbo".to_string()),
            format!("{:.2}", p.active_uncore_ghz),
            format!("{:.2}", p.passive_uncore_ghz),
            format!("{:.2}", p.stalled_uncore_ghz),
            format!("{:.2}", p.active_uncore_perf_epb_ghz),
        ]);
    }
    SkxUfsMesh { points, table: t }
}

/// Registry adapter.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "skx_ufs_mesh"
    }
    fn anchor(&self) -> &'static str {
        "arXiv:1905.12468 Section V"
    }
    fn title(&self) -> &'static str {
        "Mesh (uncore) frequency scaling on Skylake-SP"
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        let turbo = r.points[0];
        let floor = r.points.last().unwrap();
        let min_stalled = r
            .points
            .iter()
            .map(|p| p.stalled_uncore_ghz)
            .fold(f64::INFINITY, f64::min);
        out.metric("turbo_active_mesh_ghz", turbo.active_uncore_ghz);
        out.metric("floor_active_mesh_ghz", floor.active_uncore_ghz);
        out.metric("min_stalled_mesh_ghz", min_stalled);
        out.check(
            "the mesh tops out at 2.4 GHz under the Turbo setting",
            (turbo.active_uncore_ghz - 2.4).abs() < 0.08,
            format!("{:.2} GHz", turbo.active_uncore_ghz),
        );
        out.check(
            "the mesh floor is 1.2 GHz at the lowest core setting",
            (floor.active_uncore_ghz - 1.2).abs() < 0.08,
            format!("{:.2} GHz", floor.active_uncore_ghz),
        );
        out.check(
            "memory stalls pin the mesh near its ceiling at every setting",
            min_stalled > 2.4 - 0.1,
            format!("minimum stalled mesh clock {min_stalled:.2} GHz"),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fidelity;
    use hsw_hwspec::calib;
    use hsw_node::{EngineMode, PlatformKind};

    fn cached() -> &'static SkxUfsMesh {
        static CACHE: std::sync::OnceLock<SkxUfsMesh> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| {
            run(&RunCtx::new(Fidelity::Quick, 0, EngineMode::default())
                .with_platform(PlatformKind::SkylakeSp))
        })
    }

    #[test]
    fn reproduces_the_skx_ufs_schedule() {
        let r = cached();
        assert_eq!(r.points.len(), calib::skx::UFS_ACTIVE_SCHEDULE_MHZ.len());
        for (i, p) in r.points.iter().enumerate() {
            let expect = calib::skx::UFS_ACTIVE_SCHEDULE_MHZ[i] as f64 / 1000.0;
            assert!(
                (p.active_uncore_ghz - expect).abs() < 0.08,
                "row {i}: active {:.2} vs schedule {expect:.2}",
                p.active_uncore_ghz
            );
            assert!(
                p.passive_uncore_ghz <= p.active_uncore_ghz + 0.05,
                "row {i}: passive {:.2} above active {:.2}",
                p.passive_uncore_ghz,
                p.active_uncore_ghz
            );
        }
    }

    #[test]
    fn stalls_and_perf_epb_pin_the_mesh_ceiling() {
        for (i, p) in cached().points.iter().enumerate() {
            assert!(
                (p.stalled_uncore_ghz - 2.4).abs() < 0.1,
                "row {i}: stalled {:.2}",
                p.stalled_uncore_ghz
            );
            assert!(
                (p.active_uncore_perf_epb_ghz - 2.4).abs() < 0.1,
                "row {i}: perf-EPB {:.2}",
                p.active_uncore_perf_epb_ghz
            );
        }
    }
}
