//! Skylake-SP: the AVX frequency-license table under full load
//! (follow-up survey, arXiv:1905.12468 Section IV).
//!
//! Skylake-SP extends Haswell's two-level AVX clocking into three license
//! levels (L0 scalar/light-128, L1 heavy-256, L2 heavy-512). This
//! experiment solves the PCU equilibrium for a FIRESTARTER-class workload
//! at every license level and several concurrency points on the Xeon
//! Platinum 8170, reproducing the follow-up survey's headline: the
//! license, not the nominal frequency, bounds the sustained clock, and
//! AVX-512 at full concurrency runs far below base while staying inside
//! TDP.

use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::{EpbClass, SkuSpec};
use hsw_pcu::{PcuController, PcuInputs};
use serde::{Deserialize, Serialize};

use crate::survey::RunCtx;
use crate::Table;

/// One solved operating point of the license grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LicensePoint {
    /// AVX license level (0 = none, 1 = 256-bit, 2 = 512-bit).
    pub level: u8,
    pub active_cores: usize,
    pub core_ghz: f64,
    pub uncore_ghz: f64,
    pub power_w: f64,
    pub tdp_limited: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkxLicenseTable {
    pub points: Vec<LicensePoint>,
    pub table: Table,
}

impl SkxLicenseTable {
    pub fn point(&self, level: u8, active: usize) -> &LicensePoint {
        self.points
            .iter()
            .find(|p| p.level == level && p.active_cores == active)
            .expect("grid point")
    }
}

impl std::fmt::Display for SkxLicenseTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)
    }
}

/// Concurrency points of the grid: the license turbo table's knee points
/// on the 26-core die.
pub const ACTIVE_POINTS: [usize; 4] = [2, 8, 16, 26];

fn solve(sku: &SkuSpec, level: u8, active: usize) -> LicensePoint {
    let fs = WorkloadProfile::firestarter();
    let inputs = PcuInputs {
        spec: sku,
        socket_power_mult: 1.0,
        setting: FreqSetting::Turbo,
        epb: EpbClass::Balanced,
        turbo_enabled: true,
        active_cores: active,
        gated_idle_cores: sku.cores - active,
        activity: fs.activity(true),
        avx_level: level,
        stall_fraction: fs.stall_fraction,
        eet_limit_mhz: u32::MAX,
        avg_pkg_w: sku.tdp_w, // steady state: PL1 governs
    };
    let g = PcuController::solve(&inputs);
    LicensePoint {
        level,
        active_cores: active,
        core_ghz: g.core_mhz / 1000.0,
        uncore_ghz: g.uncore_mhz / 1000.0,
        power_w: g.power_w,
        tdp_limited: g.power_limited,
    }
}

fn grid() -> Vec<(u8, usize)> {
    let mut jobs = Vec::new();
    for level in 0u8..=2 {
        for active in ACTIVE_POINTS {
            jobs.push((level, active));
        }
    }
    jobs
}

/// Fans the grid through the survey's worker pool. The PCU solve is
/// analytic, so the derived point seeds are not consumed.
pub fn run(ctx: &RunCtx) -> SkxLicenseTable {
    let sku = SkuSpec::xeon_platinum_8170();
    let jobs = grid();
    build(ctx.sweep(&jobs, |&(level, active), _seed| solve(&sku, level, active)))
}

fn build(points: Vec<LicensePoint>) -> SkxLicenseTable {
    let mut t = Table::new(
        "Skylake-SP: sustained FIRESTARTER clocks by AVX license level (Xeon Platinum 8170, Turbo setting)",
        vec![
            "license",
            "active cores",
            "core [GHz]",
            "uncore [GHz]",
            "power [W]",
            "TDP limited",
        ]
        .into_iter()
        .map(String::from)
        .collect(),
    );
    for p in &points {
        t.row(vec![
            match p.level {
                0 => "L0 (scalar)".to_string(),
                1 => "L1 (AVX2)".to_string(),
                _ => "L2 (AVX-512)".to_string(),
            },
            p.active_cores.to_string(),
            format!("{:.2}", p.core_ghz),
            format!("{:.2}", p.uncore_ghz),
            format!("{:.1}", p.power_w),
            if p.tdp_limited { "yes" } else { "no" }.to_string(),
        ]);
    }
    SkxLicenseTable { points, table: t }
}

/// Registry adapter. The PCU equilibrium solve is analytic, so the survey
/// seed is not consumed.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "skx_license_table"
    }
    fn anchor(&self) -> &'static str {
        "arXiv:1905.12468 Section IV"
    }
    fn title(&self) -> &'static str {
        "AVX frequency licenses on Skylake-SP"
    }
    fn seeded(&self) -> bool {
        false
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        let sku = SkuSpec::xeon_platinum_8170();
        let all = sku.cores;
        let (l0, l1, l2) = (r.point(0, all), r.point(1, all), r.point(2, all));
        out.metric("all_core_scalar_ghz", l0.core_ghz);
        out.metric("all_core_avx2_ghz", l1.core_ghz);
        out.metric("all_core_avx512_ghz", l2.core_ghz);
        out.metric("all_core_avx512_power_w", l2.power_w);
        out.check(
            "license levels order the all-core sustained clock",
            l0.core_ghz > l1.core_ghz && l1.core_ghz > l2.core_ghz,
            format!(
                "L0 {:.2} / L1 {:.2} / L2 {:.2} GHz",
                l0.core_ghz, l1.core_ghz, l2.core_ghz
            ),
        );
        out.check(
            "every grid point respects the 165 W TDP",
            r.points.iter().all(|p| p.power_w <= sku.tdp_w * 1.01),
            format!("{} points solved", r.points.len()),
        );
        let in_band = r.points.iter().all(|p| {
            let base = sku.freq.license_base_mhz(p.level) as f64 / 1000.0;
            let turbo = sku.freq.license_turbo_mhz(p.level, p.active_cores) as f64 / 1000.0;
            p.core_ghz >= base - 0.01 && p.core_ghz <= turbo + 0.01
        });
        out.check(
            "every sustained clock stays inside its license band",
            in_band,
            "base <= clock <= per-license turbo at each concurrency".to_string(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fidelity;
    use hsw_node::{EngineMode, PlatformKind};

    fn cached() -> &'static SkxLicenseTable {
        static CACHE: std::sync::OnceLock<SkxLicenseTable> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| {
            run(&RunCtx::new(Fidelity::Quick, 0, EngineMode::default())
                .with_platform(PlatformKind::SkylakeSp))
        })
    }

    #[test]
    fn two_core_points_reach_the_license_turbos() {
        // With 2 of 26 cores active nothing is power limited; each license
        // pins its dual-core turbo (3.7 / 3.6 / 3.5 GHz on the 8170).
        let t = cached();
        for (level, expect) in [(0u8, 3.7), (1, 3.6), (2, 3.5)] {
            let p = t.point(level, 2);
            assert!(!p.tdp_limited, "L{level} at 2 cores");
            assert!(
                (p.core_ghz - expect).abs() < 0.05,
                "L{level}: {:.2} vs {expect}",
                p.core_ghz
            );
        }
    }

    #[test]
    fn all_core_clocks_order_by_license() {
        let t = cached();
        let all = SkuSpec::xeon_platinum_8170().cores;
        assert!(t.point(0, all).core_ghz > t.point(1, all).core_ghz);
        assert!(t.point(1, all).core_ghz > t.point(2, all).core_ghz);
    }

    #[test]
    fn avx512_never_drops_below_its_license_base() {
        // The follow-up survey's headline number: heavy AVX-512 at full
        // concurrency sits between the 1.3 GHz license base and the
        // 1.9 GHz all-core L2 turbo.
        let t = cached();
        let all = SkuSpec::xeon_platinum_8170().cores;
        let p = t.point(2, all);
        assert!(p.core_ghz >= 1.3 - 0.01, "{:.2}", p.core_ghz);
        assert!(p.core_ghz <= 1.9 + 0.01, "{:.2}", p.core_ghz);
    }

    #[test]
    fn tdp_holds_across_the_grid() {
        for p in &cached().points {
            assert!(
                p.power_w <= 165.0 * 1.01,
                "L{} x{}: {:.1} W",
                p.level,
                p.active_cores,
                p.power_w
            );
        }
    }

    #[test]
    fn clocks_fall_with_concurrency_within_each_license() {
        let t = cached();
        for level in 0u8..=2 {
            for w in ACTIVE_POINTS.windows(2) {
                let hi = t.point(level, w[0]).core_ghz;
                let lo = t.point(level, w[1]).core_ghz;
                assert!(
                    lo <= hi + 1e-9,
                    "L{level}: {:.2} @ {} vs {:.2} @ {}",
                    hi,
                    w[0],
                    lo,
                    w[1]
                );
            }
        }
    }
}
