//! Beyond the paper: the Table IV protocol extrapolated across the
//! E5-2600 v3 product line.
//!
//! The paper measured one SKU (E5-2680 v3). The mechanisms it characterizes
//! — TDP balancing between core and uncore, AVX ceilings, UFS — apply to
//! the whole line; this experiment predicts the FIRESTARTER equilibrium for
//! representative SKUs of each die and checks the qualitative laws that
//! must hold regardless of SKU: TDP is respected, more cores at equal TDP
//! mean lower per-core clocks, and the AVX ceiling binds when TDP does not.

use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::{haswell_ep_sku, EpbClass, SkuSpec};
use hsw_pcu::{PcuController, PcuInputs};
use serde::{Deserialize, Serialize};

use crate::Table;

/// Predicted FIRESTARTER equilibrium for one SKU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkuPrediction {
    pub model: String,
    pub cores: usize,
    pub tdp_w: f64,
    pub base_ghz: f64,
    pub core_ghz: f64,
    pub uncore_ghz: f64,
    pub power_w: f64,
    pub tdp_limited: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkuExtrapolation {
    pub predictions: Vec<SkuPrediction>,
    pub table: Table,
}

impl std::fmt::Display for SkuExtrapolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)
    }
}

fn predict(sku: &SkuSpec) -> SkuPrediction {
    let fs = WorkloadProfile::firestarter();
    let inputs = PcuInputs {
        spec: sku,
        socket_power_mult: 1.0,
        setting: FreqSetting::Turbo,
        epb: EpbClass::Balanced,
        turbo_enabled: true,
        active_cores: sku.cores,
        gated_idle_cores: 0,
        activity: fs.activity(true),
        avx_level: 1,
        stall_fraction: fs.stall_fraction,
        eet_limit_mhz: u32::MAX,
        avg_pkg_w: sku.tdp_w, // steady state
    };
    let g = PcuController::solve(&inputs);
    SkuPrediction {
        model: sku.model.to_string(),
        cores: sku.cores,
        tdp_w: sku.tdp_w,
        base_ghz: sku.freq.base_mhz as f64 / 1000.0,
        core_ghz: g.core_mhz / 1000.0,
        uncore_ghz: g.uncore_mhz / 1000.0,
        power_w: g.power_w,
        tdp_limited: g.power_limited,
    }
}

/// Representative SKUs of each die for the extrapolation.
pub fn skus() -> Vec<SkuSpec> {
    vec![
        haswell_ep_sku("Intel Xeon E5-2623 v3", 4, 3000, 3500, 105.0),
        haswell_ep_sku("Intel Xeon E5-2630 v3", 8, 2400, 3200, 85.0),
        haswell_ep_sku("Intel Xeon E5-2680 v3", 12, 2500, 3300, 120.0),
        haswell_ep_sku("Intel Xeon E5-2699 v3", 18, 2300, 3600, 145.0),
    ]
}

pub fn run() -> SkuExtrapolation {
    let predictions: Vec<SkuPrediction> = skus().iter().map(predict).collect();
    let mut t = Table::new(
        "Extension: predicted FIRESTARTER equilibria across the E5-2600 v3 line (Turbo setting, HT)",
        vec!["SKU", "cores", "TDP [W]", "base [GHz]", "core [GHz]", "uncore [GHz]", "power [W]", "TDP limited"],
    );
    for p in &predictions {
        t.row(vec![
            p.model.clone(),
            p.cores.to_string(),
            format!("{:.0}", p.tdp_w),
            format!("{:.1}", p.base_ghz),
            format!("{:.2}", p.core_ghz),
            format!("{:.2}", p.uncore_ghz),
            format!("{:.1}", p.power_w),
            if p.tdp_limited { "yes" } else { "no" }.to_string(),
        ]);
    }
    SkuExtrapolation {
        predictions,
        table: t,
    }
}

/// Registry adapter. The PCU equilibrium solve is analytic, so the survey
/// seed is not consumed.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "sku_extrapolation"
    }
    fn anchor(&self) -> &'static str {
        "Extension (beyond the paper)"
    }
    fn title(&self) -> &'static str {
        "Table IV protocol extrapolated across the E5-2600 v3 line"
    }
    fn seeded(&self) -> bool {
        false
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run();
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        if let Some(p) = r.predictions.iter().find(|p| p.model.contains("2680")) {
            out.metric("e5_2680v3_core_ghz", p.core_ghz);
            out.metric("e5_2680v3_power_w", p.power_w);
            out.check(
                "the measured SKU's prediction matches Table IV",
                (2.2..=2.4).contains(&p.core_ghz) && p.tdp_limited,
                format!("{:.2} GHz, TDP limited: {}", p.core_ghz, p.tdp_limited),
            );
        }
        out.check(
            "every SKU respects its TDP",
            r.predictions.iter().all(|p| p.power_w <= p.tdp_w * 1.01),
            format!("{} SKUs predicted", r.predictions.len()),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cached() -> &'static SkuExtrapolation {
        static CACHE: std::sync::OnceLock<SkuExtrapolation> = std::sync::OnceLock::new();
        CACHE.get_or_init(run)
    }

    #[test]
    fn every_sku_respects_its_tdp() {
        for p in &cached().predictions {
            assert!(
                p.power_w <= p.tdp_w * 1.01,
                "{}: {:.1} W over {:.0} W",
                p.model,
                p.power_w,
                p.tdp_w
            );
        }
    }

    #[test]
    fn the_2680v3_prediction_matches_table4() {
        let p = cached()
            .predictions
            .iter()
            .find(|p| p.model.contains("2680"))
            .unwrap();
        assert!((2.2..=2.4).contains(&p.core_ghz), "{:.3}", p.core_ghz);
        assert!(p.tdp_limited);
    }

    #[test]
    fn low_tdp_high_core_count_clocks_lower() {
        // The 85 W 8-core part must sustain a lower FIRESTARTER clock than
        // the 105 W 4-core part.
        let preds = &cached().predictions;
        let small = preds.iter().find(|p| p.cores == 4).unwrap();
        let mid = preds.iter().find(|p| p.cores == 8).unwrap();
        assert!(
            mid.core_ghz < small.core_ghz,
            "{:.2} vs {:.2}",
            mid.core_ghz,
            small.core_ghz
        );
    }

    #[test]
    fn firestarter_pegs_every_sku_with_enough_cores() {
        // FIRESTARTER's design goal holds for the 8+-core parts; the 4-core
        // 105 W E5-2623 v3 physically cannot burn its generous TDP and runs
        // at its AVX ceiling instead — a prediction the paper's single-SKU
        // measurement could not make.
        for p in &cached().predictions {
            if p.cores >= 8 {
                assert!(
                    p.tdp_limited,
                    "{} should be TDP limited ({:.1}/{:.0} W)",
                    p.model, p.power_w, p.tdp_w
                );
            } else {
                assert!(!p.tdp_limited, "{}", p.model);
                let sku = skus().into_iter().find(|s| s.cores == p.cores).unwrap();
                let avx_ceiling = sku.freq.avx_turbo_mhz(p.cores) as f64 / 1000.0;
                assert!(
                    (p.core_ghz - avx_ceiling).abs() < 0.02,
                    "{}: {:.2} vs AVX ceiling {:.2}",
                    p.model,
                    p.core_ghz,
                    avx_ceiling
                );
            }
        }
    }

    #[test]
    fn sustained_clock_stays_at_or_above_avx_base() {
        for (p, sku) in cached().predictions.iter().zip(skus()) {
            let avx_base = sku.freq.avx_base_mhz.unwrap() as f64 / 1000.0;
            assert!(
                p.core_ghz >= avx_base - 0.01,
                "{}: {:.2} below AVX base {:.2}",
                p.model,
                p.core_ghz,
                avx_base
            );
        }
    }
}
