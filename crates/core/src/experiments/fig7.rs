//! Figure 7 — scaling of shared L3 and main-memory read bandwidth with
//! core frequency at maximum thread concurrency, normalized to the base
//! frequency, across Westmere-EP / Sandy Bridge-EP / Haswell-EP
//! (paper Section VII).
//!
//! The measurement uses the paper's working sets (17 MB for L3, 350 MB for
//! DRAM — validated against the functional cache hierarchy) and the
//! generation-specific uncore clocking rules.

use hsw_hwspec::{CpuGeneration, SkuSpec};
use hsw_memhier::bandwidth::{
    benchmark_uncore_ghz, dram_read_bandwidth_gbs, l3_read_bandwidth_gbs, MemoryLevel,
};
use serde::{Deserialize, Serialize};

use crate::survey::RunCtx;
use crate::Table;

/// One generation's normalized bandwidth curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Series {
    pub generation: String,
    /// (relative frequency = f/f_base, relative bandwidth = bw/bw_base)
    pub points: Vec<(f64, f64)>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7 {
    pub l3: Vec<Fig7Series>,
    pub dram: Vec<Fig7Series>,
}

impl Fig7 {
    pub fn series(&self, panel_l3: bool, generation: &str) -> Option<&Fig7Series> {
        let v = if panel_l3 { &self.l3 } else { &self.dram };
        v.iter().find(|s| s.generation == generation)
    }

    /// Relative bandwidth at the lowest relative frequency of a series.
    pub fn low_end(&self, panel_l3: bool, generation: &str) -> f64 {
        let s = self.series(panel_l3, generation).unwrap();
        s.points
            .iter()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap()
            .1
    }
}

impl std::fmt::Display for Fig7 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, panel) in [
            ("(a) relative L3 read bandwidth", &self.l3),
            ("(b) relative DRAM read bandwidth", &self.dram),
        ] {
            let mut t = Table::new(
                format!("Figure 7 {name} vs relative core frequency"),
                vec![
                    "generation".to_string(),
                    "points (f/f0 -> bw/bw0)".to_string(),
                ],
            );
            for s in panel {
                let pts: Vec<String> = s
                    .points
                    .iter()
                    .map(|(x, y)| format!("{x:.2}->{y:.2}"))
                    .collect();
                t.row(vec![s.generation.clone(), pts.join("  ")]);
            }
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

fn sku_for(generation: CpuGeneration) -> SkuSpec {
    // The comparison plot pairs each generation with its test chip.
    // lint:allow(M5): SKU selection is experiment fixture data, not firmware behavior.
    match generation {
        CpuGeneration::WestmereEp => SkuSpec::xeon_x5670(),
        CpuGeneration::SandyBridgeEp | CpuGeneration::IvyBridgeEp => SkuSpec::xeon_e5_2690(),
        _ => SkuSpec::xeon_e5_2680_v3(),
    }
}

/// Working sets from the paper (Section VII).
pub const L3_WORKING_SET: usize = 17 * 1024 * 1024;
pub const DRAM_WORKING_SET: usize = 350 * 1024 * 1024;

fn series(sku: &SkuSpec, generation: CpuGeneration, l3: bool) -> Fig7Series {
    let sku = sku.clone();
    debug_assert_eq!(
        MemoryLevel::classify(&sku, if l3 { L3_WORKING_SET } else { DRAM_WORKING_SET }),
        if l3 && sku.cache.l3_total_kib(sku.cores) * 1024 >= L3_WORKING_SET {
            MemoryLevel::L3
        } else {
            MemoryLevel::Dram
        }
    );
    let base_ghz = sku.freq.base_mhz as f64 / 1000.0;
    let cores = sku.cores;
    let tpc = sku.threads_per_core; // maximum thread concurrency
    let bw = |f_core: f64| {
        let f_unc = benchmark_uncore_ghz(&sku, f_core);
        if l3 {
            l3_read_bandwidth_gbs(&sku, cores, tpc, f_core, f_unc)
        } else {
            dram_read_bandwidth_gbs(&sku, cores, tpc, f_core, f_unc)
        }
    };
    let base_bw = bw(base_ghz);
    let mut points = Vec::new();
    let mut mhz = sku.freq.min_mhz;
    while mhz < sku.freq.base_mhz {
        let f = mhz as f64 / 1000.0;
        points.push((f / base_ghz, bw(f) / base_bw));
        mhz += 100;
    }
    // The exact base frequency anchors the normalization (Westmere's
    // 2.93 GHz is not a multiple of 100 MHz).
    points.push((1.0, 1.0));
    Fig7Series {
        generation: generation.name().to_string(),
        points,
    }
}

const GENERATIONS: [CpuGeneration; 3] = [
    CpuGeneration::WestmereEp,
    CpuGeneration::SandyBridgeEp,
    CpuGeneration::HaswellEp,
];

/// Fans the generation × panel grid through the warm-start sweep executor,
/// sharing the resolved SKU table across all points. The bandwidth model
/// is analytic, so the derived point seeds are not consumed and the result
/// is the same in either warm-start mode.
pub fn run(ctx: &RunCtx) -> Fig7 {
    let jobs: Vec<(CpuGeneration, bool)> = GENERATIONS
        .iter()
        .flat_map(|g| [true, false].into_iter().map(move |l3| (*g, l3)))
        .collect();
    let all = ctx.sweep_warm_shared(
        &jobs,
        || -> Vec<SkuSpec> { GENERATIONS.iter().map(|g| sku_for(*g)).collect() },
        |skus, &(g, l3), _seed| {
            let idx = GENERATIONS
                .iter()
                .position(|x| *x == g)
                .expect("generation");
            series(&skus[idx], g, l3)
        },
    );
    let (mut l3, mut dram) = (Vec::new(), Vec::new());
    for (&(_, is_l3), s) in jobs.iter().zip(all) {
        if is_l3 {
            l3.push(s);
        } else {
            dram.push(s);
        }
    }
    Fig7 { l3, dram }
}

/// Registry adapter. The bandwidth model is analytic, so the survey seed
/// is not consumed.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "fig7"
    }
    fn anchor(&self) -> &'static str {
        "Figure 7"
    }
    fn title(&self) -> &'static str {
        "Bandwidth scaling with core frequency across generations"
    }
    fn seeded(&self) -> bool {
        false
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        let hsw_dram = r.low_end(false, "Haswell-EP");
        let snb_dram = r.low_end(false, "Sandy Bridge-EP");
        let hsw_l3 = r.low_end(true, "Haswell-EP");
        out.metric("hsw_dram_low_end_rel_bw", hsw_dram);
        out.metric("snb_dram_low_end_rel_bw", snb_dram);
        out.metric("hsw_l3_low_end_rel_bw", hsw_l3);
        out.check(
            "Haswell DRAM bandwidth is core-frequency independent",
            hsw_dram > 0.97,
            format!("relative bandwidth {hsw_dram:.2} at the lowest frequency"),
        );
        out.check(
            "Sandy Bridge DRAM bandwidth tracks core frequency",
            snb_dram < 0.6,
            format!("relative bandwidth {snb_dram:.2} at the lowest frequency"),
        );
        out.check(
            "Haswell L3 bandwidth strongly correlates with core frequency",
            hsw_l3 < 0.7,
            format!("relative bandwidth {hsw_l3:.2} at the lowest frequency"),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fidelity;
    use hsw_node::EngineMode;

    fn fig() -> &'static Fig7 {
        static CACHE: std::sync::OnceLock<Fig7> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| run(&RunCtx::new(Fidelity::Quick, 0, EngineMode::default())))
    }

    #[test]
    fn haswell_dram_is_flat() {
        // "On the Haswell-EP architecture, DRAM performance at maximal
        // concurrency does not depend on the core frequency."
        let f = fig();
        assert!(
            f.low_end(false, "Haswell-EP") > 0.98,
            "{}",
            f.low_end(false, "Haswell-EP")
        );
    }

    #[test]
    fn westmere_dram_is_flat_like_haswell() {
        // "The behavior of the Westmere-EP generation ... was similar."
        let f = fig();
        assert!(f.low_end(false, "Westmere-EP") > 0.95);
    }

    #[test]
    fn sandy_bridge_dram_tracks_core_frequency() {
        // "On Sandy Bridge-EP ... DRAM bandwidth highly dependent on core
        // frequency."
        let f = fig();
        assert!(
            f.low_end(false, "Sandy Bridge-EP") < 0.55,
            "{}",
            f.low_end(false, "Sandy Bridge-EP")
        );
    }

    #[test]
    fn haswell_l3_strongly_correlates_with_core_frequency() {
        // "the L3 bandwidth of Haswell-EP strongly correlates with the core
        // frequency. This is surprising since other processors with
        // dedicated uncore/northbridge frequencies are less influenced."
        let f = fig();
        let hsw = f.low_end(true, "Haswell-EP");
        let wsm = f.low_end(true, "Westmere-EP");
        assert!(hsw < 0.70, "HSW L3 low end {hsw}");
        assert!(wsm > hsw + 0.10, "WSM {wsm} vs HSW {hsw}");
    }

    #[test]
    fn sandy_bridge_l3_is_fully_coupled() {
        let f = fig();
        let s = f.series(true, "Sandy Bridge-EP").unwrap();
        // Linear: relative bandwidth ≈ relative frequency.
        for (x, y) in &s.points {
            assert!((x - y).abs() < 0.03, "({x:.2}, {y:.2})");
        }
    }

    #[test]
    fn curves_are_normalized_at_base() {
        let f = fig();
        for panel in [&f.l3, &f.dram] {
            for s in panel {
                let last = s.points.last().unwrap();
                assert!((last.0 - 1.0).abs() < 1e-9 && (last.1 - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn working_sets_classify_as_the_paper_assumes() {
        let sku = SkuSpec::xeon_e5_2680_v3();
        assert_eq!(MemoryLevel::classify(&sku, L3_WORKING_SET), MemoryLevel::L3);
        assert_eq!(
            MemoryLevel::classify(&sku, DRAM_WORKING_SET),
            MemoryLevel::Dram
        );
    }
}
