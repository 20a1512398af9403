//! Figure 8 — L3 and DRAM read bandwidth depending on concurrency and
//! frequency on Haswell-EP (paper Section VII).
//!
//! A full (threads × frequency) sweep: concurrency 1–24 (filling cores
//! first, then Hyper-Threading siblings) × frequency settings 1.2 GHz …
//! 2.5 GHz + Turbo. Reproduced claims: DRAM saturates at 8 cores and is
//! core-frequency independent from 10 cores; L3 scales with both factors,
//! slightly superlinearly with cores at low concurrency; extra threads per
//! core pay off only at low concurrency.

use hsw_hwspec::SkuSpec;
use hsw_memhier::bandwidth::{
    benchmark_uncore_ghz, dram_read_bandwidth_gbs, l3_read_bandwidth_gbs,
};
use serde::{Deserialize, Serialize};

use crate::survey::RunCtx;
use crate::Table;

/// One heatmap cell.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig8Cell {
    pub threads: usize,
    pub cores: usize,
    pub threads_per_core: usize,
    pub freq_ghz: f64,
    pub l3_gbs: f64,
    pub dram_gbs: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8 {
    pub cells: Vec<Fig8Cell>,
    pub freqs_ghz: Vec<f64>,
    pub thread_counts: Vec<usize>,
}

impl Fig8 {
    pub fn at(&self, threads: usize, freq_ghz: f64) -> Option<&Fig8Cell> {
        self.cells
            .iter()
            .find(|c| c.threads == threads && (c.freq_ghz - freq_ghz).abs() < 1e-9)
    }
}

impl std::fmt::Display for Fig8 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (title, pick) in [
            ("Figure 8 (left): L3 read bandwidth [GB/s]", true),
            ("Figure 8 (right): DRAM read bandwidth [GB/s]", false),
        ] {
            let mut headers = vec!["GHz \\ threads".to_string()];
            headers.extend(self.thread_counts.iter().map(|t| t.to_string()));
            let mut table = Table::new(title, headers);
            for freq in &self.freqs_ghz {
                let mut row = vec![format!("{freq:.1}")];
                for t in &self.thread_counts {
                    let cell = self.at(*t, *freq).expect("cell");
                    let v = if pick { cell.l3_gbs } else { cell.dram_gbs };
                    row.push(format!("{v:.0}"));
                }
                table.row(row);
            }
            writeln!(f, "{table}")?;
        }
        Ok(())
    }
}

/// Map a thread count onto (cores used, threads per core): cores first,
/// then SMT siblings (the scheduling the paper's benchmark uses).
pub fn placement(threads: usize, cores: usize) -> (usize, usize) {
    if threads <= cores {
        (threads, 1)
    } else {
        (cores, 2)
    }
}

/// The sweep axes: thread counts 1–24 and the selectable p-states plus the
/// all-core turbo bin under the bandwidth benchmark.
fn grid(sku: &SkuSpec) -> (Vec<usize>, Vec<f64>) {
    let thread_counts: Vec<usize> = (1..=sku.cores * sku.threads_per_core).collect();
    let mut freqs_ghz: Vec<f64> = sku
        .freq
        .selectable_pstates()
        .iter()
        .rev()
        .map(|p| p.ghz())
        .collect();
    freqs_ghz.push(sku.freq.turbo_mhz(sku.cores) as f64 / 1000.0);
    (thread_counts, freqs_ghz)
}

/// One frequency row of the heatmap: every thread count at `freq`.
fn row(sku: &SkuSpec, freq: f64, thread_counts: &[usize]) -> Vec<Fig8Cell> {
    let f_unc = benchmark_uncore_ghz(sku, freq);
    thread_counts
        .iter()
        .map(|&threads| {
            let (cores, tpc) = placement(threads, sku.cores);
            // Above one thread per core the SMT gain phases in with the
            // number of doubly-occupied cores (threads 13–24 add siblings
            // one core at a time).
            let frac = if threads > cores {
                (threads - cores) as f64 / cores as f64
            } else {
                0.0
            };
            let mix = |single: f64, smt: f64| single + frac * (smt - single);
            let l3 = mix(
                l3_read_bandwidth_gbs(sku, cores, 1, freq, f_unc),
                l3_read_bandwidth_gbs(sku, cores, 2, freq, f_unc),
            );
            let dram = mix(
                dram_read_bandwidth_gbs(sku, cores, 1, freq, f_unc),
                dram_read_bandwidth_gbs(sku, cores, 2, freq, f_unc),
            );
            Fig8Cell {
                threads,
                cores,
                threads_per_core: tpc,
                freq_ghz: freq,
                l3_gbs: l3,
                dram_gbs: dram,
            }
        })
        .collect()
}

/// Fans one sweep point per frequency row through the warm-start sweep
/// executor, sharing the resolved SKU and thread-count axis across rows.
/// The model is analytic, so the derived point seeds are not consumed and
/// the result is the same in either warm-start mode.
pub fn run(ctx: &RunCtx) -> Fig8 {
    let sku = SkuSpec::xeon_e5_2680_v3();
    let (thread_counts, freqs_ghz) = grid(&sku);
    let rows = ctx.sweep_warm_shared(
        &freqs_ghz,
        || {
            (
                SkuSpec::xeon_e5_2680_v3(),
                grid(&SkuSpec::xeon_e5_2680_v3()).0,
            )
        },
        |(sku, threads), &freq, _seed| row(&sku, freq, &threads),
    );
    Fig8 {
        cells: rows.into_iter().flatten().collect(),
        freqs_ghz,
        thread_counts,
    }
}

/// Registry adapter. The sweep is analytic, so the survey seed is not
/// consumed.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "fig8"
    }
    fn anchor(&self) -> &'static str {
        "Figure 8"
    }
    fn title(&self) -> &'static str {
        "L3/DRAM bandwidth vs. concurrency and frequency"
    }
    fn seeded(&self) -> bool {
        false
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        let dram12 = r.at(12, 2.5).map(|c| c.dram_gbs).unwrap_or(f64::NAN);
        let dram24 = r.at(24, 2.5).map(|c| c.dram_gbs).unwrap_or(f64::NAN);
        let l3_12 = r.at(12, 2.5).map(|c| c.l3_gbs).unwrap_or(f64::NAN);
        let l3_6 = r.at(6, 2.5).map(|c| c.l3_gbs).unwrap_or(f64::NAN);
        out.metric("dram_gbs_12t_2p5ghz", dram12);
        out.metric("l3_gbs_12t_2p5ghz", l3_12);
        out.check(
            "DRAM bandwidth saturates before full SMT concurrency",
            (dram24 / dram12 - 1.0).abs() < 0.05,
            format!("12t {dram12:.0} GB/s vs 24t {dram24:.0} GB/s"),
        );
        out.check(
            "L3 bandwidth scales with active cores",
            l3_12 > 1.6 * l3_6,
            format!("6t {l3_6:.0} GB/s vs 12t {l3_12:.0} GB/s"),
        );
        out.check(
            "the full threads x frequency grid was swept",
            r.cells.len() == r.freqs_ghz.len() * r.thread_counts.len(),
            format!("{} cells", r.cells.len()),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fidelity;
    use hsw_node::EngineMode;

    fn fig() -> &'static Fig8 {
        static CACHE: std::sync::OnceLock<Fig8> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| run(&RunCtx::new(Fidelity::Quick, 0, EngineMode::default())))
    }

    #[test]
    fn grid_is_complete() {
        let f = fig();
        assert_eq!(f.freqs_ghz.len(), 15); // 1.2..2.5 + turbo
        assert_eq!(f.thread_counts.len(), 24);
        assert_eq!(f.cells.len(), 15 * 24);
    }

    #[test]
    fn dram_saturates_at_eight_cores() {
        let f = fig();
        let bw8 = f.at(8, 2.5).unwrap().dram_gbs;
        let bw12 = f.at(12, 2.5).unwrap().dram_gbs;
        let bw4 = f.at(4, 2.5).unwrap().dram_gbs;
        assert!((bw8 - bw12).abs() / bw12 < 0.02, "8c {bw8} vs 12c {bw12}");
        assert!(bw4 < 0.95 * bw8);
    }

    #[test]
    fn dram_is_frequency_independent_at_ten_plus_cores() {
        // "becomes independent of the core frequency if ten cores are
        // active".
        let f = fig();
        for threads in [10usize, 12] {
            let lo = f.at(threads, 1.2).unwrap().dram_gbs;
            let hi = f.at(threads, 2.5).unwrap().dram_gbs;
            assert!(
                (lo / hi - 1.0).abs() < 0.02,
                "{threads} threads: {lo} vs {hi}"
            );
        }
        // But a single core does show some dependence.
        let lo1 = f.at(1, 1.2).unwrap().dram_gbs;
        let hi1 = f.at(1, 2.5).unwrap().dram_gbs;
        assert!(hi1 > lo1 * 1.02);
    }

    #[test]
    fn l3_scales_with_both_cores_and_frequency() {
        let f = fig();
        assert!(f.at(12, 2.5).unwrap().l3_gbs > 1.8 * f.at(6, 2.5).unwrap().l3_gbs * 0.9);
        assert!(f.at(12, 2.5).unwrap().l3_gbs > 1.4 * f.at(12, 1.2).unwrap().l3_gbs);
    }

    #[test]
    fn l3_slightly_superlinear_at_low_concurrency() {
        let f = fig();
        let b1 = f.at(1, 2.5).unwrap().l3_gbs;
        let b2 = f.at(2, 2.5).unwrap().l3_gbs;
        assert!(b2 > 2.0 * b1, "{b2} vs 2×{b1}");
    }

    #[test]
    fn hyperthreading_pays_off_only_at_low_concurrency() {
        // Compare n threads on n cores vs. 2n threads on n cores. At low
        // concurrency the second thread helps DRAM bandwidth; at saturation
        // it cannot.
        let f = fig();
        // 13 threads → 12 cores+HT on one; compare 24 threads vs 12.
        let full_ht = f.at(24, 2.5).unwrap().dram_gbs;
        let full = f.at(12, 2.5).unwrap().dram_gbs;
        assert!((full_ht / full - 1.0).abs() < 0.02, "{full_ht} vs {full}");
        let low_ht = f.at(13, 2.5).unwrap(); // 12 cores, HT engaged
        assert_eq!(low_ht.threads_per_core, 2);
    }

    #[test]
    fn turbo_row_is_the_fastest_l3_row() {
        let f = fig();
        let turbo = *f.freqs_ghz.last().unwrap();
        assert!(turbo > 2.5);
        assert!(f.at(12, turbo).unwrap().l3_gbs >= f.at(12, 2.5).unwrap().l3_gbs);
    }
}
