//! Analytic read-bandwidth model (paper Figures 7 and 8).
//!
//! Per-core service time for one 64-byte line is split into a core-clock
//! term and an uncore-clock term; the socket-level aggregate is capped by
//! the uncore's service capability (slice/ring for L3, IMC/channels for
//! DRAM). The per-generation parameters ([`BwParams`], in hsw-hwspec)
//! encode the architectural story:
//!
//! * **Haswell-EP**: independent uncore, pinned at 3.0 GHz under memory
//!   stalls → the DRAM cap is constant (frequency-independent bandwidth at
//!   saturation), while L3 per-core service is dominated by the core-clock
//!   term (bandwidth follows the core clock, flattening as the uncore term
//!   takes over at high core frequency).
//! * **Sandy Bridge-EP**: the uncore runs at the core clock → both terms
//!   and the IMC cap scale with core frequency; DRAM bandwidth tracks DVFS.
//! * **Westmere-EP**: fixed uncore clock → DRAM cap constant, L3 weakly
//!   dependent on the core clock.

use hsw_hwspec::{BwParams, SkuSpec};

/// Which level of the hierarchy a working set is served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryLevel {
    L1,
    L2,
    L3,
    Dram,
}

impl MemoryLevel {
    /// Classify a per-thread working set against the SKU's cache capacities
    /// (the paper's 17 MB → L3, 350 MB → DRAM choice).
    pub fn classify(spec: &SkuSpec, working_set_bytes: usize) -> MemoryLevel {
        let c = &spec.cache;
        if working_set_bytes <= c.l1d_kib * 1024 {
            MemoryLevel::L1
        } else if working_set_bytes <= c.l2_kib * 1024 {
            MemoryLevel::L2
        } else if working_set_bytes <= c.l3_total_kib(spec.cores) * 1024 {
            MemoryLevel::L3
        } else {
            MemoryLevel::Dram
        }
    }
}

/// Hyper-Threading factor: a second thread per core adds outstanding
/// requests, which helps while the socket aggregate is not yet limited by
/// the uncore (paper Fig. 8: "multiple threads per core only is beneficial
/// for low-concurrency scenarios"). At and beyond saturation the cap
/// swallows the gain automatically.
fn ht_factor(p: &BwParams, threads_per_core: usize) -> f64 {
    if threads_per_core >= 2 {
        p.ht_gain
    } else {
        1.0
    }
}

/// Socket L3 read bandwidth in GB/s.
///
/// `cores` is the number of active cores, `threads_per_core` 1 or 2,
/// frequencies in GHz.
pub fn l3_read_bandwidth_gbs(
    spec: &SkuSpec,
    cores: usize,
    threads_per_core: usize,
    f_core_ghz: f64,
    f_unc_ghz: f64,
) -> f64 {
    if cores == 0 {
        return 0.0;
    }
    let p = BwParams::for_generation(spec.generation);
    let cores = cores.min(spec.cores);
    // Fixed arbitration overhead amortizes slightly with more active cores.
    let amort = 1.0 + p.ring_amortization * (cores as f64 - 1.0).min(3.0);
    let uncore_cycles = p.l3_uncore_cycles / amort;
    let per_line_ns = p.l3_core_cycles / f_core_ghz + uncore_cycles / f_unc_ghz;
    let per_core = 64.0 / per_line_ns * ht_factor(&p, threads_per_core);
    let contention = 1.0 / (1.0 + p.ring_contention * (cores as f64 - 1.0));
    let demand = cores as f64 * per_core * contention;
    // Slice-side cap: every active core's slice serves in parallel (lines
    // are hashed over all slices, so all `spec.cores` slices participate).
    let cap = spec.cores as f64 * p.l3_slice_bytes_per_cycle * f_unc_ghz;
    demand.min(cap)
}

/// Socket local-DRAM read bandwidth in GB/s.
pub fn dram_read_bandwidth_gbs(
    spec: &SkuSpec,
    cores: usize,
    threads_per_core: usize,
    f_core_ghz: f64,
    f_unc_ghz: f64,
) -> f64 {
    if cores == 0 {
        return 0.0;
    }
    let p = BwParams::for_generation(spec.generation);
    let cores = cores.min(spec.cores);
    let latency_ns =
        p.dram_device_ns + p.dram_core_cycles / f_core_ghz + p.dram_uncore_cycles / f_unc_ghz;
    let per_core = p.dram_outstanding * 64.0 / latency_ns * ht_factor(&p, threads_per_core);
    let demand = cores as f64 * per_core;
    let cap = p
        .dram_peak_gbs
        .min(p.imc_bytes_per_uncore_cycle * f_unc_ghz);
    demand.min(cap)
}

/// The uncore frequency the hardware runs during a bandwidth benchmark
/// (memory stalls present) for each generation: Haswell's UFS raises the
/// uncore to its maximum, Sandy Bridge couples it to the core clock,
/// Westmere keeps it fixed.
pub fn benchmark_uncore_ghz(spec: &SkuSpec, f_core_ghz: f64) -> f64 {
    use hsw_hwspec::UncoreClockSource::*;
    match spec.generation.uncore_clock() {
        Fixed => spec.freq.uncore_max_mhz as f64 / 1000.0,
        CoreCoupled => f_core_ghz,
        Independent => spec.freq.uncore_max_mhz as f64 / 1000.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_hwspec::SkuSpec;
    use proptest::prelude::*;

    fn hsw() -> SkuSpec {
        SkuSpec::xeon_e5_2680_v3()
    }
    fn snb() -> SkuSpec {
        SkuSpec::xeon_e5_2690()
    }
    fn wsm() -> SkuSpec {
        SkuSpec::xeon_x5670()
    }

    #[test]
    fn classify_matches_paper_working_sets() {
        let sku = hsw();
        assert_eq!(
            MemoryLevel::classify(&sku, 17 * 1024 * 1024),
            MemoryLevel::L3
        );
        assert_eq!(
            MemoryLevel::classify(&sku, 350 * 1024 * 1024),
            MemoryLevel::Dram
        );
        assert_eq!(MemoryLevel::classify(&sku, 16 * 1024), MemoryLevel::L1);
        assert_eq!(MemoryLevel::classify(&sku, 200 * 1024), MemoryLevel::L2);
    }

    #[test]
    fn haswell_dram_is_frequency_independent_at_max_concurrency() {
        // Paper Fig. 7b: "DRAM performance at maximal concurrency does not
        // depend on the core frequency".
        let sku = hsw();
        let base = dram_read_bandwidth_gbs(&sku, 12, 2, 2.5, benchmark_uncore_ghz(&sku, 2.5));
        for f in [1.2, 1.5, 2.0, 2.5] {
            let bw = dram_read_bandwidth_gbs(&sku, 12, 2, f, benchmark_uncore_ghz(&sku, f));
            assert!((bw / base - 1.0).abs() < 0.01, "f={f}: {bw} vs {base}");
        }
    }

    #[test]
    fn sandy_bridge_dram_tracks_core_frequency() {
        // Paper Fig. 7b: "On Sandy Bridge-EP, the uncore frequency reflects
        // the core frequency, making DRAM bandwidth highly dependent".
        let sku = snb();
        let base = dram_read_bandwidth_gbs(&sku, 8, 2, 2.9, benchmark_uncore_ghz(&sku, 2.9));
        let low = dram_read_bandwidth_gbs(&sku, 8, 2, 1.2, benchmark_uncore_ghz(&sku, 1.2));
        assert!(low / base < 0.55, "ratio = {}", low / base);
    }

    #[test]
    fn westmere_dram_is_frequency_independent_like_haswell() {
        let sku = wsm();
        let base = dram_read_bandwidth_gbs(&sku, 6, 2, 2.93, benchmark_uncore_ghz(&sku, 2.93));
        let low = dram_read_bandwidth_gbs(&sku, 6, 2, 1.6, benchmark_uncore_ghz(&sku, 1.6));
        assert!(low / base > 0.95, "ratio = {}", low / base);
    }

    #[test]
    fn haswell_l3_strongly_correlates_with_core_frequency() {
        // Paper Fig. 7a.
        let sku = hsw();
        let base = l3_read_bandwidth_gbs(&sku, 12, 2, 2.5, 3.0);
        let low = l3_read_bandwidth_gbs(&sku, 12, 2, 1.2, 3.0);
        let ratio = low / base;
        assert!((0.45..0.70).contains(&ratio), "ratio = {ratio}");
        // Westmere's L3, with its dedicated northbridge clock, is less
        // influenced by the core clock.
        let w = wsm();
        let wr = l3_read_bandwidth_gbs(&w, 6, 2, 1.6, 2.66)
            / l3_read_bandwidth_gbs(&w, 6, 2, 2.93, 2.66);
        assert!(wr > ratio + 0.1, "wsm {wr} vs hsw {ratio}");
    }

    #[test]
    fn haswell_l3_flattens_at_high_frequency_without_plateau() {
        // "it scales linearly with frequency for lower frequencies but
        // flattens at higher frequency levels without converging".
        let sku = hsw();
        let b = |f: f64| l3_read_bandwidth_gbs(&sku, 12, 2, f, 3.0);
        let low_slope = (b(1.5) - b(1.2)) / 0.3;
        let high_slope = (b(2.5) - b(2.2)) / 0.3;
        assert!(high_slope < low_slope * 0.85, "{high_slope} vs {low_slope}");
        assert!(high_slope > 0.0, "must not fully plateau");
    }

    #[test]
    fn dram_saturates_at_eight_cores() {
        // Paper Fig. 8: "The main memory read bandwidth saturates at
        // 8 cores".
        let sku = hsw();
        let at = |n| dram_read_bandwidth_gbs(&sku, n, 1, 2.5, 3.0);
        assert!(
            at(8) > 0.99 * at(12),
            "8 cores: {} vs 12: {}",
            at(8),
            at(12)
        );
        assert!(at(4) < 0.95 * at(8), "4 cores: {} vs 8: {}", at(4), at(8));
        assert!((at(12) - hsw_hwspec::calib::bandwidth::HSW_DRAM_PEAK_GBS).abs() < 1.0);
    }

    #[test]
    fn ht_helps_only_at_low_concurrency() {
        let sku = hsw();
        let gain_low = dram_read_bandwidth_gbs(&sku, 2, 2, 2.5, 3.0)
            / dram_read_bandwidth_gbs(&sku, 2, 1, 2.5, 3.0);
        let gain_high = dram_read_bandwidth_gbs(&sku, 12, 2, 2.5, 3.0)
            / dram_read_bandwidth_gbs(&sku, 12, 1, 2.5, 3.0);
        assert!(gain_low > 1.1, "low-concurrency HT gain {gain_low}");
        assert!(
            (gain_high - 1.0).abs() < 0.01,
            "saturated HT gain {gain_high}"
        );
    }

    #[test]
    fn l3_scales_slightly_superlinearly_at_low_concurrency() {
        // Paper Fig. 8: "The L3 read bandwidth scales slightly better than
        // linear with the number of cores at low levels of concurrency and
        // approximately linearly otherwise."
        let sku = hsw();
        let b1 = l3_read_bandwidth_gbs(&sku, 1, 1, 2.5, 3.0);
        let b2 = l3_read_bandwidth_gbs(&sku, 2, 1, 2.5, 3.0);
        let b8 = l3_read_bandwidth_gbs(&sku, 8, 1, 2.5, 3.0);
        let b12 = l3_read_bandwidth_gbs(&sku, 12, 1, 2.5, 3.0);
        assert!(b2 > 2.0 * b1, "2-core {b2} vs 2×{b1}");
        // Approximately linear later on (within a few percent per step).
        let r = (b12 / b8) / (12.0 / 8.0);
        assert!((0.93..=1.05).contains(&r), "high-concurrency ratio {r}");
    }

    #[test]
    fn haswell_beats_sandy_bridge_in_absolute_dram_bandwidth() {
        // DDR4-2133 vs DDR3-1600 (paper Table I).
        let h = dram_read_bandwidth_gbs(&hsw(), 12, 2, 2.5, 3.0);
        let s = dram_read_bandwidth_gbs(&snb(), 8, 2, 2.9, 2.9);
        assert!(h > s * 1.3, "{h} vs {s}");
    }

    proptest! {
        #[test]
        fn prop_bandwidth_monotone_in_cores(n in 1usize..12) {
            let sku = hsw();
            prop_assert!(
                l3_read_bandwidth_gbs(&sku, n + 1, 1, 2.5, 3.0)
                    >= l3_read_bandwidth_gbs(&sku, n, 1, 2.5, 3.0)
            );
            prop_assert!(
                dram_read_bandwidth_gbs(&sku, n + 1, 1, 2.5, 3.0)
                    >= dram_read_bandwidth_gbs(&sku, n, 1, 2.5, 3.0)
            );
        }

        #[test]
        fn prop_bandwidth_monotone_in_core_frequency(f in 1.2f64..2.4) {
            let sku = hsw();
            for n in [1usize, 4, 12] {
                prop_assert!(
                    l3_read_bandwidth_gbs(&sku, n, 1, f + 0.1, 3.0)
                        >= l3_read_bandwidth_gbs(&sku, n, 1, f, 3.0)
                );
                prop_assert!(
                    dram_read_bandwidth_gbs(&sku, n, 1, f + 0.1, 3.0) + 1e-9
                        >= dram_read_bandwidth_gbs(&sku, n, 1, f, 3.0)
                );
            }
        }

        #[test]
        fn prop_dram_never_exceeds_channel_peak(
            n in 1usize..=12,
            f in 1.2f64..=2.5,
            t in 1usize..=2,
        ) {
            let sku = hsw();
            let bw = dram_read_bandwidth_gbs(&sku, n, t, f, 3.0);
            prop_assert!(bw <= hsw_hwspec::calib::bandwidth::HSW_DRAM_PEAK_GBS + 1e-9);
            prop_assert!(bw <= sku.mem.peak_bandwidth_gbs());
        }

        #[test]
        fn prop_l3_exceeds_dram_bandwidth(
            n in 1usize..=12,
            f in 1.2f64..=2.5,
        ) {
            let sku = hsw();
            prop_assert!(
                l3_read_bandwidth_gbs(&sku, n, 1, f, 3.0)
                    > dram_read_bandwidth_gbs(&sku, n, 1, f, 3.0)
            );
        }
    }
}
