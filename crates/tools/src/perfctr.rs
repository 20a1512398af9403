//! LIKWID-style performance-counter sampling (paper \[22\]).
//!
//! The paper samples "core and uncore cycles, instructions, and RAPL values
//! for both processors once per second via LIKWID on one core per
//! processor" (Section V-B). This module reproduces that methodology:
//! counter snapshots via `rdmsr`, differences over sampling intervals, and
//! derived metrics (effective core frequency from APERF/MPERF, uncore
//! frequency from the U-box fixed counter, instructions per second, RAPL
//! power).

use hsw_msr::addresses as msra;
use hsw_node::{CpuId, Node};

/// One snapshot of the counters the paper's methodology reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSample {
    pub t_ns: u64,
    pub tsc: u64,
    pub aperf: u64,
    pub mperf: u64,
    pub instr: u64,
    pub core_cycles: u64,
    pub uclk: u64,
    pub pkg_energy_raw: u32,
    pub dram_energy_raw: u32,
}

/// Metrics derived from two snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Derived {
    pub interval_s: f64,
    /// Effective core frequency in GHz (APERF/MPERF × nominal).
    pub core_ghz: f64,
    /// Uncore frequency in GHz (U-box clockticks / wall time).
    pub uncore_ghz: f64,
    /// Instructions per second of the sampled hardware thread (×10⁹).
    pub gips: f64,
    /// RAPL package power in W.
    pub pkg_w: f64,
    /// RAPL DRAM power in W.
    pub dram_w: f64,
}

/// The counter-sampling tool, bound to one hardware thread.
#[derive(Debug, Clone, Copy)]
pub struct PerfCtr {
    pub cpu: CpuId,
    nominal_ghz: f64,
    /// The node's RAPL package and DRAM energy units (µJ per count), as
    /// LIKWID takes them from its per-platform RAPL table.
    pkg_unit_uj: f64,
    dram_unit_uj: f64,
}

impl PerfCtr {
    pub fn new(node: &Node, cpu: CpuId) -> Self {
        let sku = &node.config().spec.sku;
        let rapl = sku.generation.policy().rapl;
        PerfCtr {
            cpu,
            nominal_ghz: sku.freq.base_mhz as f64 / 1000.0,
            pkg_unit_uj: rapl.pkg_energy_unit_uj,
            dram_unit_uj: rapl.dram_energy_unit_uj,
        }
    }

    /// Snapshot all counters (a batch of `rdmsr`s, as LIKWID does).
    pub fn sample(&self, node: &Node) -> CounterSample {
        let rd = |addr| node.rdmsr(self.cpu, addr).unwrap_or(0);
        CounterSample {
            t_ns: node.now_ns(),
            tsc: rd(msra::IA32_TIME_STAMP_COUNTER),
            aperf: rd(msra::IA32_APERF),
            mperf: rd(msra::IA32_MPERF),
            instr: rd(msra::IA32_FIXED_CTR0_INST_RETIRED),
            core_cycles: rd(msra::IA32_FIXED_CTR1_CPU_CLK_UNHALTED),
            uclk: rd(msra::MSR_U_PMON_UCLK_FIXED_CTR),
            pkg_energy_raw: rd(msra::MSR_PKG_ENERGY_STATUS) as u32,
            dram_energy_raw: rd(msra::MSR_DRAM_ENERGY_STATUS) as u32,
        }
    }

    /// Derive rates from two snapshots, handling counter wraparound the way
    /// measurement software must.
    pub fn derive(&self, a: &CounterSample, b: &CounterSample) -> Derived {
        let dt_s = (b.t_ns - a.t_ns) as f64 * 1e-9;
        let d = |x: u64, y: u64| y.wrapping_sub(x) as f64;
        let mperf = d(a.mperf, b.mperf).max(1.0);
        Derived {
            interval_s: dt_s,
            core_ghz: d(a.aperf, b.aperf) / mperf * self.nominal_ghz,
            uncore_ghz: d(a.uclk, b.uclk) / (dt_s * 1e9),
            gips: d(a.instr, b.instr) / (dt_s * 1e9),
            pkg_w: energy_counts(a.pkg_energy_raw, b.pkg_energy_raw) * self.pkg_unit_uj * 1e-6
                / dt_s,
            dram_w: energy_counts(a.dram_energy_raw, b.dram_energy_raw) * self.dram_unit_uj * 1e-6
                / dt_s,
        }
    }

    /// The paper's Section V-B methodology: `n` samples at `interval_s`
    /// spacing; returns the per-interval derived metrics.
    pub fn monitor(&self, node: &mut Node, n: usize, interval_s: f64) -> Vec<Derived> {
        let mut out = Vec::with_capacity(n);
        let mut prev = self.sample(node);
        for _ in 0..n {
            node.advance_s(interval_s);
            let cur = self.sample(node);
            out.push(self.derive(&prev, &cur));
            prev = cur;
        }
        out
    }
}

/// Counts a RAPL energy-status register (bits 31:0 of the MSR) advanced
/// between two reads, across at most one wrap of its 32 bits.
pub(crate) fn energy_counts(before: u32, after: u32) -> f64 {
    after.wrapping_sub(before) as f64
}

/// Median of a value extracted from monitoring samples (the paper uses
/// 50-sample medians for Table IV).
pub fn median_of(samples: &[Derived], f: impl Fn(&Derived) -> f64) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(f).collect();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        0.5 * (v[mid - 1] + v[mid])
    } else {
        v[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::{measure_group, EventGroup};
    use hsw_exec::WorkloadProfile;
    use hsw_hwspec::freq::FreqSetting;
    use hsw_node::{NodeConfig, PlatformKind};

    #[test]
    fn derive_reads_rapl_power_across_a_32_bit_wrap() {
        // Both RAPL registers straddle 2^32 within one 1 s window: PKG by
        // 2000 counts, DRAM by 200.
        let node = NodeConfig::paper_default().session().build().into_node();
        let pc = PerfCtr::new(&node, CpuId::new(0, 0, 0));
        let a = CounterSample {
            t_ns: 0,
            tsc: 0,
            aperf: 0,
            mperf: 0,
            instr: 0,
            core_cycles: 0,
            uclk: 0,
            pkg_energy_raw: u32::MAX - 999,
            dram_energy_raw: u32::MAX - 99,
        };
        let b = CounterSample {
            t_ns: 1_000_000_000,
            pkg_energy_raw: 1000,
            dram_energy_raw: 100,
            ..a
        };
        let d = pc.derive(&a, &b);
        let rapl = node.config().spec.sku.generation.policy().rapl;
        assert!(
            (d.pkg_w - 2000.0 * rapl.pkg_energy_unit_uj * 1e-6).abs() < 1e-9,
            "{}",
            d.pkg_w
        );
        assert!(
            (d.dram_w - 200.0 * rapl.dram_energy_unit_uj * 1e-6).abs() < 1e-9,
            "{}",
            d.dram_w
        );
    }

    fn loaded_node() -> Node {
        let mut node = NodeConfig::paper_default().session().build().into_node();
        let fs = WorkloadProfile::firestarter();
        for s in 0..2 {
            node.run_on_socket(s, &fs, 12, 2);
        }
        node.set_setting_all(FreqSetting::Turbo);
        node.advance_s(0.5);
        node
    }

    #[test]
    fn derived_metrics_are_consistent_with_ground_truth() {
        let mut node = loaded_node();
        let pc = PerfCtr::new(&node, CpuId::new(0, 0, 0));
        let samples = pc.monitor(&mut node, 5, 0.2);
        let core = median_of(&samples, |d| d.core_ghz);
        let uncore = median_of(&samples, |d| d.uncore_ghz);
        let truth_core = node.sockets()[0].true_core_mhz(0) / 1000.0;
        let truth_unc = node.sockets()[0].true_uncore_mhz() / 1000.0;
        assert!((core - truth_core).abs() < 0.05, "{core} vs {truth_core}");
        assert!((uncore - truth_unc).abs() < 0.05, "{uncore} vs {truth_unc}");
    }

    #[test]
    fn firestarter_gips_matches_table4_band() {
        let mut node = loaded_node();
        let pc = PerfCtr::new(&node, CpuId::new(1, 0, 0));
        let samples = pc.monitor(&mut node, 10, 0.2);
        let gips = median_of(&samples, |d| d.gips);
        assert!((3.4..=3.75).contains(&gips), "GIPS = {gips:.3}");
    }

    #[test]
    fn rapl_power_reads_tdp_under_firestarter() {
        let mut node = loaded_node();
        let pc = PerfCtr::new(&node, CpuId::new(0, 0, 0));
        let samples = pc.monitor(&mut node, 5, 0.5);
        let pkg = median_of(&samples, |d| d.pkg_w);
        assert!((pkg - 120.0).abs() < 4.0, "pkg = {pkg:.1} W");
    }

    /// RAPL counts decode with the platform's own energy units: under a
    /// memory-bound load on both surveyed platforms, the PKG and DRAM power
    /// that `PerfCtr` and the likwid `ENERGY` group derive track the node's
    /// true power. Skylake-SP's DRAM unit is its 61 µJ package unit, not
    /// Haswell's fixed 15.3 µJ one.
    #[test]
    fn rapl_power_tracks_truth_on_both_platforms() {
        for kind in PlatformKind::ALL {
            let mut node = kind.config().session().build().into_node();
            node.run_on_socket(0, &WorkloadProfile::memory_bound(), 8, 1);
            node.advance_s(0.5);
            let cpu = CpuId::new(0, 0, 0);
            let pc = PerfCtr::new(&node, cpu);
            let before = pc.sample(&node);
            node.advance_s(1.0);
            let ctr = pc.derive(&before, &pc.sample(&node));
            let group = measure_group(&mut node, cpu, EventGroup::Energy, 1.0);
            let (pkg, dram) = (node.true_pkg_power_w(0), node.true_dram_power_w(0));
            for (what, got, truth) in [
                ("PerfCtr pkg", ctr.pkg_w, pkg),
                ("PerfCtr dram", ctr.dram_w, dram),
                ("ENERGY pkg", group.metric("Power PKG").unwrap(), pkg),
                ("ENERGY dram", group.metric("Power DRAM").unwrap(), dram),
            ] {
                assert!(
                    (got - truth).abs() < 0.05 * truth,
                    "{}: {what} reads {got:.2} W, true {truth:.2} W",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn median_is_robust() {
        let mk = |v: f64| Derived {
            interval_s: 1.0,
            core_ghz: v,
            uncore_ghz: 0.0,
            gips: 0.0,
            pkg_w: 0.0,
            dram_w: 0.0,
        };
        let samples = vec![mk(2.3), mk(2.31), mk(9.9), mk(2.29), mk(2.3)];
        let m = median_of(&samples, |d| d.core_ghz);
        assert!((m - 2.3).abs() < 1e-9);
    }
}
