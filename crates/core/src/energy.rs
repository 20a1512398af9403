//! Energy-efficiency metrics and DVFS/DCT operating-point sweeps.
//!
//! The survey's purpose is to inform "energy efficiency optimization
//! strategies such as dynamic voltage and frequency scaling (DVFS) and
//! dynamic concurrency throttling (DCT)" (abstract). This module turns the
//! simulated node into that optimizer's evaluation function: sweep
//! frequency settings (and concurrency) for a workload, measure throughput
//! and power through the standard counters, and report energy-per-work and
//! energy-delay product.

use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_node::{CpuId, Resolution};
use hsw_tools::perfctr::{median_of, PerfCtr};
use serde::{Deserialize, Serialize};

use crate::survey::RunCtx;

/// Measured efficiency of one operating point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OperatingPoint {
    pub setting_mhz: Option<u32>,
    pub cores: usize,
    /// Socket throughput proxy: GIPS of one thread × active cores (IPS) or
    /// DRAM bandwidth for bandwidth-bound work (GB/s).
    pub throughput: f64,
    /// RAPL package + DRAM power of the socket (W).
    pub power_w: f64,
}

impl OperatingPoint {
    /// Energy per unit of work (J per 10⁹ instructions or J per GB).
    pub fn energy_per_work(&self) -> f64 {
        self.power_w / self.throughput.max(1e-9)
    }

    /// Energy-delay product (lower is better).
    pub fn edp(&self) -> f64 {
        self.power_w / (self.throughput * self.throughput).max(1e-18)
    }
}

/// Sweep result with the energy-optimal point marked.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergySweep {
    pub workload: String,
    pub points: Vec<OperatingPoint>,
}

impl EnergySweep {
    pub fn energy_optimal(&self) -> &OperatingPoint {
        self.points
            .iter()
            .min_by(|a, b| a.energy_per_work().total_cmp(&b.energy_per_work()))
            .expect("non-empty sweep")
    }

    pub fn edp_optimal(&self) -> &OperatingPoint {
        self.points
            .iter()
            .min_by(|a, b| a.edp().total_cmp(&b.edp()))
            .expect("non-empty sweep")
    }
}

fn measure(
    ctx: &RunCtx,
    profile: &WorkloadProfile,
    setting: FreqSetting,
    cores: usize,
    seed: u64,
) -> OperatingPoint {
    let mut node = ctx
        .session()
        .seed(seed)
        .resolution(Resolution::Custom(100))
        .build();
    node.idle_all();
    node.run_on_socket(0, profile, cores, 1);
    node.set_setting_all(setting);
    node.advance_s(0.4);
    let pc = PerfCtr::new(&node, CpuId::new(0, 0, 0));
    let samples = pc.monitor(&mut node, 6, 0.2);
    let gips = median_of(&samples, |d| d.gips);
    let power = median_of(&samples, |d| d.pkg_w + d.dram_w);
    let bandwidth_bound = profile.stall_fraction > hsw_hwspec::calib::UFS_STALL_THRESHOLD;
    let throughput = if bandwidth_bound {
        node.dram_bandwidth_gbs(0)
    } else {
        gips * cores as f64
    };
    OperatingPoint {
        setting_mhz: match setting {
            FreqSetting::Turbo => None,
            FreqSetting::Fixed(p) => Some(p.mhz()),
        },
        cores,
        throughput,
        power_w: power,
    }
}

/// DVFS sweep: all settings of the context's platform at fixed
/// concurrency, one sweep point per setting.
pub fn dvfs_sweep(ctx: &RunCtx, profile: &WorkloadProfile, cores: usize) -> EnergySweep {
    let settings = ctx.platform().spec.sku.freq.all_settings();
    EnergySweep {
        workload: profile.name.to_string(),
        points: ctx.sweep(&settings, |s, seed| measure(ctx, profile, *s, cores, seed)),
    }
}

/// DCT sweep: concurrency 1..=cores at a fixed setting, one sweep point
/// per core count.
pub fn dct_sweep(ctx: &RunCtx, profile: &WorkloadProfile, setting: FreqSetting) -> EnergySweep {
    let counts: Vec<usize> = (1..=ctx.platform().spec.sku.cores).collect();
    EnergySweep {
        workload: profile.name.to_string(),
        points: ctx.sweep(&counts, |n, seed| measure(ctx, profile, setting, *n, seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fidelity;
    use hsw_node::EngineMode;

    fn ctx() -> RunCtx {
        RunCtx::new(Fidelity::Quick, 0, EngineMode::default())
    }

    fn memory_sweep() -> &'static EnergySweep {
        static CACHE: std::sync::OnceLock<EnergySweep> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| dvfs_sweep(&ctx(), &WorkloadProfile::memory_bound(), 12))
    }

    fn compute_sweep() -> &'static EnergySweep {
        static CACHE: std::sync::OnceLock<EnergySweep> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| dvfs_sweep(&ctx(), &WorkloadProfile::compute(), 12))
    }

    #[test]
    fn memory_bound_energy_optimum_is_the_lowest_frequency() {
        // The paper's Conclusions: DRAM bandwidth no longer depends on the
        // core clock, "thereby making well-known efficiency optimizations
        // for memory-bound workloads viable again".
        let opt = memory_sweep().energy_optimal();
        assert_eq!(opt.setting_mhz, Some(1200), "optimal {:?}", opt.setting_mhz);
    }

    #[test]
    fn compute_bound_energy_optimum_is_higher_than_memory_bound() {
        let mem = memory_sweep().energy_optimal().setting_mhz.unwrap_or(3300);
        let cmp = compute_sweep().energy_optimal().setting_mhz.unwrap_or(3300);
        assert!(cmp > mem, "compute optimum {cmp} vs memory {mem}");
    }

    #[test]
    fn memory_bound_throughput_is_flat_across_dvfs() {
        let s = memory_sweep();
        let tp: Vec<f64> = s.points.iter().map(|p| p.throughput).collect();
        let lo = tp.iter().cloned().fold(f64::MAX, f64::min);
        let hi = tp.iter().cloned().fold(0.0, f64::max);
        assert!(lo / hi > 0.95, "throughput spread {lo:.1}..{hi:.1} GB/s");
    }

    #[test]
    fn dct_beyond_saturation_wastes_energy() {
        let s = dct_sweep(
            &ctx(),
            &WorkloadProfile::memory_bound(),
            FreqSetting::from_mhz(2500),
        );
        let at = |n: usize| s.points.iter().find(|p| p.cores == n).expect("point");
        // Same bandwidth at 8 and 12 cores, lower energy per byte at 8.
        assert!(at(8).throughput / at(12).throughput > 0.95);
        assert!(at(8).energy_per_work() < at(12).energy_per_work());
    }

    #[test]
    fn edp_optimum_never_slower_than_energy_optimum() {
        // EDP weighs performance more heavily, so its optimal frequency is
        // at least as high.
        let s = compute_sweep();
        let e = s.energy_optimal().setting_mhz.unwrap_or(3300);
        let d = s.edp_optimal().setting_mhz.unwrap_or(3300);
        assert!(d >= e, "EDP {d} vs energy {e}");
    }
}
