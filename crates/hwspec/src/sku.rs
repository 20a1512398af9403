//! SKU definitions: concrete processor models and the test-node description
//! (paper Table II), including the electrical calibration coefficients used
//! by the power model.

use serde::{Deserialize, Serialize};

use crate::acpi::AcpiLatencyTable;
use crate::calib;
use crate::die::DieLayout;
use crate::freq::FrequencyTable;
use crate::generation::CpuGeneration;
use crate::memcfg::MemSpec;
use crate::vf::VfCurveSpec;

/// Cache geometry of a SKU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSpec {
    pub line_bytes: usize,
    pub l1d_kib: usize,
    pub l1d_ways: usize,
    pub l1i_kib: usize,
    pub l2_kib: usize,
    pub l2_ways: usize,
    /// L3 capacity per slice (one slice per core on ring architectures).
    pub l3_slice_kib: usize,
    pub l3_ways: usize,
}

impl CacheSpec {
    /// Haswell-EP / Sandy Bridge-EP cache geometry (32K/256K/2.5M-per-slice).
    pub fn xeon_ep() -> Self {
        CacheSpec {
            line_bytes: 64,
            l1d_kib: 32,
            l1d_ways: 8,
            l1i_kib: 32,
            l2_kib: 256,
            l2_ways: 8,
            l3_slice_kib: 2560,
            l3_ways: 20,
        }
    }

    /// Total L3 capacity for a SKU with `cores` enabled cores in KiB.
    pub fn l3_total_kib(&self, cores: usize) -> usize {
        self.l3_slice_kib * cores
    }
}

/// Electrical calibration coefficients of the package power model:
///
/// `P_pkg = pkg_base_w`
/// `      + Σ_{cores not in C6} core_leak_w_per_v2 · V²`
/// `      + Σ_{cores} core_dyn_w_per_v2ghz · V² · f_GHz · activity`
/// `      + uncore_dyn_w_per_v2ghz · Vu² · fu_GHz`
///
/// The Haswell-EP coefficients are calibrated so the FIRESTARTER equilibria
/// of paper Table IV (core/uncore frequency pairs at the 120 W TDP) and the
/// "< 120 W at 2.1 GHz" observation all hold; see `hsw-pcu` tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerCoeffs {
    /// Always-on package power (PLLs, fuses, IO) in W.
    pub pkg_base_w: f64,
    /// Per-core leakage in W per V² (zero while power-gated in C6).
    pub core_leak_w_per_v2: f64,
    /// Per-core dynamic power in W per (V² · GHz) at activity 1.0.
    pub core_dyn_w_per_v2ghz: f64,
    /// Extra dynamic power multiplier while the AVX license is active
    /// (wider datapaths switching; drives the AVX frequency mechanism).
    pub avx_power_mult: f64,
    /// Extra dynamic power multiplier at license level 2 (512-bit
    /// datapaths; 1905.12468 Section II-C). Equal to `avx_power_mult` on
    /// generations without AVX-512.
    pub avx512_power_mult: f64,
    /// Uncore dynamic power in W per (V² · GHz).
    pub uncore_dyn_w_per_v2ghz: f64,
    /// DRAM background power per socket in W (clock, refresh).
    pub dram_idle_w: f64,
    /// DRAM access power in W per GB/s of traffic.
    pub dram_w_per_gbs: f64,
    /// Per-chip RAPL calibration gain: the fused energy-counter trim of
    /// this unit relative to the nominal energy unit. Measurement software
    /// always converts raw counts with the nominal datasheet unit, so a
    /// chip with gain ≠ 1 *reports* (and its PL1 limiter *enforces*)
    /// power scaled by this factor. 1.0 on the reference chip.
    pub rapl_trim_gain: f64,
}

impl PowerCoeffs {
    pub fn haswell_ep() -> Self {
        PowerCoeffs {
            pkg_base_w: 5.5,
            core_leak_w_per_v2: 1.33,
            core_dyn_w_per_v2ghz: 3.352,
            avx_power_mult: 1.25,
            avx512_power_mult: 1.25,
            uncore_dyn_w_per_v2ghz: 9.17,
            dram_idle_w: 4.0,
            dram_w_per_gbs: 0.55,
            rapl_trim_gain: 1.0,
        }
    }

    /// Sandy Bridge-EP (E5-2690, 135 W TDP, 8 cores on 32 nm-class power).
    pub fn sandy_bridge_ep() -> Self {
        PowerCoeffs {
            pkg_base_w: 7.0,
            core_leak_w_per_v2: 2.1,
            core_dyn_w_per_v2ghz: 4.9,
            avx_power_mult: 1.15,
            avx512_power_mult: 1.15,
            uncore_dyn_w_per_v2ghz: 7.5,
            dram_idle_w: 6.0,
            dram_w_per_gbs: 0.7,
            rapl_trim_gain: 1.0,
        }
    }

    /// Skylake-SP (Xeon Platinum 8170, 165 W TDP, 26 cores, mesh uncore;
    /// arXiv 1905.12468). Calibrated in [`calib::skx`].
    pub fn skylake_sp() -> Self {
        PowerCoeffs {
            pkg_base_w: calib::skx::PKG_BASE_W,
            core_leak_w_per_v2: calib::skx::CORE_LEAK_W_PER_V2,
            core_dyn_w_per_v2ghz: calib::skx::CORE_DYN_W_PER_V2GHZ,
            avx_power_mult: calib::skx::AVX_POWER_MULT,
            avx512_power_mult: calib::skx::AVX512_POWER_MULT,
            uncore_dyn_w_per_v2ghz: calib::skx::UNCORE_DYN_W_PER_V2GHZ,
            dram_idle_w: calib::skx::DRAM_IDLE_W,
            dram_w_per_gbs: calib::skx::DRAM_W_PER_GBS,
            rapl_trim_gain: 1.0,
        }
    }
}

/// A concrete processor model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkuSpec {
    pub generation: CpuGeneration,
    pub model: &'static str,
    /// Enabled cores.
    pub cores: usize,
    /// Hardware threads per core (2 with Hyper-Threading).
    pub threads_per_core: usize,
    pub die: DieLayout,
    pub freq: FrequencyTable,
    pub tdp_w: f64,
    pub cache: CacheSpec,
    pub mem: MemSpec,
    pub core_vf: VfCurveSpec,
    pub uncore_vf: VfCurveSpec,
    pub power: PowerCoeffs,
    pub acpi: AcpiLatencyTable,
}

impl SkuSpec {
    /// The paper's test processor: Intel Xeon E5-2680 v3
    /// (12 cores, 2.5 GHz base, 3.3 GHz max turbo, 2.1 GHz AVX base,
    /// 120 W TDP; paper Table II).
    pub fn xeon_e5_2680_v3() -> Self {
        SkuSpec {
            generation: CpuGeneration::HaswellEp,
            model: "Intel Xeon E5-2680 v3",
            cores: 12,
            threads_per_core: 2,
            die: DieLayout::die12(),
            freq: FrequencyTable {
                min_mhz: 1200,
                base_mhz: 2500,
                // 1..=12 active cores: 3.3 GHz single-core down to 2.9 all-core.
                turbo_by_active_cores_mhz: vec![
                    3300, 3300, 3100, 3100, 3000, 3000, 2900, 2900, 2900, 2900, 2900, 2900,
                ],
                avx_base_mhz: Some(2100),
                // Section II-F: AVX turbo between 2.8 and 3.1 GHz depending on
                // the number of active cores.
                avx_turbo_by_active_cores_mhz: vec![
                    3100, 3100, 3000, 3000, 2900, 2900, 2800, 2800, 2800, 2800, 2800, 2800,
                ],
                avx512_base_mhz: None,
                avx512_turbo_by_active_cores_mhz: vec![],
                uncore_min_mhz: calib::UNCORE_MIN_MHZ,
                uncore_max_mhz: calib::UNCORE_MAX_MHZ,
            },
            tdp_w: calib::powercal::E5_2680V3_TDP_W,
            cache: CacheSpec::xeon_ep(),
            mem: MemSpec::ddr4_2133_quad(),
            core_vf: VfCurveSpec::haswell_core(),
            uncore_vf: VfCurveSpec::haswell_uncore(),
            power: PowerCoeffs::haswell_ep(),
            acpi: AcpiLatencyTable::haswell_ep(),
        }
    }

    /// Sandy Bridge-EP comparison part: Xeon E5-2690
    /// (8 cores, 2.9 GHz base, 3.8 GHz max turbo, 135 W TDP).
    pub fn xeon_e5_2690() -> Self {
        SkuSpec {
            generation: CpuGeneration::SandyBridgeEp,
            model: "Intel Xeon E5-2690",
            cores: 8,
            threads_per_core: 2,
            die: DieLayout::monolithic("SNB-EP 8-core die", 8, 4),
            freq: FrequencyTable {
                min_mhz: 1200,
                base_mhz: 2900,
                turbo_by_active_cores_mhz: vec![3800, 3700, 3600, 3500, 3400, 3300, 3300, 3300],
                avx_base_mhz: None,
                avx_turbo_by_active_cores_mhz: vec![],
                avx512_base_mhz: None,
                avx512_turbo_by_active_cores_mhz: vec![],
                uncore_min_mhz: 1200,
                uncore_max_mhz: 3800,
            },
            tdp_w: 135.0,
            cache: CacheSpec::xeon_ep(),
            mem: MemSpec::ddr3_1600_quad(),
            core_vf: VfCurveSpec::sandy_bridge_core(),
            uncore_vf: VfCurveSpec::sandy_bridge_core(),
            power: PowerCoeffs::sandy_bridge_ep(),
            acpi: AcpiLatencyTable::haswell_ep(),
        }
    }

    /// Westmere-EP comparison part: Xeon X5670
    /// (6 cores, 2.93 GHz base, fixed-uncore generation).
    pub fn xeon_x5670() -> Self {
        SkuSpec {
            generation: CpuGeneration::WestmereEp,
            model: "Intel Xeon X5670",
            cores: 6,
            threads_per_core: 2,
            die: DieLayout::monolithic("WSM-EP 6-core die", 6, 3),
            freq: FrequencyTable {
                min_mhz: 1600,
                base_mhz: 2930,
                turbo_by_active_cores_mhz: vec![3330, 3330, 3060, 3060, 3060, 3060],
                avx_base_mhz: None,
                avx_turbo_by_active_cores_mhz: vec![],
                avx512_base_mhz: None,
                avx512_turbo_by_active_cores_mhz: vec![],
                uncore_min_mhz: 2660,
                uncore_max_mhz: 2660, // fixed uncore clock
            },
            tdp_w: 95.0,
            cache: CacheSpec {
                line_bytes: 64,
                l1d_kib: 32,
                l1d_ways: 8,
                l1i_kib: 32,
                l2_kib: 256,
                l2_ways: 8,
                l3_slice_kib: 2048,
                l3_ways: 16,
            },
            mem: MemSpec::ddr3_1333_triple(),
            core_vf: VfCurveSpec::sandy_bridge_core(),
            uncore_vf: VfCurveSpec::sandy_bridge_core(),
            power: PowerCoeffs::sandy_bridge_ep(),
            acpi: AcpiLatencyTable::haswell_ep(),
        }
    }

    /// The follow-up survey's Skylake-SP part: Intel Xeon Platinum 8170
    /// (26 cores, 2.1 GHz base, 3.7 GHz max turbo, AVX-512 license levels,
    /// 165 W TDP, mesh uncore at 1.2–2.4 GHz; arXiv 1905.12468).
    pub fn xeon_platinum_8170() -> Self {
        SkuSpec {
            generation: CpuGeneration::SkylakeSp,
            model: "Intel Xeon Platinum 8170",
            cores: 26,
            threads_per_core: 2,
            die: DieLayout::monolithic("SKX XCC 28-core mesh die", 26, 6),
            freq: FrequencyTable {
                min_mhz: 1200,
                base_mhz: 2100,
                // 1..=26 active cores: 3.7 GHz dual-core turbo down to
                // 2.8 GHz all-core.
                turbo_by_active_cores_mhz: vec![
                    3700, 3700, 3500, 3500, 3400, 3400, 3400, 3400, 3300, 3300, 3300, 3300, 3200,
                    3200, 3200, 3200, 3000, 3000, 3000, 3000, 2900, 2900, 2900, 2900, 2800, 2800,
                ],
                // License level 1 (heavy AVX2): 1.7 GHz base.
                avx_base_mhz: Some(1700),
                avx_turbo_by_active_cores_mhz: vec![
                    3600, 3600, 3400, 3400, 3200, 3200, 3200, 3200, 3100, 3100, 3100, 3100, 2900,
                    2900, 2900, 2900, 2700, 2700, 2700, 2700, 2500, 2500, 2500, 2500, 2400, 2400,
                ],
                // License level 2 (heavy AVX-512): 1.3 GHz base.
                avx512_base_mhz: Some(1300),
                avx512_turbo_by_active_cores_mhz: vec![
                    3500, 3500, 3300, 3300, 2900, 2900, 2900, 2900, 2700, 2700, 2700, 2700, 2500,
                    2500, 2500, 2500, 2200, 2200, 2200, 2200, 2100, 2100, 2100, 2100, 1900, 1900,
                ],
                uncore_min_mhz: calib::skx::UNCORE_MIN_MHZ,
                uncore_max_mhz: calib::skx::UNCORE_MAX_MHZ,
            },
            tdp_w: 165.0,
            cache: CacheSpec {
                line_bytes: 64,
                l1d_kib: 32,
                l1d_ways: 8,
                l1i_kib: 32,
                l2_kib: 1024,
                l2_ways: 16,
                // Non-inclusive 1.375 MiB L3 slice per core.
                l3_slice_kib: 1408,
                l3_ways: 11,
            },
            mem: MemSpec::ddr4_2666_hex(),
            core_vf: VfCurveSpec::skylake_core(),
            uncore_vf: VfCurveSpec::skylake_mesh(),
            power: PowerCoeffs::skylake_sp(),
            acpi: AcpiLatencyTable::skylake_sp(),
        }
    }

    /// The chip the survey measured for a generation (the paper's Fig. 7
    /// pairs each generation with it).
    pub fn test_chip(generation: CpuGeneration) -> Self {
        match generation {
            CpuGeneration::WestmereEp => Self::xeon_x5670(),
            CpuGeneration::SandyBridgeEp | CpuGeneration::IvyBridgeEp => Self::xeon_e5_2690(),
            CpuGeneration::HaswellEp | CpuGeneration::HaswellHe => Self::xeon_e5_2680_v3(),
            CpuGeneration::SkylakeSp => Self::xeon_platinum_8170(),
        }
    }

    /// Logical CPUs (hardware threads) on this SKU.
    pub fn hw_threads(&self) -> usize {
        self.cores * self.threads_per_core
    }
}

/// PSU loss curve: `loss(P_dc) = a2·P_dc² + a1·P_dc + a0` (W). Chosen so the
/// measured AC-vs-RAPL relation reproduces the paper's quadratic fit
/// (footnote 2) given the node's constant non-RAPL DC load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PsuCurve {
    pub a2: f64,
    pub a1: f64,
    pub a0_w: f64,
}

/// The full compute-node description (paper Table II / Section III:
/// bullx R421 E4, two E5-2680 v3, fans at maximum, LMG450 metered).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    pub name: &'static str,
    pub sku: SkuSpec,
    pub sockets: usize,
    /// Per-socket dynamic-power multiplier (paper Section III: socket 0 is
    /// less efficient than socket 1).
    pub socket_power_mult: Vec<f64>,
    /// Constant DC load besides the RAPL domains: fans at maximum speed,
    /// mainboard, mainboard VR losses (W).
    pub rest_dc_w: f64,
    pub psu: PsuCurve,
}

impl NodeSpec {
    /// The paper's test node: two E5-2680 v3, fans pinned at maximum.
    pub fn paper_test_node() -> Self {
        NodeSpec {
            name: "bullx R421 E4 (2× Xeon E5-2680 v3)",
            sku: SkuSpec::xeon_e5_2680_v3(),
            sockets: 2,
            socket_power_mult: calib::SOCKET_POWER_EFFICIENCY.to_vec(),
            // Fans at max (~110 W) + mainboard (~25 W) + VR losses (~15 W).
            rest_dc_w: 150.0,
            // Derived so AC(P_rapl) = 0.0003·P² + 1.097·P + 225.7 exactly:
            // AC = P_dc + loss(P_dc), P_dc = P_rapl + rest_dc_w.
            psu: PsuCurve {
                a2: calib::AC_FIT_A2,
                a1: 0.007,
                a0_w: 67.9,
            },
        }
    }

    /// A Sandy Bridge-EP comparison node (two E5-2690).
    pub fn sandy_bridge_node() -> Self {
        NodeSpec {
            name: "SNB-EP reference (2× Xeon E5-2690)",
            sku: SkuSpec::xeon_e5_2690(),
            sockets: 2,
            socket_power_mult: vec![1.0, 1.0],
            rest_dc_w: 60.0, // normal fan policy on the reference machine
            psu: PsuCurve {
                a2: 0.0004,
                a1: 0.01,
                a0_w: 40.0,
            },
        }
    }

    /// A Westmere-EP comparison node (two X5670).
    pub fn westmere_node() -> Self {
        NodeSpec {
            name: "WSM-EP reference (2× Xeon X5670)",
            sku: SkuSpec::xeon_x5670(),
            sockets: 2,
            socket_power_mult: vec![1.0, 1.0],
            rest_dc_w: 55.0,
            psu: PsuCurve {
                a2: 0.0004,
                a1: 0.01,
                a0_w: 40.0,
            },
        }
    }

    /// The follow-up survey's Skylake-SP test node: two Xeon Platinum 8170
    /// (1905.12468 Section III; same HDEEM-instrumented bull chassis family
    /// as the Haswell node).
    pub fn skylake_sp_node() -> Self {
        NodeSpec {
            name: "bull sequana (2× Xeon Platinum 8170)",
            sku: SkuSpec::xeon_platinum_8170(),
            sockets: 2,
            socket_power_mult: vec![1.0, 1.0],
            // Fans + mainboard + board-VR losses; higher than the Haswell
            // node (more DIMMs, bigger VRs for the 165 W sockets).
            rest_dc_w: 160.0,
            psu: PsuCurve {
                a2: 0.0002,
                a1: 0.012,
                a0_w: 55.0,
            },
        }
    }

    /// AC power predicted by the node's electrical design for a given total
    /// RAPL (package + DRAM, all sockets) power. This is the *design ground
    /// truth*; the Figure 2 experiment must re-discover it from noisy meter
    /// samples.
    pub fn design_ac_power_w(&self, p_rapl_w: f64) -> f64 {
        let p_dc = p_rapl_w + self.rest_dc_w;
        p_dc + self.psu.a2 * p_dc * p_dc + self.psu.a1 * p_dc + self.psu.a0_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_2680v3_matches_table2() {
        let sku = SkuSpec::xeon_e5_2680_v3();
        assert_eq!(sku.cores, 12);
        assert_eq!(sku.freq.min_mhz, 1200);
        assert_eq!(sku.freq.base_mhz, 2500);
        assert_eq!(sku.freq.turbo_mhz(1), 3300);
        assert_eq!(sku.freq.avx_base_mhz, Some(2100));
        assert_eq!(sku.tdp_w, 120.0);
        assert_eq!(sku.hw_threads(), 24);
    }

    #[test]
    fn e5_2680v3_l3_is_30_mib() {
        let sku = SkuSpec::xeon_e5_2680_v3();
        assert_eq!(sku.cache.l3_total_kib(sku.cores), 30 * 1024);
    }

    #[test]
    fn westmere_uncore_is_fixed() {
        let sku = SkuSpec::xeon_x5670();
        assert_eq!(sku.freq.uncore_min_mhz, sku.freq.uncore_max_mhz);
    }

    #[test]
    fn paper_node_reproduces_published_ac_fit() {
        // The node's electrical design must land exactly on the paper's
        // quadratic: AC = 0.0003·P² + 1.097·P + 225.7.
        let node = NodeSpec::paper_test_node();
        for p in [0.0_f64, 50.0, 100.0, 150.0, 200.0, 250.0, 287.0] {
            let expect = calib::AC_FIT_A2 * p * p + calib::AC_FIT_A1 * p + calib::AC_FIT_A0_W;
            let got = node.design_ac_power_w(p);
            assert!(
                (got - expect).abs() < 1e-6,
                "P_rapl={p}: design {got} vs fit {expect}"
            );
        }
    }

    #[test]
    fn paper_node_idle_power_is_261_5_w() {
        // Table II: idle power 261.5 W with ~32 W idle RAPL.
        let node = NodeSpec::paper_test_node();
        let ac = node.design_ac_power_w(32.0);
        assert!((ac - calib::IDLE_NODE_POWER_W).abs() < 1.5, "ac = {ac}");
    }

    #[test]
    fn socket0_is_less_efficient() {
        let node = NodeSpec::paper_test_node();
        assert!(node.socket_power_mult[0] > node.socket_power_mult[1]);
    }

    #[test]
    fn all_reference_nodes_have_two_sockets() {
        for node in [
            NodeSpec::paper_test_node(),
            NodeSpec::sandy_bridge_node(),
            NodeSpec::westmere_node(),
        ] {
            assert_eq!(node.sockets, 2);
            assert_eq!(node.socket_power_mult.len(), 2);
        }
    }
}
