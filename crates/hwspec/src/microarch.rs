//! Microarchitecture parameters (paper Table I).
//!
//! These are used both to print the Table I comparison and to parameterize
//! the port-level pipeline model in `hsw-exec`. [`BwParams`] holds the
//! per-generation parameters of `hsw-memhier`'s read-bandwidth model.

use serde::{Deserialize, Serialize};

use crate::calib::bandwidth as cal;
use crate::generation::CpuGeneration;

/// Core microarchitecture parameters as compared in paper Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicroArch {
    pub generation: CpuGeneration,
    /// x86 instructions decoded per cycle (both are 4(+1) with macro fusion).
    pub decode_width: usize,
    /// Allocation queue entries (per thread on SNB, shared 56 on HSW).
    pub allocation_queue: usize,
    /// Micro-ops issued to execution ports per cycle.
    pub execute_uops_per_cycle: usize,
    /// Micro-ops retired per cycle.
    pub retire_uops_per_cycle: usize,
    /// Unified scheduler (reservation station) entries.
    pub scheduler_entries: usize,
    /// Re-order buffer entries.
    pub rob_entries: usize,
    /// Integer / floating-point physical register file sizes.
    pub int_regfile: usize,
    pub fp_regfile: usize,
    /// Widest SIMD ISA ("AVX" / "AVX2").
    pub simd_isa: &'static str,
    /// Double-precision FLOPS per cycle per core at peak.
    pub flops_per_cycle_f64: usize,
    /// Load / store buffer entries.
    pub load_buffers: usize,
    pub store_buffers: usize,
    /// L1D load/store port widths: (loads per cycle, bytes per load,
    /// stores per cycle, bytes per store).
    pub l1d_loads_per_cycle: usize,
    pub l1d_load_bytes: usize,
    pub l1d_stores_per_cycle: usize,
    pub l1d_store_bytes: usize,
    /// L2 bandwidth to L1 in bytes per cycle.
    pub l2_bytes_per_cycle: usize,
    /// Whether FMA (fused multiply-add) is supported.
    pub has_fma: bool,
    /// Number of execution ports.
    pub ports: usize,
    /// Ports that can issue a 256-bit FP multiply/FMA.
    pub fp_mul_ports: usize,
    /// Ports that can issue a 256-bit FP add. Haswell has FMA on two ports
    /// but a dedicated FP add on only one (paper Section II-A: "Two AVX or
    /// FMA operations can be issued per cycle, except for AVX additions").
    pub fp_add_ports: usize,
    /// Micro-op cache capacity in µops (both generations: 1.5 K).
    pub uop_cache_uops: usize,
    /// Instruction fetch window in bytes.
    pub fetch_window_bytes: usize,
}

impl MicroArch {
    /// Sandy Bridge-EP core (paper Table I left column).
    pub fn sandy_bridge_ep() -> Self {
        MicroArch {
            generation: CpuGeneration::SandyBridgeEp,
            decode_width: 4,
            allocation_queue: 28, // per thread
            execute_uops_per_cycle: 6,
            retire_uops_per_cycle: 4,
            scheduler_entries: 54,
            rob_entries: 168,
            int_regfile: 160,
            fp_regfile: 144,
            simd_isa: "AVX",
            flops_per_cycle_f64: 8, // 1×256-bit add + 1×256-bit mul
            load_buffers: 64,
            store_buffers: 36,
            l1d_loads_per_cycle: 2,
            l1d_load_bytes: 16,
            l1d_stores_per_cycle: 1,
            l1d_store_bytes: 16,
            l2_bytes_per_cycle: 32,
            has_fma: false,
            ports: 6,
            fp_mul_ports: 1,
            fp_add_ports: 1,
            uop_cache_uops: 1536,
            fetch_window_bytes: 16,
        }
    }

    /// Haswell-EP core (paper Table I right column).
    pub fn haswell_ep() -> Self {
        MicroArch {
            generation: CpuGeneration::HaswellEp,
            decode_width: 4,
            allocation_queue: 56, // shared
            execute_uops_per_cycle: 8,
            retire_uops_per_cycle: 4,
            scheduler_entries: 60,
            rob_entries: 192,
            int_regfile: 168,
            fp_regfile: 168,
            simd_isa: "AVX2",
            flops_per_cycle_f64: 16, // 2×256-bit FMA
            load_buffers: 72,
            store_buffers: 42,
            l1d_loads_per_cycle: 2,
            l1d_load_bytes: 32,
            l1d_stores_per_cycle: 1,
            l1d_store_bytes: 32,
            l2_bytes_per_cycle: 64,
            has_fma: true,
            ports: 8,
            fp_mul_ports: 2, // FMA on ports 0 and 1
            fp_add_ports: 1, // dedicated FP add only on port 1
            uop_cache_uops: 1536,
            fetch_window_bytes: 16,
        }
    }

    /// Westmere-EP core (pre-AVX, SSE 128-bit).
    pub fn westmere_ep() -> Self {
        MicroArch {
            generation: CpuGeneration::WestmereEp,
            decode_width: 4,
            allocation_queue: 28,
            execute_uops_per_cycle: 6,
            retire_uops_per_cycle: 4,
            scheduler_entries: 36,
            rob_entries: 128,
            int_regfile: 0, // unified RRF architecture, not separately sized
            fp_regfile: 0,
            simd_isa: "SSE4.2",
            flops_per_cycle_f64: 4,
            load_buffers: 48,
            store_buffers: 32,
            l1d_loads_per_cycle: 1,
            l1d_load_bytes: 16,
            l1d_stores_per_cycle: 1,
            l1d_store_bytes: 16,
            l2_bytes_per_cycle: 32,
            has_fma: false,
            ports: 6,
            fp_mul_ports: 1,
            fp_add_ports: 1,
            uop_cache_uops: 0, // no µop cache before Sandy Bridge
            fetch_window_bytes: 16,
        }
    }

    /// Skylake-SP core (1905.12468 Section II): AVX-512, 2×512-bit FMA,
    /// wider scheduler/ROB, 1 MiB private L2.
    pub fn skylake_sp() -> Self {
        MicroArch {
            generation: CpuGeneration::SkylakeSp,
            decode_width: 4,
            allocation_queue: 64,
            execute_uops_per_cycle: 8,
            retire_uops_per_cycle: 4,
            scheduler_entries: 97,
            rob_entries: 224,
            int_regfile: 180,
            fp_regfile: 168,
            simd_isa: "AVX-512",
            flops_per_cycle_f64: 32, // 2×512-bit FMA
            load_buffers: 72,
            store_buffers: 56,
            l1d_loads_per_cycle: 2,
            l1d_load_bytes: 64,
            l1d_stores_per_cycle: 1,
            l1d_store_bytes: 64,
            l2_bytes_per_cycle: 64,
            has_fma: true,
            ports: 8,
            fp_mul_ports: 2,
            fp_add_ports: 2, // FP add on ports 0 and 1 since Skylake
            uop_cache_uops: 1536,
            fetch_window_bytes: 16,
        }
    }

    /// The microarchitecture for a generation.
    pub fn for_generation(generation: CpuGeneration) -> Self {
        match generation {
            CpuGeneration::WestmereEp => Self::westmere_ep(),
            CpuGeneration::SandyBridgeEp | CpuGeneration::IvyBridgeEp => {
                let mut m = Self::sandy_bridge_ep();
                m.generation = generation;
                m
            }
            CpuGeneration::HaswellEp | CpuGeneration::HaswellHe => {
                let mut m = Self::haswell_ep();
                m.generation = generation;
                m
            }
            CpuGeneration::SkylakeSp => Self::skylake_sp(),
        }
    }

    /// Peak L1D load bandwidth in bytes per cycle.
    pub fn l1d_load_bytes_per_cycle(&self) -> usize {
        self.l1d_loads_per_cycle * self.l1d_load_bytes
    }

    /// Peak L1D store bandwidth in bytes per cycle.
    pub fn l1d_store_bytes_per_cycle(&self) -> usize {
        self.l1d_stores_per_cycle * self.l1d_store_bytes
    }

    /// Peak 256-bit FP operations issued per cycle: two on Haswell
    /// (FMA/mul), except pure-add streams which are limited by the dedicated
    /// add port (paper Section II-A).
    pub fn max_avx_ops_per_cycle(&self, pure_adds: bool) -> usize {
        if pure_adds {
            self.fp_add_ports
        } else {
            self.fp_mul_ports.max(self.fp_add_ports)
        }
    }
}

/// Parameters of `hsw-memhier`'s read-bandwidth model (paper Figures 7
/// and 8) for one generation; the formulas that read them live there.
#[derive(Debug, Clone, PartialEq)]
pub struct BwParams {
    /// L3: core-clock cycles per 64 B line (miss issue, fill).
    pub l3_core_cycles: f64,
    /// L3: uncore-clock cycles per 64 B line (ring + slice, pipelined).
    pub l3_uncore_cycles: f64,
    /// L3 aggregate cap in bytes per uncore cycle per slice.
    pub l3_slice_bytes_per_cycle: f64,
    /// Ring arbitration loss per additional active core.
    pub ring_contention: f64,
    /// Amortization of fixed ring-arbitration overhead as more cores keep
    /// the slices busy — the source of the paper's "slightly better than
    /// linear" core scaling at low concurrency.
    pub ring_amortization: f64,
    /// DRAM: outstanding line fills per core (MSHRs / LFBs).
    pub dram_outstanding: f64,
    /// DRAM: device latency in ns.
    pub dram_device_ns: f64,
    /// DRAM: core-clock cycles per line on the demand side.
    pub dram_core_cycles: f64,
    /// DRAM: uncore-clock cycles per line (ring + IMC).
    pub dram_uncore_cycles: f64,
    /// DRAM channel peak (effective) in GB/s per socket.
    pub dram_peak_gbs: f64,
    /// IMC front-end service in bytes per uncore cycle — the cap that binds
    /// on Sandy Bridge-EP when the (core-coupled) uncore clock drops.
    pub imc_bytes_per_uncore_cycle: f64,
    /// Hyper-Threading bandwidth gain at low concurrency.
    pub ht_gain: f64,
}

impl BwParams {
    /// The bandwidth-model parameters for a generation.
    pub fn for_generation(generation: CpuGeneration) -> Self {
        match generation {
            CpuGeneration::HaswellEp | CpuGeneration::HaswellHe => BwParams {
                l3_core_cycles: 6.4,
                l3_uncore_cycles: 2.0,
                l3_slice_bytes_per_cycle: cal::L3_SLICE_BYTES_PER_UNCORE_CYCLE,
                ring_contention: 0.004,
                ring_amortization: 0.03,
                dram_outstanding: 10.0,
                dram_device_ns: 70.0,
                dram_core_cycles: 15.0,
                dram_uncore_cycles: 24.0,
                dram_peak_gbs: cal::HSW_DRAM_PEAK_GBS,
                imc_bytes_per_uncore_cycle: 30.0,
                ht_gain: cal::HT_LOW_CONCURRENCY_GAIN,
            },
            CpuGeneration::SandyBridgeEp | CpuGeneration::IvyBridgeEp => BwParams {
                l3_core_cycles: 10.0,
                l3_uncore_cycles: 4.0,
                l3_slice_bytes_per_cycle: 12.0,
                ring_contention: 0.004,
                ring_amortization: 0.0,
                dram_outstanding: 10.0,
                dram_device_ns: 75.0,
                dram_core_cycles: 15.0,
                dram_uncore_cycles: 30.0,
                dram_peak_gbs: cal::SNB_DRAM_PEAK_GBS,
                // 41 GB/s at the 2.9 GHz base clock: binds exactly at base.
                imc_bytes_per_uncore_cycle: 14.14,
                ht_gain: 1.12,
            },
            CpuGeneration::WestmereEp => BwParams {
                l3_core_cycles: 5.0,
                l3_uncore_cycles: 9.0,
                l3_slice_bytes_per_cycle: 10.0,
                ring_contention: 0.006,
                ring_amortization: 0.0,
                dram_outstanding: 6.0,
                dram_device_ns: 95.0,
                dram_core_cycles: 10.0,
                dram_uncore_cycles: 35.0,
                dram_peak_gbs: cal::WSM_DRAM_PEAK_GBS,
                imc_bytes_per_uncore_cycle: 20.0,
                ht_gain: 1.10,
            },
            // Mesh interconnect: flatter L3 latency than the ring, more
            // outstanding fills (larger LFB pool), 6-channel DDR4-2666.
            CpuGeneration::SkylakeSp => BwParams {
                l3_core_cycles: 7.0,
                l3_uncore_cycles: 2.5,
                l3_slice_bytes_per_cycle: cal::L3_SLICE_BYTES_PER_UNCORE_CYCLE,
                ring_contention: 0.002,
                ring_amortization: 0.02,
                dram_outstanding: 12.0,
                dram_device_ns: 72.0,
                dram_core_cycles: 15.0,
                dram_uncore_cycles: 20.0,
                dram_peak_gbs: 115.0,
                imc_bytes_per_uncore_cycle: 48.0,
                ht_gain: cal::HT_LOW_CONCURRENCY_GAIN,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_flops_per_cycle() {
        assert_eq!(MicroArch::sandy_bridge_ep().flops_per_cycle_f64, 8);
        assert_eq!(MicroArch::haswell_ep().flops_per_cycle_f64, 16);
    }

    #[test]
    fn table1_l1d_bandwidth_doubled() {
        let snb = MicroArch::sandy_bridge_ep();
        let hsw = MicroArch::haswell_ep();
        assert_eq!(snb.l1d_load_bytes_per_cycle(), 32); // 2×16 B
        assert_eq!(hsw.l1d_load_bytes_per_cycle(), 64); // 2×32 B
        assert_eq!(snb.l1d_store_bytes_per_cycle(), 16);
        assert_eq!(hsw.l1d_store_bytes_per_cycle(), 32);
    }

    #[test]
    fn table1_l2_bandwidth_doubled() {
        assert_eq!(MicroArch::sandy_bridge_ep().l2_bytes_per_cycle, 32);
        assert_eq!(MicroArch::haswell_ep().l2_bytes_per_cycle, 64);
    }

    #[test]
    fn table1_ooo_resources_increased() {
        let snb = MicroArch::sandy_bridge_ep();
        let hsw = MicroArch::haswell_ep();
        assert!(hsw.rob_entries > snb.rob_entries);
        assert!(hsw.scheduler_entries > snb.scheduler_entries);
        assert!(hsw.execute_uops_per_cycle > snb.execute_uops_per_cycle);
        assert!(hsw.load_buffers > snb.load_buffers);
        assert!(hsw.store_buffers > snb.store_buffers);
        assert_eq!(hsw.decode_width, snb.decode_width); // decode stays 4-wide
        assert_eq!(hsw.retire_uops_per_cycle, snb.retire_uops_per_cycle);
    }

    #[test]
    fn avx_add_port_asymmetry() {
        // "Two AVX or FMA operations can be issued per cycle, except for AVX
        // additions" — pure adds are limited to one per cycle.
        let hsw = MicroArch::haswell_ep();
        assert_eq!(hsw.max_avx_ops_per_cycle(false), 2);
        assert_eq!(hsw.max_avx_ops_per_cycle(true), 1);
    }

    #[test]
    fn generation_lookup_is_consistent() {
        for gen in CpuGeneration::ALL {
            assert_eq!(MicroArch::for_generation(gen).generation, gen);
        }
    }
}
