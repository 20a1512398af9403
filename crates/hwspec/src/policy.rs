//! The generation policy layer: firmware behavior as plain data.
//!
//! The survey's cross-generation story (paper Section II, and the
//! follow-up Skylake-SP survey, arXiv 1905.12468) is a story about
//! *firmware policy*, not just SKU numbers: how the uncore is clocked, how
//! p-state requests are serviced, how vector licenses gate the clock, what
//! backs the RAPL counters, and how c-state exits price out. This module
//! collects those mechanisms into plain-data policy descriptors, bundled
//! as one [`FirmwarePolicy`] `const` per generation that
//! [`CpuGeneration::policy`](crate::CpuGeneration::policy) selects, so the
//! model crates (`hsw-pcu`, `hsw-cstates`, `hsw-power`, `hsw-msr`) read
//! the policy instead of matching on the generation enum. The root test
//! `tests/generation_dispatch.rs` fails on generation matching anywhere
//! outside hwspec.
//!
//! Everything here is pure data; the Haswell values are bit-for-bit the
//! calibration constants from [`crate::calib`], so the refactor leaves
//! `survey.json` byte-identical.

use crate::calib::{self, cstate};
use crate::generation::{PStateTransitionMode, RaplMode, UncoreClockSource};

/// How p-state change requests are serviced (paper Section VI-A;
/// 1905.12468 Section II-D for HWP).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PStatePolicy {
    pub transition: PStateTransitionMode,
    /// Per-core p-state domains (PCPS) vs. one chip-wide domain.
    pub per_core_domains: bool,
    /// Voltage/frequency switching time once a request is latched (µs).
    pub switching_time_us: u32,
    /// Jitter of the opportunity period (± µs, opportunity mode only).
    pub opportunity_jitter_us: u32,
    /// Cadence at which the PCU re-evaluates its power-limit / uncore
    /// solve (µs).
    pub pcu_eval_period_us: u32,
}

/// Uncore clock management (paper Sections II-D and V-A; 1905.12468
/// Section II-B for the mesh UFS). On every generation the UFS target
/// follows the fastest active core chip-wide (Haswell-EP Table III); the
/// Skylake-SP mesh differs only by its schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncorePolicy {
    pub source: UncoreClockSource,
    /// UFS schedule, indexed by core-frequency setting (0 = Turbo, then
    /// base downward in 100 MHz bins), for a socket with active cores.
    pub active_schedule_mhz: &'static [u32],
    /// Same schedule for a passive socket tracking the active one.
    pub passive_schedule_mhz: &'static [u32],
    /// Memory-stall fraction at which the UFS ramp reaches the uncore
    /// maximum.
    pub stall_ramp_full: f64,
    /// Stall fraction above which leftover power budget may boost the
    /// uncore beyond the schedule.
    pub stall_boost_threshold: f64,
}

/// Vector-width frequency licensing (paper Section II-F; 1905.12468
/// Section II-C for the AVX-512 license levels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LicensePolicy {
    /// Number of reduced-frequency license levels: 0 = no licensing,
    /// 1 = one AVX level (Haswell-EP), 2 = AVX2 + AVX-512 (Skylake-SP).
    pub levels: u8,
    /// Voltage-ramp time entering a license (µs); AVX throughput is
    /// reduced while ramping.
    pub ramp_us: u32,
    /// Return-to-normal delay after the last wide instruction (µs).
    pub relax_us: u32,
    /// Execution-throughput factor while the voltage ramps.
    pub ramp_throughput_factor: f64,
}

/// RAPL semantics: backing, domains and units (paper Section III;
/// 1905.12468 Section II-E).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaplPolicy {
    pub mode: RaplMode,
    /// Package-domain energy status unit (µJ per count).
    pub pkg_energy_unit_uj: f64,
    /// DRAM-domain energy status unit (µJ per count). Haswell-EP fixes
    /// this at 15.3 µJ regardless of `MSR_RAPL_POWER_UNIT`; Skylake-SP
    /// returns to the uniform package unit.
    pub dram_energy_unit_uj: f64,
    /// Relative noise amplitude of the measured (FIVR/IMON) readout.
    pub measured_noise_frac: f64,
    /// Relative noise amplitude of the modeled readout.
    pub modeled_noise_frac: f64,
    /// Whether a DRAM RAPL domain is exposed (paper Section IV).
    pub has_dram_domain: bool,
    /// Whether the PP0 (core) energy domain is exposed.
    pub has_pp0_domain: bool,
    /// Whether `MSR_UNCORE_RATIO_LIMIT` exists.
    pub has_uncore_ratio_limit_msr: bool,
}

/// C-state exit-latency table (paper Figures 5/6, Section VI-B). The
/// Haswell values are the `calib::cstate` constants; other generations
/// carry additive deep-exit deltas on top of the same structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CStateExitPolicy {
    pub c1_base_us: f64,
    pub c1_cycles_k: f64,
    pub c1_remote_extra_us: f64,
    pub c3_base_us: f64,
    pub c3_highfreq_step_us: f64,
    pub c3_highfreq_threshold_ghz: f64,
    pub c3_remote_extra_us: f64,
    pub pkg_c3_extra_min_us: f64,
    pub pkg_c3_extra_max_us: f64,
    pub c6_extra_min_us: f64,
    pub c6_extra_max_us: f64,
    pub pkg_c6_extra_us: f64,
    /// Additive generation delta on every C3 exit (0 on Haswell).
    pub deep_c3_extra_us: f64,
    /// Additive generation delta on every C6 exit (0 on Haswell).
    pub deep_c6_extra_us: f64,
    /// Core-frequency range over which the frequency-dependent restore
    /// components interpolate (GHz).
    pub restore_freq_lo_ghz: f64,
    pub restore_freq_hi_ghz: f64,
}

/// The per-generation firmware behavior bundle: plain data, one `const`
/// per generation below, selected by
/// [`CpuGeneration::policy`](crate::CpuGeneration::policy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirmwarePolicy {
    pub pstate: PStatePolicy,
    pub uncore: UncorePolicy,
    pub license: LicensePolicy,
    pub rapl: RaplPolicy,
    pub cstate_exit: CStateExitPolicy,
}

/// Haswell-EP: the paper's subject — FIVR, PCPS, 500 µs opportunity
/// windows, independent ring UFS, AVX frequencies, measured RAPL. The
/// c-state exit table is [`calib::cstate`].
pub(crate) const HASWELL_EP: FirmwarePolicy = FirmwarePolicy {
    pstate: PStatePolicy {
        transition: PStateTransitionMode::OpportunityWindow {
            period_us: calib::PSTATE_OPPORTUNITY_PERIOD_US,
        },
        per_core_domains: true,
        switching_time_us: calib::PSTATE_SWITCHING_TIME_US,
        opportunity_jitter_us: calib::PSTATE_OPPORTUNITY_JITTER_US,
        pcu_eval_period_us: calib::PSTATE_OPPORTUNITY_PERIOD_US,
    },
    uncore: UncorePolicy {
        source: UncoreClockSource::Independent,
        active_schedule_mhz: &calib::UFS_ACTIVE_SCHEDULE_MHZ,
        passive_schedule_mhz: &calib::UFS_PASSIVE_SCHEDULE_MHZ,
        stall_ramp_full: 0.85,
        stall_boost_threshold: 0.10,
    },
    license: LicensePolicy {
        levels: 1,
        ramp_us: calib::PSTATE_SWITCHING_TIME_US,
        relax_us: calib::AVX_RELAX_PERIOD_US,
        ramp_throughput_factor: 0.25,
    },
    rapl: RaplPolicy {
        mode: RaplMode::Measured,
        pkg_energy_unit_uj: calib::PKG_ENERGY_UNIT_UJ,
        dram_energy_unit_uj: calib::DRAM_ENERGY_UNIT_UJ,
        measured_noise_frac: 0.004,
        modeled_noise_frac: 0.01,
        has_dram_domain: true,
        has_pp0_domain: false,
        has_uncore_ratio_limit_msr: true,
    },
    cstate_exit: CStateExitPolicy {
        c1_base_us: cstate::C1_BASE_US,
        c1_cycles_k: cstate::C1_CYCLES_K,
        c1_remote_extra_us: cstate::C1_REMOTE_EXTRA_US,
        c3_base_us: cstate::C3_BASE_US,
        c3_highfreq_step_us: cstate::C3_HIGHFREQ_STEP_US,
        c3_highfreq_threshold_ghz: cstate::C3_HIGHFREQ_THRESHOLD_GHZ,
        c3_remote_extra_us: cstate::C3_REMOTE_EXTRA_US,
        pkg_c3_extra_min_us: cstate::PKG_C3_EXTRA_MIN_US,
        pkg_c3_extra_max_us: cstate::PKG_C3_EXTRA_MAX_US,
        c6_extra_min_us: cstate::C6_EXTRA_MIN_US,
        c6_extra_max_us: cstate::C6_EXTRA_MAX_US,
        pkg_c6_extra_us: cstate::PKG_C6_EXTRA_US,
        deep_c3_extra_us: 0.0,
        deep_c6_extra_us: 0.0,
        restore_freq_lo_ghz: 1.2,
        restore_freq_hi_ghz: 2.5,
    },
};

/// Haswell "HE" (client/workstation): FIVR and measured RAPL, but
/// immediate transitions, no per-core p-state domains, no vector
/// licensing and no `MSR_UNCORE_RATIO_LIMIT`.
pub(crate) const HASWELL_HE: FirmwarePolicy = FirmwarePolicy {
    pstate: PStatePolicy {
        transition: PStateTransitionMode::Immediate,
        per_core_domains: false,
        ..HASWELL_EP.pstate
    },
    license: LicensePolicy {
        levels: 0,
        ..HASWELL_EP.license
    },
    rapl: RaplPolicy {
        has_uncore_ratio_limit_msr: false,
        ..HASWELL_EP.rapl
    },
    ..HASWELL_EP
};

/// Sandy Bridge-EP, and Ivy Bridge-EP with the same energy-management
/// structure: Haswell-HE's p-state mechanics without a license, but a
/// core-coupled uncore, modeled RAPL with a PP0 domain, and the grey
/// reference curves' deep-exit deltas from Figures 5/6.
pub(crate) const SANDY_BRIDGE_EP: FirmwarePolicy = FirmwarePolicy {
    uncore: UncorePolicy {
        source: UncoreClockSource::CoreCoupled,
        ..HASWELL_EP.uncore
    },
    rapl: RaplPolicy {
        mode: RaplMode::Modeled,
        has_pp0_domain: true,
        ..HASWELL_HE.rapl
    },
    cstate_exit: CStateExitPolicy {
        deep_c3_extra_us: cstate::SNB_C3_EXTRA_US,
        deep_c6_extra_us: cstate::SNB_C6_EXTRA_US,
        ..HASWELL_EP.cstate_exit
    },
    ..HASWELL_HE
};

/// Westmere-EP: Sandy Bridge-EP with a fixed uncore and no RAPL.
pub(crate) const WESTMERE_EP: FirmwarePolicy = FirmwarePolicy {
    uncore: UncorePolicy {
        source: UncoreClockSource::Fixed,
        ..SANDY_BRIDGE_EP.uncore
    },
    rapl: RaplPolicy {
        mode: RaplMode::Unavailable,
        has_dram_domain: false,
        has_pp0_domain: false,
        ..SANDY_BRIDGE_EP.rapl
    },
    ..SANDY_BRIDGE_EP
};

/// Skylake-SP (1905.12468): mesh uncore with its own UFS schedule, HWP
/// autonomous p-states, AVX-512 license levels, uniform-unit RAPL, and
/// voltage regulation back on the mainboard.
pub(crate) const SKYLAKE_SP: FirmwarePolicy = FirmwarePolicy {
    pstate: PStatePolicy {
        transition: PStateTransitionMode::HwpAutonomous,
        switching_time_us: calib::skx::PSTATE_SWITCHING_TIME_US,
        opportunity_jitter_us: 0,
        ..HASWELL_EP.pstate
    },
    uncore: UncorePolicy {
        active_schedule_mhz: &calib::skx::UFS_ACTIVE_SCHEDULE_MHZ,
        passive_schedule_mhz: &calib::skx::UFS_PASSIVE_SCHEDULE_MHZ,
        ..HASWELL_EP.uncore
    },
    license: LicensePolicy {
        levels: 2,
        ramp_us: calib::skx::LICENSE_RAMP_US,
        relax_us: calib::skx::LICENSE_RELAX_US,
        ..HASWELL_EP.license
    },
    rapl: RaplPolicy {
        // 1905.12468 Section II-E: Skylake-SP reports DRAM energy in the
        // same unit as the package domain (no fixed 15.3 µJ Haswell quirk).
        dram_energy_unit_uj: calib::PKG_ENERGY_UNIT_UJ,
        ..HASWELL_EP.rapl
    },
    cstate_exit: CStateExitPolicy {
        // The restore components scale over the 8170's 1.2–2.1 GHz
        // selectable range.
        restore_freq_hi_ghz: 2.1,
        ..HASWELL_EP.cstate_exit
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CpuGeneration;

    fn all_with_skx() -> Vec<CpuGeneration> {
        let mut v = CpuGeneration::ALL.to_vec();
        v.push(CpuGeneration::SkylakeSp);
        v
    }

    #[test]
    fn every_generation_keeps_its_policy_values() {
        // The survey runs reach only Haswell-EP and Skylake-SP, so this
        // digest is what pins the other four generations' values.
        let mut text = String::new();
        for gen in all_with_skx() {
            let p = gen.policy();
            text += &format!(
                "{:?} {:?}\n",
                gen,
                (p.pstate, p.uncore, p.license, p.rapl, p.cstate_exit)
            );
        }
        let fnv1a = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert!(
            fnv1a == 0xfa81_904f_bc83_e38b,
            "policy digest {fnv1a:#018x} is not the pinned 0xfa81904fbc83e38b: \
             a generation's policy values changed:\n{text}"
        );
    }

    #[test]
    fn haswell_policy_matches_the_calibration_constants() {
        let p = CpuGeneration::HaswellEp.policy();
        assert_eq!(
            p.pstate.transition,
            PStateTransitionMode::OpportunityWindow {
                period_us: calib::PSTATE_OPPORTUNITY_PERIOD_US
            }
        );
        assert_eq!(p.pstate.switching_time_us, calib::PSTATE_SWITCHING_TIME_US);
        assert_eq!(
            p.pstate.opportunity_jitter_us,
            calib::PSTATE_OPPORTUNITY_JITTER_US
        );
        assert_eq!(
            p.uncore.active_schedule_mhz,
            &calib::UFS_ACTIVE_SCHEDULE_MHZ
        );
        assert_eq!(p.rapl.pkg_energy_unit_uj, calib::PKG_ENERGY_UNIT_UJ);
        assert_eq!(p.rapl.dram_energy_unit_uj, calib::DRAM_ENERGY_UNIT_UJ);
        assert_eq!(p.cstate_exit.c3_base_us, calib::cstate::C3_BASE_US);
        assert_eq!(p.cstate_exit.deep_c3_extra_us, 0.0);
    }

    #[test]
    fn deep_exit_deltas_only_on_pre_haswell() {
        for gen in [CpuGeneration::WestmereEp, CpuGeneration::SandyBridgeEp] {
            let c = gen.policy().cstate_exit;
            assert_eq!(c.deep_c3_extra_us, calib::cstate::SNB_C3_EXTRA_US);
            assert_eq!(c.deep_c6_extra_us, calib::cstate::SNB_C6_EXTRA_US);
        }
        for gen in [
            CpuGeneration::HaswellEp,
            CpuGeneration::HaswellHe,
            CpuGeneration::SkylakeSp,
        ] {
            let c = gen.policy().cstate_exit;
            assert_eq!((c.deep_c3_extra_us, c.deep_c6_extra_us), (0.0, 0.0));
        }
    }

    #[test]
    fn skylake_policy_is_the_mesh_hwp_avx512_bundle() {
        let p = CpuGeneration::SkylakeSp.policy();
        assert_eq!(p.pstate.transition, PStateTransitionMode::HwpAutonomous);
        assert!(p.pstate.per_core_domains);
        assert_eq!(p.uncore.source, UncoreClockSource::Independent);
        assert_eq!(p.license.levels, 2);
        assert_eq!(p.rapl.mode, RaplMode::Measured);
        // Uniform RAPL units: the Haswell DRAM quirk is gone.
        assert_eq!(p.rapl.dram_energy_unit_uj, p.rapl.pkg_energy_unit_uj);
    }

    #[test]
    fn schedules_have_matching_lengths() {
        for gen in all_with_skx() {
            let u = gen.policy().uncore;
            assert_eq!(
                u.active_schedule_mhz.len(),
                u.passive_schedule_mhz.len(),
                "{}",
                gen.name()
            );
            assert!(!u.active_schedule_mhz.is_empty());
        }
    }
}
