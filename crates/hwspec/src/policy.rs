//! The generation policy layer: firmware behavior behind a trait.
//!
//! The survey's cross-generation story (paper Section II, and the
//! follow-up Skylake-SP survey, arXiv 1905.12468) is a story about
//! *firmware policy*, not just SKU numbers: how the uncore is clocked, how
//! p-state requests are serviced, how vector licenses gate the clock, what
//! backs the RAPL counters, and how c-state exits price out. This module
//! collects those mechanisms into plain-data policy descriptors returned
//! by a [`FirmwarePolicy`] implementation per [`CpuGeneration`], so the
//! model crates (`hsw-pcu`, `hsw-cstates`, `hsw-power`, `hsw-msr`) consume
//! the policy instead of matching on the generation enum. The root test
//! `tests/generation_dispatch.rs` fails on generation matching anywhere
//! outside hwspec.
//!
//! Everything here is pure data; the Haswell values are bit-for-bit the
//! calibration constants from [`crate::calib`], so the refactor leaves
//! `survey.json` byte-identical.

use crate::calib;
use crate::generation::{CpuGeneration, PStateTransitionMode, RaplMode, UncoreClockSource};

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

/// Mainboard voltage regulation (paper Section II-B): the `VCCin` rail
/// commanded over SVID and the MBVR's phase-shedding thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VrPolicy {
    /// Nominal VR input-rail voltage commanded over SVID (V).
    pub vccin_v: f64,
    /// Legal SVID input-rail command range (V).
    pub svid_lo_v: f64,
    pub svid_hi_v: f64,
    /// Estimated-power thresholds for the mainboard VR phase-shedding
    /// states, with hysteresis (W).
    pub mbvr_ps1_below_w: f64,
    pub mbvr_ps2_below_w: f64,
    pub mbvr_hysteresis_w: f64,
}

/// The per-generation firmware behavior bundle. Implementations are
/// zero-sized and returned as `&'static dyn` by [`policy_for`] /
/// [`CpuGeneration::policy`].
pub trait FirmwarePolicy: Sync {
    fn generation(&self) -> CpuGeneration;
    fn pstate(&self) -> PStatePolicy;
    fn uncore(&self) -> UncorePolicy;
    fn license(&self) -> LicensePolicy;
    fn rapl(&self) -> RaplPolicy;
    fn cstate_exit(&self) -> CStateExitPolicy;
}

/// The Haswell c-state exit table, straight from [`calib::cstate`].
fn haswell_cstate_exit() -> CStateExitPolicy {
    use calib::cstate as c;
    CStateExitPolicy {
        c1_base_us: c::C1_BASE_US,
        c1_cycles_k: c::C1_CYCLES_K,
        c1_remote_extra_us: c::C1_REMOTE_EXTRA_US,
        c3_base_us: c::C3_BASE_US,
        c3_highfreq_step_us: c::C3_HIGHFREQ_STEP_US,
        c3_highfreq_threshold_ghz: c::C3_HIGHFREQ_THRESHOLD_GHZ,
        c3_remote_extra_us: c::C3_REMOTE_EXTRA_US,
        pkg_c3_extra_min_us: c::PKG_C3_EXTRA_MIN_US,
        pkg_c3_extra_max_us: c::PKG_C3_EXTRA_MAX_US,
        c6_extra_min_us: c::C6_EXTRA_MIN_US,
        c6_extra_max_us: c::C6_EXTRA_MAX_US,
        pkg_c6_extra_us: c::PKG_C6_EXTRA_US,
        deep_c3_extra_us: 0.0,
        deep_c6_extra_us: 0.0,
        restore_freq_lo_ghz: 1.2,
        restore_freq_hi_ghz: 2.5,
    }
}

/// The pre-Haswell exit table: same structure, with the grey reference
/// curves' deep-exit deltas from Figures 5/6.
fn pre_haswell_cstate_exit() -> CStateExitPolicy {
    CStateExitPolicy {
        deep_c3_extra_us: calib::cstate::SNB_C3_EXTRA_US,
        deep_c6_extra_us: calib::cstate::SNB_C6_EXTRA_US,
        ..haswell_cstate_exit()
    }
}

/// The voltage-regulation bundle of every modeled generation's board.
/// Skylake-SP moved regulation off the die (1905.12468 Section II-A), but
/// the mainboard VR model is the same, so it is not part of
/// [`FirmwarePolicy`].
pub const BOARD_VR: VrPolicy = VrPolicy {
    vccin_v: 1.80,
    svid_lo_v: 1.6,
    svid_hi_v: 2.0,
    mbvr_ps1_below_w: 45.0,
    mbvr_ps2_below_w: 15.0,
    mbvr_hysteresis_w: 4.0,
};

/// Shared p-state mechanics for the immediate-transition generations.
fn immediate_pstate() -> PStatePolicy {
    PStatePolicy {
        transition: PStateTransitionMode::Immediate,
        per_core_domains: false,
        switching_time_us: calib::PSTATE_SWITCHING_TIME_US,
        opportunity_jitter_us: calib::PSTATE_OPPORTUNITY_JITTER_US,
        pcu_eval_period_us: calib::PSTATE_OPPORTUNITY_PERIOD_US,
    }
}

/// RAPL bundle for the modeled-RAPL EP generations (SNB/IVB).
fn modeled_rapl() -> RaplPolicy {
    RaplPolicy {
        mode: RaplMode::Modeled,
        pkg_energy_unit_uj: calib::PKG_ENERGY_UNIT_UJ,
        dram_energy_unit_uj: calib::DRAM_ENERGY_UNIT_UJ,
        measured_noise_frac: 0.004,
        modeled_noise_frac: 0.01,
        has_dram_domain: true,
        has_pp0_domain: true,
        has_uncore_ratio_limit_msr: false,
    }
}

/// No vector licensing (pre-Haswell-EP; paper Section II-F).
fn no_license() -> LicensePolicy {
    LicensePolicy {
        levels: 0,
        ramp_us: calib::PSTATE_SWITCHING_TIME_US,
        relax_us: calib::AVX_RELAX_PERIOD_US,
        ramp_throughput_factor: 0.25,
    }
}

/// Westmere-EP: fixed uncore, no RAPL, immediate transitions.
pub struct WestmereEpPolicy;

impl FirmwarePolicy for WestmereEpPolicy {
    fn generation(&self) -> CpuGeneration {
        CpuGeneration::WestmereEp
    }

    fn pstate(&self) -> PStatePolicy {
        immediate_pstate()
    }

    fn uncore(&self) -> UncorePolicy {
        UncorePolicy {
            source: UncoreClockSource::Fixed,
            active_schedule_mhz: &calib::UFS_ACTIVE_SCHEDULE_MHZ,
            passive_schedule_mhz: &calib::UFS_PASSIVE_SCHEDULE_MHZ,
            stall_ramp_full: 0.85,
            stall_boost_threshold: 0.10,
        }
    }

    fn license(&self) -> LicensePolicy {
        no_license()
    }

    fn rapl(&self) -> RaplPolicy {
        RaplPolicy {
            mode: RaplMode::Unavailable,
            has_dram_domain: false,
            has_pp0_domain: false,
            ..modeled_rapl()
        }
    }

    fn cstate_exit(&self) -> CStateExitPolicy {
        pre_haswell_cstate_exit()
    }
}

/// Sandy Bridge-EP: core-coupled uncore, modeled RAPL, chip-wide p-states.
pub struct SandyBridgeEpPolicy;

impl FirmwarePolicy for SandyBridgeEpPolicy {
    fn generation(&self) -> CpuGeneration {
        CpuGeneration::SandyBridgeEp
    }

    fn pstate(&self) -> PStatePolicy {
        immediate_pstate()
    }

    fn uncore(&self) -> UncorePolicy {
        UncorePolicy {
            source: UncoreClockSource::CoreCoupled,
            active_schedule_mhz: &calib::UFS_ACTIVE_SCHEDULE_MHZ,
            passive_schedule_mhz: &calib::UFS_PASSIVE_SCHEDULE_MHZ,
            stall_ramp_full: 0.85,
            stall_boost_threshold: 0.10,
        }
    }

    fn license(&self) -> LicensePolicy {
        no_license()
    }

    fn rapl(&self) -> RaplPolicy {
        modeled_rapl()
    }

    fn cstate_exit(&self) -> CStateExitPolicy {
        pre_haswell_cstate_exit()
    }
}

/// Ivy Bridge-EP: same energy-management structure as Sandy Bridge-EP.
pub struct IvyBridgeEpPolicy;

impl FirmwarePolicy for IvyBridgeEpPolicy {
    fn generation(&self) -> CpuGeneration {
        CpuGeneration::IvyBridgeEp
    }

    fn pstate(&self) -> PStatePolicy {
        SandyBridgeEpPolicy.pstate()
    }

    fn uncore(&self) -> UncorePolicy {
        SandyBridgeEpPolicy.uncore()
    }

    fn license(&self) -> LicensePolicy {
        SandyBridgeEpPolicy.license()
    }

    fn rapl(&self) -> RaplPolicy {
        SandyBridgeEpPolicy.rapl()
    }

    fn cstate_exit(&self) -> CStateExitPolicy {
        SandyBridgeEpPolicy.cstate_exit()
    }
}

/// Haswell-EP: the paper's subject — FIVR, PCPS, 500 µs opportunity
/// windows, independent ring UFS, AVX frequencies, measured RAPL.
pub struct HaswellEpPolicy;

impl FirmwarePolicy for HaswellEpPolicy {
    fn generation(&self) -> CpuGeneration {
        CpuGeneration::HaswellEp
    }

    fn pstate(&self) -> PStatePolicy {
        PStatePolicy {
            transition: PStateTransitionMode::OpportunityWindow {
                period_us: calib::PSTATE_OPPORTUNITY_PERIOD_US,
            },
            per_core_domains: true,
            ..immediate_pstate()
        }
    }

    fn uncore(&self) -> UncorePolicy {
        UncorePolicy {
            source: UncoreClockSource::Independent,
            active_schedule_mhz: &calib::UFS_ACTIVE_SCHEDULE_MHZ,
            passive_schedule_mhz: &calib::UFS_PASSIVE_SCHEDULE_MHZ,
            stall_ramp_full: 0.85,
            stall_boost_threshold: 0.10,
        }
    }

    fn license(&self) -> LicensePolicy {
        LicensePolicy {
            levels: 1,
            ..no_license()
        }
    }

    fn rapl(&self) -> RaplPolicy {
        RaplPolicy {
            mode: RaplMode::Measured,
            has_pp0_domain: false,
            has_uncore_ratio_limit_msr: true,
            ..modeled_rapl()
        }
    }

    fn cstate_exit(&self) -> CStateExitPolicy {
        haswell_cstate_exit()
    }
}

/// Haswell "HE" (client/workstation): FIVR and measured RAPL, but
/// immediate transitions and no per-core p-state domains.
pub struct HaswellHePolicy;

impl FirmwarePolicy for HaswellHePolicy {
    fn generation(&self) -> CpuGeneration {
        CpuGeneration::HaswellHe
    }

    fn pstate(&self) -> PStatePolicy {
        immediate_pstate()
    }

    fn uncore(&self) -> UncorePolicy {
        HaswellEpPolicy.uncore()
    }

    fn license(&self) -> LicensePolicy {
        no_license()
    }

    fn rapl(&self) -> RaplPolicy {
        RaplPolicy {
            has_uncore_ratio_limit_msr: false,
            ..HaswellEpPolicy.rapl()
        }
    }

    fn cstate_exit(&self) -> CStateExitPolicy {
        haswell_cstate_exit()
    }
}

/// Skylake-SP (1905.12468): mesh uncore with its own UFS schedule, HWP
/// autonomous p-states, AVX-512 license levels, uniform-unit RAPL, and
/// voltage regulation back on the mainboard.
pub struct SkylakeSpPolicy;

impl FirmwarePolicy for SkylakeSpPolicy {
    fn generation(&self) -> CpuGeneration {
        CpuGeneration::SkylakeSp
    }

    fn pstate(&self) -> PStatePolicy {
        PStatePolicy {
            transition: PStateTransitionMode::HwpAutonomous,
            per_core_domains: true,
            switching_time_us: calib::skx::PSTATE_SWITCHING_TIME_US,
            opportunity_jitter_us: 0,
            pcu_eval_period_us: calib::PSTATE_OPPORTUNITY_PERIOD_US,
        }
    }

    fn uncore(&self) -> UncorePolicy {
        UncorePolicy {
            source: UncoreClockSource::Independent,
            active_schedule_mhz: &calib::skx::UFS_ACTIVE_SCHEDULE_MHZ,
            passive_schedule_mhz: &calib::skx::UFS_PASSIVE_SCHEDULE_MHZ,
            stall_ramp_full: 0.85,
            stall_boost_threshold: 0.10,
        }
    }

    fn license(&self) -> LicensePolicy {
        LicensePolicy {
            levels: 2,
            ramp_us: calib::skx::LICENSE_RAMP_US,
            relax_us: calib::skx::LICENSE_RELAX_US,
            ramp_throughput_factor: 0.25,
        }
    }

    fn rapl(&self) -> RaplPolicy {
        RaplPolicy {
            mode: RaplMode::Measured,
            // 1905.12468 Section II-E: Skylake-SP reports DRAM energy in
            // the same unit as the package domain (no fixed 15.3 µJ
            // Haswell quirk).
            dram_energy_unit_uj: calib::PKG_ENERGY_UNIT_UJ,
            has_pp0_domain: false,
            has_uncore_ratio_limit_msr: true,
            ..modeled_rapl()
        }
    }

    fn cstate_exit(&self) -> CStateExitPolicy {
        CStateExitPolicy {
            // The restore components scale over the 8170's 1.2–2.1 GHz
            // selectable range.
            restore_freq_lo_ghz: 1.2,
            restore_freq_hi_ghz: 2.1,
            ..haswell_cstate_exit()
        }
    }
}

/// The policy bundle for a generation.
pub fn policy_for(generation: CpuGeneration) -> &'static dyn FirmwarePolicy {
    match generation {
        CpuGeneration::WestmereEp => &WestmereEpPolicy,
        CpuGeneration::SandyBridgeEp => &SandyBridgeEpPolicy,
        CpuGeneration::IvyBridgeEp => &IvyBridgeEpPolicy,
        CpuGeneration::HaswellEp => &HaswellEpPolicy,
        CpuGeneration::HaswellHe => &HaswellHePolicy,
        CpuGeneration::SkylakeSp => &SkylakeSpPolicy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_with_skx() -> Vec<CpuGeneration> {
        let mut v = CpuGeneration::ALL.to_vec();
        v.push(CpuGeneration::SkylakeSp);
        v
    }

    #[test]
    fn policy_round_trips_its_generation() {
        for gen in all_with_skx() {
            assert_eq!(policy_for(gen).generation(), gen);
        }
    }

    #[test]
    fn haswell_policy_matches_the_calibration_constants() {
        let p = policy_for(CpuGeneration::HaswellEp);
        assert_eq!(
            p.pstate().transition,
            PStateTransitionMode::OpportunityWindow {
                period_us: calib::PSTATE_OPPORTUNITY_PERIOD_US
            }
        );
        assert_eq!(
            p.pstate().switching_time_us,
            calib::PSTATE_SWITCHING_TIME_US
        );
        assert_eq!(
            p.pstate().opportunity_jitter_us,
            calib::PSTATE_OPPORTUNITY_JITTER_US
        );
        assert_eq!(
            p.uncore().active_schedule_mhz,
            &calib::UFS_ACTIVE_SCHEDULE_MHZ
        );
        assert_eq!(p.rapl().pkg_energy_unit_uj, calib::PKG_ENERGY_UNIT_UJ);
        assert_eq!(p.rapl().dram_energy_unit_uj, calib::DRAM_ENERGY_UNIT_UJ);
        assert_eq!(p.cstate_exit().c3_base_us, calib::cstate::C3_BASE_US);
        assert_eq!(p.cstate_exit().deep_c3_extra_us, 0.0);
    }

    #[test]
    fn board_vr_pins_the_board_values() {
        // Regression pins for the literals swept out of power/mbvr.rs.
        let v = BOARD_VR;
        assert_eq!(v.vccin_v, 1.80);
        assert_eq!((v.svid_lo_v, v.svid_hi_v), (1.6, 2.0));
        assert_eq!(v.mbvr_ps1_below_w, 45.0);
        assert_eq!(v.mbvr_ps2_below_w, 15.0);
        assert_eq!(v.mbvr_hysteresis_w, 4.0);
    }

    #[test]
    fn deep_exit_deltas_only_on_pre_haswell() {
        for gen in [CpuGeneration::WestmereEp, CpuGeneration::SandyBridgeEp] {
            let c = policy_for(gen).cstate_exit();
            assert_eq!(c.deep_c3_extra_us, calib::cstate::SNB_C3_EXTRA_US);
            assert_eq!(c.deep_c6_extra_us, calib::cstate::SNB_C6_EXTRA_US);
        }
        for gen in [
            CpuGeneration::HaswellEp,
            CpuGeneration::HaswellHe,
            CpuGeneration::SkylakeSp,
        ] {
            let c = policy_for(gen).cstate_exit();
            assert_eq!((c.deep_c3_extra_us, c.deep_c6_extra_us), (0.0, 0.0));
        }
    }

    #[test]
    fn skylake_policy_is_the_mesh_hwp_avx512_bundle() {
        let p = policy_for(CpuGeneration::SkylakeSp);
        assert_eq!(p.pstate().transition, PStateTransitionMode::HwpAutonomous);
        assert!(p.pstate().per_core_domains);
        let u = p.uncore();
        assert_eq!(u.source, UncoreClockSource::Independent);
        assert_eq!(p.license().levels, 2);
        assert_eq!(p.rapl().mode, RaplMode::Measured);
        // Uniform RAPL units: the Haswell DRAM quirk is gone.
        assert_eq!(p.rapl().dram_energy_unit_uj, p.rapl().pkg_energy_unit_uj);
    }

    #[test]
    fn schedules_have_matching_lengths() {
        for gen in all_with_skx() {
            let u = policy_for(gen).uncore();
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
