//! Uncore frequency scaling (paper Sections II-D and V-A, Table III).
//!
//! The uncore frequency is set transparently by hardware. Reverse
//! engineering in the paper shows it depends on (a) the frequency *setting*
//! of the fastest active core in the system, via a fixed schedule
//! (Table III), (b) the EPB — `performance` pins the maximum, (c) the
//! cores' stall cycles — memory-bound load raises the uncore toward its
//! 3.0 GHz maximum, (d) package c-states — PC3/PC6 halt the uncore clock,
//! and (e) power limits, which the [`crate::controller`] applies on top.

use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::{EpbClass, SkuSpec, UncorePolicy};

/// Inputs to the UFS decision for one socket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UfsInputs {
    /// Highest core-frequency *setting* among active cores in the system
    /// (cross-socket: the passive socket follows the active one).
    pub fastest_setting: FreqSetting,
    /// Whether this socket itself has any active core.
    pub socket_active: bool,
    /// EPB class of the (driving) cores.
    pub epb: EpbClass,
    /// Memory-stall fraction of the running workload (0 when idle).
    pub stall_fraction: f64,
    /// Whether the socket is in a deep package c-state (PC3/PC6).
    pub package_sleep: bool,
}

/// Schedule lookup: index 0 = Turbo, 1 = base (2.5 GHz), … last = min.
/// The schedule itself comes from the generation's [`UncorePolicy`].
fn schedule_index(policy: &UncorePolicy, spec: &SkuSpec, setting: FreqSetting) -> usize {
    match setting {
        FreqSetting::Turbo => 0,
        FreqSetting::Fixed(p) => {
            let steps = (spec.freq.base_mhz.saturating_sub(p.mhz())) / 100;
            (1 + steps as usize).min(policy.active_schedule_mhz.len() - 1)
        }
    }
}

/// The baseline (no-stall) uncore frequency from the Table III schedule.
pub fn schedule_mhz(spec: &SkuSpec, setting: FreqSetting, socket_active: bool) -> u32 {
    let policy = &spec.generation.policy().uncore;
    let idx = schedule_index(policy, spec, setting);
    if socket_active {
        policy.active_schedule_mhz[idx]
    } else {
        policy.passive_schedule_mhz[idx]
    }
}

/// The UFS target frequency in MHz, before power limiting.
///
/// Returns 0 when the uncore clock is halted (deep package sleep,
/// paper Section V-A).
pub fn ufs_target_mhz(spec: &SkuSpec, inputs: &UfsInputs) -> u32 {
    if inputs.package_sleep {
        return 0;
    }
    let max = spec.freq.uncore_max_mhz;
    if inputs.epb == EpbClass::Performance {
        // Table III footnote: 3.0 GHz if EPB is set to performance.
        return max;
    }
    let base = schedule_mhz(spec, inputs.fastest_setting, inputs.socket_active);
    // Stall cycles raise the uncore toward its maximum: fully memory-bound
    // load (the paper's upper-bound experiment) reaches 3.0 GHz at any core
    // frequency setting.
    let g =
        (inputs.stall_fraction / spec.generation.policy().uncore.stall_ramp_full).clamp(0.0, 1.0);
    let target = base as f64 + g * (max as f64 - base as f64);
    (target.round() as u32).clamp(spec.freq.uncore_min_mhz, max)
}

/// Whether leftover power budget may push the uncore *above* the UFS target
/// (only pays off when the workload actually spends a meaningful share of
/// its cycles waiting on memory; FMA-dense kernels with incidental stalls
/// do not qualify).
pub fn stall_boost_allowed(spec: &SkuSpec, stall_fraction: f64) -> bool {
    stall_fraction > spec.generation.policy().uncore.stall_boost_threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_hwspec::PState;
    use proptest::prelude::*;

    fn sku() -> SkuSpec {
        SkuSpec::xeon_e5_2680_v3()
    }

    fn no_stall_inputs(setting: FreqSetting, active: bool) -> UfsInputs {
        UfsInputs {
            fastest_setting: setting,
            socket_active: active,
            epb: EpbClass::Balanced,
            stall_fraction: 0.0,
            package_sleep: false,
        }
    }

    #[test]
    fn table3_active_socket_schedule() {
        // Paper Table III, first row (no memory stalls, balanced EPB).
        let spec = sku();
        let expect: [(FreqSetting, u32); 15] = [
            (FreqSetting::Turbo, 3000),
            (FreqSetting::from_mhz(2500), 2200),
            (FreqSetting::from_mhz(2400), 2100),
            (FreqSetting::from_mhz(2300), 2000),
            (FreqSetting::from_mhz(2200), 1900),
            (FreqSetting::from_mhz(2100), 1800),
            (FreqSetting::from_mhz(2000), 1750),
            (FreqSetting::from_mhz(1900), 1650),
            (FreqSetting::from_mhz(1800), 1600),
            (FreqSetting::from_mhz(1700), 1500),
            (FreqSetting::from_mhz(1600), 1400),
            (FreqSetting::from_mhz(1500), 1300),
            (FreqSetting::from_mhz(1400), 1200),
            (FreqSetting::from_mhz(1300), 1200),
            (FreqSetting::from_mhz(1200), 1200),
        ];
        for (setting, mhz) in expect {
            assert_eq!(
                ufs_target_mhz(&spec, &no_stall_inputs(setting, true)),
                mhz,
                "setting {}",
                setting.label()
            );
        }
    }

    #[test]
    fn table3_passive_socket_tracks_one_bin_lower() {
        // Paper Table III, second row.
        let spec = sku();
        let expect: [(FreqSetting, u32); 5] = [
            (FreqSetting::from_mhz(2500), 2100),
            (FreqSetting::from_mhz(2400), 2000),
            (FreqSetting::from_mhz(2100), 1700),
            (FreqSetting::from_mhz(1600), 1200),
            (FreqSetting::from_mhz(1200), 1200),
        ];
        for (setting, mhz) in expect {
            assert_eq!(
                ufs_target_mhz(&spec, &no_stall_inputs(setting, false)),
                mhz,
                "setting {}",
                setting.label()
            );
        }
    }

    #[test]
    fn epb_performance_pins_the_maximum() {
        // Table III footnote (*): 3.0 GHz if EPB is set to performance.
        let spec = sku();
        for setting in [
            FreqSetting::Turbo,
            FreqSetting::from_mhz(2500),
            FreqSetting::from_mhz(1200),
        ] {
            let mut inputs = no_stall_inputs(setting, true);
            inputs.epb = EpbClass::Performance;
            assert_eq!(ufs_target_mhz(&spec, &inputs), 3000);
        }
    }

    #[test]
    fn memory_stalls_raise_uncore_to_max_at_any_core_frequency() {
        // Paper Section V-A: "The upper bound for the uncore frequency in
        // memory-stall scenarios is 3.0 GHz on our system, also for lower
        // core frequencies."
        let spec = sku();
        for setting in [FreqSetting::from_mhz(1200), FreqSetting::from_mhz(2500)] {
            let mut inputs = no_stall_inputs(setting, true);
            inputs.stall_fraction = 0.85;
            assert_eq!(ufs_target_mhz(&spec, &inputs), 3000);
        }
    }

    #[test]
    fn package_sleep_halts_the_uncore_clock() {
        let spec = sku();
        let mut inputs = no_stall_inputs(FreqSetting::from_mhz(2500), false);
        inputs.package_sleep = true;
        assert_eq!(ufs_target_mhz(&spec, &inputs), 0);
    }

    #[test]
    fn firestarter_stall_level_lands_near_its_core_clock() {
        // The Table IV equilibrium: FIRESTARTER's moderate stall fraction
        // (0.30) puts the pre-power-limit uncore target near 2.35 GHz at the
        // 2.3 GHz setting.
        let spec = sku();
        let mut inputs = no_stall_inputs(FreqSetting::from_mhz(2300), true);
        inputs.stall_fraction = 0.30;
        let t = ufs_target_mhz(&spec, &inputs);
        assert!((2300..=2450).contains(&t), "target {t}");
    }

    #[test]
    fn boost_requires_stalls() {
        assert!(!stall_boost_allowed(&sku(), 0.0));
        assert!(stall_boost_allowed(&sku(), 0.30));
    }

    proptest! {
        #[test]
        fn prop_target_within_bounds(
            mhz in 12u32..=25,
            stall in 0.0f64..=1.0,
            active in any::<bool>(),
        ) {
            let spec = sku();
            let inputs = UfsInputs {
                fastest_setting: FreqSetting::Fixed(PState(mhz as u8)),
                socket_active: active,
                epb: EpbClass::Balanced,
                stall_fraction: stall,
                package_sleep: false,
            };
            let t = ufs_target_mhz(&spec, &inputs);
            prop_assert!(t >= spec.freq.uncore_min_mhz);
            prop_assert!(t <= spec.freq.uncore_max_mhz);
        }

        #[test]
        fn prop_target_monotone_in_stalls(
            stall in 0.0f64..0.8,
            mhz in 12u32..=25,
        ) {
            let spec = sku();
            let mk = |s: f64| UfsInputs {
                fastest_setting: FreqSetting::Fixed(PState(mhz as u8)),
                socket_active: true,
                epb: EpbClass::Balanced,
                stall_fraction: s,
                package_sleep: false,
            };
            prop_assert!(
                ufs_target_mhz(&spec, &mk(stall + 0.05))
                    >= ufs_target_mhz(&spec, &mk(stall))
            );
        }

        #[test]
        fn prop_active_socket_never_below_passive(mhz in 12u32..=25) {
            let spec = sku();
            let setting = FreqSetting::Fixed(PState(mhz as u8));
            prop_assert!(
                ufs_target_mhz(&spec, &no_stall_inputs(setting, true))
                    >= ufs_target_mhz(&spec, &no_stall_inputs(setting, false))
            );
        }
    }
}
