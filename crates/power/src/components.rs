//! Package and DRAM power models.
//!
//! `P_pkg = base + Σ leakage(V) + Σ dyn(V, f, activity, avx) + uncore(Vu, fu)`
//!
//! Coefficients come from [`hsw_hwspec::sku::PowerCoeffs`]; they are
//! calibrated so the FIRESTARTER/TDP equilibria of paper Table IV emerge
//! from the PCU control loop (see `hsw-pcu` tests).

use hsw_hwspec::SkuSpec;

/// Electrical state of one core for a power evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreElecState {
    /// Current core frequency in MHz (ignored while power gated).
    pub mhz: u32,
    /// Switching activity factor in [0, 1]; 1.0 is the FIRESTARTER-level
    /// worst case, 0.0 a halted (C1) core.
    pub activity: f64,
    /// AVX license level in force (wider datapaths switching): 0 = none,
    /// 1 = 256-bit license, 2 = 512-bit license.
    pub license_level: u8,
    /// Whether the core is power gated (C6): no leakage, no dynamic power.
    pub power_gated: bool,
}

impl CoreElecState {
    /// A power-gated (C6) core.
    pub fn gated() -> Self {
        CoreElecState {
            mhz: 0,
            activity: 0.0,
            license_level: 0,
            power_gated: true,
        }
    }
}

/// Package power with its component breakdown (W).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PackagePower {
    pub base_w: f64,
    pub core_leakage_w: f64,
    pub core_dynamic_w: f64,
    pub uncore_w: f64,
}

impl PackagePower {
    pub fn total_w(&self) -> f64 {
        self.base_w + self.core_leakage_w + self.core_dynamic_w + self.uncore_w
    }
}

/// Evaluate the package power model for one socket.
///
/// `socket_mult` is the per-part efficiency variation (paper Section III:
/// socket 0 of the test system draws more power for the same operating
/// point than socket 1).
pub fn package_power_w(
    spec: &SkuSpec,
    socket_mult: f64,
    cores: &[CoreElecState],
    uncore_mhz: u32,
) -> PackagePower {
    package_power_of_runs(spec, socket_mult, cores.iter().map(|&c| (c, 1)), uncore_mhz)
}

/// [`package_power_w`] over runs of identical cores, given in core order as
/// `(state, count)` pairs. A run adds its core's terms `count` times, which
/// visits exactly the partial sums of listing every core, so the result is
/// bit-identical without a per-core array.
pub fn package_power_of_runs(
    spec: &SkuSpec,
    socket_mult: f64,
    runs: impl IntoIterator<Item = (CoreElecState, usize)>,
    uncore_mhz: u32,
) -> PackagePower {
    let c = &spec.power;
    let mut leak = 0.0;
    let mut dyn_w = 0.0;
    for (core, count) in runs {
        if core.power_gated || count == 0 {
            continue;
        }
        let v = spec.core_vf.voltage_at(core.mhz.max(spec.freq.min_mhz));
        let leak_term = c.core_leak_w_per_v2 * v * v;
        let avx = match core.license_level {
            0 => 1.0,
            1 => c.avx_power_mult,
            _ => c.avx512_power_mult,
        };
        let dyn_term =
            c.core_dyn_w_per_v2ghz * v * v * (core.mhz as f64 / 1000.0) * core.activity * avx;
        for _ in 0..count {
            leak += leak_term;
            dyn_w += dyn_term;
        }
    }
    let vu = spec.uncore_vf.voltage_at(uncore_mhz);
    let uncore_w = c.uncore_dyn_w_per_v2ghz * vu * vu * (uncore_mhz as f64 / 1000.0);
    PackagePower {
        base_w: c.pkg_base_w,
        core_leakage_w: leak * socket_mult,
        core_dynamic_w: dyn_w * socket_mult,
        uncore_w: uncore_w * socket_mult,
    }
}

/// DRAM power for one socket as a function of its memory traffic.
pub fn dram_power_w(spec: &SkuSpec, bandwidth_gbs: f64) -> f64 {
    spec.power.dram_idle_w + spec.power.dram_w_per_gbs * bandwidth_gbs.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_hwspec::calib;
    use proptest::prelude::*;

    fn hsw() -> SkuSpec {
        SkuSpec::xeon_e5_2680_v3()
    }

    fn firestarter_cores(spec: &SkuSpec, mhz: u32) -> Vec<CoreElecState> {
        vec![
            CoreElecState {
                mhz,
                activity: 1.0,
                license_level: 0, // the AVX multiplier is calibrated out for
                // FIRESTARTER: its mix is the activity=1.0 reference
                power_gated: false,
            };
            spec.cores
        ]
    }

    #[test]
    fn firestarter_equilibrium_at_table4_operating_points() {
        // Paper Table IV: with the TDP limiter active, FIRESTARTER settles at
        // ~(2.31 GHz core, 2.34 GHz uncore) and ~(2.27, 2.46), ~(2.19, 2.80):
        // all must evaluate to ≈ 120 W package power.
        let spec = hsw();
        for (core_mhz, uncore_mhz) in [(2310, 2340), (2270, 2460), (2190, 2800)] {
            let p = package_power_w(&spec, 1.0, &firestarter_cores(&spec, core_mhz), uncore_mhz);
            assert!(
                (p.total_w() - spec.tdp_w).abs() < 4.0,
                "({core_mhz}, {uncore_mhz}): {:.1} W",
                p.total_w()
            );
        }
    }

    #[test]
    fn firestarter_at_2_1_ghz_is_below_tdp() {
        // Paper Section V-B: "For 2.1 GHz and slower, both processors use
        // less than 120 W ... the uncore frequency is at 3.0 GHz".
        let spec = hsw();
        let p = package_power_w(&spec, 1.0, &firestarter_cores(&spec, 2090), 3000);
        assert!(
            p.total_w() < calib::powercal::FS_NO_THROTTLE_BELOW_W,
            "{:.1} W",
            p.total_w()
        );
    }

    #[test]
    fn idle_package_power_matches_fig2_intercept() {
        // All cores gated, uncore at its floor: the package should draw
        // ~10–14 W so that two sockets + DRAM ≈ 32 W RAPL at 261.5 W AC.
        let spec = hsw();
        let cores = vec![CoreElecState::gated(); spec.cores];
        let p = package_power_w(&spec, 1.0, &cores, spec.freq.uncore_min_mhz);
        assert!(
            (8.0..16.0).contains(&p.total_w()),
            "idle pkg = {:.1} W",
            p.total_w()
        );
    }

    #[test]
    fn socket0_draws_more_than_socket1() {
        let spec = hsw();
        let cores = firestarter_cores(&spec, 2300);
        let p0 = package_power_w(&spec, calib::SOCKET_POWER_EFFICIENCY[0], &cores, 2400);
        let p1 = package_power_w(&spec, calib::SOCKET_POWER_EFFICIENCY[1], &cores, 2400);
        assert!(p0.total_w() > p1.total_w());
    }

    #[test]
    fn avx_license_increases_power() {
        let spec = hsw();
        let mut cores = firestarter_cores(&spec, 2100);
        let p_scalar = package_power_w(&spec, 1.0, &cores, 2000).total_w();
        for c in &mut cores {
            c.license_level = 1;
        }
        let p_avx = package_power_w(&spec, 1.0, &cores, 2000).total_w();
        assert!(p_avx > p_scalar * 1.1, "{p_avx} vs {p_scalar}");
    }

    #[test]
    fn gated_cores_draw_nothing() {
        let spec = hsw();
        let active = package_power_w(&spec, 1.0, &firestarter_cores(&spec, 2500), 2000);
        let gated = package_power_w(&spec, 1.0, &[CoreElecState::gated(); 12], 2000);
        assert_eq!(gated.core_leakage_w, 0.0);
        assert_eq!(gated.core_dynamic_w, 0.0);
        assert!(gated.total_w() < active.total_w());
    }

    #[test]
    fn dram_power_scales_with_bandwidth() {
        let spec = hsw();
        let idle = dram_power_w(&spec, 0.0);
        let loaded = dram_power_w(&spec, 40.0);
        assert!((idle - spec.power.dram_idle_w).abs() < 1e-12);
        assert!(loaded > idle + 15.0);
    }

    proptest! {
        #[test]
        fn prop_power_monotone_in_frequency(mhz in 1200u32..=3300) {
            let spec = hsw();
            let lo = package_power_w(&spec, 1.0, &firestarter_cores(&spec, mhz), 2000);
            let hi = package_power_w(&spec, 1.0, &firestarter_cores(&spec, mhz + 100), 2000);
            prop_assert!(hi.total_w() > lo.total_w());
        }

        #[test]
        fn prop_power_monotone_in_activity(act in 0.0f64..1.0) {
            let spec = hsw();
            let mk = |a: f64| {
                vec![CoreElecState { mhz: 2500, activity: a, license_level: 0,
                                     power_gated: false }; 12]
            };
            let lo = package_power_w(&spec, 1.0, &mk(act), 2000).total_w();
            let hi = package_power_w(&spec, 1.0, &mk((act + 0.1).min(1.0)), 2000).total_w();
            prop_assert!(hi >= lo);
        }

        #[test]
        fn prop_power_nonnegative(
            mhz in 1200u32..=3300,
            umhz in 1200u32..=3000,
            act in 0.0f64..=1.0,
        ) {
            let spec = hsw();
            let cores = vec![CoreElecState { mhz, activity: act, license_level: 0,
                                             power_gated: false }; 12];
            let p = package_power_w(&spec, 1.0, &cores, umhz);
            prop_assert!(p.total_w() > 0.0);
            prop_assert!(p.base_w >= 0.0 && p.core_leakage_w >= 0.0);
            prop_assert!(p.core_dynamic_w >= 0.0 && p.uncore_w >= 0.0);
        }
    }
}
