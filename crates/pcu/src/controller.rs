//! TDP enforcement and core/uncore budget balancing (paper Sections V-B and
//! VIII, Table IV).
//!
//! Starting with Haswell-EP, RAPL enforces the TDP from *measured* power:
//! every frequency above AVX base — including nominal — is opportunistic.
//! The controller resolves the steady-state operating point of one socket:
//!
//! 1. The core ceiling from the frequency setting, turbo bins, the AVX
//!    license, EET and the EPB turbo-at-base rule.
//! 2. The uncore target from UFS, keyed by the *actual* frequency of the
//!    fastest active core (self-consistently — the solver iterates).
//! 3. If the ceiling/target point exceeds TDP, the core frequency is
//!    reduced until the budget holds; if it leaves headroom **and the
//!    workload stalls on memory**, the uncore absorbs the remaining budget
//!    up to its 3.0 GHz maximum — the paper's "available headroom is used
//!    to increase the uncore frequencies" (Table IV caption).

use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::{EpbClass, PState, SkuSpec};
use hsw_power::{package_power_of_runs, CoreElecState};

use crate::ufs::{self, UfsInputs};

/// Inputs describing one socket's load for an equilibrium solve.
#[derive(Debug, Clone, PartialEq)]
pub struct PcuInputs<'a> {
    pub spec: &'a SkuSpec,
    /// Per-part efficiency multiplier (paper Section III).
    pub socket_power_mult: f64,
    /// OS frequency setting of the active cores.
    pub setting: FreqSetting,
    pub epb: EpbClass,
    /// `IA32_MISC_ENABLE\[38\]` turbo disengage (inverted).
    pub turbo_enabled: bool,
    /// Cores running the workload.
    pub active_cores: usize,
    /// Idle cores that are power gated (C6) vs. merely halted (C1).
    pub gated_idle_cores: usize,
    /// Per-core switching activity (duty-modulated, before the AVX
    /// multiplier).
    pub activity: f64,
    /// AVX license level engaged on the active cores (0 = none,
    /// 1 = 256-bit, 2 = 512-bit).
    pub avx_level: u8,
    /// Memory-stall fraction of the workload.
    pub stall_fraction: f64,
    /// EET's current turbo limit in MHz (`u32::MAX` when unconstrained).
    pub eet_limit_mhz: u32,
    /// The RAPL limiter's running-average package power (W). While it is
    /// still below PL1, the short-term PL2 budget applies (burst headroom).
    pub avg_pkg_w: f64,
}

/// The resolved operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcuGrant {
    /// Granted core frequency in MHz (time-averaged over bin dithering,
    /// hence not necessarily a multiple of 100).
    pub core_mhz: f64,
    /// Granted uncore frequency in MHz.
    pub uncore_mhz: f64,
    /// Package power at the operating point in W.
    pub power_w: f64,
    /// Whether the TDP limiter constrained the grant.
    pub power_limited: bool,
}

/// The EPB bias on the RAPL budget: under a percent either way (Table V
/// shows sub-1 % frequency differences across EPB settings).
pub fn epb_budget_factor(epb: EpbClass) -> f64 {
    match epb {
        EpbClass::Performance => 1.005,
        EpbClass::Balanced => 1.0,
        EpbClass::EnergySaving => 0.995,
    }
}

/// [`PcuController::max_core_within`] answers of one solve, keyed by the
/// uncore target's bits. Both fixed-point passes and the final re-bisection
/// keep asking about the same few UFS bins; a full table computes the
/// answer without storing it.
#[derive(Default)]
struct CoreMemo {
    entries: [(u64, f64); 8],
    len: usize,
}

impl CoreMemo {
    fn get_or(&mut self, uncore_mhz: f64, compute: impl FnOnce() -> f64) -> f64 {
        let key = uncore_mhz.to_bits();
        let known = self.entries.iter().take(self.len).find(|e| e.0 == key);
        if let Some(&(_, core_mhz)) = known {
            return core_mhz;
        }
        let core_mhz = compute();
        if let Some(slot) = self.entries.get_mut(self.len) {
            *slot = (key, core_mhz);
            self.len += 1;
        }
        core_mhz
    }
}

/// Stateless equilibrium solver (the node simulator slews toward this
/// point at the 500 µs PCU cadence).
#[derive(Debug, Clone, Default)]
pub struct PcuController;

impl PcuController {
    /// The pre-power-limit core frequency ceiling in MHz.
    pub fn core_ceiling_mhz(inputs: &PcuInputs<'_>) -> u32 {
        let spec = inputs.spec;
        let active = inputs.active_cores.max(1);
        let mut ceiling = match inputs.setting {
            FreqSetting::Turbo => {
                if inputs.turbo_enabled {
                    spec.freq.turbo_mhz(active)
                } else {
                    spec.freq.base_mhz
                }
            }
            FreqSetting::Fixed(p) => {
                // EPB performance keeps turbo active even at the base
                // frequency setting (paper Section II-C).
                if inputs.epb == EpbClass::Performance
                    && p.mhz() == spec.freq.base_mhz
                    && inputs.turbo_enabled
                {
                    spec.freq.turbo_mhz(active)
                } else {
                    p.mhz()
                }
            }
        };
        if inputs.avx_level > 0 && spec.generation.has_avx_frequencies() {
            ceiling = ceiling.min(spec.freq.license_turbo_mhz(inputs.avx_level, active));
        }
        ceiling = ceiling.min(inputs.eet_limit_mhz);
        ceiling.max(spec.freq.min_mhz)
    }

    /// Package power at a candidate operating point. Hot: the bisections
    /// call this dozens of times per solve and the event engine's wake
    /// horizon once per full tick, so the cores are priced as two runs of
    /// identical cores (active, then idle ungated; gated cores add nothing)
    /// instead of a per-core array. The tests hold this bit-exact against
    /// [`package_power_w`] over the explicit core array.
    ///
    /// [`package_power_w`]: hsw_power::package_power_w
    fn power_at(inputs: &PcuInputs<'_>, core_mhz: f64, uncore_mhz: f64) -> f64 {
        let spec = inputs.spec;
        let active = inputs.active_cores.min(spec.cores);
        let idle = spec.cores.saturating_sub(inputs.active_cores);
        let gated = inputs.gated_idle_cores.min(idle);
        let busy = CoreElecState {
            mhz: core_mhz.round() as u32,
            activity: inputs.activity,
            license_level: inputs.avx_level,
            power_gated: false,
        };
        let halted = CoreElecState {
            mhz: spec.freq.min_mhz,
            activity: 0.0,
            license_level: 0,
            power_gated: false,
        };
        package_power_of_runs(
            spec,
            inputs.socket_power_mult,
            [
                (busy, active),
                (halted, spec.cores.saturating_sub(active + gated)),
            ],
            uncore_mhz.round() as u32,
        )
        .total_w()
    }

    /// UFS target keyed by the actual core frequency (mapped onto the
    /// Table III schedule bins). `epb` is passed explicitly because the
    /// EPB=performance uncore pin only survives while the package has power
    /// headroom (see [`PcuController::solve`]).
    fn ufs_target_for(inputs: &PcuInputs<'_>, core_mhz: f64, epb: EpbClass) -> f64 {
        let spec = inputs.spec;
        let setting = if core_mhz > spec.freq.base_mhz as f64 + 50.0 {
            FreqSetting::Turbo
        } else {
            let bin = ((core_mhz / 100.0).round() as u32 * 100)
                .clamp(spec.freq.min_mhz, spec.freq.base_mhz);
            FreqSetting::Fixed(PState::from_mhz(bin))
        };
        ufs::ufs_target_mhz(
            spec,
            &UfsInputs {
                fastest_setting: setting,
                socket_active: inputs.active_cores > 0,
                epb,
                stall_fraction: inputs.stall_fraction,
                package_sleep: false,
            },
        ) as f64
    }

    /// Largest core frequency ≤ `ceiling` whose power with the given uncore
    /// stays within budget.
    fn max_core_within(
        inputs: &PcuInputs<'_>,
        ceiling_mhz: f64,
        uncore_mhz: f64,
        budget_w: f64,
    ) -> f64 {
        let floor = inputs.spec.freq.min_mhz as f64;
        if Self::power_at(inputs, ceiling_mhz, uncore_mhz) <= budget_w {
            return ceiling_mhz;
        }
        let (mut lo, mut hi) = (floor, ceiling_mhz);
        for _ in 0..24 {
            let mid = 0.5 * (lo + hi);
            if Self::power_at(inputs, mid, uncore_mhz) <= budget_w {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Largest uncore frequency in [`lo`, `hi`] within budget.
    fn max_uncore_within(
        inputs: &PcuInputs<'_>,
        core_mhz: f64,
        lo_mhz: f64,
        hi_mhz: f64,
        budget_w: f64,
    ) -> f64 {
        if Self::power_at(inputs, core_mhz, hi_mhz) <= budget_w {
            return hi_mhz;
        }
        let (mut lo, mut hi) = (lo_mhz, hi_mhz);
        for _ in 0..24 {
            let mid = 0.5 * (lo + hi);
            if Self::power_at(inputs, core_mhz, mid) <= budget_w {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Whether [`PcuController::solve`] returns bit-identical grants for
    /// *any* value of `inputs.avg_pkg_w`: either the socket is passive (the
    /// idle branch never reads the average), or the most power-hungry point
    /// the solver can consider — the pre-limit ceiling with the uncore at
    /// its maximum — fits under the smallest budget the two-level limiter
    /// can hand out. Power is monotone in both frequencies, so every
    /// in-budget comparison inside the bisections then resolves the same
    /// way regardless of where the running average sits, and the solver
    /// walks an identical path. The event engine uses this to prove that
    /// skipping periodic re-solves over a steady workload cannot change the
    /// grant.
    pub fn avg_insensitive(inputs: &PcuInputs<'_>) -> bool {
        if inputs.active_cores == 0 {
            return true;
        }
        let spec = inputs.spec;
        // Smallest possible budget: pl_base clamped at 0.9·TDP, scaled by
        // the most frugal EPB factor.
        let min_budget = spec.tdp_w * 0.9 * epb_budget_factor(EpbClass::EnergySaving);
        let ceiling = Self::core_ceiling_mhz(inputs) as f64;
        Self::power_at(inputs, ceiling, spec.freq.uncore_max_mhz as f64) <= min_budget
    }

    /// Solve the steady-state operating point.
    pub fn solve(inputs: &PcuInputs<'_>) -> PcuGrant {
        let spec = inputs.spec;
        if inputs.active_cores == 0 {
            // Idle (passive) socket: its uncore follows the fastest active
            // core *in the system* through the passive schedule
            // (paper Table III, second row) — or is halted by package
            // c-states, which the node layer decides.
            let fu = ufs::ufs_target_mhz(
                spec,
                &UfsInputs {
                    fastest_setting: inputs.setting,
                    socket_active: false,
                    epb: inputs.epb,
                    stall_fraction: 0.0,
                    package_sleep: false,
                },
            ) as f64;
            return PcuGrant {
                core_mhz: spec.freq.min_mhz as f64,
                uncore_mhz: fu,
                power_w: Self::power_at(inputs, spec.freq.min_mhz as f64, fu),
                power_limited: false,
            };
        }

        let ceiling = Self::core_ceiling_mhz(inputs) as f64;
        // Two-level RAPL: the limiter holds the *running average* at PL1 by
        // granting instantaneous power of up to `2·PL1 − avg` (so bursts ride
        // at PL2 while the average is low, and steady state converges to
        // exactly PL1), capped by the short-term PL2 limit. EPB further
        // biases the budget ([`epb_budget_factor`]).
        let pl_base = (2.0 * spec.tdp_w - inputs.avg_pkg_w).clamp(
            spec.tdp_w * 0.9,
            spec.tdp_w * hsw_hwspec::calib::PL2_TDP_MULT,
        );
        let budget = pl_base * epb_budget_factor(inputs.epb);

        // Ceiling and budget are fixed from here on, so the core bisection
        // depends only on the uncore target, which takes a few whole-MHz
        // values per solve.
        let mut memo = CoreMemo::default();
        let mut max_core =
            |fu: f64| memo.get_or(fu, || Self::max_core_within(inputs, ceiling, fu, budget));

        // Self-consistent iteration: the UFS target follows the actual core
        // frequency, which follows the power left by the uncore. Damped to
        // suppress bin oscillation.
        let mut solve_with_epb = |ufs_epb: EpbClass| {
            let mut fc = ceiling;
            let mut fu = Self::ufs_target_for(inputs, fc, ufs_epb);
            for _ in 0..24 {
                let fc_new = max_core(fu);
                fc = 0.5 * (fc + fc_new);
                fu = Self::ufs_target_for(inputs, fc, ufs_epb);
            }
            (fc, fu)
        };
        let (mut fc, mut fu) = solve_with_epb(inputs.epb);
        let mut power_limited = fc < ceiling - 5.0;
        if power_limited && inputs.epb == EpbClass::Performance {
            // The EPB=performance uncore pin (Table III footnote) only
            // holds while there is power headroom; under TDP pressure the
            // PCU protects core frequency and falls back to stall-based
            // uncore scaling (otherwise a pinned 3.0 GHz uncore would starve
            // the cores — contradicting Table V's mprime 2500/perf row).
            let (fc2, fu2) = solve_with_epb(EpbClass::Balanced);
            fc = fc2;
            fu = fu2;
            power_limited = fc < ceiling - 5.0;
        }

        // Leftover budget flows to the uncore when the workload stalls on
        // memory (Table IV: settings 2.2/2.1 GHz; Table III busy-wait must
        // NOT boost).
        if !power_limited && ufs::stall_boost_allowed(spec, inputs.stall_fraction) {
            fc = ceiling;
            let fu_max = spec.freq.uncore_max_mhz as f64;
            let boosted = Self::max_uncore_within(inputs, fc, fu, fu_max, budget);
            if boosted > fu {
                fu = boosted;
                power_limited = fu < fu_max - 5.0;
            }
        } else if power_limited {
            fc = max_core(fu);
        }

        let fu = fu.clamp(
            spec.freq.uncore_min_mhz as f64,
            spec.freq.uncore_max_mhz as f64,
        );
        PcuGrant {
            core_mhz: fc,
            uncore_mhz: fu,
            power_w: Self::power_at(inputs, fc, fu),
            power_limited,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EetController;
    use hsw_exec::WorkloadProfile;
    use hsw_hwspec::calib;

    fn sku() -> SkuSpec {
        SkuSpec::xeon_e5_2680_v3()
    }

    /// FIRESTARTER with Hyper-Threading on all cores (Table IV setup).
    fn firestarter_inputs(spec: &SkuSpec, setting: FreqSetting) -> PcuInputs<'_> {
        let fs = WorkloadProfile::firestarter();
        PcuInputs {
            spec,
            socket_power_mult: 1.0,
            setting,
            epb: EpbClass::Balanced,
            turbo_enabled: true,
            active_cores: spec.cores,
            gated_idle_cores: 0,
            activity: fs.activity(true),
            avx_level: 1,
            stall_fraction: fs.stall_fraction,
            eet_limit_mhz: u32::MAX,
            avg_pkg_w: spec.tdp_w, // steady state: PL1 applies
        }
    }

    fn fs_gips(grant: &PcuGrant) -> f64 {
        let fs = WorkloadProfile::firestarter();
        let fc = grant.core_mhz / 1000.0;
        fc * fs.ipc(true, fc, grant.uncore_mhz / 1000.0)
    }

    #[test]
    fn table4_turbo_equilibrium() {
        // Paper Table IV, Turbo column: core ≈ 2.30/2.32 GHz,
        // uncore ≈ 2.33/2.35 GHz, GIPS ≈ 3.55/3.58, TDP limited.
        let spec = sku();
        let g = PcuController::solve(&firestarter_inputs(&spec, FreqSetting::Turbo));
        assert!(g.power_limited);
        assert!(
            (2.22..=2.38).contains(&(g.core_mhz / 1000.0)),
            "core = {:.3} GHz",
            g.core_mhz / 1000.0
        );
        assert!(
            (2.25..=2.50).contains(&(g.uncore_mhz / 1000.0)),
            "uncore = {:.3} GHz",
            g.uncore_mhz / 1000.0
        );
        assert!(
            (g.power_w - spec.tdp_w).abs() < 2.0,
            "power = {:.1}",
            g.power_w
        );
        let gips = fs_gips(&g);
        assert!((gips - 3.56).abs() < 0.08, "GIPS = {gips:.3}");
    }

    #[test]
    fn table4_2500_equals_turbo() {
        // Table IV: the 2.5 GHz and Turbo columns are nearly identical
        // (both TDP limited well below 2.5 GHz).
        let spec = sku();
        let turbo = PcuController::solve(&firestarter_inputs(&spec, FreqSetting::Turbo));
        let fixed = PcuController::solve(&firestarter_inputs(&spec, FreqSetting::from_mhz(2500)));
        assert!((turbo.core_mhz - fixed.core_mhz).abs() < 60.0);
        assert!((turbo.uncore_mhz - fixed.uncore_mhz).abs() < 80.0);
    }

    #[test]
    fn table4_2200_headroom_goes_to_uncore() {
        // Table IV: at the 2.2 GHz setting the core runs at its setting and
        // the uncore rises to ≈2.8 GHz.
        let spec = sku();
        let g = PcuController::solve(&firestarter_inputs(&spec, FreqSetting::from_mhz(2200)));
        assert!(
            (g.core_mhz / 1000.0 - 2.2).abs() < 0.05,
            "core = {:.3}",
            g.core_mhz / 1000.0
        );
        assert!(
            (2.6..=2.95).contains(&(g.uncore_mhz / 1000.0)),
            "uncore = {:.3}",
            g.uncore_mhz / 1000.0
        );
    }

    #[test]
    fn table4_2100_no_throttling_uncore_at_max() {
        // Paper Section V-B: "For 2.1 GHz and slower, both processors use
        // less than 120 W ... and the uncore frequency is at 3.0 GHz".
        let spec = sku();
        let g = PcuController::solve(&firestarter_inputs(&spec, FreqSetting::from_mhz(2100)));
        assert!((g.core_mhz / 1000.0 - 2.1).abs() < 0.02);
        assert!((g.uncore_mhz / 1000.0 - 3.0).abs() < 0.02);
        assert!(
            g.power_w < calib::powercal::FS_NO_THROTTLE_BELOW_W,
            "power = {:.1}",
            g.power_w
        );
    }

    #[test]
    fn table4_gips_peaks_at_reduced_setting() {
        // The headline inversion: lowering the setting from Turbo to
        // 2.2–2.3 GHz *increases* instructions per second (paper: "A
        // performance gain of 1 % can be seen").
        let spec = sku();
        let gips = |mhz: u32| {
            fs_gips(&PcuController::solve(&firestarter_inputs(
                &spec,
                FreqSetting::from_mhz(mhz),
            )))
        };
        let turbo = fs_gips(&PcuController::solve(&firestarter_inputs(
            &spec,
            FreqSetting::Turbo,
        )));
        let best_reduced = gips(2300).max(gips(2200));
        assert!(
            best_reduced > turbo,
            "reduced-setting GIPS {best_reduced:.3} must beat turbo {turbo:.3}"
        );
        // And 2.1 GHz is slower than the peak (AVX base, uncore maxed, but
        // the core clock deficit dominates).
        assert!(gips(2100) < best_reduced);
    }

    #[test]
    fn socket0_clocks_lower_than_socket1() {
        // Paper Section III/V-B: processor 0 is less efficient, so its
        // TDP-limited frequencies and IPS are lower.
        let spec = sku();
        let mut i0 = firestarter_inputs(&spec, FreqSetting::Turbo);
        i0.socket_power_mult = calib::SOCKET_POWER_EFFICIENCY[0];
        let mut i1 = firestarter_inputs(&spec, FreqSetting::Turbo);
        i1.socket_power_mult = calib::SOCKET_POWER_EFFICIENCY[1];
        let g0 = PcuController::solve(&i0);
        let g1 = PcuController::solve(&i1);
        assert!(g0.core_mhz < g1.core_mhz);
        assert!(fs_gips(&g0) < fs_gips(&g1));
    }

    #[test]
    fn busy_wait_single_core_follows_table3_without_boost() {
        // Table III scenario: one spinning core, no stalls → uncore must sit
        // at the schedule value (2.2 GHz at the 2.5 GHz setting), NOT absorb
        // the abundant power headroom.
        let spec = sku();
        let bw = WorkloadProfile::busy_wait();
        let inputs = PcuInputs {
            spec: &spec,
            socket_power_mult: 1.0,
            setting: FreqSetting::from_mhz(2500),
            epb: EpbClass::Balanced,
            turbo_enabled: true,
            active_cores: 1,
            gated_idle_cores: 11,
            activity: bw.activity(false),
            avx_level: 0,
            stall_fraction: bw.stall_fraction,
            eet_limit_mhz: u32::MAX,
            avg_pkg_w: 30.0,
        };
        let g = PcuController::solve(&inputs);
        assert!(!g.power_limited);
        assert!((g.core_mhz - 2500.0).abs() < 1.0);
        assert!(
            (g.uncore_mhz - 2200.0).abs() < 60.0,
            "uncore = {:.0} MHz must follow the Table III schedule",
            g.uncore_mhz
        );
    }

    #[test]
    fn avx_license_caps_turbo_at_avx_bins() {
        let spec = sku();
        let mut inputs = firestarter_inputs(&spec, FreqSetting::Turbo);
        inputs.activity = 0.2; // light load: no TDP pressure
        inputs.stall_fraction = 0.0;
        let ceiling = PcuController::core_ceiling_mhz(&inputs);
        assert_eq!(ceiling, spec.freq.avx_turbo_mhz(12));
        inputs.avx_level = 0;
        let ceiling = PcuController::core_ceiling_mhz(&inputs);
        assert_eq!(ceiling, spec.freq.turbo_mhz(12));
    }

    #[test]
    fn epb_performance_turns_base_setting_into_turbo() {
        // Paper Section II-C: "When setting EPB to performance, turbo mode
        // will be active even when the base frequency is selected."
        let spec = sku();
        let mut inputs = firestarter_inputs(&spec, FreqSetting::from_mhz(2500));
        inputs.epb = EpbClass::Performance;
        inputs.avx_level = 0;
        assert_eq!(
            PcuController::core_ceiling_mhz(&inputs),
            spec.freq.turbo_mhz(12)
        );
        // But not for non-base fixed settings.
        inputs.setting = FreqSetting::from_mhz(2400);
        assert_eq!(PcuController::core_ceiling_mhz(&inputs), 2400);
    }

    #[test]
    fn turbo_disable_caps_at_nominal() {
        let spec = sku();
        let mut inputs = firestarter_inputs(&spec, FreqSetting::Turbo);
        inputs.turbo_enabled = false;
        inputs.avx_level = 0;
        assert_eq!(PcuController::core_ceiling_mhz(&inputs), spec.freq.base_mhz);
    }

    #[test]
    fn idle_socket_grant_is_minimal() {
        let spec = sku();
        let idle = WorkloadProfile::idle();
        let inputs = PcuInputs {
            spec: &spec,
            socket_power_mult: 1.0,
            setting: FreqSetting::from_mhz(2500),
            epb: EpbClass::Balanced,
            turbo_enabled: true,
            active_cores: 0,
            gated_idle_cores: 12,
            activity: idle.activity(false),
            avx_level: 0,
            stall_fraction: 0.0,
            eet_limit_mhz: u32::MAX,
            avg_pkg_w: 12.0,
        };
        let g = PcuController::solve(&inputs);
        assert!(!g.power_limited);
        // The passive socket's uncore follows the Table III passive
        // schedule for the system's 2.5 GHz setting (2.1 GHz), so the
        // package draws uncore power but nothing core-side.
        assert!(
            (g.uncore_mhz - 2100.0).abs() < 1.0,
            "uncore {:.0}",
            g.uncore_mhz
        );
        assert!(g.power_w < 26.0, "idle pkg = {:.1} W", g.power_w);
    }

    /// The scalar `power_at` (two runs of identical cores) against
    /// [`package_power_w`] over the explicit per-core array (active, then
    /// gated, then idle halted cores) on both platforms, across every core
    /// split, AVX level, activity and socket multiplier, at frequencies
    /// below the V/f knee, on it, inside the curve and above its maximum.
    #[test]
    fn scalar_power_is_bit_exact_vs_the_electrical_array() {
        use hsw_power::package_power_w;
        for spec in [SkuSpec::xeon_e5_2680_v3(), SkuSpec::xeon_platinum_8170()] {
            let probes = |vf: &hsw_hwspec::vf::VfCurveSpec| {
                let (knee, max) = (vf.knee_mhz as f64, vf.max_mhz as f64);
                [
                    knee - 347.6,
                    knee,
                    knee + 0.4,
                    2147.3,
                    max - 0.5,
                    max + 211.7,
                ]
            };
            let core_mhz = probes(&spec.core_vf);
            let uncore_mhz = probes(&spec.uncore_vf);
            let halted = CoreElecState {
                mhz: spec.freq.min_mhz,
                activity: 0.0,
                license_level: 0,
                power_gated: false,
            };
            for active in 0..=spec.cores {
                for gated in 0..=spec.cores - active {
                    for avx_level in 0..=2 {
                        for activity in [0.0, 0.618_034] {
                            for mult in [1.0, 1.012, 0.93] {
                                let inputs = PcuInputs {
                                    spec: &spec,
                                    socket_power_mult: mult,
                                    setting: FreqSetting::Turbo,
                                    epb: EpbClass::Balanced,
                                    turbo_enabled: true,
                                    active_cores: active,
                                    gated_idle_cores: gated,
                                    activity,
                                    avx_level,
                                    stall_fraction: 0.0,
                                    eet_limit_mhz: u32::MAX,
                                    avg_pkg_w: spec.tdp_w,
                                };
                                for fc in core_mhz {
                                    let busy = CoreElecState {
                                        mhz: fc.round() as u32,
                                        activity,
                                        license_level: avx_level,
                                        power_gated: false,
                                    };
                                    let mut cores = vec![busy; active];
                                    cores.resize(active + gated, CoreElecState::gated());
                                    cores.resize(spec.cores, halted);
                                    for fu in uncore_mhz {
                                        let grouped = PcuController::power_at(&inputs, fc, fu);
                                        let array =
                                            package_power_w(&spec, mult, &cores, fu.round() as u32)
                                                .total_w();
                                        assert_eq!(
                                            grouped.to_bits(),
                                            array.to_bits(),
                                            "{} active={active} gated={gated} avx={avx_level} \
                                             activity={activity} mult={mult} fc={fc} fu={fu}: \
                                             {grouped} vs {array}",
                                            spec.model
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// FNV-1a over the little-endian bytes of one 64-bit word.
    fn fnv1a(h: u64, word: u64) -> u64 {
        word.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Every grant over both platforms' operating envelopes: uncapped and at
    /// 0.6×TDP, every EPB, four workload profiles, four settings, three
    /// widths with the idle cores gated or halted, the limiter average at
    /// PL1 (steady state), above it and below it (the burst budget), plus
    /// the idle socket.
    fn envelope_digest() -> (u64, usize) {
        let mut h = 0xcbf2_9ce4_8422_2325;
        let mut n = 0;
        let mut fold = |g: PcuGrant| {
            for w in [
                g.core_mhz.to_bits(),
                g.uncore_mhz.to_bits(),
                g.power_w.to_bits(),
                u64::from(g.power_limited),
            ] {
                h = fnv1a(h, w);
            }
            n += 1;
        };
        let profiles = [
            WorkloadProfile::firestarter(),
            WorkloadProfile::compute(),
            WorkloadProfile::memory_bound(),
            WorkloadProfile::busy_wait(),
        ];
        for nominal in [SkuSpec::xeon_e5_2680_v3(), SkuSpec::xeon_platinum_8170()] {
            for cap in [None, Some(nominal.tdp_w * 0.6)] {
                let mut spec = nominal.clone();
                if let Some(c) = cap {
                    spec.tdp_w = c;
                }
                let spec = &spec;
                for profile in &profiles {
                    let duty = profile.duty.mean_factor();
                    let stall = profile.stall_fraction;
                    for setting in [
                        FreqSetting::Turbo,
                        FreqSetting::from_mhz(spec.freq.base_mhz),
                        FreqSetting::from_mhz(spec.freq.base_mhz - 400),
                        FreqSetting::from_mhz(spec.freq.min_mhz),
                    ] {
                        for active in [1, spec.cores / 2, spec.cores] {
                            for gated in [spec.cores - active, 0] {
                                for epb in [
                                    EpbClass::Performance,
                                    EpbClass::Balanced,
                                    EpbClass::EnergySaving,
                                ] {
                                    let mut eet = EetController::new(true);
                                    eet.tick(0, stall * duty.min(1.0));
                                    let eet_limit_mhz =
                                        eet.limit_mhz(spec, epb, spec.freq.turbo_mhz(active));
                                    for avg in [1.1, 1.0, 0.97, 0.9, 0.5] {
                                        let inputs = PcuInputs {
                                            spec,
                                            socket_power_mult: 1.012,
                                            setting,
                                            epb,
                                            turbo_enabled: true,
                                            active_cores: active,
                                            gated_idle_cores: gated,
                                            activity: profile.activity(true) * duty,
                                            avx_level: u8::from(profile.avx_heavy),
                                            stall_fraction: stall,
                                            eet_limit_mhz,
                                            avg_pkg_w: spec.tdp_w * avg,
                                        };
                                        fold(PcuController::solve(&inputs));
                                    }
                                }
                            }
                        }
                    }
                }
            }
            let idle = PcuInputs {
                spec: &nominal,
                socket_power_mult: 1.0,
                setting: FreqSetting::Turbo,
                epb: EpbClass::Balanced,
                turbo_enabled: true,
                active_cores: 0,
                gated_idle_cores: nominal.cores,
                activity: 0.0,
                avx_level: 0,
                stall_fraction: 0.0,
                eet_limit_mhz: u32::MAX,
                avg_pkg_w: 12.0,
            };
            fold(PcuController::solve(&idle));
        }
        (h, n)
    }

    #[test]
    fn grants_match_the_pinned_envelope_digest() {
        // Pinned from the solver that priced every candidate over a per-core
        // array and re-ran every bisection: the run-grouped sum and the
        // per-solve memo must not move a single bit of any grant.
        assert_eq!(envelope_digest(), (0x205e_8906_c6b9_0ba2, 5762));
    }
}
