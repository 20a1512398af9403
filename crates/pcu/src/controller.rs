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
//!
//! Both budget bisections halve their range 24 times, but a verdict
//! `power <= budget` only reads the candidate's whole MHz, and package
//! power never decreases as a whole-MHz frequency rises. So each bisection
//! first finds the one whole MHz where power crosses the budget, pricing a
//! handful of frequencies instead of 24 midpoints, then replays the 24
//! halvings against it for the same bits (`first_over_budget`).

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

/// A solve-local answer table on the stack, so the solve stays
/// allocation-free; once full it computes answers without storing them.
/// `solve` keeps two: [`PcuController::max_core_within`] by the uncore
/// target's bits (both fixed-point passes and the final re-bisection keep
/// asking about the same few UFS bins), and each pass's UFS targets by the
/// schedule bin the core frequency maps onto (the damped iteration settles
/// onto one or two bins).
struct Memo<K, const N: usize> {
    entries: [Option<(K, f64)>; N],
}

impl<K: Copy + PartialEq, const N: usize> Memo<K, N> {
    fn new() -> Self {
        Memo { entries: [None; N] }
    }

    fn get_or(&mut self, key: K, compute: impl FnOnce() -> f64) -> f64 {
        for slot in &mut self.entries {
            match *slot {
                Some((k, answer)) if k == key => return answer,
                Some(_) => {}
                None => {
                    let answer = compute();
                    *slot = Some((key, answer));
                    return answer;
                }
            }
        }
        compute()
    }
}

/// The halvings of one budget bisection.
const HALVINGS: u32 = 24;

/// The whole MHz at which [`PcuController::power_at`] prices a candidate
/// frequency.
fn whole_mhz(mhz: f64) -> u32 {
    mhz.round() as u32
}

/// The first whole MHz in `lo..=hi` whose power exceeds `budget_w`, given
/// that `hi`'s power `p_hi` does.
///
/// `power` must never decrease as its whole-MHz argument rises. Package
/// power doesn't: it adds and multiplies non-negative coefficients, the
/// activity, voltages that rise with frequency and the frequency itself,
/// and correctly rounded IEEE additions and multiplications of non-negative
/// operands are monotone in each operand (a controller test sweeps every
/// whole MHz to check). So the answer fixes the verdict `power <= budget_w`
/// of every frequency in the range: it fits exactly when its whole MHz lies
/// below the answer.
///
/// The search is a secant on the integers: it probes where the line
/// through the last two priced frequencies meets the budget, and keeps the
/// last fitting and the first exceeding whole MHz as a bracket. The line
/// runs through log power, which bends less than power over a V/f curve
/// (13.5 instead of 17 prices per limited solve over the controller tests'
/// envelope). A secant guess outside the bracket halves it instead, and so
/// does every step once the probes left could only just close the bracket
/// by halving. So for any range narrower than 2²³ MHz this prices at most
/// [`HALVINGS`] frequencies, `power(lo)` included: never more than the
/// literal bisection's midpoints.
fn first_over_budget(
    lo: u32,
    hi: u32,
    p_hi: f64,
    budget_w: f64,
    power: impl Fn(u32) -> f64,
) -> u32 {
    if hi <= lo {
        return hi;
    }
    let p_lo = power(lo);
    let lo_fits = p_lo <= budget_w;
    if !lo_fits {
        return lo;
    }
    let (mut fit, mut over) = (lo, hi);
    let target = budget_w.ln();
    let (mut prev, mut last) = ((f64::from(hi), p_hi.ln()), (f64::from(lo), p_lo.ln()));
    let mut probes_left = HALVINGS - 1;
    while over - fit > 1 {
        let width = over - fit;
        // Halvings that close a bracket of this width: ceil(log2(width)).
        let halvings = u32::BITS - (width - 1).leading_zeros();
        let guess = last.0 + (target - last.1) * (last.0 - prev.0) / (last.1 - prev.1);
        // A NaN or infinite guess (a flat secant, or power or budget not
        // positive) is outside.
        let inside = guess > f64::from(fit) && guess < f64::from(over);
        let probe = if inside && halvings < probes_left {
            (guess as u32).max(fit + 1)
        } else {
            fit + width / 2
        };
        probes_left = probes_left.saturating_sub(1);
        let p = power(probe);
        if p <= budget_w {
            fit = probe;
        } else {
            over = probe;
        }
        (prev, last) = (last, (f64::from(probe), p.ln()));
    }
    over
}

/// The last fitting midpoint of [`HALVINGS`] halvings of `[lo, hi]`, where
/// a midpoint fits exactly when its whole MHz lies below `first_over`:
/// the same `lo` bits the bisection that prices every midpoint returns.
/// `round` takes halves away from zero, so for the finite, non-negative
/// frequencies every caller passes that test is `mid < first_over − 0.5`,
/// which keeps the rounding off the halvings' dependency chain.
fn replay_halvings(mut lo: f64, mut hi: f64, first_over: u32) -> f64 {
    let fits_below = f64::from(first_over) - 0.5;
    for _ in 0..HALVINGS {
        let mid = 0.5 * (lo + hi);
        if mid < fits_below {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
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

    /// Package power at a candidate operating point, read at whole MHz
    /// ([`whole_mhz`]). Hot: a limited solve calls this about 15 times and
    /// the event engine's wake horizon once per full tick, so the cores are
    /// priced as two runs of identical cores (active, then idle ungated;
    /// gated cores add nothing) instead of a per-core array. The tests hold
    /// this bit-exact against [`package_power_w`] over the explicit core
    /// array.
    ///
    /// [`package_power_w`]: hsw_power::package_power_w
    fn power_at(inputs: &PcuInputs<'_>, core_mhz: f64, uncore_mhz: f64) -> f64 {
        #[cfg(test)]
        tests::POWER_AT_CALLS.with(|n| n.set(n.get() + 1));
        let spec = inputs.spec;
        let active = inputs.active_cores.min(spec.cores);
        let idle = spec.cores.saturating_sub(inputs.active_cores);
        let gated = inputs.gated_idle_cores.min(idle);
        let busy = CoreElecState {
            mhz: whole_mhz(core_mhz),
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
            whole_mhz(uncore_mhz),
        )
        .total_w()
    }

    /// The Table III schedule bin the actual core frequency maps onto: the
    /// UFS target depends on the core frequency only through it.
    fn ufs_bin(inputs: &PcuInputs<'_>, core_mhz: f64) -> FreqSetting {
        let spec = inputs.spec;
        if core_mhz > spec.freq.base_mhz as f64 + 50.0 {
            FreqSetting::Turbo
        } else {
            let bin = ((core_mhz / 100.0).round() as u32 * 100)
                .clamp(spec.freq.min_mhz, spec.freq.base_mhz);
            FreqSetting::Fixed(PState::from_mhz(bin))
        }
    }

    /// UFS target for a schedule bin (see [`PcuController::ufs_bin`]).
    /// `epb` is passed explicitly because the EPB=performance uncore pin
    /// only survives while the package has power headroom (see
    /// [`PcuController::solve`]).
    fn ufs_target_at(inputs: &PcuInputs<'_>, bin: FreqSetting, epb: EpbClass) -> f64 {
        ufs::ufs_target_mhz(
            inputs.spec,
            &UfsInputs {
                fastest_setting: bin,
                socket_active: inputs.active_cores > 0,
                epb,
                stall_fraction: inputs.stall_fraction,
                package_sleep: false,
            },
        ) as f64
    }

    /// Largest core frequency ≤ `ceiling` whose power with the given uncore
    /// stays within budget: the last fitting midpoint of 24 halvings of
    /// `[floor, ceiling]`, replayed against the whole-MHz threshold (see
    /// [`first_over_budget`]).
    fn max_core_within(
        inputs: &PcuInputs<'_>,
        ceiling_mhz: f64,
        uncore_mhz: f64,
        budget_w: f64,
    ) -> f64 {
        let p_ceiling = Self::power_at(inputs, ceiling_mhz, uncore_mhz);
        if p_ceiling <= budget_w {
            return ceiling_mhz;
        }
        let floor = inputs.spec.freq.min_mhz as f64;
        let over = first_over_budget(
            whole_mhz(floor),
            whole_mhz(ceiling_mhz),
            p_ceiling,
            budget_w,
            |mhz| Self::power_at(inputs, f64::from(mhz), uncore_mhz),
        );
        replay_halvings(floor, ceiling_mhz, over)
    }

    /// Largest uncore frequency in [`lo`, `hi`] within budget, by the same
    /// threshold replay as [`PcuController::max_core_within`].
    fn max_uncore_within(
        inputs: &PcuInputs<'_>,
        core_mhz: f64,
        lo_mhz: f64,
        hi_mhz: f64,
        budget_w: f64,
    ) -> f64 {
        let p_hi = Self::power_at(inputs, core_mhz, hi_mhz);
        if p_hi <= budget_w {
            return hi_mhz;
        }
        let over = first_over_budget(
            whole_mhz(lo_mhz),
            whole_mhz(hi_mhz),
            p_hi,
            budget_w,
            |mhz| Self::power_at(inputs, core_mhz, f64::from(mhz)),
        );
        replay_halvings(lo_mhz, hi_mhz, over)
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
        let mut core_memo = Memo::<u64, 8>::new();
        let mut max_core = |fu: f64| {
            core_memo.get_or(fu.to_bits(), || {
                Self::max_core_within(inputs, ceiling, fu, budget)
            })
        };

        // Self-consistent iteration: the UFS target follows the actual core
        // frequency, which follows the power left by the uncore. Damped to
        // suppress bin oscillation.
        let mut solve_with_epb = |ufs_epb: EpbClass| {
            let mut ufs_memo = Memo::<FreqSetting, 4>::new();
            let mut ufs_target =
                |bin| ufs_memo.get_or(bin, || Self::ufs_target_at(inputs, bin, ufs_epb));
            let mut fc = ceiling;
            let mut bin = Self::ufs_bin(inputs, fc);
            let mut fu = ufs_target(bin);
            for step in 0..24 {
                let fc_new = max_core(fu);
                if Self::ufs_bin(inputs, fc_new) == bin {
                    // The bin never falls as the core frequency rises, so
                    // every later iterate, between `fc` and `fc_new`, stays
                    // in it: the UFS target and the core answer stay put.
                    for _ in step..24 {
                        fc = 0.5 * (fc + fc_new);
                    }
                    return (fc, fu);
                }
                fc = 0.5 * (fc + fc_new);
                bin = Self::ufs_bin(inputs, fc);
                fu = ufs_target(bin);
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
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// [`PcuController::power_at`] calls on this thread.
        pub(super) static POWER_AT_CALLS: Cell<u64> = const { Cell::new(0) };
    }

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

    /// Visit every input of both platforms' operating envelopes: uncapped
    /// and at 0.6×TDP, every EPB, four workload profiles, four settings,
    /// three widths with the idle cores gated or halted, the limiter average
    /// at PL1 (steady state), above it and below it (the burst budget), plus
    /// the idle socket.
    fn for_each_envelope_input(mut visit: impl FnMut(&PcuInputs<'_>)) {
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
                                        visit(&PcuInputs {
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
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
            visit(&PcuInputs {
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
            });
        }
    }

    /// Every grant over both platforms' operating envelopes.
    fn envelope_digest() -> (u64, usize) {
        let mut h = 0xcbf2_9ce4_8422_2325;
        let mut n = 0;
        for_each_envelope_input(|inputs| {
            let g = PcuController::solve(inputs);
            for w in [
                g.core_mhz.to_bits(),
                g.uncore_mhz.to_bits(),
                g.power_w.to_bits(),
                u64::from(g.power_limited),
            ] {
                h = fnv1a(h, w);
            }
            n += 1;
        });
        (h, n)
    }

    #[test]
    fn grants_match_the_pinned_envelope_digest() {
        // Pinned from the solver that priced every candidate over a per-core
        // array and re-ran every bisection: the run-grouped sum and the
        // per-solve memo must not move a single bit of any grant.
        assert_eq!(envelope_digest(), (0x205e_8906_c6b9_0ba2, 5762));
    }

    /// The bisection the threshold replay stands in for: price all 24
    /// midpoints of `[floor, ceiling]`.
    fn oracle_core_within(
        inputs: &PcuInputs<'_>,
        ceiling_mhz: f64,
        uncore_mhz: f64,
        budget_w: f64,
    ) -> f64 {
        if PcuController::power_at(inputs, ceiling_mhz, uncore_mhz) <= budget_w {
            return ceiling_mhz;
        }
        let (mut lo, mut hi) = (inputs.spec.freq.min_mhz as f64, ceiling_mhz);
        for _ in 0..24 {
            let mid = 0.5 * (lo + hi);
            if PcuController::power_at(inputs, mid, uncore_mhz) <= budget_w {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The uncore twin of [`oracle_core_within`] over `[lo, hi]`.
    fn oracle_uncore_within(
        inputs: &PcuInputs<'_>,
        core_mhz: f64,
        lo_mhz: f64,
        hi_mhz: f64,
        budget_w: f64,
    ) -> f64 {
        if PcuController::power_at(inputs, core_mhz, hi_mhz) <= budget_w {
            return hi_mhz;
        }
        let (mut lo, mut hi) = (lo_mhz, hi_mhz);
        for _ in 0..24 {
            let mid = 0.5 * (lo + hi);
            if PcuController::power_at(inputs, core_mhz, mid) <= budget_w {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// One fleet chip's socket spec, the way `ChipVariation::apply` makes
    /// it, with its TDP scaled to `cap` (the fleet harness's power cap).
    fn varied_spec(skylake: bool, leak: f64, vcorner_v: f64, trim: f64, cap: f64) -> SkuSpec {
        let nominal = if skylake {
            hsw_hwspec::NodeSpec::skylake_sp_node()
        } else {
            hsw_hwspec::NodeSpec::paper_test_node()
        };
        let chip = hsw_fleet::ChipVariation {
            // Log-uniform in [1/1.5, 1.5], like `ChipVariation::sample`.
            leak_scale: (leak * 1.5f64.ln()).exp(),
            vcorner_v,
            turbo_offset_mhz: 0,
            rapl_gain: trim,
        };
        let mut spec = chip.apply(&nominal).sku;
        spec.tdp_w *= cap;
        spec
    }

    /// A budget below every frequency of `[p_lo, p_hi]` (`pick` < 0), above
    /// every one (`pick` > 1), between them, or — for `exact` — equal to a
    /// power the search will price, so `<=` is decided by equality.
    fn pick_budget(pick: f64, exact: Option<f64>, p_lo: f64, p_hi: f64) -> f64 {
        exact.unwrap_or(p_lo + pick * (p_hi - p_lo))
    }

    /// A socket's inputs for one draw: every active/gated split, activity
    /// 0 or in (0, 1], AVX levels 0–2 and a per-part multiplier.
    fn drawn_inputs(
        spec: &SkuSpec,
        split: (usize, usize),
        activity: f64,
        avx_level: u8,
        mult: f64,
    ) -> PcuInputs<'_> {
        let active = split.0 % (spec.cores + 1);
        PcuInputs {
            spec,
            socket_power_mult: mult,
            setting: FreqSetting::Turbo,
            epb: EpbClass::Balanced,
            turbo_enabled: true,
            active_cores: active,
            gated_idle_cores: split.1 % (spec.cores - active + 1),
            activity: if activity < 0.1 { 0.0 } else { activity },
            avx_level,
            stall_fraction: 0.0,
            eet_limit_mhz: u32::MAX,
            avg_pkg_w: spec.tdp_w,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// The threshold replay returns the literal bisection's bits for the
        /// core, over both platforms, fleet variation, caps from 0.3× to
        /// 1.0×TDP and budgets where no, some or every frequency fits.
        #[test]
        fn prop_max_core_within_equals_the_literal_bisection(
            (skylake, leak, vcorner_v, trim) in
                (any::<bool>(), -1.0f64..=1.0, -0.05f64..=0.05, 0.98f64..=1.02),
            (cap, split, activity, avx_level) in
                (0.3f64..=1.0, (0usize..64, 0usize..64), 0.0f64..=1.0, 0u8..=2),
            (mult, ceiling_at, whole, uncore_at) in
                (0.95f64..=1.05, 0.0f64..=1.0, any::<bool>(), 0.0f64..=1.0),
            (pick, exact_at, exact) in (-0.3f64..=1.3, 0.0f64..=1.0, any::<u8>()),
        ) {
            let spec = varied_spec(skylake, leak, vcorner_v, trim, cap);
            let inputs = drawn_inputs(&spec, split, activity, avx_level, mult);
            let floor = spec.freq.min_mhz as f64;
            let top = spec.freq.turbo_mhz(1) as f64 + 100.0;
            let mut ceiling = floor + ceiling_at * (top - floor);
            if whole {
                ceiling = ceiling.round();
            }
            let (u_lo, u_hi) = (spec.freq.uncore_min_mhz as f64, spec.freq.uncore_max_mhz as f64);
            let uncore = u_lo + uncore_at * (u_hi - u_lo);
            let p = |mhz: f64| PcuController::power_at(&inputs, mhz, uncore);
            // One draw in four sets the budget to a priced power exactly.
            let exact = (exact % 4 == 0).then(|| p((floor + exact_at * (ceiling - floor)).round()));
            let budget = pick_budget(pick, exact, p(floor), p(ceiling));
            let fast = PcuController::max_core_within(&inputs, ceiling, uncore, budget);
            let oracle = oracle_core_within(&inputs, ceiling, uncore, budget);
            prop_assert_eq!(fast.to_bits(), oracle.to_bits(), "{fast} vs {oracle}, budget {budget}");
        }

        /// The same for the uncore, over ranges in either order with whole
        /// or fractional endpoints.
        #[test]
        fn prop_max_uncore_within_equals_the_literal_bisection(
            (skylake, leak, vcorner_v, trim) in
                (any::<bool>(), -1.0f64..=1.0, -0.05f64..=0.05, 0.98f64..=1.02),
            (cap, split, activity, avx_level) in
                (0.3f64..=1.0, (0usize..64, 0usize..64), 0.0f64..=1.0, 0u8..=2),
            (mult, core_at, whole, (lo_at, hi_at)) in
                (0.95f64..=1.05, 0.0f64..=1.0, any::<bool>(), (0.0f64..=1.0, 0.0f64..=1.0)),
            (pick, exact_at, exact) in (-0.3f64..=1.3, 0.0f64..=1.0, any::<u8>()),
        ) {
            let spec = varied_spec(skylake, leak, vcorner_v, trim, cap);
            let inputs = drawn_inputs(&spec, split, activity, avx_level, mult);
            let floor = spec.freq.min_mhz as f64;
            let core = floor + core_at * (spec.freq.turbo_mhz(1) as f64 - floor);
            let (u_lo, u_hi) = (spec.freq.uncore_min_mhz as f64, spec.freq.uncore_max_mhz as f64);
            let (mut lo, mut hi) = (u_lo + lo_at * (u_hi - u_lo), u_lo + hi_at * (u_hi - u_lo));
            if whole {
                (lo, hi) = (lo.round(), hi.round());
            }
            let p = |mhz: f64| PcuController::power_at(&inputs, core, mhz);
            let exact = (exact % 4 == 0).then(|| p((lo + exact_at * (hi - lo)).round()));
            let budget = pick_budget(pick, exact, p(lo), p(hi));
            let fast = PcuController::max_uncore_within(&inputs, core, lo, hi, budget);
            let oracle = oracle_uncore_within(&inputs, core, lo, hi, budget);
            prop_assert_eq!(fast.to_bits(), oracle.to_bits(), "{fast} vs {oracle}, budget {budget}");
        }

        /// The replay's precondition: over every whole MHz of the core and
        /// uncore ranges, package power never decreases, for the same specs.
        #[test]
        fn prop_power_never_decreases_over_whole_mhz(
            (skylake, leak, vcorner_v, trim) in
                (any::<bool>(), -1.0f64..=1.0, -0.05f64..=0.05, 0.98f64..=1.02),
            (cap, split, activity, avx_level) in
                (0.3f64..=1.0, (0usize..64, 0usize..64), 0.0f64..=1.0, 0u8..=2),
            (mult, other_at) in (0.95f64..=1.05, 0.0f64..=1.0),
        ) {
            let spec = varied_spec(skylake, leak, vcorner_v, trim, cap);
            let inputs = drawn_inputs(&spec, split, activity, avx_level, mult);
            let (f_lo, f_hi) = (spec.freq.min_mhz, spec.core_vf.max_mhz + 200);
            let (u_lo, u_hi) = (spec.freq.uncore_min_mhz, spec.uncore_vf.max_mhz + 200);
            let core = f64::from(f_lo) + other_at * f64::from(f_hi - f_lo);
            let uncore = f64::from(u_lo) + other_at * f64::from(u_hi - u_lo);
            let mut prev = PcuController::power_at(&inputs, f64::from(f_lo), uncore);
            for mhz in f_lo + 1..=f_hi {
                let p = PcuController::power_at(&inputs, f64::from(mhz), uncore);
                prop_assert!(p >= prev, "core {mhz} MHz: {p} < {prev}");
                prev = p;
            }
            let mut prev = PcuController::power_at(&inputs, core, f64::from(u_lo));
            for mhz in u_lo + 1..=u_hi {
                let p = PcuController::power_at(&inputs, core, f64::from(mhz));
                prop_assert!(p >= prev, "uncore {mhz} MHz: {p} < {prev}");
                prev = p;
            }
        }
    }

    /// The threshold search on shapes the package power never takes —
    /// concave, flat then a step, linear across a 2²³ − 1 MHz range — is
    /// still exact, and never prices more than [`HALVINGS`] frequencies.
    #[test]
    fn threshold_search_is_exact_and_bounded_on_any_monotone_power() {
        // Linear, convex, concave, and flat then a step.
        let shapes: [fn(f64) -> f64; 4] = [
            |m| m,
            |m| m * m * m,
            f64::sqrt,
            |m| if m < 3_000.0 { 1.0 } else { 9.0 },
        ];
        for (shape_no, shape) in shapes.into_iter().enumerate() {
            for (lo, hi) in [
                (1_200, 3_700),
                (0, 1),
                (0, 2),
                (5, 4_000),
                (0, (1 << 23) - 1),
            ] {
                for share in [-0.1, 0.0, 0.001, 0.37, 0.5, 0.999, 1.0] {
                    let power = |m: u32| shape(f64::from(m));
                    let (p_lo, p_hi) = (power(lo), power(hi));
                    let budget = p_lo + share * (p_hi - p_lo);
                    if p_hi <= budget {
                        continue;
                    }
                    // The first whole MHz over budget, by integer bisection.
                    let (mut fit, mut over) = (lo, hi);
                    if power(lo) > budget {
                        over = lo;
                    }
                    while over > fit + 1 {
                        let mid = fit + (over - fit) / 2;
                        if power(mid) <= budget {
                            fit = mid;
                        } else {
                            over = mid;
                        }
                    }
                    let priced = Cell::new(0);
                    let found = first_over_budget(lo, hi, p_hi, budget, |m| {
                        priced.set(priced.get() + 1);
                        power(m)
                    });
                    assert_eq!(found, over, "shape {shape_no} {lo}..={hi} share {share}");
                    assert!(
                        priced.get() <= HALVINGS,
                        "shape {shape_no} {lo}..={hi} share {share}: priced {}",
                        priced.get()
                    );
                }
            }
        }
    }

    /// `power_at` calls per limited solve over the envelope: (mean, max).
    fn limited_solve_pricing() -> (f64, u64) {
        let (mut solves, mut calls, mut max) = (0u64, 0u64, 0u64);
        for_each_envelope_input(|inputs| {
            let before = POWER_AT_CALLS.with(Cell::get);
            let limited = PcuController::solve(inputs).power_limited;
            let n = POWER_AT_CALLS.with(Cell::get) - before;
            if limited {
                solves += 1;
                calls += n;
                max = max.max(n);
            }
        });
        (calls as f64 / solves as f64, max)
    }

    #[test]
    fn limited_solves_price_few_frequencies() {
        // Pinned at the whole-MHz threshold search: 13.46 and 26. The
        // literal 24-step bisection (the oracle above) prices 25
        // frequencies per bisection: 61.72 per limited solve over this
        // envelope on average, and up to 126.
        let (mean, max) = limited_solve_pricing();
        assert!(mean <= 13.5 && max <= 26, "mean {mean:.2}, max {max}");
    }
}
